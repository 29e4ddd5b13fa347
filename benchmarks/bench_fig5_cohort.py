#!/usr/bin/env python
"""Throughput benchmark for the cohort engine (Fig. 5 at scale).

Three arms, emitting ``BENCH_fig5_cohort.json``:

* ``equivalence`` — a small high-fpp cohort on the reduced shared PKI
  (the same ``tests/_fixtures.py`` population the differential suite
  uses), run through **both** engines; the results must be equal, with
  real false-positive retries so the divergent replay path is covered;
* ``scalar``      — a small cohort through the scalar reference (real
  per-handshake TLS machines) on the default population, to price one
  scalar handshake.  It runs three ways, each on a fresh population
  with cleared artifact caches: ``baseline`` with every
  artifact cache bypassed, ``cached`` (the timing arm) and ``metered``
  with the observability registry enabled; all results must be equal.
  Baseline and cached run as ``SCALAR_REPEATS`` back-to-back pairs and
  report medians;
* ``columnar``    — a large cohort (100K users, 1M under ``REPRO_FULL=1``;
  ~10 destination draws each) through the columnar engine, serial and
  ``--jobs N``, which must agree exactly.

The headline assertion is the ROADMAP's scale claim: the columnar
engine's per-handshake cost must undercut the scalar machine's by at
least ``MIN_COHORT_SPEEDUP`` (timers covering engine construction + run
on a prebuilt population).  The scalar reference is the remaining
per-handshake TLS path, so it also carries the runtime gates of the
artifact caches (``cached`` must beat ``baseline`` by
``MIN_CACHED_SPEEDUP``) and of the instrumentation: the metered arm
counts the recording events the workload fires, multiplies them by the
measured cost of one disabled ``obs.inc`` call (a global read plus a
``None`` check) and asserts that total stays under
``MAX_DISABLED_OVERHEAD`` of the cached arm's wall time — the "metrics
off means near-zero cost" contract.

Usage::

    python benchmarks/bench_fig5_cohort.py             # reduced scale
    REPRO_FULL=1 python benchmarks/bench_fig5_cohort.py --jobs 4

Exit status is non-zero when an assertion fails, so CI can run it as-is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests._fixtures import (  # noqa: E402
    POPULATION_SEED,
    full_scale,
    reduced_population_config,
    shared_population,
)

from repro import obs  # noqa: E402
from repro.runtime import artifacts  # noqa: E402
from repro.webmodel.cohort import CohortConfig, run_cohort  # noqa: E402
from repro.webmodel.cohort_reference import run_cohort_reference  # noqa: E402
from repro.webmodel.population import ICAPopulation, PopulationConfig  # noqa: E402

#: Columnar per-handshake cost must undercut the scalar machine's by at
#: least this factor (measured ~1000x on a dev box; the floor leaves an
#: order of magnitude of margin for shared-runner noise).
MIN_COHORT_SPEEDUP = 50.0

#: The large arm must actually be large, or the per-handshake figure is
#: dominated by constant engine setup and means nothing.
MIN_COLUMNAR_USERS = 100_000

#: The cached scalar arm must beat the uncached baseline by at least this
#: factor on any machine (the caches save filter rebuilds, certificate
#: re-parses and chain re-verifications; the floor leaves margin for
#: shared-runner timing noise).
MIN_CACHED_SPEEDUP = 1.2

#: Ceiling on the estimated cost of the instrumentation when the
#: registry is disabled, as a fraction of the cached scalar arm's time.
MAX_DISABLED_OVERHEAD = 0.02

#: The uncached and cached scalar arms run as this many back-to-back
#: pairs; the cached speedup is the median of the per-pair ratios.  One
#: arm lasts well under a second, so a single run is at the mercy of
#: shared-runner speed drift, which adjacent runs share.
SCALAR_REPEATS = 5


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _scalar_arm(
    config: CohortConfig, disable_caches: bool = False, metered: bool = False
) -> Tuple[float, Any, int]:
    """Time the scalar reference on a fresh population with cleared
    artifact caches; returns (wall seconds, result, instrumentation
    event count — 0 unless ``metered``).

    The metered arm records on one registry (no scoped capture), so
    ``registry.events`` counts every recording call the workload fires —
    the event total the disabled-overhead estimate prices.
    """
    artifacts.clear()
    population = ICAPopulation(config.population)
    population.hot_ica_certificates(config.hot_top_n)
    obs.disable()
    reg = obs.enable() if metered else None
    try:
        if disable_caches:
            with artifacts.disabled():
                seconds, result = _time(
                    lambda: run_cohort_reference(config, population=population)
                )
        else:
            seconds, result = _time(
                lambda: run_cohort_reference(config, population=population)
            )
        events = reg.events if reg is not None else 0
    finally:
        obs.disable()
    return seconds, result, events


def _disabled_inc_seconds(calls: int = 200_000) -> float:
    """Measured per-call cost of ``obs.inc`` with the registry disabled
    (what every instrumentation site pays when metrics are off)."""
    obs.disable()
    start = time.perf_counter()
    for _ in range(calls):
        obs.inc("bench.overhead.probe")
    return (time.perf_counter() - start) / calls


def _equivalence_arm() -> Dict[str, Any]:
    population = shared_population(reduced_population_config())
    config = CohortConfig(
        num_users=40,
        handshakes_per_user=6,
        hot_top_n=40,
        fpp=0.25,
        payload_refresh_every=2,
        seed=1,
        population=reduced_population_config(),
    )
    columnar = run_cohort(config, jobs=1, population=population)
    scalar = run_cohort_reference(config, population=population)
    equal = columnar == scalar
    print(
        f"  equivalence (40 users, fpp=0.25): equal={equal}, "
        f"retries={columnar.stats.retries}, "
        f"divergent={columnar.stats.divergent_users}"
    )
    return {
        "equal": equal,
        "retries": columnar.stats.retries,
        "divergent_users": columnar.stats.divergent_users,
    }


def run_benchmark(
    users: int, scalar_users: int, jobs: int, output: Optional[str]
) -> Dict[str, Any]:
    cpus = os.cpu_count() or 1
    print(
        f"fig5 cohort engine: {users} users columnar vs "
        f"{scalar_users} users scalar, jobs={jobs}, cpus={cpus}"
    )

    equivalence = _equivalence_arm()

    # The timers cover engine construction + run, not the population
    # build (each scalar arm builds its own population first).
    population_config = PopulationConfig(seed=POPULATION_SEED)
    scalar_config = CohortConfig(
        num_users=scalar_users, seed=1, population=population_config
    )
    pairs = [
        (_scalar_arm(scalar_config, disable_caches=True), _scalar_arm(scalar_config))
        for _ in range(SCALAR_REPEATS)
    ]
    cached_speedup = statistics.median(
        base[0] / cached[0] for base, cached in pairs
    )
    t_base = statistics.median(base[0] for base, _ in pairs)
    t_scalar = statistics.median(cached[0] for _, cached in pairs)
    r_scalar = pairs[0][1][1]
    repeats_equal = all(run[1] == r_scalar for pair in pairs for run in pair)
    print(f"  scalar   ({scalar_users} users, caches off): {t_base:7.2f}s"
          f"  (median of {SCALAR_REPEATS} pairs)")
    scalar_hs = r_scalar.stats.handshakes + r_scalar.stats.retries
    scalar_us = t_scalar / scalar_hs * 1e6
    print(
        f"  scalar   ({scalar_users} users, caches on):  {t_scalar:7.2f}s"
        f"  -> {cached_speedup:.2f}x  {scalar_hs} handshakes"
        f"  {scalar_us:9.1f}us/handshake"
    )
    t_metered, r_metered, events = _scalar_arm(scalar_config, metered=True)
    print(f"  scalar   ({scalar_users} users, metrics on): {t_metered:7.2f}s"
          f"  ({events} events)")
    inc_s = _disabled_inc_seconds()
    disabled_overhead = events * inc_s / t_scalar
    print(f"  disabled instrumentation: {inc_s * 1e9:.0f}ns/event x "
          f"{events} events = {disabled_overhead:.3%} of cached scalar arm")

    population = shared_population(population_config)

    columnar_config = CohortConfig(
        num_users=users, seed=1, population=population.config
    )
    t_col, r_col = _time(
        lambda: run_cohort(columnar_config, jobs=1, population=population)
    )
    col_hs = r_col.stats.handshakes + r_col.stats.retries
    col_us = t_col / col_hs * 1e6
    print(
        f"  columnar ({users} users, jobs=1): {t_col:7.2f}s"
        f"  {col_hs} handshakes  {col_us:9.3f}us/handshake"
    )
    t_par, r_par = _time(
        lambda: run_cohort(columnar_config, jobs=jobs, population=population)
    )
    print(
        f"  columnar ({users} users, jobs={jobs}): {t_par:7.2f}s"
        f"  -> {t_col / t_par:.2f}x vs serial"
    )

    speedup = scalar_us / col_us
    print(f"  per-handshake speedup: {speedup:.0f}x (floor {MIN_COHORT_SPEEDUP:.0f}x)")

    report = {
        "benchmark": "fig5_cohort",
        "scale": {
            "columnar_users": users,
            "scalar_users": scalar_users,
            "handshakes_per_user": columnar_config.handshakes_per_user,
        },
        "cpu_count": cpus,
        "jobs": jobs,
        "seconds": {
            "scalar_reference_uncached": round(t_base, 3),
            "scalar_reference": round(t_scalar, 3),
            "scalar_reference_metered": round(t_metered, 3),
            "columnar_jobs1": round(t_col, 3),
            f"columnar_jobs{jobs}": round(t_par, 3),
        },
        "handshakes": {
            "scalar_reference": scalar_hs,
            "columnar": col_hs,
        },
        "per_handshake_us": {
            "scalar_reference": round(scalar_us, 2),
            "columnar_jobs1": round(col_us, 4),
        },
        "per_handshake_speedup": round(speedup, 1),
        "scalar_cached_speedup_vs_uncached": round(cached_speedup, 3),
        "observability": {
            "instrumentation_events": events,
            "disabled_inc_ns_per_call": round(inc_s * 1e9, 1),
            "estimated_disabled_overhead_fraction": round(disabled_overhead, 6),
        },
        "cohort_stats": {
            "known_ica_rate": round(r_col.stats.known_ica_rate, 4),
            "ica_reduction_ratio": round(r_col.stats.ica_reduction_ratio, 4),
            "false_positive_rate": round(r_col.stats.false_positive_rate, 6),
            "session_reuse": r_col.stats.session_reuse,
        },
        "equivalence_smoke": equivalence,
        "results_equal": {
            "parallel_vs_serial": r_par == r_col,
            "scalar_cached_vs_uncached": repeats_equal,
            "scalar_metered_vs_cached": r_metered == r_scalar,
        },
        "notes": (
            "per-handshake figures price engine construction + run, not "
            "the population build; the scalar arms run real per-handshake "
            "TLS machines on a fresh population with cleared artifact "
            "caches (times: medians of back-to-back uncached/cached "
            "pairs), the columnar arm the vectorized cohort engine"
        ),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {output}")

    assert equivalence["equal"], "columnar engine diverged from scalar reference"
    assert equivalence["retries"] > 0, "equivalence smoke exercised no retries"
    assert r_par == r_col, "parallel cohort diverged from serial"
    assert repeats_equal, "artifact caching changed the scalar result"
    assert r_metered == r_scalar, "enabling metrics changed the scalar result"
    assert events > 0, "metered arm recorded no instrumentation events"
    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation estimated at {disabled_overhead:.3%} "
        f"of cached scalar runtime > {MAX_DISABLED_OVERHEAD:.0%} ceiling"
    )
    assert cached_speedup >= MIN_CACHED_SPEEDUP, (
        f"cached scalar speedup {cached_speedup:.2f}x "
        f"< {MIN_CACHED_SPEEDUP}x floor"
    )
    assert users >= MIN_COLUMNAR_USERS, (
        f"columnar arm ran only {users} users < {MIN_COLUMNAR_USERS} floor "
        f"(per-handshake figure would be setup-dominated)"
    )
    assert speedup >= MIN_COHORT_SPEEDUP, (
        f"per-handshake speedup {speedup:.1f}x < {MIN_COHORT_SPEEDUP}x floor"
    )
    print("  all assertions passed")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    full = full_scale()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--users", type=int, default=1_000_000 if full else 100_000,
        help="cohort size for the columnar arm",
    )
    parser.add_argument(
        "--scalar-users", type=int, default=60 if full else 40,
        help="cohort size for the scalar-reference timing arm",
    )
    parser.add_argument(
        "--jobs", type=int, default=4 if full else 2,
        help="worker processes for the parallel columnar run",
    )
    parser.add_argument(
        "--output", default="BENCH_fig5_cohort.json",
        help="report path ('' to skip writing)",
    )
    args = parser.parse_args(argv)
    run_benchmark(args.users, args.scalar_users, args.jobs, args.output or None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
