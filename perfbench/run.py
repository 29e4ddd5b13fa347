"""Benchmark entry point: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed run;
``--trace 1`` also runs a traced pass of fixed size and prints the
per-layer ledger instead.  The last line of standard output is the result
object; the line before it carries provenance and the workload-specific
figures.  Exit status is non-zero, with no result line, if the package
source is missing or the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated from cold caches at least ``SETUP_MIN_REPEATS``
#: times and until ``SETUP_MIN_SECONDS`` have passed (at most
#: ``SETUP_MAX_REPEATS``), then as many times again after the timed pass;
#: ``setup_s`` is the median of both batches.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 1.5
#: Host-speed probes (see :mod:`hostspeed`) taken before and after each
#: set-up.
SETUP_PROBES = 4
#: The timed pass probes the host once per ``PROBE_INTERVAL_S`` of busy
#: time, between units (about 4% of the run goes to probes), and at
#: least ``MIN_PROBES`` times; its times are scaled by the median probe.
#: One factor per run corrects the host's slow and fast periods between
#: runs and leaves the shape of the latency distribution alone.
PROBE_INTERVAL_S = 0.025
MIN_PROBES = 8


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of one metric list of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``), which names what a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: package source not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _p99(samples: List[float]) -> float:
    """Nearest-rank p99, or, with fewer than 1 000 samples, the highest
    order statistic that still has ten samples beyond it (never below the
    median), so one slow unit cannot set the figure alone."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-n * 99 // 100)
    if n - rank < 10:
        rank = max(n - 10, -(-n // 2), 1)
    return ordered[rank - 1]


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "jobs": 1,
        "workload": workload,
        "seed": seed,
    }


class Measurement:
    """The units of one pass and the host-speed probes taken among them."""

    def __init__(self, min_units: int) -> None:
        self.min_units = min_units
        self.units: List[Any] = []
        #: Host-speed probes, in seconds (see :mod:`hostspeed`).
        self.probes: List[float] = []
        #: Peak RSS (MiB) once the first ``min_units`` units are done.
        self.fixed_peak_rss_mib = 0.0

    @property
    def scale(self) -> float:
        """Factor from this pass's CPU time to reference time."""
        return hostspeed.scale(self.probes)

    @property
    def handshakes(self) -> int:
        return sum(u.handshakes for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units)

    @property
    def busy_s(self) -> float:
        """Unscaled CPU seconds."""
        return sum(u.busy_s for u in self.units)

    @property
    def fixed_tally(self) -> Counter:
        """Tallies of the first ``min_units`` units only."""
        tally: Counter = Counter()
        for unit in self.units[: self.min_units]:
            tally.update(unit.tally)
        return tally


def set_up(
    workload_cls: type, seed: int, tiny: bool, repeats: int = 0
) -> Tuple[Any, List[float], List[float]]:
    """Set the workload up ``repeats`` times (0: until the minimum count
    and time are reached), each from cold artifact caches; returns the
    last instance, every set-up's CPU time and the same in reference
    time."""
    from repro.runtime import artifacts

    def more(times: List[float]) -> bool:
        if repeats:
            return len(times) < repeats
        return len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
        )

    times: List[float] = []
    scaled: List[float] = []
    workload = None
    while more(times):
        workload = None  # free the previous set-up before the next
        artifacts.clear()
        probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
        start = thread_time()
        workload = workload_cls(seed, tiny=tiny)
        workload.setup()
        times.append(thread_time() - start)
        probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
        scaled.append(times[-1] * hostspeed.scale(probes))
    return workload, times, scaled


def timed_pass(workload: Any, seconds: float) -> Measurement:
    """Run units until ``seconds`` of wall time have passed and at least
    ``min_units`` units are done.  (Units report CPU time; see
    :mod:`workloads`.)"""
    m = Measurement(workload.min_units)
    start = perf_counter()
    index = 0
    unprobed = 0.0  # busy seconds since the last probe
    while index < workload.min_units or perf_counter() - start < seconds:
        unit = workload.run_unit(index)
        m.units.append(unit)
        unprobed += unit.busy_s
        index += 1
        while unprobed >= PROBE_INTERVAL_S:
            m.probes.append(hostspeed.probe())
            unprobed -= PROBE_INTERVAL_S
        if index == workload.min_units:
            # Caches grow with the number of units run; sampling the
            # high-water mark after a fixed amount of work keeps a faster
            # commit from reading as a memory regression.
            m.fixed_peak_rss_mib = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    while len(m.probes) < MIN_PROBES:
        m.probes.append(hostspeed.probe())
    return m


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    fixed = m.fixed_tally
    scale = m.scale
    samples = [x for u in m.units for x in u.samples_us]
    return {
        "setup_s": setup_s,
        "handshakes_per_s": m.handshakes / (m.busy_s * scale),
        "handshake_p50_us": statistics.median(samples) * scale,
        "handshake_p99_us": _p99(samples) * scale,
        "peak_rss_mib": m.fixed_peak_rss_mib,
        "suppressed_ica_share": 1.0 - fixed["icas_sent"] / fixed["icas_on_paths"],
    }


def workload_figures(m: Measurement, setup_cpu_s: float) -> Dict[str, float]:
    """Figures besides the end-to-end metrics: unscaled CPU-time
    figures, and what only some workloads have."""
    fixed = m.fixed_tally
    samples = [x for u in m.units for x in u.samples_us]
    out: Dict[str, float] = {
        "units": len(m.units),
        "handshakes": m.handshakes,
        "retries": fixed["retries"],
        "host_probe_median_s": statistics.median(m.probes),
        "cpu_setup_s": setup_cpu_s,
        "cpu_handshakes_per_s": m.handshakes / m.busy_s,
        "cpu_handshake_p50_us": statistics.median(samples),
        "cpu_handshake_p99_us": _p99(samples),
    }
    if fixed["wire_handshakes"]:
        out["wire_bytes_per_handshake"] = fixed["wire_bytes"] / fixed["wire_handshakes"]
    if fixed["updates"]:
        out["update_bytes"] = fixed["update_bytes"] / fixed["updates"]
        updates = sum(u.tally["updates"] for u in m.units)
        out["updates_per_s"] = updates / (m.busy_s * m.scale)
    return out


def traced_pass(
    name: str, seed: int, tiny: bool, untraced: Measurement, setup_s: float
) -> Dict[str, float]:
    """Set up and run a fixed number of units with every layer wrapped
    and ``repro.obs`` on; returns the per-layer ledger."""
    import layers
    from repro import obs
    from repro.runtime import artifacts
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    layers.install(tracer)
    registry = obs.enable()
    registry.clear()
    artifacts.clear()
    try:
        start = thread_time()
        workload = WORKLOADS[name](seed, tiny=tiny)
        workload.setup()
        traced_setup = thread_time() - start
        m = Measurement(workload.traced_units)
        for index in range(workload.traced_units):
            m.units.append(workload.run_unit(index))
        traced_s = thread_time() - start
        cache_stats = artifacts.stats()
    finally:
        tracer.restore()
        obs.disable()
    # The traced pass repeats the untraced pass's first units on a fresh
    # set-up, so the difference is the tracing overhead.
    expected = setup_s + sum(u.busy_s for u in untraced.units[: len(m.units)])
    tally = m.fixed_tally
    simulated = tally["wire_handshakes"] or m.handshakes
    result = layers.ledger(
        tracer,
        registry,
        cache_stats,
        tally,
        name,
        traced_s,
        simulated,
        traced_setup + m.busy_s - expected,
    )
    result["traced.attempted"] = m.handshakes + m.failed
    result["traced.failed"] = m.failed
    return result


def run(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (result object, report)."""
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    workload, setup_times, setup_scaled = set_up(workload_cls, seed, tiny)
    m = timed_pass(workload, seconds)
    checked, mismatches = workload.check()
    workload = None
    _, later, later_scaled = set_up(workload_cls, seed, tiny, repeats=len(setup_times))
    setup_cpu_s = statistics.median(setup_times + later)
    e2e = end_to_end(m, statistics.median(setup_scaled + later_scaled))
    report: Dict[str, Any] = {
        "provenance": provenance(name, seed),
        "workload_figures": workload_figures(m, setup_cpu_s),
        "checked_outputs": checked,
        "check_mismatches": mismatches,
    }
    attempted = m.handshakes + m.failed + checked
    failed = m.failed + mismatches
    if trace:
        per_layer = traced_pass(name, seed, tiny, m, setup_cpu_s)
        attempted += int(per_layer.pop("traced.attempted"))
        failed += int(per_layer.pop("traced.failed"))
        report["end_to_end"] = e2e
        values, units = per_layer, metric_units("per_layer")
    else:
        values, units = e2e, metric_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes (for the benchmark's tests)"
    )
    args = parser.parse_args(argv)
    _require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
