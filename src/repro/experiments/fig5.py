"""Figure 5 — IC-suppression impact estimation.

Three panels driven by the cohort browsing engine
(:func:`repro.webmodel.cohort.run_cohort`, or its per-handshake TLS
reference :func:`repro.webmodel.cohort_reference.run_cohort_reference`).  The paper's §5.3 setup — 10 runs x 200 domains,
cuckoo filter, 0.9 load factor, 0.1% FPP, the June '22 hot ICA set — is
a 10-user cohort whose per-user destination draws are calibrated to the
paper's ~1 950 unique destinations per session (:func:`paper_config`):

* **left** — ICA data exchanged with/without suppression, measured for
  the baseline PKI and extrapolated to Dilithium III/V and SPHINCS+-128f
  (paper: ~73% reduction; ~15 MB / ~45 MB saved);
* **center** — PQ-authentication latency over RSA-2048 as a function of
  RTT, with the line-of-best-fit latency model;
* **right** — TTFB distributions per scenario (FP doubles the TTFB),
  computed from the engine's per-handshake columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis.regression import LinearFit, linear_fit
from repro.analysis.tables import format_table
from repro.core.estimator import crypto_cpu_seconds
from repro.experiments.flight_probe import flight_sizes
from repro.netsim.metrics import Summary, summarize
from repro.netsim.tcp import TCPConfig, handshake_duration_s, time_to_first_byte_s
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.webmodel.cohort import CohortConfig, CohortResult, base_suppressor
from repro.webmodel.population import ICAPopulation

PAPER_REDUCTION = 0.73
#: One cohort user per browsing session of the paper (10 runs).
PAPER_USERS = 10
#: Destination draws per user, calibrated so the mean number of unique
#: destinations (handshakes) per user is the paper's ~1 950 for its
#: 200-domain sessions (1 962 at cohort and population seed 0, 1 938 at
#: seed 1).
PAPER_DRAWS = 4_300

#: The flight model's fixed inputs: the paper's key exchange, the Linux
#: default initial window, and OCSP + two SCTs stapled on every flight.
KEM_NAME = "ntru-hps-509"
INITCWND_SEGMENTS = 10
INCLUDE_STAPLES = True
#: ClientHello extension framing around the filter payload.
EXTENSION_FRAMING_BYTES = 4

_TCP = TCPConfig(initcwnd_segments=INITCWND_SEGMENTS)


# ---------------------------------------------------------------------------
# Shared simulation driver
# ---------------------------------------------------------------------------


def paper_config(**overrides) -> CohortConfig:
    """The paper's 10 x 200-domain browsing sessions as a cohort config;
    ``overrides`` replace any field (e.g. ``seed``, ``population``)."""
    fields = dict(num_users=PAPER_USERS, handshakes_per_user=PAPER_DRAWS)
    fields.update(overrides)
    return CohortConfig(**fields)


#: Verification-path batch size used to meter per-lookup cost: the
#: server queries a whole path per handshake via ``contains_batch``, and
#: synthetic chains carry up to a few ICAs (Table 2 mix).
_PROBE_PATH_LEN = 4


def measure_lookup_seconds(
    config: CohortConfig, population: Optional[ICAPopulation] = None
) -> float:
    """Per-item filter lookup cost as the server pays it: one
    ``contains_batch`` per verification path (not one ``contains`` per
    certificate), on the filter a cohort user starts from.  Wall-clock
    measured, so it is an input to :func:`ttfb_scenarios`, not part of
    the (deterministic) cohort result."""
    population = population or ICAPopulation(config.population)
    filt = base_suppressor(config, population).filter
    probes = [bytes([i % 256]) * 32 for i in range(2000)]
    start = time.perf_counter()
    for offset in range(0, len(probes), _PROBE_PATH_LEN):
        filt.contains_batch(probes[offset : offset + _PROBE_PATH_LEN])
    return (time.perf_counter() - start) / len(probes)


def _per_user_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator``, 0 where a user saw no ICAs."""
    safe = np.where(denominator > 0, denominator, 1)
    return np.where(denominator > 0, numerator / safe, 0.0)


def reduction_per_user(result: CohortResult) -> np.ndarray:
    """Each user's fractional reduction in exchanged ICA certificates
    (retries paid; algorithm-free, since every ICA cert has the same size
    within a deployment)."""
    cols = result.columns
    return _per_user_ratio(
        cols.icas_encountered - cols.icas_sent_total, cols.icas_encountered
    )


def known_rate_per_user(result: CohortResult) -> np.ndarray:
    """Each user's share of encountered ICAs suppressed on the first
    flight (the paper's 'common ICA certs' rate, 69-74 %)."""
    cols = result.columns
    return _per_user_ratio(
        cols.icas_encountered - cols.icas_sent_first, cols.icas_encountered
    )


# ---------------------------------------------------------------------------
# Left panel: ICA data volume
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataVolumeRow:
    algorithm: str
    mb_without: float
    mb_with: float

    @property
    def mb_saved(self) -> float:
        return self.mb_without - self.mb_with

    @property
    def reduction(self) -> float:
        return self.mb_saved / self.mb_without if self.mb_without else 0.0


@dataclass(frozen=True)
class DataVolumeResult:
    rows: List[DataVolumeRow]
    mean_reduction: float
    reduction_ci95: "Tuple[float, float]"
    mean_known_rate: float
    mean_false_positives: float
    mean_unique_destinations: float


def data_volume(
    result: CohortResult,
    algorithms: Sequence[str] = (
        "rsa-2048",
        "dilithium3",
        "dilithium5",
        "sphincs-128f",
    ),
) -> DataVolumeResult:
    """Mean ICA data per browsing session (= per cohort user), with a
    95 % CI of the per-user reduction."""
    from repro.analysis.stats import confidence_interval_95

    stats = result.stats
    n = stats.users
    rows = []
    for alg in algorithms:
        per_cert = get_signature_algorithm(alg).auth_bytes_per_certificate(
            DEFAULT_ATTRIBUTE_BYTES
        )
        without = per_cert * stats.icas_encountered / n / 1e6
        with_sup = per_cert * stats.icas_sent_total / n / 1e6
        rows.append(DataVolumeRow(alg, without, with_sup))
    reductions = reduction_per_user(result).tolist()
    ci = (
        confidence_interval_95(reductions)
        if n >= 2
        else (reductions[0], reductions[0])
    )
    volume = DataVolumeResult(
        rows=rows,
        mean_reduction=sum(reductions) / n,
        reduction_ci95=ci,
        mean_known_rate=float(np.mean(known_rate_per_user(result))),
        mean_false_positives=stats.false_positives / n,
        mean_unique_destinations=stats.handshakes / n,
    )
    reg = obs.registry()
    if reg is not None:
        for row in volume.rows:
            reg.set_gauge(
                "experiments.fig5.mb_saved",
                row.mb_saved,
                (("algorithm", row.algorithm),),
            )
        reg.set_gauge("experiments.fig5.mean_reduction", volume.mean_reduction)
        reg.set_gauge("experiments.fig5.mean_known_rate", volume.mean_known_rate)
        reg.set_gauge(
            "experiments.fig5.mean_false_positives", volume.mean_false_positives
        )
    return volume


def format_data_volume(result: DataVolumeResult) -> str:
    rows = [
        [
            r.algorithm,
            f"{r.mb_without:.2f}",
            f"{r.mb_with:.2f}",
            f"{r.mb_saved:.2f}",
            f"{100 * r.reduction:.1f}%",
        ]
        for r in result.rows
    ]
    table = format_table(
        ["algorithm", "MB w/o sup", "MB w/ sup", "MB saved", "reduction"],
        rows,
        title="Fig. 5-left — ICA data per browsing session (mean over sessions)",
    )
    footer = (
        f"\nmean reduction {100 * result.mean_reduction:.1f}% "
        f"[95% CI {100 * result.reduction_ci95[0]:.1f}-"
        f"{100 * result.reduction_ci95[1]:.1f}] "
        f"(paper ~{100 * PAPER_REDUCTION:.0f}%), known-ICA rate "
        f"{100 * result.mean_known_rate:.1f}% (paper 69-74%), "
        f"false positives/session {result.mean_false_positives:.1f} "
        f"(paper 2.3), unique destinations "
        f"{result.mean_unique_destinations:.0f} (paper ~1950)"
    )
    return table + footer


# ---------------------------------------------------------------------------
# Center panel: PQ latency over RSA-2048 vs RTT, with linear fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyModel:
    algorithm: str
    rtts_s: List[float]
    extra_latency_s: List[float]
    fit: LinearFit


def latency_models(
    algorithms: Sequence[str] = ("dilithium5", "sphincs-128f"),
    baseline: str = "rsa-2048",
    kem: str = KEM_NAME,
    num_icas: int = 2,
    rtts_s: Sequence[float] = (0.01, 0.02, 0.04, 0.08, 0.12, 0.2, 0.3),
    tcp: TCPConfig = TCPConfig(),
) -> List[LatencyModel]:
    """Extra handshake latency of each PQ algorithm over the baseline as
    a function of RTT, plus the paper's linear-regression model."""
    base_alg = get_signature_algorithm(baseline)
    base_cpu = crypto_cpu_seconds(base_alg, kem)
    ch_b, flight_b = flight_sizes(baseline, kem, num_icas, True)
    models = []
    for name in algorithms:
        alg = get_signature_algorithm(name)
        cpu = crypto_cpu_seconds(alg, kem)
        ch, flight = flight_sizes(name, kem, num_icas, True)
        extras = []
        for rtt in rtts_s:
            d_pq = handshake_duration_s(ch, flight, rtt, tcp, cpu)
            d_base = handshake_duration_s(ch_b, flight_b, rtt, tcp, base_cpu)
            extras.append(d_pq - d_base)
        models.append(
            LatencyModel(
                algorithm=name,
                rtts_s=list(rtts_s),
                extra_latency_s=extras,
                fit=linear_fit(list(rtts_s), extras),
            )
        )
    return models


def format_latency_models(models: Sequence[LatencyModel]) -> str:
    rtts = models[0].rtts_s
    rows = []
    for m in models:
        rows.append(
            [
                m.algorithm,
                *(f"{1000 * e:.0f}" for e in m.extra_latency_s),
                f"{m.fit.slope:.2f}",
                f"{1000 * m.fit.intercept:.1f}",
                f"{m.fit.r_squared:.3f}",
            ]
        )
    return format_table(
        ["algorithm"]
        + [f"rtt={1000 * r:.0f}ms" for r in rtts]
        + ["slope", "icept ms", "R^2"],
        rows,
        title="Fig. 5-center — extra latency over RSA-2048 (ms) and linear fit",
    )


# ---------------------------------------------------------------------------
# Right panel: TTFB distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTFBScenario:
    algorithm: str
    suppressed: bool
    summary: Summary


def ttfb_samples(
    result: CohortResult,
    algorithm_name: str,
    suppressed: bool,
    lookup_seconds: float,
) -> np.ndarray:
    """Per-handshake TTFB under the scenario, per the paper's method:
    flight-model TTFB (the ClientHello grows by the filter payload and
    its extension framing when suppression is on), the per-item filter
    lookup time added when suppression is on, and a false positive
    doubling the TTFB.  One entry per handshake, in the result's
    per-handshake column order."""
    cpu = crypto_cpu_seconds(get_signature_algorithm(algorithm_name), KEM_NAME)
    n_sent = result.sent_first_icas if suppressed else result.path_icas
    samples = np.empty(len(n_sent), dtype=np.float64)
    # Flight sizes depend only on the number of ICAs sent: evaluate the
    # flight model once per distinct count, vectorized over the RTTs.
    for n_icas in np.unique(n_sent).tolist():
        ch, flight = flight_sizes(algorithm_name, KEM_NAME, n_icas, INCLUDE_STAPLES)
        if suppressed:
            ch += result.stats.filter_payload_bytes + EXTENSION_FRAMING_BYTES
        rows = n_sent == n_icas
        samples[rows] = time_to_first_byte_s(
            ch, flight, result.rtt_s[rows], _TCP, cpu
        )
    if suppressed:
        samples += lookup_seconds
        samples[result.false_positive] *= 2
    return samples


def ttfb_scenarios(
    result: CohortResult,
    lookup_seconds: float,
    algorithms: Sequence[str] = ("rsa-2048", "dilithium5", "sphincs-128f"),
) -> List[TTFBScenario]:
    """TTFB summaries per (algorithm, suppressed) scenario over every
    handshake of the cohort; ``lookup_seconds`` comes from
    :func:`measure_lookup_seconds`."""
    scenarios = []
    for alg in algorithms:
        for suppressed in (False, True):
            samples = ttfb_samples(result, alg, suppressed, lookup_seconds)
            scenarios.append(
                TTFBScenario(alg, suppressed, summarize(samples.tolist()))
            )
    return scenarios


def format_ttfb(scenarios: Sequence[TTFBScenario]) -> str:
    rows = []
    for s in scenarios:
        rows.append(
            [
                s.algorithm,
                "suppressed" if s.suppressed else "full",
                f"{1000 * s.summary.median:.0f}",
                f"{1000 * s.summary.mean:.0f}",
                f"{1000 * s.summary.p90:.0f}",
                f"{1000 * s.summary.p99:.0f}",
            ]
        )
    return format_table(
        ["algorithm", "scenario", "median ms", "mean ms", "p90 ms", "p99 ms"],
        rows,
        title="Fig. 5-right — TTFB per scenario (all sessions pooled)",
    )
