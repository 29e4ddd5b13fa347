"""End-to-end observability: browsing metrics, export, determinism.

These tests drive the Fig. 5 cohort engine (and its per-handshake TLS
reference) with the registry enabled and check the three contracts the
metrics layer promises:

* merged counters are identical for serial and sharded runs;
* the export validates against the checked-in ``repro.obs/v1`` schema
  (both in-process and through the CLI's ``--metrics-out``);
* the numbers are *true*: the FP-retry rate tracks the configured filter
  eps, cache hit ratios are nonzero on warm paths, and the byte-savings
  counters reproduce what the Fig. 5 result objects report.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.experiments import fig5
from repro.obs.export import deterministic_counters, to_json_doc
from repro.obs.schema import validation_errors
from repro.runtime import artifacts
from repro.webmodel import cohortrng
from repro.webmodel.cohort import CohortEngine, base_suppressor, cohort_stream_keys
from repro.webmodel.cohort_reference import run_cohort_reference
from repro.webmodel.population import ICAPopulation, PopulationConfig

CONFIG = fig5.paper_config(
    num_users=4,
    handshakes_per_user=200,
    seed=3,
    block_users=1,
    population=PopulationConfig(seed=3),
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def population():
    return ICAPopulation(CONFIG.population)


def _run_arm(population, jobs):
    """One metered columnar-engine arm on a fresh registry; returns
    (cohort result, registry snapshot).

    The engine is built *before* the registry turns on: construction
    cost depends on process-global artifact-cache state (a warm
    ``filter_builds`` entry skips the preload's inserts), which is not
    part of the serial-vs-parallel determinism contract the run-phase
    metrics promise.
    """
    obs.disable()
    engine = CohortEngine(CONFIG, population=population)
    obs.enable()
    result = engine.run(jobs=jobs)
    return result, obs.snapshot()


def _run_reference_arm(population):
    """The same cohort through the per-handshake TLS reference, metered."""
    obs.disable()
    obs.enable()
    result = run_cohort_reference(CONFIG, population=population)
    return result, obs.snapshot()


@pytest.fixture(scope="module")
def arms(population):
    obs.disable()
    artifacts.clear()
    serial = _run_arm(population, jobs=1)
    parallel = _run_arm(population, jobs=2)
    reference = _run_reference_arm(population)
    obs.disable()
    return {"serial": serial, "parallel": parallel, "reference": reference}


def _unknown_ica_probes(config, population):
    """Filter lookups of ICAs outside the preload set, over every
    handshake of the cohort: the negative queries whose hit rate the
    configured fpp bounds."""
    known = set(base_suppressor(config, population).cache.fingerprints())
    columns = population.path_columns()
    unknown_per_path = columns.per_path_sum(
        np.array([fp not in known for fp in columns.fingerprints], dtype=np.int64)
    )
    keys = cohort_stream_keys(config.seed)
    ranks = cohortrng.zipf_ranks(
        cohortrng.uniforms(
            keys[cohortrng.RANK_STREAM],
            cohortrng.block_counters(
                0, config.num_users, config.handshakes_per_user
            ),
        ),
        config.zipf_exponent,
        config.max_rank,
    )
    ordinals = population.path_ordinals(ranks)
    probes = 0
    for rank_row, ordinal_row in zip(ranks.tolist(), ordinals.tolist()):
        seen = set()
        for rank, ordinal in zip(rank_row, ordinal_row):
            if rank not in seen:  # repeat destinations reuse the session
                seen.add(rank)
                probes += int(unknown_per_path[ordinal])
    return probes


class TestSerialParallelDeterminism:
    def test_results_identical(self, arms):
        serial_results, _ = arms["serial"]
        parallel_results, _ = arms["parallel"]
        assert serial_results == parallel_results

    def test_merged_deterministic_counters_identical(self, arms):
        serial = deterministic_counters(arms["serial"][1])
        parallel = deterministic_counters(arms["parallel"][1])
        assert serial == parallel
        assert serial["webmodel.cohort.handshakes{}"] > 0

    def test_histogram_counts_match_across_arms(self, arms):
        # Span histograms carry nondeterministic *timings* but the event
        # counts they accumulated must match exactly.
        counts = {}
        for arm in ("serial", "parallel"):
            _, snap = arms[arm]
            counts[arm] = {
                key: state[0] for key, state in snap["histograms"].items()
            }
        assert counts["serial"] == counts["parallel"]


class TestMetricsTellTheTruth:
    def test_export_is_schema_valid(self, arms):
        assert validation_errors(to_json_doc(arms["serial"][1])) == []

    def test_fp_retry_rate_tracks_configured_eps(self, arms, population):
        result, snap = arms["reference"]
        flat = deterministic_counters(snap)
        fp_retries = flat.get("tls.handshake.retries{cause=server-fp}", 0)
        probes = _unknown_ica_probes(CONFIG, population)
        assert probes > 0
        # Every observed FP retry is a session-level false positive.
        assert fp_retries == result.stats.false_positives
        # The observed rate stays within a generous binomial envelope of
        # the configured lookup fpp (small-sample slack of 5 events).
        assert fp_retries / probes <= CONFIG.fpp * 10 + 5 / probes

    def test_byte_savings_counters_match_results(self, arms):
        result, snap = arms["serial"]
        flat = deterministic_counters(snap)
        assert flat["webmodel.cohort.icas_encountered{}"] == int(
            result.path_icas.sum()
        )
        assert flat["webmodel.cohort.icas_sent_total{}"] == (
            result.stats.icas_sent_total
        )
        suppressed_first = flat["webmodel.cohort.icas_suppressed_first{}"]
        assert suppressed_first == int(
            (result.path_icas - result.sent_first_icas).sum()
        )
        # The paper's headline: most encountered ICAs get suppressed.
        assert suppressed_first / flat["webmodel.cohort.icas_encountered{}"] > 0.5

    def test_handshake_accounting_is_closed(self, arms):
        _, snap = arms["reference"]
        flat = deterministic_counters(snap)
        runs = flat["tls.handshake.runs{}"]
        attempts = flat["tls.handshake.attempts{}"]
        retries = sum(
            v for k, v in flat.items() if k.startswith("tls.handshake.retries{")
        )
        outcomes = sum(
            v for k, v in flat.items() if k.startswith("tls.handshake.outcomes{")
        )
        assert outcomes == runs
        assert attempts == runs + retries

    def test_fig5_gauges_match_result_rows(self, arms):
        result, _ = arms["serial"]
        obs.disable()
        reg = obs.enable()
        volume = fig5.data_volume(result)
        for row in volume.rows:
            labels = (("algorithm", row.algorithm),)
            assert reg.gauge("experiments.fig5.mb_saved", labels) == pytest.approx(
                row.mb_saved
            )
        assert reg.gauge("experiments.fig5.mean_reduction") == pytest.approx(
            volume.mean_reduction
        )

    def test_warm_artifact_caches_have_nonzero_hit_ratio(self, arms):
        # The reference arm ran four sessions over one population, so the
        # content-keyed caches must be warm by the end.
        stats = artifacts.stats()
        for cache in (
            "signature_bytes", "verified_chains", "tbs_pads", "der_fragments"
        ):
            hits = stats[cache]["hits"]
            total = hits + stats[cache]["misses"]
            assert total > 0
            assert hits / total > 0.2, f"{cache} hit ratio too low"


class TestCliMetricsOut:
    def test_json_export_schema_valid(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(
            ["fig5-left", "--users", "1", "--handshakes-per-user", "15",
             "--engine", "scalar", "--metrics-out", str(out)]
        ) == 0
        assert not obs.enabled()  # CLI restores the disabled default
        doc = json.loads(out.read_text())
        assert validation_errors(doc) == []
        names = {entry["name"] for entry in doc["counters"]}
        assert "tls.handshake.runs" in names
        assert "amq.ops" in names
        gauge_names = {entry["name"] for entry in doc["gauges"]}
        assert "runtime.artifacts.cache_hits" in gauge_names
        assert "[metrics: json export written to" in capsys.readouterr().err

    def test_prometheus_export_by_extension(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main(
            ["fig5-left", "--users", "1", "--handshakes-per-user", "15",
             "--engine", "scalar", "--metrics-out", str(out)]
        ) == 0
        text = out.read_text()
        assert "# TYPE tls_handshake_runs_total counter" in text
        assert "[metrics: prometheus export written to" in capsys.readouterr().err
