"""Determinism and caching invariants of the browsing-session engines.

The contracts this file pins down:

* sharding a cohort's user blocks across worker processes produces an
  *equal* ``CohortResult`` to the serial run, for multiple seeds and
  filter structures;
* artifact-cache hits never change handshake byte accounting — a warm
  handshake of the scalar reference reports the same
  ``client_hello_bytes`` / ``server_flight_bytes`` / ``ica_bytes_sent``
  as a cold or cache-disabled one, and a whole reference run is
  unchanged with every artifact cache bypassed;
* a warm repeat of a reference run performs zero redundant DER encodes.
"""

from dataclasses import replace

import pytest

from tests._fixtures import shared_population

from repro.core.suppression import ServerSuppressor
from repro.errors import ConfigurationError
from repro.experiments import fig5
from repro.runtime import artifacts
from repro.tls.client import ClientConfig
from repro.tls.server import ServerConfig
from repro.tls.session import run_handshake
from repro.webmodel.cohort import base_suppressor, run_cohort
from repro.webmodel.cohort_reference import run_cohort_reference


@pytest.fixture(scope="module")
def population():
    return shared_population()


def _small_config(population, seed, filter_kind="cuckoo", users=2, draws=12):
    return fig5.paper_config(
        num_users=users,
        handshakes_per_user=draws,
        filter_kind=filter_kind,
        seed=seed,
        block_users=1,
        population=population.config,
    )


# ---------------------------------------------------------------------------
# Serial/parallel equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("filter_kind", ["cuckoo", "bloom"])
def test_run_many_parallel_matches_serial(population, seed, filter_kind):
    config = _small_config(population, seed, filter_kind, users=4, draws=60)
    serial = run_cohort(config, jobs=1, population=population)
    parallel = run_cohort(config, jobs=2, population=population)
    assert serial.stats.users == parallel.stats.users == 4
    assert serial == parallel


def test_run_many_zero_runs(population):
    """An empty cohort is refused by its config, before any worker pool
    could start."""
    with pytest.raises(ConfigurationError):
        replace(_small_config(population, 5), num_users=0)


def test_runs_are_distinct_per_index(population):
    result = run_cohort(_small_config(population, 5), population=population)
    first = int(result.columns.handshakes[0])
    # Different users, different sessions.
    assert result.rtt_s[:first].tolist() != result.rtt_s[first:].tolist()


def test_same_seed_same_results_across_simulators(population):
    config = _small_config(population, 7)
    r1 = run_cohort_reference(config, population=population)
    assert run_cohort_reference(config, population=population) == r1
    assert run_cohort(config, population=population) == r1


# ---------------------------------------------------------------------------
# Cache hits never change byte accounting
# ---------------------------------------------------------------------------


def _attempt_bytes(population, config, rank):
    """One handshake to ``rank`` built the way the scalar reference
    builds it; returns the first attempt's byte counts."""
    credential = population.credential_for_rank(rank)
    suppressor = base_suppressor(config, population)
    server_config = ServerConfig(
        credential=credential,
        suppression_handler=ServerSuppressor(max_cached_filters=8),
        seed=7,
    )
    client_config = ClientConfig(
        trust_store=population.hierarchy.trust_store(),
        hostname=credential.chain.leaf.subject,
        at_time=config.at_time,
        ica_filter_payload=suppressor.extension_payload(),
        issuer_lookup=suppressor.cache.lookup_issuer,
        seed=9,
    )
    trace = run_handshake(client_config, server_config)
    assert trace.succeeded
    first = trace.attempts[0]
    return (
        first.client_hello_bytes,
        first.server_flight_bytes,
        first.ica_bytes_sent,
    )


def test_cache_hits_do_not_change_handshake_bytes(population):
    config = _small_config(population, 9)
    artifacts.clear()
    cold = _attempt_bytes(population, config, rank=1)
    warm = _attempt_bytes(population, config, rank=1)  # now cache-served
    with artifacts.disabled():
        bypassed = _attempt_bytes(population, config, rank=1)
    assert cold == warm == bypassed


def test_disabled_caches_reproduce_session_result(population):
    config = _small_config(population, 9)
    enabled_result = run_cohort_reference(config, population=population)
    with artifacts.disabled():
        # A fresh population too, so credentials are issued uncached.
        disabled_result = run_cohort_reference(config)
    assert disabled_result == enabled_result


# ---------------------------------------------------------------------------
# Warm runs perform zero redundant DER encodes
# ---------------------------------------------------------------------------


def test_warm_session_repeat_encodes_no_der(population):
    config = _small_config(population, 13)
    first = run_cohort_reference(config, population=population)
    before = artifacts.stats()["der_encode"]["misses"]
    second = run_cohort_reference(config, population=population)
    after = artifacts.stats()["der_encode"]["misses"]
    assert second == first
    assert after == before, f"warm repeat performed {after - before} DER encodes"
