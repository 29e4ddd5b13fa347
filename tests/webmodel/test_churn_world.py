"""The PKI-lifecycle churn world and what it does to client state.

:class:`~repro.webmodel.churn.ChurnWorld` is client-free; these tests
attach the real client-side objects — an :class:`~repro.core.cache.ICACache`
with a :class:`~repro.core.manager.FilterManager` on top — and check that
every lifecycle event class fires, that cross-signs really are distinct
certificates for one subject, that revocations and expiries reach the
cache, and that the managed filter tracks the cache through all of it.
The end-to-end properties (determinism under huge seeds, obs counters
reconciling with the metric series) run over the cohort engine.
"""

import pytest

from repro import obs
from repro.core.cache import ICACache
from repro.core.filter_config import plan_filter
from repro.core.manager import FilterManager
from repro.errors import SimulationError
from repro.webmodel.churn import ChurnConfig, ChurnWorld
from repro.webmodel.churn_columnar import ChurnCohortConfig, run_churn_cohort

#: Small but busy: short ICA validity pulls expiry sweeps inside the
#: 12-step window, so every lifecycle event class fires.
_CFG = ChurnConfig(steps=12, seed=7, ica_validity_steps=8)


def _cohort(world: ChurnConfig) -> ChurnCohortConfig:
    return ChurnCohortConfig(world=world, num_clients=6, handshakes_per_client=2)


@pytest.fixture(scope="module")
def lifecycle():
    """Drive a world and one client's cache + filter manager through
    every step: expiry sweep, CRL application, periodic preload refresh,
    then learning every unrevoked ICA the sites serve. Records what each
    step did and the client state right after it."""
    world = ChurnWorld(_CFG)
    cache = ICACache()
    cache.add_many(world.initial_certificates())
    plan = plan_filter(
        num_icas=len(cache),
        filter_kind=_CFG.filter_kind,
        fpp=_CFG.fpp,
        load_factor=_CFG.load_factor,
        budget_bytes=None,
        seed=_CFG.seed,
        headroom=2.0,
    )
    manager = FilterManager(cache, plan)
    steps = []
    for step in range(_CFG.steps):
        world.advance(step)
        at_time = step * _CFG.step_seconds
        swept = cache.sweep_expired(at_time)
        evicted = cache.apply_revocations(world.crl)
        if step and step % _CFG.preload_refresh_every == 0:
            live = world.live_certificates(step)
            cache.add_many([c for c in live if c not in cache])
        kept = cache.certificates()
        for site in world.sites:
            cache.add_many(
                c
                for c in site.credential.chain.intermediates
                if not world.crl.is_revoked(c) and c not in cache
            )
        steps.append(
            {
                "swept": swept,
                "evicted": evicted,
                "revoked_kept": sum(world.crl.is_revoked(c) for c in kept),
                "expired_kept": sum(not c.valid_at(at_time) for c in kept),
                "filter_len": len(manager.filter),
                "cache_len": len(cache),
                "consistent": manager.consistent_with_cache(),
            }
        )
    return world, steps


class TestLifecycleEvents:
    def test_every_event_class_fires(self):
        result = run_churn_cohort(_cohort(_CFG))
        kinds = {kind for _, kind, _ in result.events}
        assert {
            "issue",
            "cross-sign",
            "revoke",
            "rotate",
            "preload-refresh",
        } <= kinds

    def test_cross_signs_share_subject_not_fingerprint(self, lifecycle):
        world, _ = lifecycle
        multi = [r for r in world.records if len(r.variants) > 1]
        assert multi
        for record in multi:
            certs = [cert for cert, _ in record.variants]
            assert len({c.subject for c in certs}) == 1
            assert len({c.fingerprint() for c in certs}) == len(certs)


class TestClientState:
    def test_revocations_and_expiry_sweeps_reach_the_cache(self, lifecycle):
        _, steps = lifecycle
        assert sum(s["evicted"] for s in steps) > 0
        assert sum(s["swept"] for s in steps) > 0
        for s in steps:
            assert s["revoked_kept"] == 0
            assert s["expired_kept"] == 0

    def test_filter_tracks_cache_at_every_step(self, lifecycle):
        _, steps = lifecycle
        for s in steps:
            assert s["consistent"]
            assert s["filter_len"] == s["cache_len"]


class TestDeterminism:
    def test_huge_derived_seed_is_repeatable(self):
        """Regression: with a 63-bit seed the memoized filter builds used
        to rehydrate with a truncated hash seed, so the first run in a
        process disagreed with every later one."""
        cfg = _cohort(ChurnConfig(steps=4, seed=2343948629979923722))
        first = run_churn_cohort(cfg)
        second = run_churn_cohort(cfg)
        assert first.steps == second.steps
        assert first.suppression_rate > 0.5


class TestValidationAndObs:
    @pytest.mark.parametrize(
        "bad", [{"num_roots": 0}, {"initial_icas": 1}, {"steps": -1}]
    )
    def test_bad_world_configs_rejected(self, bad):
        with pytest.raises(SimulationError):
            ChurnWorld(ChurnConfig(**bad))

    def test_obs_counters_reconcile_with_step_metrics(self):
        with obs.scoped() as reg:
            result = run_churn_cohort(_cohort(ChurnConfig(steps=6, seed=7)))
        field_of = {
            "icas_issued": "icas_issued",
            "cross_signs": "icas_cross_signed",
            "icas_revoked": "icas_revoked",
            "icas_expired": "icas_expired_swept",
            "preload_added": "preload_added",
            "payload_refreshes": "payload_refreshes",
            "site_rotations": "site_rotations",
            "handshakes": "handshakes",
            "stale_retries": "fp_retries",
            "fallbacks": "fallbacks",
            "failures": "failures",
            "icas_encountered": "icas_encountered",
            "icas_suppressed": "icas_suppressed",
            "distribution_bytes": "distribution_bytes",
        }
        assert reg.counter("webmodel.churn.steps") == len(result.steps) == 6
        for counter, field in field_of.items():
            assert reg.counter(f"webmodel.churn.{counter}") == sum(
                getattr(s, field) for s in result.steps
            ), counter
        (key,) = [
            k
            for k in reg.snapshot()["histograms"]
            if k[0] == "webmodel.churn.run.seconds"
        ]
        assert dict(key[1])["filter"] == "cuckoo"
