"""False positives at scale.

At the paper's 0.1% FPP, false positives are rare enough that a test-sized
session may see none. This test raises the FPP to 5% so the
false-positive machinery — wrongful suppression, failed path completion,
retry without the extension, the client learning the chain — is
exercised in one browsing session (a one-user cohort), and checks the
observed rate against the filter's nominal FPP.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import fig5
from repro.webmodel.cohort import run_cohort
from repro.webmodel.population import ICAPopulation, PopulationConfig


@pytest.fixture(scope="module")
def noisy():
    population = ICAPopulation(PopulationConfig(seed=6))
    config = fig5.paper_config(
        num_users=1,
        handshakes_per_user=1_500,
        fpp=0.05,
        filter_kind="cuckoo",
        seed=6,
        population=population.config,
    )
    result = run_cohort(config, population=population)
    return result, fig5.measure_lookup_seconds(config, population)


@pytest.fixture(scope="module")
def noisy_result(noisy):
    return noisy[0]


class TestFalsePositivesAtScale:
    def test_false_positives_occur(self, noisy_result):
        assert noisy_result.stats.false_positives > 0
        assert int(noisy_result.false_positive.sum()) == (
            noisy_result.stats.false_positives
        )

    def test_every_handshake_still_succeeded(self, noisy_result):
        # Every false positive was absorbed by the retry.
        stats = noisy_result.stats
        assert stats.completed + stats.completed_after_retry == stats.handshakes
        assert stats.handshakes > 200

    def test_fp_rate_tracks_nominal_fpp(self, noisy_result):
        """Observed FP destinations / unknown-ICA destinations should be
        within a small factor of the nominal FPP (5%)."""
        fp = noisy_result.false_positive
        # Count per-lookup opportunities conservatively: every non-FP
        # destination's unsuppressed ICAs were unknown-lookup misses.
        unknown_icas = int(noisy_result.sent_first_icas[~fp].sum())
        false_positives = noisy_result.stats.false_positives
        opportunities = unknown_icas + false_positives
        if opportunities < 50:
            pytest.skip("too few unknown lookups for a rate check")
        rate = false_positives / opportunities
        assert 0.005 <= rate <= 0.25  # 5% nominal, wide tolerance

    def test_fp_destinations_paid_double(self, noisy):
        """A false positive's TTFB is doubled (the paper's method)."""
        result, lookup_seconds = noisy
        fp = result.false_positive
        samples = fig5.ttfb_samples(result, "dilithium3", True, lookup_seconds)
        plain = fig5.ttfb_samples(result, "dilithium3", False, lookup_seconds)
        assert (samples[fp] > plain[fp]).all()
        undoubled = fig5.ttfb_samples(
            replace(result, false_positive=np.zeros_like(fp)),
            "dilithium3",
            True,
            lookup_seconds,
        )
        assert samples[fp].tolist() == (2 * undoubled[fp]).tolist()
        assert samples[~fp].tolist() == undoubled[~fp].tolist()

    def test_reduction_still_positive_despite_fps(self, noisy_result):
        assert fig5.reduction_per_user(noisy_result)[0] > 0.4
