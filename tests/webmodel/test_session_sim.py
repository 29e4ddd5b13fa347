"""Browsing-session simulation on the cohort engine (the Fig. 5 engine):
flight-size probes, one session's accounting, determinism."""

import pytest

from tests._fixtures import shared_population

from repro.experiments import fig5
from repro.experiments.flight_probe import flight_sizes
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.certificate import DEFAULT_ATTRIBUTE_BYTES
from repro.webmodel.cohort import run_cohort


@pytest.fixture(scope="module")
def population():
    return shared_population()


@pytest.fixture(scope="module")
def config(population):
    """One medium-sized session: a one-user cohort."""
    return fig5.paper_config(
        num_users=1, handshakes_per_user=700, seed=2, population=population.config
    )


@pytest.fixture(scope="module")
def result(config, population):
    return run_cohort(config, population=population)


@pytest.fixture(scope="module")
def lookup_seconds(config, population):
    return fig5.measure_lookup_seconds(config, population)


class TestFlightSizes:
    def test_monotone_in_chain_depth(self):
        sizes = [
            flight_sizes("dilithium3", "ntru-hps-509", n, True)[1] for n in range(4)
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[3]

    def test_ch_independent_of_chain(self):
        ch0 = flight_sizes("dilithium3", "ntru-hps-509", 0, True)[0]
        ch3 = flight_sizes("dilithium3", "ntru-hps-509", 3, True)[0]
        assert ch0 == ch3

    def test_staples_add_bytes(self):
        plain = flight_sizes("dilithium3", "x25519", 1, False)[1]
        stapled = flight_sizes("dilithium3", "x25519", 1, True)[1]
        assert stapled > plain + 3 * 3293  # three extra signatures minimum

    def test_pq_flights_dwarf_conventional(self):
        rsa = flight_sizes("rsa-2048", "x25519", 2, True)[1]
        sphincs = flight_sizes("sphincs-128f", "x25519", 2, True)[1]
        assert sphincs > 10 * rsa


class TestSessionResult:
    def test_all_handshakes_complete(self, result):
        stats = result.stats
        assert stats.completed + stats.completed_after_retry == stats.handshakes
        assert stats.handshakes > 300

    def test_known_rate_in_paper_band(self, result):
        """69-74% in the paper; we allow a modestly wider band for the
        smaller test session."""
        assert 0.6 <= result.stats.known_ica_rate <= 0.85

    def test_reduction_matches_known_rate_without_fps(self, result):
        expected = fig5.known_rate_per_user(result)[0]
        observed = fig5.reduction_per_user(result)[0]
        # FPs reduce the reduction; they are rare at 0.1% FPP.
        assert observed <= expected + 1e-9
        assert observed >= expected - 0.05

    def test_suppression_never_invents_icas(self, result):
        assert (result.sent_first_icas >= 0).all()
        assert (result.sent_first_icas <= result.path_icas).all()
        assert int(result.path_icas.sum()) == result.stats.icas_encountered
        assert int(result.sent_first_icas.sum()) == result.stats.icas_sent_first

    def test_ica_data_extrapolation_scales_with_algorithm(self, result):
        rows = {r.algorithm: r for r in fig5.data_volume(result).rows}
        rsa = rows["rsa-2048"].mb_without
        dil = rows["dilithium3"].mb_without
        sph = rows["sphincs-128f"].mb_without
        assert rsa < dil < sph
        # Ratios equal per-cert size ratios exactly.
        def per_cert(name):
            return get_signature_algorithm(name).auth_bytes_per_certificate(
                DEFAULT_ATTRIBUTE_BYTES
            )

        assert dil / rsa == pytest.approx(per_cert("dilithium3") / per_cert("rsa-2048"))

    def test_savings_positive(self, result):
        rows = {r.algorithm: r for r in fig5.data_volume(result).rows}
        for alg in ("rsa-2048", "dilithium3", "sphincs-128f"):
            assert rows[alg].mb_saved > 0

    def test_ttfb_suppressed_not_slower_overall(self, result, lookup_seconds):
        full = fig5.ttfb_samples(result, "sphincs-128f", False, lookup_seconds)
        sup = fig5.ttfb_samples(result, "sphincs-128f", True, lookup_seconds)
        assert sup.sum() < full.sum()

    def test_ttfb_sample_counts_match_destinations(self, result, lookup_seconds):
        samples = fig5.ttfb_samples(result, "rsa-2048", True, lookup_seconds)
        assert len(samples) == result.stats.handshakes

    def test_filter_payload_recorded(self, result, lookup_seconds):
        assert result.stats.filter_payload_bytes > 100
        assert lookup_seconds >= 0


class TestDeterminism:
    def test_same_seed_same_outcome(self, population):
        config = fig5.paper_config(
            num_users=1, handshakes_per_user=40, seed=5, population=population.config
        )
        a = run_cohort(config, population=population)
        b = run_cohort(config, population=population)
        assert a == b
        assert a.stats.known_ica_rate == b.stats.known_ica_rate

    def test_runs_differ(self, population):
        """Two users of one cohort browse different destination streams."""
        config = fig5.paper_config(
            num_users=2, handshakes_per_user=40, seed=5, population=population.config
        )
        result = run_cohort(config, population=population)
        first = int(result.columns.handshakes[0])
        assert result.rtt_s[:first].tolist() != result.rtt_s[first:].tolist()
