"""The rank -> path assignment: shared ordinal table, batch gather, kernel.

``ICAPopulation`` resolves ranks through a dense shared table and a
re-seeded generator.  Everything here pins that machinery to the
assignment's executable spec — the original one-``random.Random``-per-salt
formulation, re-implemented below from the hierarchy alone — and to
frozen digests recorded before the table existed.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pki.authority import build_hierarchy
from repro.webmodel.chains import PAPER_MONTH, table2_mix
from repro.webmodel.crawler import crawl_top_domains
from repro.webmodel.population import ICAPopulation, PathColumns, PopulationConfig
from tests._fixtures import shared_population

#: SHA-256 of the path ordinals (int32 little-endian) of ranks 1..20 000
#: under ``PopulationConfig(seed=0)``.  Frozen — never regenerate.
GOLDEN_ORDINALS_SHA256 = (
    "823425a6fe008c4dfc79226e35fd200e66f81a3fb5324f2f4eb4545905cd56f0"
)

#: SHA-256 over ``build_hierarchy(alg, 1400 ICAs, 7 roots, population depth
#: weights, seed=0).paths``: each path's ICA fingerprints leaf-side first,
#: then ``b"|"``.  Frozen — never regenerate.
GOLDEN_HIERARCHY_SHA256 = {
    "ecdsa-p256": "349cdfbf3fd037bdb4a11b77e0ef3084e6c6c37e925e8f6b1f968f274d4039dd",
    "dilithium3": "27f7fa68f090dfee1e582c4ba33b692104a14785b0fb702d4c7c338d041c4132",
}

POPULATION_DEPTH_WEIGHTS = {1: 0.50, 2: 0.35, 3: 0.145, 4: 0.005}

#: (seed, month) of the populations the property runs under.
SPEC_POPULATIONS = ((0, PAPER_MONTH), (3, PAPER_MONTH), (3, "Jan. '22"))

def _population(seed: int, month: str) -> ICAPopulation:
    return shared_population(PopulationConfig(seed=seed, month=month))


def _cold_copy(population: ICAPopulation) -> ICAPopulation:
    """The same population with an empty rank table: a month round-trip
    starts fresh per-month state."""
    other = next(m for m in ("Feb. '22", "Mar. '22") if m != population.config.month)
    return population.with_month(other).with_month(population.config.month)


class _Spec:
    """The assignment as originally written: a fresh ``random.Random``
    per (rank, salt), popularity order from one seeded shuffle per depth,
    head-heavy Zipf over paths plus the uniform tail mix."""

    def __init__(self, population: ICAPopulation) -> None:
        config = population.config
        self.config = config
        self.mix = table2_mix(config.month)
        paths = population.hierarchy.paths
        by_depth: Dict[int, List[int]] = {}
        for ordinal, path in enumerate(paths):
            by_depth.setdefault(path.depth, []).append(ordinal)
        shuffle_rng = random.Random(config.seed ^ 0xBEEF)
        for ordinals in by_depth.values():
            shuffle_rng.shuffle(ordinals)
        self.by_depth = by_depth
        self.cum = {}
        for depth, ordinals in by_depth.items():
            acc, cum = 0.0, []
            for i in range(len(ordinals)):
                acc += 1.0 / (i + 1) ** config.head_exponent
                cum.append(acc)
            self.cum[depth] = cum

    def _rng(self, rank: int, salt: int) -> random.Random:
        return random.Random(
            (self.config.seed << 32) ^ (rank * 0x9E3779B1) ^ (salt * 0x85EBCA6B)
        )

    def ordinal(self, rank: int) -> int:
        depth = self.mix.sample_depth(self._rng(rank, 1))
        while depth > 0 and not self.by_depth.get(depth):
            depth -= 1
        if depth == 0:
            roots = self.by_depth[0]
            return roots[self._rng(rank, 2).randrange(len(roots))]
        ordinals = self.by_depth[depth]
        rng = self._rng(rank, 3)
        if (
            rank > self.config.hot_rank_threshold
            and rng.random() < self.config.tail_uniform_share
        ):
            return ordinals[rng.randrange(len(ordinals))]
        cum = self.cum[depth]
        u = rng.random() * cum[-1]
        return ordinals[min(bisect.bisect_left(cum, u), len(ordinals) - 1)]


_SPECS: Dict[tuple, _Spec] = {}


def _spec(seed: int, month: str) -> _Spec:
    key = (seed, month)
    if key not in _SPECS:
        _SPECS[key] = _Spec(_population(seed, month))
    return _SPECS[key]


_rank = st.one_of(
    st.integers(1, 20),
    st.integers(9_990, 10_010),  # both sides of the hot-rank threshold
    st.integers(1, 1_000_000),
)


@st.composite
def _rank_arrays(draw):
    """Rank arrays with repeats, in arbitrary order, 1-D or 2-D."""
    pool = draw(st.lists(_rank, min_size=1, max_size=40))
    ranks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=120))
    array = np.array(ranks, dtype=np.int64)
    if draw(st.booleans()) and len(array) % 2 == 0:
        array = array.reshape(-1, 2)
    return array


class TestAssignmentSpec:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        which=st.sampled_from(SPEC_POPULATIONS),
        ranks=_rank_arrays(),
        cold=st.booleans(),
        warm_with=st.lists(_rank, max_size=30),
        scalar_first=st.booleans(),
    )
    def test_table_matches_spec(self, which, ranks, cold, warm_with, scalar_first):
        population = _population(*which)
        if cold:
            population = _cold_copy(population)
        spec = _spec(*which)
        # Warm part of the table through either entry point first.
        for rank in warm_with:
            population.path_for_rank(rank)
        expected = np.vectorize(spec.ordinal, otypes=[np.int64])(ranks)
        paths = population.hierarchy.paths
        if scalar_first:
            assert [population.path_for_rank(r) for r in ranks.ravel().tolist()] == [
                paths[o] for o in expected.ravel().tolist()
            ]
        got = population.path_ordinals(ranks)
        assert got.shape == ranks.shape
        assert np.array_equal(got, expected)
        for rank, ordinal in zip(ranks.ravel().tolist(), expected.ravel().tolist()):
            assert population.path_for_rank(rank) is paths[ordinal]
            assert population.depth_for_rank(rank) == paths[ordinal].depth

    def test_golden_ordinals(self):
        population = _cold_copy(_population(0, PAPER_MONTH))
        ordinals = population.path_ordinals(np.arange(1, 20_001))
        digest = hashlib.sha256(ordinals.astype("<i4").tobytes()).hexdigest()
        assert digest == GOLDEN_ORDINALS_SHA256

    def test_misses_resolve_once_through_path_for_rank(self, monkeypatch):
        population = _cold_copy(_population(3, PAPER_MONTH))
        calls = []
        original = ICAPopulation.path_for_rank

        def counting(self, rank):
            calls.append(rank)
            return original(self, rank)

        monkeypatch.setattr(ICAPopulation, "path_for_rank", counting)
        ranks = np.array([500_000, 7, 500_000, 7, 12_345])
        population.path_ordinals(ranks)
        assert sorted(calls) == [7, 12_345, 500_000]
        population.path_ordinals(ranks[::-1])
        assert len(calls) == 3

    def test_table_uses_smallest_signed_type(self):
        population = _cold_copy(_population(0, PAPER_MONTH))
        assert len(population.hierarchy.paths) == 1407
        assert population.path_ordinals(np.array([1])).dtype == np.int16

    @pytest.mark.parametrize("bad", [0, -1, 1_000_001])
    def test_out_of_range_ranks_rejected(self, bad):
        population = _population(0, PAPER_MONTH)
        with pytest.raises(ConfigurationError):
            population.path_ordinals(np.array([1, bad]))


class TestMonthViews:
    def test_crawl_leaves_population_untouched(self):
        """A crawl of another month resolves into its own view; the
        original population keeps answering exactly like a fresh one."""
        population = _cold_copy(_population(0, PAPER_MONTH))
        population.hot_ica_certificates()  # the table and caches exist
        crawl_top_domains(population, "Jan. '22", num_domains=3_000)
        fresh = ICAPopulation(PopulationConfig(seed=0))
        ranks = np.array([1, 2, 17, 2_999, 10_001, 123_456, 999_999])
        assert np.array_equal(
            population.path_ordinals(ranks), fresh.path_ordinals(ranks)
        )
        for rank in ranks.tolist():
            assert population.path_for_rank(rank).issuer.name == (
                fresh.path_for_rank(rank).issuer.name
            )
            assert (
                population.credential_for_rank(rank).chain.leaf.fingerprint()
                == fresh.credential_for_rank(rank).chain.leaf.fingerprint()
            )
        assert [c.fingerprint() for c in population.hot_ica_certificates()] == [
            c.fingerprint() for c in fresh.hot_ica_certificates()
        ]

    def test_view_config_names_its_month(self):
        population = _population(0, PAPER_MONTH)
        view = population.with_month("Feb. '22")
        assert view.config.month == "Feb. '22"
        assert view.hierarchy is population.hierarchy
        assert population.with_month(PAPER_MONTH) is population
        with pytest.raises(ConfigurationError):
            population.with_month("Jul. '22")


class TestPathColumns:
    def test_columns_match_paths(self):
        population = _population(3, PAPER_MONTH)
        columns = population.path_columns()
        assert population.path_columns() is columns
        for ordinal, path in enumerate(population.hierarchy.paths):
            lo, hi = columns.offsets[ordinal], columns.offsets[ordinal + 1]
            certs = path.ica_certificates()
            assert columns.depth[ordinal] == path.depth == hi - lo
            assert columns.fingerprints[lo:hi] == [c.fingerprint() for c in certs]
            assert columns.sizes[lo:hi].tolist() == [c.size_bytes() for c in certs]

    def test_per_path_sum_handles_empty_paths(self):
        population = _population(3, PAPER_MONTH)
        columns = population.path_columns()
        values = np.arange(1, len(columns.fingerprints) + 1, dtype=np.int64)
        expected = [
            int(values[columns.offsets[p] : columns.offsets[p + 1]].sum())
            for p in range(len(columns.depth))
        ]
        assert columns.per_path_sum(values).tolist() == expected
        assert (columns.depth == 0).sum() == population.config.num_roots

    def test_root_only_hierarchy(self):
        """Every path empty: sums are all zero, nothing indexes past the end."""
        hierarchy = build_hierarchy("ecdsa-p256", total_icas=1, num_roots=2, seed=0)
        columns = PathColumns.build(hierarchy.paths[1:])
        assert columns.per_path_sum(np.zeros(0, dtype=np.int64)).tolist() == [0, 0]


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_HIERARCHY_SHA256))
def test_golden_hierarchy(algorithm):
    hierarchy = build_hierarchy(
        algorithm,
        total_icas=1400,
        num_roots=7,
        depth_weights=POPULATION_DEPTH_WEIGHTS,
        seed=0,
    )
    digest = hashlib.sha256()
    for path in hierarchy.paths:
        for cert in path.ica_certificates():
            digest.update(cert.fingerprint())
        digest.update(b"|")
    assert digest.hexdigest() == GOLDEN_HIERARCHY_SHA256[algorithm]
