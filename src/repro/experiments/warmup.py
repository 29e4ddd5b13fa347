"""Cache warm-up dynamics: preloading vs organic learning.

The paper seeds its filter from a crawl-derived hot set (and cites
Mozilla's Intermediate CA Preloading as prior art); a client could instead
start cold and learn ICAs from completed handshakes (§4.2's cache grows
either way). This experiment measures the suppression rate as a function
of handshakes completed, for three bootstrap strategies:

* ``preload-hot`` — the paper's configuration (June-'22 hot set);
* ``cold-learning`` — empty cache, learn every observed ICA;
* ``preload+learning`` — both (the deployable sweet spot).

The result is the convergence curve a deployment team would want: how
many handshakes until a cold client reaches preloaded-level suppression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.suppression import ClientSuppressor
from repro.pki.store import IntermediatePreload
from repro.webmodel.browsing import BrowsingConfig, BrowsingModel
from repro.webmodel.population import ICAPopulation, PopulationConfig

STRATEGIES = ("preload-hot", "cold-learning", "preload+learning")


@dataclass(frozen=True)
class WarmupCurve:
    strategy: str
    checkpoints: List[int]  # handshake counts
    suppression_rates: List[float]  # cumulative ICA suppression at each
    final_cache_size: int


def _make_suppressor(strategy: str, hot, seed: int) -> ClientSuppressor:
    preload = (
        IntermediatePreload(hot) if strategy != "cold-learning" else None
    )
    return ClientSuppressor(
        preload=preload,
        filter_kind="vacuum",
        budget_bytes=None,
        seed=seed,
    )


def warmup_curves(
    strategies: Sequence[str] = STRATEGIES,
    num_destinations: int = 1200,
    checkpoint_every: int = 100,
    population: Optional[ICAPopulation] = None,
    seed: int = 9,
) -> List[WarmupCurve]:
    """Suppression-rate-so-far curves over a shared destination stream.

    Uses the filter/cache pipeline directly (no TLS byte shuffling) so
    long streams stay cheap; the TLS equivalence is covered by the
    cohort engine-vs-reference tests.
    """
    population = population or ICAPopulation(PopulationConfig(seed=seed))
    browsing = BrowsingModel(BrowsingConfig(seed=seed), ranking=population.ranking)
    destinations: List[int] = []
    while len(destinations) < num_destinations:
        visits = browsing.session(50)
        for rank in browsing.unique_destination_ranks(visits):
            destinations.append(rank)
            if len(destinations) == num_destinations:
                break
    hot = population.hot_ica_certificates()

    curves = []
    for strategy in strategies:
        suppressor = _make_suppressor(strategy, hot, seed)
        learning = strategy != "preload-hot"
        suppressed = total = 0
        checkpoints: List[int] = []
        rates: List[float] = []
        for i, rank in enumerate(destinations, start=1):
            chain = population.chain_for_rank(rank)
            filt = suppressor.filter
            for fp in chain.ica_fingerprints():
                total += 1
                suppressed += filt.contains(fp)
            if learning:
                suppressor.learn_from(chain)
            if i % checkpoint_every == 0:
                checkpoints.append(i)
                rates.append(suppressed / total if total else 0.0)
        curves.append(
            WarmupCurve(
                strategy=strategy,
                checkpoints=checkpoints,
                suppression_rates=rates,
                final_cache_size=len(suppressor.cache),
            )
        )
    return curves


def format_warmup(curves: Sequence[WarmupCurve]) -> str:
    checkpoints = curves[0].checkpoints
    rows = [
        [
            c.strategy,
            *(f"{100 * r:.1f}" for r in c.suppression_rates),
            c.final_cache_size,
        ]
        for c in curves
    ]
    return format_table(
        ["strategy"] + [f"@{n}" for n in checkpoints] + ["cache"],
        rows,
        title="Cache warm-up — cumulative ICA suppression rate (%) vs handshakes",
    )


def handshakes_to_reach(
    curve: WarmupCurve, target_rate: float
) -> Optional[int]:
    """First checkpoint at which the curve reaches ``target_rate``."""
    for n, rate in zip(curve.checkpoints, curve.suppression_rates):
        if rate >= target_rate:
            return n
    return None
