"""Monthly Top-10K crawl simulation — reproduces Table 2.

For each monthly snapshot the crawler walks the (jittered) top ranks,
asks the population for each server's chain, and tallies exactly what the
paper's table reports: the chain-size shares and the distinct-ICA count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.webmodel.chains import TABLE2_MONTHS
from repro.webmodel.population import ICAPopulation


@dataclass(frozen=True)
class CrawlStats:
    """One Table-2 row, as measured by the crawl."""

    month: str
    total_servers: int
    unique_icas: int
    share_by_depth: Dict[int, float]  # keys 0..3 and 4 meaning '>3'

    def share(self, depth: int) -> float:
        return self.share_by_depth.get(depth, 0.0)

    def as_row(self) -> List[str]:
        return [
            self.month,
            str(self.unique_icas),
            f"{self.total_servers // 1000}K",
            *(f"{100 * self.share(d):.1f}" for d in range(5)),
        ]


def crawl_top_domains(
    population: ICAPopulation,
    month: str,
    month_index: int = 0,
    num_domains: int = 10_000,
) -> CrawlStats:
    """Crawl the month's top ``num_domains`` and tally chain statistics.

    The month enters twice, as in reality: the rank list itself churns a
    little (``DomainRanking.monthly_rank``), and the population's chain
    mix follows the month's observed distribution.
    """
    population = population.with_month(month)
    depth_counts: Dict[int, int] = {}
    distinct: Set[bytes] = set()
    for rank in range(1, num_domains + 1):
        actual = population.ranking.monthly_rank(rank, month_index)
        path = population.path_for_rank(actual)
        depth = min(path.depth, 4)
        depth_counts[depth] = depth_counts.get(depth, 0) + 1
        for cert in path.ica_certificates():
            distinct.add(cert.fingerprint())
    shares = {d: c / num_domains for d, c in depth_counts.items()}
    return CrawlStats(
        month=month,
        total_servers=num_domains,
        unique_icas=len(distinct),
        share_by_depth=shares,
    )


def crawl_all_months(
    population: ICAPopulation, num_domains: int = 10_000
) -> List[CrawlStats]:
    return [
        crawl_top_domains(population, month, month_index=i, num_domains=num_domains)
        for i, month in enumerate(TABLE2_MONTHS)
    ]
