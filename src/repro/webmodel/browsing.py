"""User browsing model (Burklen et al., cited as [9] in the paper).

§5.3: "the simulated user visits Tranco domains following a Zipf-like
distribution (exponent=1.9), views pages with a Pareto distribution
(exp=2.5)" — using the lower bound of the model parameters. Each viewed
page additionally pulls embedded HTTPS content from third-party origins,
which is what drives the session's ~1950 unique destinations for 200
visited domains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.webmodel.tranco import DomainRanking


@dataclass(frozen=True)
class BrowsingConfig:
    """Browsing-behaviour parameters (paper defaults)."""

    domain_zipf_exponent: float = 1.9
    pages_pareto_exponent: float = 2.5
    #: Mean third-party origins embedded per page (calibrated so a
    #: 200-domain session touches ~1950 unique destinations).
    third_party_mean: float = 15.0
    #: Popularity skew of third-party origins; close to 1 = diverse
    #: (trackers and CDNs are popular, but long-tail widgets abound).
    third_party_zipf_exponent: float = 1.08
    seed: int = 0


@dataclass(frozen=True)
class Visit:
    """One TLS destination contacted during the session."""

    rank: int
    domain: str
    is_third_party: bool
    page_index: int


class BrowsingModel:
    """Generates browsing sessions over a :class:`DomainRanking`."""

    def __init__(
        self,
        config: BrowsingConfig = BrowsingConfig(),
        ranking: Optional[DomainRanking] = None,
    ) -> None:
        if config.third_party_mean < 0:
            raise ConfigurationError(
                f"third_party_mean must be >= 0, got {config.third_party_mean}"
            )
        self.config = config
        self.ranking = ranking or DomainRanking(seed=config.seed)
        self._rng = random.Random(config.seed ^ 0xB0B0)

    def _pages_for_domain(self) -> int:
        """Pareto(exp) page count, lower bound 1."""
        return max(1, int(self._rng.paretovariate(self.config.pages_pareto_exponent)))

    def _third_party_count(self) -> int:
        """Per-page third-party origin count (geometric with the
        configured mean — heavy enough for busy pages, allows zero)."""
        mean = self.config.third_party_mean
        if mean <= 0:
            return 0
        p = 1.0 / (1.0 + mean)
        count = 0
        while self._rng.random() > p:
            count += 1
        return count

    def session(self, num_domains: int = 200) -> List[Visit]:
        """One browsing session: every TLS destination contacted, in
        order, duplicates included (callers dedupe per §5.3's
        'unique destinations' accounting)."""
        visits: List[Visit] = []
        page_index = 0
        for _ in range(num_domains):
            rank = self.ranking.sample_rank(
                self._rng, self.config.domain_zipf_exponent
            )
            for _ in range(self._pages_for_domain()):
                visits.append(
                    Visit(rank, self.ranking.domain(rank), False, page_index)
                )
                for _ in range(self._third_party_count()):
                    tp_rank = self.ranking.sample_rank(
                        self._rng, self.config.third_party_zipf_exponent
                    )
                    visits.append(
                        Visit(
                            tp_rank,
                            self.ranking.domain(tp_rank),
                            True,
                            page_index,
                        )
                    )
                page_index += 1
        return visits

    def unique_destination_ranks(self, visits: List[Visit]) -> List[int]:
        """First-contact order of unique destinations (one handshake
        each; repeat contacts reuse the session)."""
        seen = set()
        ordered = []
        for visit in visits:
            if visit.rank not in seen:
                seen.add(visit.rank)
                ordered.append(visit.rank)
        return ordered
