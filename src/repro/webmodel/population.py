"""ICA population model: who signs the web's certificates.

Couples the domain ranking to the synthetic PKI:

* the ICA universe holds ~1400 distinct intermediates (the CCADB /
  Firefox preload count the paper reports for June 2022);
* each domain's chain depth follows the month's Table-2 mix;
* the issuing path is drawn from a head-heavy Zipf over paths, calibrated
  so a Top-10K crawl observes the paper's 220-245 distinct ICAs;
* tail domains (rank > ``hot_rank_threshold``) mix in a uniform draw over
  the whole universe (``tail_uniform_share``), which is what pushes the
  browsing session's known-ICA rate down to the paper's observed 69-74 %
  despite the head's concentration.

Every assignment is a pure function of (seed, rank), so the same domain
always presents the same chain — a property both the crawler and the
browsing engines rely on.

Resolution is shared by everything that holds the population: a dense
rank -> path-ordinal table (lazily allocated, smallest signed type that
holds the path count — 2 MiB of int16 for the default 1M-domain ranking
and ~1400 paths) remembers every rank once resolved, and
:meth:`ICAPopulation.path_ordinals` gathers whole rank arrays from it,
drawing only the misses through :meth:`ICAPopulation.path_for_rank`, the
one scalar definition of the assignment.  A miss re-seeds a single
``random.Random`` kept per population instead of constructing one per
draw; the generator is process-local and not thread-safe (parallel runs
use processes, each with its own population).
"""

from __future__ import annotations

import _random
import bisect
import random
from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.pki.authority import Hierarchy, ICAPath, ServerCredential, build_hierarchy
from repro.pki.certificate import Certificate
from repro.runtime import artifacts
from repro.runtime.parallel import derive_seed
from repro.webmodel.chains import PAPER_MONTH, ChainMix, table2_mix
from repro.webmodel.tranco import DomainRanking

#: Multipliers of the per-draw seed ``(seed << 32) ^ rank*RANK ^ salt*SALT``.
_RANK_MIX = 0x9E3779B1
_SALT_MIX = 0x85EBCA6B

#: The C seeding routine ``random.Random.seed`` delegates to for an int
#: seed; calling it directly skips the wrapper's type dispatch and leaves
#: the generator in the identical state.
_reseed = _random.Random.seed


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the population model (defaults = paper calibration)."""

    algorithm: str = "ecdsa-p256"
    universe_icas: int = 1400
    num_roots: int = 7
    head_exponent: float = 2.1
    tail_uniform_share: float = 0.85
    hot_rank_threshold: int = 10_000
    month: str = PAPER_MONTH
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_uniform_share <= 1.0:
            raise ConfigurationError(
                f"tail_uniform_share must be in [0,1], got {self.tail_uniform_share}"
            )
        if self.head_exponent <= 1.0:
            raise ConfigurationError(
                f"head_exponent must exceed 1, got {self.head_exponent}"
            )


@dataclass(frozen=True)
class PathColumns:
    """Hierarchy-only facts per path ordinal (``hierarchy.paths`` order),
    flattened: path ``p`` owns entries ``offsets[p]:offsets[p + 1]`` of
    ``fingerprints`` and ``sizes``, leaf-side first as transmitted."""

    fingerprints: List[bytes]
    offsets: "np.ndarray"
    sizes: "np.ndarray"
    depth: "np.ndarray"

    @classmethod
    def build(cls, paths: List[ICAPath]) -> "PathColumns":
        certs = [cert for path in paths for cert in path.ica_certificates()]
        depth = np.array([path.depth for path in paths], dtype=np.int64)
        offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(depth, out=offsets[1:])
        return cls(
            fingerprints=[cert.fingerprint() for cert in certs],
            offsets=offsets,
            sizes=np.array([cert.size_bytes() for cert in certs], dtype=np.int64),
            depth=depth,
        )

    def per_path_sum(self, values: "np.ndarray") -> "np.ndarray":
        """Sum one value per flat entry within each path (0 for the
        root-direct paths, which own no entries)."""
        # The zero pad keeps every start index in range: the root-direct
        # paths come last and start at len(values).  reduceat returns the
        # start element for an empty segment, hence the depth mask.
        sums = np.add.reduceat(np.append(values, 0), self.offsets[:-1])
        return np.where(self.depth > 0, sums, 0)


class ICAPopulation:
    """The web's CA population, addressable by domain rank."""

    def __init__(
        self,
        config: PopulationConfig = PopulationConfig(),
        ranking: Optional[DomainRanking] = None,
    ) -> None:
        self.config = config
        self.ranking = ranking or DomainRanking(seed=config.seed)
        self.hierarchy: Hierarchy = build_hierarchy(
            config.algorithm,
            total_icas=config.universe_icas,
            num_roots=config.num_roots,
            depth_weights={1: 0.50, 2: 0.35, 3: 0.145, 4: 0.005},
            seed=config.seed,
        )
        paths = self.hierarchy.paths
        shuffle_rng = random.Random(config.seed ^ 0xBEEF)
        #: Path ordinals per depth, in popularity order (decoupled from
        #: creation order by the shuffle).
        self._ordinals_by_depth: Dict[int, List[int]] = {}
        for ordinal, path in enumerate(paths):
            self._ordinals_by_depth.setdefault(path.depth, []).append(ordinal)
        for ordinals in self._ordinals_by_depth.values():
            shuffle_rng.shuffle(ordinals)
        self._cum_weights: Dict[int, List[float]] = {
            depth: self._cumulative_zipf(len(ordinals))
            for depth, ordinals in self._ordinals_by_depth.items()
        }
        self._typecode = next(
            code for code in "bhiq" if len(paths) <= 1 << (8 * array(code).itemsize - 1)
        )
        self._draw = random.Random()
        self._path_columns: Optional[PathColumns] = None
        self._reset_month(config.month)

    def _reset_month(self, month: str) -> None:
        """(Re)start every cache whose contents depend on the chain mix."""
        self._mix: ChainMix = table2_mix(month)
        self._ordinals: Optional[array] = None
        self._credentials: Dict[int, ServerCredential] = {}
        self._hot_icas: Dict[int, List[Certificate]] = {}

    def with_month(self, month: str) -> "ICAPopulation":
        """A view of the population under another month's chain mix: same
        hierarchy, same path popularity, only the depth mix changes.  The
        view starts its own rank table and caches, so resolving ranks
        through it never touches this population's."""
        if self.config.month == month:
            return self
        view = object.__new__(ICAPopulation)
        view.__dict__.update(self.__dict__)
        view.config = replace(self.config, month=month)
        view._reset_month(month)
        return view

    # -- internals ------------------------------------------------------------

    def _cumulative_zipf(self, n: int) -> List[float]:
        acc = 0.0
        out = []
        for i in range(n):
            acc += 1.0 / (i + 1) ** self.config.head_exponent
            out.append(acc)
        return out

    def _available_depth(self, depth: int) -> int:
        while depth > 0 and not self._ordinals_by_depth.get(depth):
            depth -= 1
        return depth

    def _ordinal_table(self) -> array:
        """The rank -> path-ordinal table (-1 = not yet resolved), indexed
        by rank directly."""
        if self._ordinals is None:
            self._ordinals = array(self._typecode, [-1]) * (self.ranking.size + 1)
        return self._ordinals

    def _draw_ordinal(self, rank: int) -> int:
        """The assignment kernel: each salt's draws come from the shared
        generator re-seeded with ``(seed << 32) ^ rank*RANK ^ salt*SALT``."""
        base = (self.config.seed << 32) ^ (rank * _RANK_MIX)
        draw = self._draw
        _reseed(draw, base ^ _SALT_MIX)
        depth = self._available_depth(self._mix.sample_depth(draw))
        if depth == 0:
            roots = self._ordinals_by_depth.get(0)
            if not roots:
                raise ConfigurationError("hierarchy has no root-direct paths")
            _reseed(draw, base ^ (2 * _SALT_MIX))
            return roots[draw.randrange(len(roots))]
        ordinals = self._ordinals_by_depth[depth]
        _reseed(draw, base ^ (3 * _SALT_MIX))
        if (
            rank > self.config.hot_rank_threshold
            and draw.random() < self.config.tail_uniform_share
        ):
            return ordinals[draw.randrange(len(ordinals))]
        cum = self._cum_weights[depth]
        u = draw.random() * cum[-1]
        return ordinals[min(bisect.bisect_left(cum, u), len(ordinals) - 1)]

    # -- assignment -----------------------------------------------------------

    def path_for_rank(self, rank: int) -> ICAPath:
        """The issuing path of the domain at ``rank``."""
        table = self._ordinal_table()
        if 0 < rank < len(table):
            ordinal = table[rank]
            if ordinal < 0:
                ordinal = table[rank] = self._draw_ordinal(rank)
        else:
            ordinal = self._draw_ordinal(rank)
        return self.hierarchy.paths[ordinal]

    def depth_for_rank(self, rank: int) -> int:
        """Chain depth (ICA count) of the domain at ``rank``."""
        return self.path_for_rank(rank).depth

    def path_ordinals(self, ranks: "np.ndarray") -> "np.ndarray":
        """Path ordinals (indices into ``hierarchy.paths``) for an array of
        ranks, any shape, duplicates allowed: a gather from the shared
        table, with only the unresolved ranks drawn (once each) through
        :meth:`path_for_rank`."""
        ranks = np.asarray(ranks)
        if ranks.size and (ranks.min() < 1 or ranks.max() > self.ranking.size):
            raise ConfigurationError(
                f"ranks must lie in [1, {self.ranking.size}]"
            )
        table = self._ordinal_table()
        view = np.frombuffer(table, dtype=table.typecode)
        ordinals = view[ranks]
        missing = ordinals < 0
        if missing.any():
            for rank in np.unique(ranks[missing]).tolist():
                self.path_for_rank(rank)
            ordinals = view[ranks]
        return ordinals

    def path_columns(self) -> PathColumns:
        """Flat per-path fact columns, built once per hierarchy."""
        if self._path_columns is None:
            self._path_columns = PathColumns.build(self.hierarchy.paths)
        return self._path_columns

    # -- issuance ------------------------------------------------------------

    def credential_for_rank(self, rank: int) -> ServerCredential:
        """The server credential (chain + leaf key) for a domain; cached,
        so a domain presents one stable chain across the simulation.

        The leaf seed and serial derive from (population seed, rank), so
        issuance is a pure function of its inputs — independent of visit
        order, identical across processes, and shareable across simulator
        instances through the content-keyed credentials cache."""
        cred = self._credentials.get(rank)
        if cred is None:
            domain = self.ranking.domain(rank)
            path = self.path_for_rank(rank)
            leaf_seed = derive_seed("population.leaf", self.config.seed, rank)
            serial = derive_seed(
                "population.serial", self.config.seed, rank, bits=48
            )
            key = (
                path.issuer.certificate.fingerprint(),
                domain,
                leaf_seed,
                serial,
            )
            cred = artifacts.CREDENTIALS.get(key)
            if cred is None:
                cred = self.hierarchy.issue_credential(
                    domain, path, seed=leaf_seed, serial=serial
                )
                artifacts.CREDENTIALS.put(key, cred)
            self._credentials[rank] = cred
        return cred

    def chain_for_rank(self, rank: int):
        return self.credential_for_rank(rank).chain

    # -- population views --------------------------------------------------------

    def ica_universe(self) -> List[Certificate]:
        return self.hierarchy.ica_certificates()

    def hot_ica_certificates(self, top_n: int = 10_000) -> List[Certificate]:
        """Distinct ICAs observed across the top-``top_n`` domains — the
        paper's filter contents (245 for the June '22 crawl). Memoized per
        ``top_n``: rank assignment is a pure function of (seed, rank), so
        the scan's result never changes and every simulator sharing this
        population reuses one copy.  The scan resolves its ranks into the
        shared table, so engines drawing head ranks later find them there
        (a ranking shorter than ``top_n`` is scanned whole)."""
        cached = self._hot_icas.get(top_n)
        if cached is None:
            table = self._ordinal_table()
            top = min(top_n, self.ranking.size)
            for rank in range(1, top + 1):
                if table[rank] < 0:
                    self.path_for_rank(rank)
            seen: Dict[bytes, Certificate] = {}
            for ordinal in dict.fromkeys(table[1 : top + 1]):
                for cert in self.hierarchy.paths[ordinal].ica_certificates():
                    seen.setdefault(cert.fingerprint(), cert)
            cached = list(seen.values())
            self._hot_icas[top_n] = cached
        return list(cached)
