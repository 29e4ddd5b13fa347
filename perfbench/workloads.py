"""The benchmark's four workloads.

Every workload is a closed loop: one caller, one handshake or filter
update in flight, the next issued only when the previous one returned.
Everything runs in memory inside this process; no traffic crosses a link
or the loopback interface.

A workload has three phases:

* ``setup()`` builds the fixed inputs (population/PKI, credentials,
  clients, publisher) from the workload seed;
* ``run_unit(i)`` does one unit of closed-loop work and returns a
  :class:`UnitResult` with its busy time, its handshakes and per-handshake
  latency samples;
* ``check()`` compares outputs against the repo's scalar references.
  Inline checks (no ``FAILED`` outcome, image equality, ...) run between
  the timed spans of a unit, never inside them.

Library functions are called through their modules (``cohort.run_cohort``)
so the traced pass (:mod:`layers`) can wrap them where they are used.

Times are this thread's CPU time.  The loop never waits (no I/O, no other
threads), so CPU time differs from wall time only by the time a shared
host's hypervisor gives this vCPU to other guests.  That stolen time put
multi-millisecond outliers into wall-clock handshake times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from time import thread_time
from typing import Dict, List, Tuple

import numpy as np

from repro.amq import delta as amq_delta
from repro.amq import serialization as amq_serialization
from repro.core import filter_config
from repro.core import suppression
from repro.pki.store import IntermediatePreload
from repro.runtime.parallel import derive_seed
from repro.tls import session as tls_session
from repro.tls.server import ServerConfig
from repro.webmodel import (
    churn_columnar,
    churn_reference,
    cohort,
    cohort_reference,
    cohortrng,
)
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.population import ICAPopulation, PopulationConfig


@dataclass
class UnitResult:
    """What one unit of closed-loop work did."""

    #: Seconds of timed work (inline checks excluded).
    busy_s: float
    #: Completed simulated handshakes (filter-sync: server decisions).
    handshakes: int
    #: Per-handshake CPU time samples, in microseconds.
    samples_us: List[float]
    #: Operations that failed or whose output failed an inline check.
    failed: int = 0
    #: Integer tallies summed over units (ICA counts, bytes, ...).
    tally: Counter = field(default_factory=Counter)


#: The population model is the paper calibration (the repo-wide default
#: seed); the workload seed draws everything that runs on top of it.
POPULATION_SEED = 0


def _sub_seed(workload: str, seed: int, *parts: int) -> int:
    return derive_seed("perfbench." + workload, seed, *parts)


class Workload:
    """Base: the seed plus the fixed unit counts of the runner.  ``tiny``
    selects the small sizes the benchmark's tests use."""

    name = ""
    #: Units every run completes before it may stop (the deterministic
    #: metrics are computed over exactly these).
    min_units = 1
    #: Units of the traced pass (a fixed amount of work, so per-layer
    #: counts compare across commits; at most ``min_units``, so the
    #: untraced pass timed the same units).
    traced_units = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """(checked items, mismatches)."""
        raise NotImplementedError


# -- cohort --------------------------------------------------------------------


class CohortWorkload(Workload):
    """``run_cohort`` at the paper calibration (cuckoo, fpp 1e-3, no
    payload refresh, Zipf 1.1); a unit is one cohort of fresh users."""

    name = "cohort"
    min_units = 25
    traced_units = 15

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        # Small cohorts give the latency percentiles enough samples.
        self.users = 100 if tiny else 2_000
        self.sample_users = 2 if tiny else 6
        self._first: cohort.CohortResult = None  # type: ignore[assignment]

    def setup(self) -> None:
        self.population = ICAPopulation(
            PopulationConfig(seed=POPULATION_SEED)
        )
        # The engine reads the hot-ICA preload from the population memo.
        self.population.hot_ica_certificates(10_000)

    def _config(self, index: int, users: int) -> cohort.CohortConfig:
        return cohort.CohortConfig(
            num_users=users,
            handshakes_per_user=10,
            zipf_exponent=1.1,
            filter_kind="cuckoo",
            fpp=1e-3,
            payload_refresh_every=0,
            seed=_sub_seed(self.name, self.seed, 1, index),
            population=self.population.config,
        )

    def run_unit(self, index: int) -> UnitResult:
        config = self._config(index, self.users)
        start = thread_time()
        result = cohort.run_cohort(config, population=self.population)
        busy = thread_time() - start
        stats = result.stats
        if index == 0:
            self._first = result
        tally = Counter(
            icas_on_paths=stats.icas_encountered,
            icas_sent=stats.icas_sent_total,
            divergent_users=stats.divergent_users,
            retries=stats.retries,
        )
        return UnitResult(
            busy_s=busy,
            handshakes=stats.handshakes,
            samples_us=[busy / stats.handshakes * 1e6],
            tally=tally,
        )

    def check(self) -> Tuple[int, int]:
        """The first users of unit 0 equal the scalar reference, which
        runs each of them through the real TLS machine.  Per-user results
        do not depend on the cohort size, so the reference runs only the
        sample."""
        k = self.sample_users
        reference = cohort_reference.run_cohort_reference(
            self._config(0, k), population=self.population
        )
        columns = self._first.columns
        mismatches = 0
        for user in range(k):
            same = all(
                getattr(columns, name)[user] == getattr(reference.columns, name)[user]
                for name in cohort.CohortColumns.__dataclass_fields__
            )
            mismatches += not same
        return k, mismatches


# -- churn-stale ---------------------------------------------------------------


class ChurnStaleWorkload(Workload):
    """The columnar churn engine (``run_churn_cohort``'s) with delta
    distribution and stale payloads (``payload_refresh_every=4``).  A unit
    is one epoch; every ``epochs_per_world`` epochs a fresh world starts,
    so each world contributes the same kind of work.  World 0 is built
    in set-up, later worlds inside the first epoch that runs them."""

    name = "churn-stale"
    epochs_per_world = 20
    min_units = 60
    traced_units = 20

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.clients = 8 if tiny else 400
        self.check_clients = 3
        self.check_epochs = 6 if tiny else 16

    def world(self, index: int) -> ChurnConfig:
        """World ``index``: the default world scaled 4x in every count and
        rate (its 12 sites and 10 ICAs make the stale-replay share swing
        between seeds, which a 48-site world averages out)."""
        return ChurnConfig(
            steps=self.epochs_per_world,
            num_roots=8,
            initial_icas=40,
            num_sites=48,
            issuance_rate=1.6,
            revocation_rate=2.0,
            cross_sign_rate=1.0,
            payload_refresh_every=4,
            distribution="delta",
            seed=_sub_seed(self.name, self.seed, index) & 0xFFFFFFFF,
        )

    def _engine(self, index: int) -> churn_columnar.ChurnCohortEngine:
        return churn_columnar.ChurnCohortEngine(
            churn_columnar.ChurnCohortConfig(
                world=self.world(index),
                num_clients=self.clients,
                handshakes_per_client=2,
            )
        )

    def setup(self) -> None:
        self.engine = self._engine(0)

    def run_unit(self, index: int) -> UnitResult:
        world, epoch = divmod(index, self.epochs_per_world)
        start = thread_time()
        if world and not epoch:
            self.engine = self._engine(world)
        built = thread_time()
        m = self.engine.run_epoch(epoch)
        end = thread_time()
        tally = Counter(
            icas_on_paths=m.icas_encountered,
            # Every churn site serves a single-ICA chain (checked below):
            # a retried cell sent its ICA once, every other cell sent the
            # ICAs its first attempt did not suppress.
            icas_sent=m.icas_encountered - m.icas_suppressed + m.fp_retries,
            wire_bytes=m.wire_bytes,
            wire_handshakes=m.handshakes,
            update_bytes=m.distribution_bytes,
            updates=m.payload_refreshes,
            retries=m.fp_retries,
        )
        single = all(
            len(fps) == 1 for fps in self.engine.state.site_chain_fingerprints()
        )
        return UnitResult(
            busy_s=end - start,
            handshakes=m.completed,
            samples_us=[(end - built) / m.handshakes * 1e6],
            failed=m.failures + m.fallbacks + (not single),
            tally=tally,
        )

    def check(self) -> Tuple[int, int]:
        """A few-client run of the same world: columnar engine equals the
        scalar per-handshake reference, epoch by epoch."""
        config = churn_columnar.ChurnCohortConfig(
            world=replace(self.world(0), steps=self.check_epochs),
            num_clients=self.check_clients,
            handshakes_per_client=2,
        )
        fast = churn_columnar.run_churn_cohort(config)
        slow = churn_reference.run_churn_cohort_reference(config)
        mismatches = sum(a != b for a, b in zip(fast.steps, slow.steps))
        mismatches += abs(len(fast.steps) - len(slow.steps))
        mismatches += fast.events != slow.events
        return len(slow.steps), mismatches


# -- handshake -----------------------------------------------------------------


class HandshakeWorkload(Workload):
    """Real ``run_handshake`` calls over a dilithium3 population.  A unit
    is one client's browsing session: a fresh ``ClientSuppressor``
    (hot-ICA preload, cuckoo, fpp 1e-2) visits Zipf-drawn destinations and
    learns every chain, while one shared ``ServerSuppressor`` serves all
    sessions."""

    name = "handshake"
    min_units = 30
    traced_units = 10
    at_time = 1_000

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.destinations = 40 if tiny else 1_500
        self.session_handshakes = 10 if tiny else 100

    def _destination_ranks(self) -> List[int]:
        """The first ``destinations`` distinct ranks of a Zipf 1.1 stream
        over the million-domain ranking, in rank order: tail domains bring
        ICAs outside the hot preload."""
        rng = np.random.default_rng(_sub_seed(self.name, self.seed, 4))
        seen: Dict[int, None] = {}
        while len(seen) < self.destinations:
            for rank in cohortrng.zipf_ranks(rng.random(4_096), 1.1, 1_000_000).tolist():
                seen.setdefault(rank)
        return sorted(list(seen)[: self.destinations])

    def setup(self) -> None:
        self.population = ICAPopulation(
            PopulationConfig(algorithm="dilithium3", seed=POPULATION_SEED)
        )
        self.hot = self.population.hot_ica_certificates(10_000)
        self.trust_store = self.population.hierarchy.trust_store()
        self.credentials = [
            self.population.credential_for_rank(rank)
            for rank in self._destination_ranks()
        ]
        self.server = suppression.ServerSuppressor()

    def run_unit(self, index: int) -> UnitResult:
        rng = np.random.default_rng(_sub_seed(self.name, self.seed, 1, index))
        picks = cohortrng.zipf_ranks(
            rng.random(self.session_handshakes), 1.1, self.destinations
        )
        start = thread_time()
        client = suppression.ClientSuppressor(
            preload=IntermediatePreload(self.hot),
            filter_kind="cuckoo",
            fpp=1e-2,
            budget_bytes=None,
            seed=_sub_seed(self.name, self.seed, 2, index) & 0xFFFFFFFF,
        )
        busy = thread_time() - start
        samples: List[float] = []
        failed = 0
        tally: Counter = Counter()
        for n, pick in enumerate(picks.tolist()):
            credential = self.credentials[pick - 1]
            chain = credential.chain
            uncached = any(c not in client.cache for c in chain.intermediates)
            hs_seed = _sub_seed(self.name, self.seed, 3, index, n)
            start = thread_time()
            client_config = client.client_config(
                self.trust_store,
                hostname=chain.leaf.subject,
                at_time=self.at_time,
                seed=hs_seed,
            )
            server_config = ServerConfig(
                credential=credential,
                suppression_handler=self.server,
                seed=hs_seed ^ 1,
            )
            trace = tls_session.run_handshake(client_config, server_config)
            client.learn_from(chain)
            elapsed = thread_time() - start
            busy += elapsed
            samples.append(elapsed * 1e6)
            if not trace.succeeded or (trace.retried and not uncached):
                failed += 1
            tally["icas_on_paths"] += chain.num_icas
            tally["icas_sent"] += sum(
                chain.num_icas - a.suppressed_ica_count for a in trace.attempts
            )
            tally["wire_bytes"] += trace.total_wire_bytes
            tally["wire_handshakes"] += 1
            tally["retries"] += trace.retried
        return UnitResult(
            busy_s=busy,
            handshakes=len(samples) - failed,
            samples_us=samples,
            failed=failed,
            tally=tally,
        )

    def check(self) -> Tuple[int, int]:
        # Every handshake is checked inline (outcome and retry cause).
        return 0, 0


# -- filter-sync ---------------------------------------------------------------


class FilterSyncWorkload(Workload):
    """A ``DeltaPublisher`` over ~1000 of the population's ICAs publishes
    small order-preserving add/remove churn every tick; ``DeltaApplier``
    clients on staggered cadences fetch ``update_since``, ``apply`` it
    and advertise ``image()``; the server decodes each new image and
    probes one chain.  A unit is one tick.

    Most clients refresh every 1-8 ticks and receive patches.  Two
    rarely-seen clients (every 100 and 150 ticks) fall far enough behind
    that the framed snapshot is the smaller update, so resyncs run too."""

    name = "filter-sync"
    min_units = 300
    traced_units = 150

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.items = 60 if tiny else 1_000
        clients = 4 if tiny else 24
        self.cadence = [1 + (j * 5) % 8 for j in range(clients)] + [100, 150]

    def setup(self) -> None:
        self.rng = np.random.default_rng(_sub_seed(self.name, self.seed, 0))
        self.population = ICAPopulation(
            PopulationConfig(seed=POPULATION_SEED)
        )
        universe = [c.fingerprint() for c in self.population.ica_universe()]
        universe = [universe[i] for i in self.rng.permutation(len(universe))]
        self.current = universe[: self.items]
        self.spare = universe[self.items :]
        self.paths = [
            [c.fingerprint() for c in path.ica_certificates()]
            for path in self.population.hierarchy.paths
            if path.depth
        ]
        filter_seed = _sub_seed(self.name, self.seed, 2) & 0xFFFFFFFF
        self.publisher = amq_delta.DeltaPublisher(
            "cuckoo",
            self.current,
            fpp=1e-3,
            seed=filter_seed,
            headroom=2.0,
            builder=filter_config.memoized_build,
        )
        self.appliers = [
            amq_delta.DeltaApplier(
                "cuckoo",
                self.current,
                capacity=self.publisher.capacity_at(0),
                fpp=1e-3,
                seed=filter_seed,
                builder=filter_config.memoized_build,
            )
            for _ in self.cadence
        ]

    def _churn(self) -> None:
        """Remove 1-3 items and append 1-3 spares, preserving order."""
        removed = self.rng.choice(len(self.current), int(self.rng.integers(1, 4)), replace=False)
        gone = {self.current[i] for i in removed.tolist()}
        self.current = [item for item in self.current if item not in gone]
        for _ in range(int(self.rng.integers(1, 4))):
            self.current.append(self.spare.pop(int(self.rng.integers(len(self.spare)))))
        self.spare.extend(sorted(gone))

    def run_unit(self, index: int) -> UnitResult:
        self._churn()
        tick = index + 1
        start = thread_time()
        self.publisher.publish(self.current)
        busy = thread_time() - start
        samples: List[float] = []
        failed = 0
        tally: Counter = Counter()
        for j, applier in enumerate(self.appliers):
            if (tick + j) % self.cadence[j]:
                continue
            path = self.paths[int(self.rng.integers(len(self.paths)))]
            start = thread_time()
            update = self.publisher.update_since(applier.version)
            message = amq_delta.deserialize_delta(update)
            snapshot = isinstance(message, amq_delta.FilterSnapshot)
            applier.apply(
                message,
                snapshot_items=(
                    self.publisher.items_at(message.version) if snapshot else None
                ),
            )
            image = applier.image()
            hits = amq_serialization.deserialize_filter(image).contains_batch(path)
            elapsed = thread_time() - start
            busy += elapsed
            samples.append(elapsed * 1e6)
            held = set(applier.items)
            false_negative = any(fp in held and not hit for fp, hit in zip(path, hits))
            stale = image != self.publisher.image_at(applier.version)
            if false_negative or stale or applier.version != self.publisher.version:
                failed += 1
            fp_hit = any(hit and fp not in held for fp, hit in zip(path, hits))
            suppressed = sum(hits)
            tally["icas_on_paths"] += len(path)
            # A false positive makes the handshake retry with the full chain.
            tally["icas_sent"] += len(path) - suppressed + (len(path) if fp_hit else 0)
            tally["retries"] += fp_hit
            tally["update_bytes"] += len(update)
            tally["updates"] += 1
        return UnitResult(
            busy_s=busy,
            handshakes=len(samples) - failed,
            samples_us=samples,
            failed=failed,
            tally=tally,
        )

    def check(self) -> Tuple[int, int]:
        # Every applied image is compared with the publisher's inline.
        return 0, 0


WORKLOADS: Dict[str, type] = {
    w.name: w
    for w in (CohortWorkload, ChurnStaleWorkload, HandshakeWorkload, FilterSyncWorkload)
}
