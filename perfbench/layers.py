"""Per-layer attribution for the traced pass.

:func:`install` wraps the public entry points of each layer where the
workloads and engines use them; :func:`ledger` turns the tracer's span
totals, the existing ``repro.obs`` counters, and the
``runtime.artifacts`` cache statistics into the per-layer metrics named
in ``BENCHMARK.json``.

Span names and the metrics they feed (``.s`` is inclusive time,
``.self_s`` excludes child spans):

================================  ======================================
span                              wrapped callable
================================  ======================================
population.build                  ``ICAPopulation.__init__`` (+ pki build)
population.path_for_rank          ``ICAPopulation.path_for_rank``
population.credential_for_rank    ``ICAPopulation.credential_for_rank``
cohortrng                         ``cohortrng`` draws, in every module
cohort.engine                     ``cohort.run_cohort``
churn.engine                      ``ChurnCohortEngine.__init__/run_epoch``
churn.lifecycle                   ``ChurnCohortState.begin_epoch``
tls.run_handshake                 ``run_handshake``, in every module
tls.client.hello                  ``TLSClient.create_client_hello``
tls.server.flight                 ``TLSServer.process_client_hello``
tls.client.process_flight         ``TLSClient.process_server_flight``
tls.server.client_flight          ``TLSServer.process_client_flight``
suppression.server                ``ServerSuppressor.__call__``
suppression.server.decode         ``parse_extension_payload`` as
                                  ``core.suppression`` imports it
suppression.client.payload        ``ClientSuppressor.extension_payload``
suppression.client.learn          ``ClientSuppressor.learn_from``
amq.build                         ``build_from_fingerprints`` (every
                                  family that defines it)
amq.serialize / amq.deserialize   ``serialize_filter`` /
                                  ``deserialize_filter``, every module
amq.contains_batch                ``AMQFilter.contains_batch``
delta.publish / update_since      ``DeltaPublisher`` methods
delta.apply                       ``DeltaApplier.apply``
================================  ======================================
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro import obs
from repro.amq import base as amq_base
from repro.amq import delta as amq_delta
from repro.amq import serialization as amq_serialization
from repro.core import suppression
from repro.tls import session as tls_session
from repro.tls.client import TLSClient
from repro.tls.server import TLSServer
from repro.webmodel import churn_columnar, cohort, cohortrng
from repro.webmodel.population import ICAPopulation

from tracer import Tracer

#: Artifact caches whose hit ratio the ledger reports.
ARTIFACT_CACHES = (
    "verified_chains",
    "cert_decode",
    "der_encode",
    "signature_bytes",
    "filter_builds",
)

#: Handshake phases: span name -> (class, method).  The names are those
#: of the ``repro.obs`` spans around the same calls in ``tls.session``;
#: the tracer times them on its own clock, so they add up with the rest of
#: the ledger.
TLS_PHASES = {
    "tls.client.hello": (TLSClient, "create_client_hello"),
    "tls.server.flight": (TLSServer, "process_client_hello"),
    "tls.client.process_flight": (TLSClient, "process_server_flight"),
    "tls.server.client_flight": (TLSServer, "process_client_flight"),
}

_COHORTRNG_DRAWS = ("uniforms", "zipf_ranks", "lognormal_rtt", "block_counters")


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (undo with ``tracer.restore()``)."""
    wrap = tracer.wrap_attr
    wrap(ICAPopulation, "__init__", "population.build")
    wrap(ICAPopulation, "path_for_rank", "population.path_for_rank")
    wrap(ICAPopulation, "credential_for_rank", "population.credential_for_rank")
    for name in _COHORTRNG_DRAWS:
        tracer.wrap_function(getattr(cohortrng, name), "cohortrng", "repro")
    tracer.wrap_function(cohort.run_cohort, "cohort.engine", "repro")
    wrap(churn_columnar.ChurnCohortEngine, "__init__", "churn.engine")
    wrap(churn_columnar.ChurnCohortEngine, "run_epoch", "churn.engine")
    wrap(churn_columnar.ChurnCohortState, "begin_epoch", "churn.lifecycle")
    tracer.wrap_function(tls_session.run_handshake, "tls.run_handshake", "repro")
    for phase, (cls, method) in TLS_PHASES.items():
        wrap(cls, method, phase)
    wrap(suppression.ServerSuppressor, "__call__", "suppression.server")
    wrap(suppression, "parse_extension_payload", "suppression.server.decode")
    wrap(suppression.ClientSuppressor, "extension_payload", "suppression.client.payload")
    wrap(suppression.ClientSuppressor, "learn_from", "suppression.client.learn")
    for cls in _subclasses(amq_base.AMQFilter):
        if "build_from_fingerprints" in cls.__dict__:
            wrap(cls, "build_from_fingerprints", "amq.build")
    tracer.wrap_function(amq_serialization.serialize_filter, "amq.serialize", "repro")
    tracer.wrap_function(amq_serialization.deserialize_filter, "amq.deserialize", "repro")
    wrap(
        amq_base.AMQFilter,
        "contains_batch",
        "amq.contains_batch",
        count_items=lambda _self, items: len(items),
    )
    wrap(amq_delta.DeltaPublisher, "publish", "delta.publish")
    wrap(amq_delta.DeltaPublisher, "update_since", "delta.update_since")
    wrap(amq_delta.DeltaApplier, "apply", "delta.apply")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(
    tracer: Tracer,
    registry: obs.MetricsRegistry,
    cache_stats: Mapping[str, Mapping[str, int]],
    tally: Mapping[str, int],
    workload: str,
    traced_s: float,
    simulated_handshakes: int,
    overhead_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    t = tracer.get
    out: Dict[str, float] = {}
    out["population.build_s"] = t("population.build").total_s
    for name in ("path_for_rank", "credential_for_rank"):
        span = t("population." + name)
        out[f"population.{name}.calls"] = span.calls
        out[f"population.{name}.s"] = span.total_s
    out["cohortrng.s"] = t("cohortrng").total_s
    out["cohort.engine.self_s"] = t("cohort.engine").self_s
    out["cohort.divergent_users"] = tally.get("divergent_users", 0)

    handshake = t("tls.run_handshake")
    replayed = handshake.calls if workload == "churn-stale" else 0
    out["churn.engine.self_s"] = t("churn.engine").self_s
    out["churn.lifecycle.s"] = t("churn.lifecycle").total_s
    out["churn.replay.handshakes"] = replayed
    out["churn.replay_share"] = _ratio(replayed, simulated_handshakes)

    out["tls.run_handshake.calls"] = handshake.calls
    out["tls.run_handshake.self_s"] = handshake.self_s
    out["tls.attempts_per_handshake"] = _ratio(
        registry.counter("tls.handshake.attempts"),
        registry.counter("tls.handshake.runs"),
    )
    for phase in TLS_PHASES:
        out[phase + ".s"] = t(phase).total_s
    out["tls.wire_bytes_per_handshake"] = _ratio(
        tally.get("wire_bytes", 0), tally.get("wire_handshakes", 0)
    )

    server = t("suppression.server")
    decode = t("suppression.server.decode")
    out["suppression.server.self_s"] = server.self_s + decode.self_s
    out["suppression.server.decodes"] = decode.calls
    out["suppression.server.hit_ratio"] = _ratio(server.calls - decode.calls, server.calls)
    out["suppression.client.payload_s"] = t("suppression.client.payload").total_s
    out["suppression.client.learn_s"] = t("suppression.client.learn").total_s

    out["amq.deserialize.calls"] = t("amq.deserialize").calls
    out["amq.deserialize.s"] = t("amq.deserialize").total_s
    out["amq.serialize.s"] = t("amq.serialize").total_s
    out["amq.contains_batch.items"] = t("amq.contains_batch").items
    out["amq.contains_batch.s"] = t("amq.contains_batch").total_s
    out["amq.build.s"] = t("amq.build").total_s

    out["delta.publish.s"] = t("delta.publish").total_s
    out["delta.update_since.s"] = t("delta.update_since").total_s
    out["delta.apply.s"] = t("delta.apply").total_s
    patches = registry.counter("amq.delta.patch_messages")
    out["delta.patch_share"] = _ratio(
        patches, patches + registry.counter("amq.delta.full_messages")
    )
    out["delta.update_bytes"] = _ratio(tally.get("update_bytes", 0), tally.get("updates", 0))

    for name in ARTIFACT_CACHES:
        stats = cache_stats.get(name, {})
        hits = stats.get("hits", 0)
        out[f"artifacts.{name}.hit_ratio"] = _ratio(hits, hits + stats.get("misses", 0))

    out["unattributed_s"] = traced_s - tracer.self_time_sum()
    out["traced_s"] = traced_s
    out["trace.overhead_s"] = overhead_s
    return out
