"""repro — Intermediate certificate suppression in post-quantum TLS.

A faithful, pure-Python reproduction of the CoNEXT '22 paper
"Intermediate Certificate Suppression in Post-Quantum TLS: An Approximate
Membership Querying Approach" (Sikeridis, Huntley, Ott, Devetsikiotis).

The package is organized as one subpackage per subsystem:

``repro.amq``
    Approximate-membership-query filters (Bloom, Cuckoo, Vacuum, Quotient)
    with dynamic insert/delete and a wire serialization format.
``repro.pki``
    Synthetic Web-PKI substrate: DER encoder, algorithm catalogue with the
    exact post-quantum key/signature sizes, certificate chains, OCSP, SCTs.
``repro.tls``
    Byte-accurate TLS 1.3 handshake message layer and client/server state
    machines implementing the IC-filter extension and false-positive retry.
``repro.netsim``
    Discrete-event network simulator with a TCP initcwnd flight model.
``repro.webmodel``
    Tranco-style web workload: domain rankings, browsing behaviour, ICA
    population models, the crawl simulator and the cohort browsing engine.
``repro.core``
    The paper's contribution: client/server ICA-suppression pipelines,
    filter capacity planning, the IC-filter TLS extension payload, and the
    expected-handshake-time estimator.
``repro.analysis``
    Regression, summary statistics and table rendering used by the
    experiment drivers.
``repro.experiments``
    One driver per paper table/figure; the benchmark harness calls these.
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    FilterError,
    FilterFullError,
    FilterSerializationError,
    PKIError,
    CertificateError,
    ChainValidationError,
    TLSError,
    HandshakeError,
    SimulationError,
    ConfigurationError,
)

__all__ = [
    "__version__",
    "ReproError",
    "FilterError",
    "FilterFullError",
    "FilterSerializationError",
    "PKIError",
    "CertificateError",
    "ChainValidationError",
    "TLSError",
    "HandshakeError",
    "SimulationError",
    "ConfigurationError",
]
