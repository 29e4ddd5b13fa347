"""Flight-size probe: exact handshake byte counts for any chain shape.

The latency and TTFB models (Fig. 1, Fig. 5 center/right, the initcwnd
and transport ablations, the estimator table) need the ClientHello and
server-flight sizes of a handshake whose chain carries ``n`` ICAs under a
given signature algorithm.  Rather than estimate them, this module runs
one real handshake per shape against a purpose-built chain and memoizes
the measured sizes in the ``flight_sizes`` artifact cache.  Only the
parent-side drivers (Fig. 1, Fig. 5, QUIC, the ablations, the estimator
table) probe flight sizes; no pool worker does.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.errors import SimulationError
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.keys import KeyPair
from repro.pki.ocsp import OCSPStaple
from repro.pki.sct import SignedCertificateTimestamp
from repro.runtime import artifacts
from repro.tls.server import ServerConfig
from repro.tls.session import run_handshake


@functools.lru_cache(maxsize=None)
def _micro_credential(algorithm_name: str, n_icas: int):
    """A credential whose chain has exactly ``n_icas`` intermediates,
    used to measure exact flight sizes for any algorithm."""
    from repro.pki.authority import CertificateAuthority, ServerCredential
    from repro.pki.chain import CertificateChain
    from repro.pki.store import TrustStore

    root = CertificateAuthority.create_root(
        "Flight Probe Root", algorithm_name, seed=0xF11
    )
    issuer = root
    authorities = []
    for i in range(n_icas):
        issuer = issuer.create_subordinate(
            f"Flight Probe ICA {i}", seed=0xF20 + i
        )
        authorities.append(issuer)
    alg = get_signature_algorithm(algorithm_name)
    keypair = KeyPair(alg, 0xF99)
    leaf = issuer.issue_leaf_with_key("flight-probe.example", keypair)
    chain = CertificateChain(
        leaf=leaf,
        intermediates=tuple(ca.certificate for ca in reversed(authorities)),
        root=root.certificate,
    )
    return ServerCredential(chain=chain, keypair=keypair), TrustStore(
        [root.certificate]
    )


def flight_sizes(
    algorithm_name: str, kem_name: str, n_icas: int, staples: bool
) -> Tuple[int, int]:
    """(ClientHello bytes, server-flight bytes) measured by running one
    real handshake with the given chain shape — exact by construction.

    Memoized in the ``flight_sizes`` artifact cache: a process probes
    each shape once.
    """
    key = (algorithm_name, kem_name, n_icas, staples)
    cached = artifacts.FLIGHT_SIZES.get(key)
    if cached is not None:
        return cached
    result = _measure_flight_sizes(algorithm_name, kem_name, n_icas, staples)
    artifacts.FLIGHT_SIZES.put(key, result)
    return result


def _measure_flight_sizes(
    algorithm_name: str, kem_name: str, n_icas: int, staples: bool
) -> Tuple[int, int]:
    from repro.tls.client import ClientConfig

    credential, store = _micro_credential(algorithm_name, n_icas)
    responder = KeyPair(get_signature_algorithm(algorithm_name), 0xE5D)
    ocsp = None
    sct_list: List[SignedCertificateTimestamp] = []
    if staples:
        ocsp = OCSPStaple.create(credential.chain.leaf, responder, produced_at=1)
        sct_list = [
            SignedCertificateTimestamp.create(
                credential.chain.leaf, responder, bytes([i]) * 32, 7
            )
            for i in (1, 2)
        ]
    server = ServerConfig(credential=credential, ocsp_staple=ocsp, scts=sct_list)
    client = ClientConfig(
        trust_store=store,
        kem_name=kem_name,
        hostname="flight-probe.example",
        at_time=10,
    )
    trace = run_handshake(client, server)
    if not trace.succeeded:
        raise SimulationError(
            f"flight probe failed: {trace.final_attempt.failure_reason}"
        )
    attempt = trace.attempts[0]
    return attempt.client_hello_bytes, attempt.server_flight_bytes
