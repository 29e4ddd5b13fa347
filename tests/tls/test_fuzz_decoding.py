"""Fuzzing the TLS decoders: arbitrary bytes must raise DecodeError (or
parse), never escape with anything else.

The server feeds attacker-controlled bytes into these paths (ClientHello,
extensions, filter payloads), so 'crashes cleanly' is a security property
of the suppression deployment, not just hygiene. So is bounded memory:
every decode runs under :func:`tests._membound.allocation_bound`, which
caps its peak allocation by the length of the input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amq.serialization import deserialize_filter
from repro.errors import DecodeError, FilterSerializationError, ReproError
from repro.tls.ech import ECHConfig, decrypt_client_hello
from repro.tls.extensions import KeyShareEntry, decode_extensions
from repro.tls.messages import (
    CertificateMessage,
    ClientHello,
    ServerHello,
    decode_handshake,
)
from repro.tls.record import parse_records
from tests._membound import allocation_bound

fuzz = settings(max_examples=150, deadline=None)


@fuzz
@given(blob=st.binary(max_size=256))
def test_decode_handshake_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            decode_handshake(blob)
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(max_size=256))
def test_record_parser_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            parse_records(blob)
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(max_size=128))
def test_extension_decoder_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            decode_extensions(blob)
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(max_size=128))
def test_keyshare_decoder_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            KeyShareEntry.decode(blob)
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(max_size=256))
def test_certificate_message_decoder_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            CertificateMessage.decode_body(blob)
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(max_size=256))
def test_hello_decoders_never_crash(blob):
    for decoder in (ClientHello.decode_body, ServerHello.decode_body):
        try:
            with allocation_bound(len(blob)):
                decoder(blob)
        except DecodeError:
            pass


@fuzz
@given(blob=st.binary(max_size=256))
def test_filter_deserializer_never_crashes(blob):
    """The server-side entry point for attacker-controlled filter bytes."""
    try:
        with allocation_bound(len(blob)):
            deserialize_filter(blob)
    except (FilterSerializationError, ReproError):
        pass


@fuzz
@given(blob=st.binary(max_size=256))
def test_ech_decryptor_never_crashes(blob):
    try:
        with allocation_bound(len(blob)):
            decrypt_client_hello(blob, ECHConfig(1, "p.example"))
    except DecodeError:
        pass


@fuzz
@given(blob=st.binary(min_size=16, max_size=400))
def test_server_survives_arbitrary_client_hello_bytes(blob):
    """The full server path: any input either yields a flight or a clean
    DecodeError."""
    from repro.pki import build_hierarchy
    from repro.tls.server import ServerConfig, TLSServer

    server = TLSServer(
        ServerConfig(
            credential=_CREDENTIAL,
        )
    )
    try:
        with allocation_bound(len(blob)):
            server.process_client_hello(blob)
    except DecodeError:
        pass


from repro.pki import build_hierarchy as _bh  # noqa: E402

_CREDENTIAL = _bh("ecdsa-p256", total_icas=2, num_roots=1, seed=0xF22).issue_credential(
    "fuzz.example"
)
