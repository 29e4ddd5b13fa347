"""Fuzzing the wire layers: AMQ images and ``repro.delta/v1`` messages.

Two different hardness contracts, tested separately:

* **Delta messages carry an integrity check**, so the contract is total:
  *any* truncation, extension or single-bit flip anywhere in the message
  raises :class:`~repro.errors.FilterSerializationError`. The corpus
  walks every bit of a patch and a snapshot for every filter family.
* **AMQ images are checksum-free** (the format is frozen by the golden
  images), so a flip in a don't-care region — the seed field, payload
  bits — can decode into a *different but well-formed* filter. The
  contract is therefore: every corruption either raises
  ``FilterSerializationError`` or yields a filter whose declared
  geometry matches its payload; no foreign exception, no crash, ever.
  Corrupt headers are also held to a memory bound linear in the image
  length (:mod:`tests._membound`): a flipped capacity bit must not make
  the decoder allocate the table that capacity implies.

The delta check field is an unkeyed SHA-256 prefix, so it only catches
accidents: anyone can rewrite a patch's size fields and recompute it.
Such forged patches must still be rejected before anything is built —
decoding and applying them stays inside the same memory bound.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amq import (
    FILTER_REGISTRY,
    DeltaApplier,
    DeltaPublisher,
    FilterDelta,
    FilterSnapshot,
    build_filter_at,
    deserialize_delta,
    deserialize_filter,
    serialize_delta,
    serialize_filter,
)
from repro.amq.base import FilterParams
from repro.amq.delta import _DELTA_HEADER, _PATCH_HEADER
from repro.amq.serialization import (
    MAX_PAYLOAD_BYTES,
    canonical_params,
    filter_class_for_name,
    serialized_overhead_bytes,
)
from repro.errors import FilterSerializationError
from tests._membound import allocation_bound
from tests.conftest import make_items

FAMILIES = sorted(cls.name for cls in FILTER_REGISTRY.values())


def _image(rng, name: str) -> bytes:
    filt = build_filter_at(name, 32, 1e-2, 0.9, 17, 0, make_items(rng, 20))
    return serialize_filter(filt)


def _delta_messages(rng, name: str):
    items = make_items(rng, 12)
    pub = DeltaPublisher(name, items, fpp=1e-2, seed=17)
    pub.publish(items[3:] + make_items(rng, 2))
    patch = pub.patch_message(0, 1)
    snapshot = pub.snapshot_message()
    return patch, snapshot


class TestDeltaMessageHardness:
    """Total rejection: the checksum makes every corruption loud."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_bit_flip_rejected(self, rng, name):
        for wire in _delta_messages(rng, name):
            for byte_index in range(len(wire)):
                for bit in range(8):
                    corrupt = bytearray(wire)
                    corrupt[byte_index] ^= 1 << bit
                    with pytest.raises(FilterSerializationError):
                        deserialize_delta(bytes(corrupt))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_truncation_rejected(self, rng, name):
        for wire in _delta_messages(rng, name):
            for length in range(len(wire)):
                with pytest.raises(FilterSerializationError):
                    deserialize_delta(wire[:length])

    def test_every_extension_rejected(self, rng):
        patch, snapshot = _delta_messages(rng, "cuckoo")
        for wire in (patch, snapshot):
            for tail in (b"\x00", b"\xff" * 3):
                with pytest.raises(FilterSerializationError):
                    deserialize_delta(wire + tail)

    @given(blob=st.binary(max_size=160))
    @settings(max_examples=120, deadline=None)
    def test_random_blobs_never_raise_foreign_exceptions(self, blob):
        try:
            deserialize_delta(blob)
        except FilterSerializationError:
            pass

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_survives_for_arbitrary_patches(self, data):
        """Property round-trip: any *valid* patch serializes and decodes
        back to itself, whatever its field values."""
        name = data.draw(st.sampled_from(FAMILIES))
        item_len = data.draw(st.integers(1, 48))
        added = data.draw(
            st.lists(st.binary(min_size=item_len, max_size=item_len),
                     unique=True, max_size=6)
        )
        removed = data.draw(
            st.lists(st.integers(0, 0xFFFF), unique=True, max_size=6)
        )
        from_version = data.draw(st.integers(0, 2**40))
        patch = FilterDelta(
            filter_kind=name,
            from_version=from_version,
            to_version=from_version + data.draw(st.integers(1, 2**20)),
            capacity=data.draw(
                st.one_of(st.integers(1, 4096), st.integers(1, 0xFFFFFFFF))
            ),
            fpp=data.draw(st.sampled_from([0.1, 1e-2, 1e-3, 1e-5])),
            load_factor=data.draw(st.sampled_from([0.5, 0.9, 1.0])),
            seed=data.draw(st.integers(0, 0xFFFFFFFF)),
            added=tuple(added),
            removed_indices=tuple(sorted(removed)),
        )
        if _payload_bytes(patch) > MAX_PAYLOAD_BYTES:
            # A filter too large for the AMQ wire format is no valid
            # patch target.
            with pytest.raises(FilterSerializationError, match="wire maximum"):
                serialize_delta(patch)
            return
        decoded = deserialize_delta(serialize_delta(patch))
        assert decoded.filter_kind == patch.filter_kind
        assert decoded.from_version == patch.from_version
        assert decoded.to_version == patch.to_version
        assert decoded.capacity == patch.capacity
        assert decoded.seed == patch.seed
        assert decoded.added == patch.added
        assert decoded.removed_indices == patch.removed_indices


_PATCH_FIELDS = (
    "from_version", "capacity", "fpp_enc", "lf_enc", "seed", "item_len",
    "add_count", "remove_count",
)


def _payload_bytes(patch: FilterDelta) -> int:
    """Payload size the patch's capacity implies (geometry arithmetic)."""
    params = canonical_params(
        FilterParams(
            capacity=patch.capacity, fpp=patch.fpp,
            load_factor=patch.load_factor,
        )
    )
    return filter_class_for_name(patch.filter_kind).expected_payload_bytes(
        params
    )


def _reframe(wire: bytes, **fields) -> bytes:
    """Rewrite patch-header fields of a framed patch and recompute its
    check field, as an attacker would."""
    magic, kind, type_id, to_version, _ = _DELTA_HEADER.unpack(
        wire[: _DELTA_HEADER.size]
    )
    body = wire[_DELTA_HEADER.size :]
    values = dict(
        zip(_PATCH_FIELDS, _PATCH_HEADER.unpack(body[: _PATCH_HEADER.size]))
    )
    values.update(fields)
    body = (
        _PATCH_HEADER.pack(*(values[f] for f in _PATCH_FIELDS))
        + body[_PATCH_HEADER.size :]
    )
    head = _DELTA_HEADER.pack(magic, kind, type_id, to_version, b"\0" * 4)
    check = hashlib.sha256(head + body).digest()[:4]
    return (
        _DELTA_HEADER.pack(magic, kind, type_id, to_version, check) + body
    )


def _assert_rejected_within_bound(wire: bytes, applier: DeltaApplier, match):
    """Decoding and applying ``wire`` both raise FilterSerializationError
    inside the memory bound, and leave ``applier`` untouched."""
    version, image = applier.version, applier.image()
    with pytest.raises(FilterSerializationError, match=match):
        with allocation_bound(len(wire)):
            deserialize_delta(wire)
    with pytest.raises(FilterSerializationError, match=match):
        with allocation_bound(len(wire)):
            applier.apply(wire)
    assert applier.version == version and applier.image() == image


def _empty_patch(name: str):
    """A 40-byte patch with no adds or removes, and an 8-item applier at
    its base version."""
    items = make_items(__import__("random").Random(29), 8)
    pub = DeltaPublisher(name, items, fpp=1e-2, seed=17)
    pub.publish(items)
    applier = DeltaApplier(
        name, items, capacity=pub.capacity_at(0), fpp=1e-2, seed=17
    )
    return pub.patch_message(0, 1), applier


class TestDeltaSizeFields:
    """Forged size fields with a recomputed check field."""

    @pytest.mark.parametrize("capacity", [1 << 20, 1 << 22, 0xFFFFFFFF])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_capacity_past_the_wire_maximum_rejected(self, name, capacity):
        wire, applier = _empty_patch(name)
        assert len(wire) == 40
        forged = _reframe(wire, capacity=capacity)
        _assert_rejected_within_bound(forged, applier, "wire maximum")

    @pytest.mark.parametrize("name", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_forged_size_fields_rejected_or_legal(self, name, data):
        """Any capacity and counts: a patch either decodes to a filter
        that fits the wire format, or is rejected within the bound."""
        wire, applier = _empty_patch(name)
        fields = {
            "capacity": data.draw(
                st.one_of(st.integers(1, 64), st.integers(1, 0xFFFFFFFF))
            ),
            "add_count": data.draw(st.sampled_from([0, 1, 0xFFFF])),
            "remove_count": data.draw(st.sampled_from([0, 1, 0xFFFF])),
        }
        forged = _reframe(wire, **fields)
        try:
            with allocation_bound(len(forged)):
                patch = deserialize_delta(forged)
        except FilterSerializationError:
            _assert_rejected_within_bound(forged, applier, None)
            return
        assert fields["add_count"] == fields["remove_count"] == 0
        assert patch.capacity == fields["capacity"]
        assert _payload_bytes(patch) <= MAX_PAYLOAD_BYTES


class TestAMQImageHardness:
    """No foreign exceptions: a corrupt image either fails loudly as a
    serialization error or decodes into a geometry-consistent filter."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_header_bit_flips_contained(self, rng, name):
        wire = _image(rng, name)
        for byte_index in range(serialized_overhead_bytes()):
            for bit in range(8):
                corrupt = bytearray(wire)
                corrupt[byte_index] ^= 1 << bit
                try:
                    with allocation_bound(len(corrupt)):
                        filt = deserialize_filter(bytes(corrupt))
                except FilterSerializationError:
                    continue
                # A surviving decode (seed bits, tolerated header slack)
                # must still be internally consistent.
                assert serialize_filter(filt)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_payload_bit_flips_contained(self, rng, name):
        wire = _image(rng, name)
        payload_start = serialized_overhead_bytes()
        step = max(1, (len(wire) - payload_start) // 32)
        for byte_index in range(payload_start, len(wire), step):
            corrupt = bytearray(wire)
            corrupt[byte_index] ^= 0x80
            try:
                filt = deserialize_filter(bytes(corrupt))
            except FilterSerializationError:
                continue
            assert serialize_filter(filt)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_truncations_rejected(self, rng, name):
        wire = _image(rng, name)
        for length in range(0, len(wire), max(1, len(wire) // 48)):
            with pytest.raises(FilterSerializationError):
                deserialize_filter(wire[:length])

    @given(blob=st.binary(max_size=96))
    @settings(max_examples=120, deadline=None)
    def test_random_blobs_never_raise_foreign_exceptions(self, blob):
        try:
            deserialize_filter(blob)
        except FilterSerializationError:
            pass

    @pytest.mark.parametrize("name", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_mutated_real_images_contained(self, name, data):
        # A fresh Random per example: @given re-runs the body, and a
        # function-scoped fixture would leak state across examples.
        wire = bytearray(_image(__import__("random").Random(23), name))
        for _ in range(data.draw(st.integers(1, 4))):
            index = data.draw(st.integers(0, len(wire) - 1))
            wire[index] = data.draw(st.integers(0, 255))
        try:
            with allocation_bound(len(wire)):
                filt = deserialize_filter(bytes(wire))
        except FilterSerializationError:
            return
        assert serialize_filter(filt)
