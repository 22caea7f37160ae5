"""Tests for :mod:`repro.pdrtree.node` (on-page layouts)."""

import numpy as np
import pytest

from repro.core import PageError, SerializationError
from repro.pdrtree import BoundaryCodec, BoundaryVector
from repro.pdrtree.node import (
    PDR_INTERNAL,
    PDR_LEAF,
    ChildEntry,
    LeafEntry,
    decode_internal,
    decode_leaf,
    encode_internal,
    encode_leaf,
    node_kind,
)
from repro.storage import Page


@pytest.fixture()
def codec():
    return BoundaryCodec(16)


def leaf_entry(tid, pairs):
    items = np.array([i for i, _ in pairs], dtype=np.int64)
    probs = np.array([p for _, p in pairs])
    return LeafEntry(tid=tid, items=items, probs=probs)


def child_entry(child_id, pairs):
    items = np.array([i for i, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs])
    return ChildEntry(child_id=child_id, boundary=BoundaryVector(items, values))


class TestLeafLayout:
    def test_round_trip(self, codec):
        page = Page(0, size=512)
        entries = [
            leaf_entry(7, [(0, 0.5), (3, 0.5)]),
            leaf_entry(9, [(1, 1.0)]),
            leaf_entry(11, [(0, 0.25), (1, 0.25), (2, 0.5)]),
        ]
        encode_leaf(page, codec, entries)
        assert node_kind(page) == PDR_LEAF
        decoded = decode_leaf(page)
        assert [e.tid for e in decoded] == [7, 9, 11]
        for original, got in zip(entries, decoded):
            assert got.items.tolist() == original.items.tolist()
            assert got.probs.tolist() == pytest.approx(original.probs.tolist())

    def test_empty_leaf(self, codec):
        page = Page(0, size=128)
        encode_leaf(page, codec, [])
        assert list(decode_leaf(page)) == []

    def test_overflow_rejected(self, codec):
        page = Page(0, size=64)
        entries = [leaf_entry(i, [(0, 0.5), (1, 0.5)]) for i in range(10)]
        with pytest.raises(SerializationError):
            encode_leaf(page, codec, entries)

    def test_decode_wrong_kind(self, codec):
        page = Page(0, size=128)
        encode_internal(page, codec, [child_entry(1, [(0, 1.0)])])
        with pytest.raises(PageError):
            decode_leaf(page)

    def test_encoded_size(self):
        entry = leaf_entry(1, [(0, 0.5), (1, 0.5)])
        assert entry.encoded_size == 6 + 2 * 8


class TestInternalLayout:
    def test_round_trip(self, codec):
        page = Page(0, size=512)
        entries = [
            child_entry(100, [(0, 0.5), (4, 0.9)]),
            child_entry(200, [(1, 1.0)]),
        ]
        encode_internal(page, codec, entries)
        assert node_kind(page) == PDR_INTERNAL
        decoded = decode_internal(page, codec)
        assert [e.child_id for e in decoded] == [100, 200]
        assert decoded[0].boundary.items.tolist() == [0, 4]

    def test_compressed_round_trip(self):
        codec = BoundaryCodec(16, bits=2)
        page = Page(0, size=512)
        entries = [child_entry(5, [(0, 0.62), (3, 0.4)])]
        encode_internal(page, codec, entries)
        decoded = decode_internal(page, codec)
        # Values come back as their quantized over-estimates.
        assert decoded[0].boundary.values.tolist() == pytest.approx([0.75, 0.5])

    def test_codec_tag_mismatch_detected(self):
        raw = BoundaryCodec(16)
        packed = BoundaryCodec(16, bits=4)
        page = Page(0, size=512)
        encode_internal(page, raw, [child_entry(1, [(0, 1.0)])])
        with pytest.raises(PageError):
            decode_internal(page, packed)

    def test_overflow_rejected(self, codec):
        page = Page(0, size=64)
        entries = [
            child_entry(i, [(j, 0.5) for j in range(8)]) for i in range(4)
        ]
        with pytest.raises(SerializationError):
            encode_internal(page, codec, entries)

    def test_decode_wrong_kind(self, codec):
        page = Page(0, size=128)
        encode_leaf(page, codec, [leaf_entry(1, [(0, 1.0)])])
        with pytest.raises(PageError):
            decode_internal(page, codec)
