"""The vectorized record decoder against the per-record codecs.

Heap records and PDR-tree leaf records share one layout
(``u32 tid, u16 n, n x (u32 item, f32 prob)``); :func:`decode_records`
decodes any run of them into CSR columns in one gather.  It must yield
exactly the arrays the per-record decoders yield, and reject overruns.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SerializationError
from repro.pdrtree import BoundaryCodec
from repro.pdrtree.node import LeafEntry, decode_leaf, encode_leaf
from repro.storage import Page
from repro.storage.serialization import (
    PAIRS_DTYPE,
    decode_heap_record,
    decode_records,
    encode_heap_record,
    encode_records,
)

records = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.dictionaries(
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0, width=32, exclude_min=True),
            max_size=9,
        ),
    ),
    max_size=30,
)


def encoded(run, gap=b""):
    """Concatenate heap records (optionally separated by filler bytes)."""
    buffer, starts, ends = b"", [], []
    for tid, pairs in run:
        items = np.asarray(sorted(pairs), dtype=np.int64)
        probs = np.asarray([pairs[i] for i in sorted(pairs)])
        buffer += gap
        starts.append(len(buffer))
        buffer += encode_heap_record(tid, items, probs)
        ends.append(len(buffer))
    return buffer, np.asarray(starts), np.asarray(ends)


@settings(max_examples=200, deadline=None)
@given(records, st.sampled_from([b"", b"\x01", b"\xff\xfe\xfd"]))
def test_matches_decode_heap_record(run, gap):
    buffer, starts, ends = encoded(run, gap)
    tids, offsets, items, probs = decode_records(buffer, starts, ends)
    assert offsets[0] == 0 and offsets[-1] == len(items) == len(probs)
    assert items.dtype == np.int64 and probs.dtype == np.float64
    assert len(tids) == len(run)
    for row, start in enumerate(starts.tolist()):
        tid, pairs, _ = decode_heap_record(buffer, start)
        assert tids[row] == tid
        span = slice(offsets[row], offsets[row + 1])
        assert items[span].tolist() == pairs["item"].astype(np.int64).tolist()
        assert probs[span].tolist() == pairs["prob"].astype(np.float64).tolist()


@settings(max_examples=200, deadline=None)
@given(records)
def test_encode_records_matches_encode_heap_record(run):
    buffer, starts, ends = encoded(run)
    tids, offsets, items, probs = decode_records(buffer, starts, ends)
    packed, lengths = encode_records(tids, items, probs, offsets)
    assert packed.tobytes() == buffer
    assert lengths.tolist() == (ends - starts).tolist()


def test_outputs_do_not_alias_the_buffer():
    buffer, starts, ends = encoded([(5, {1: 0.5, 2: 0.25})])
    writable = bytearray(buffer)
    columns = decode_records(writable, starts, ends)
    before = [column.tolist() for column in columns]
    writable[:] = bytes(len(writable))
    assert [column.tolist() for column in columns] == before


def test_header_overrun_rejected():
    buffer, starts, _ = encoded([(1, {0: 0.5}), (2, {1: 0.5})])
    with pytest.raises(SerializationError, match="record 1"):
        decode_records(buffer, starts, starts + np.array([14, 5]))


def test_pairs_overrun_rejected():
    buffer, starts, ends = encoded([(1, {0: 0.5, 3: 0.25})])
    with pytest.raises(SerializationError, match="pairs"):
        decode_records(buffer, starts, ends - 1)
    # An end past the buffer is clipped to it, never read beyond.
    with pytest.raises(SerializationError):
        decode_records(buffer[:-2], starts, ends)


def test_short_heap_record_is_a_serialization_error():
    with pytest.raises(SerializationError):
        decode_heap_record(b"\x01\x00\x00")


def test_empty_run():
    tids, offsets, items, probs = decode_records(b"", [], [])
    assert len(tids) == len(items) == len(probs) == 0
    assert offsets.tolist() == [0]


def reference_decode_leaf(page):
    """The per-entry leaf decode the columnar one replaced."""
    entries = []
    offset = 6
    for _ in range(page.read_u16(2)):
        tid, npairs = struct.unpack_from("<IH", page.data, offset)
        offset += 6
        pairs = np.frombuffer(page.data, PAIRS_DTYPE, npairs, offset)
        offset += npairs * PAIRS_DTYPE.itemsize
        entries.append(
            (tid, pairs["item"].astype(np.int64).tolist(),
             pairs["prob"].astype(np.float64).tolist())
        )
    return entries


@settings(max_examples=100, deadline=None)
@given(records)
def test_decode_leaf_matches_per_entry_decode(run):
    entries = [
        LeafEntry(
            tid=tid,
            items=np.asarray(sorted(pairs), dtype=np.int64),
            probs=np.asarray(
                [pairs[i] for i in sorted(pairs)], dtype=np.float32
            ).astype(np.float64),
        )
        for tid, pairs in run
    ]
    page = Page(0, size=4096)
    encode_leaf(page, BoundaryCodec(16), entries)
    expected = reference_decode_leaf(page)
    leaf = decode_leaf(page)
    assert len(leaf) == len(expected)
    for row, (tid, row_items, row_probs) in enumerate(expected):
        assert leaf.tids[row] == tid
        span = slice(leaf.offsets[row], leaf.offsets[row + 1])
        assert leaf.items[span].tolist() == row_items
        assert leaf.probs[span].tolist() == row_probs
        entry = leaf.entries[row]
        assert entry.tid == tid and entry.items.tolist() == row_items
        assert entry.probs.tolist() == row_probs


def test_decode_leaf_overrun_is_a_serialization_error():
    page = Page(0, size=128)
    encode_leaf(
        page, BoundaryCodec(16),
        [LeafEntry(tid=1, items=np.array([0, 1]), probs=np.array([0.5, 0.5]))],
    )
    struct.pack_into("<H", page.data, 6 + 4, 60000)  # absurd pair count
    with pytest.raises(SerializationError):
        decode_leaf(page)
