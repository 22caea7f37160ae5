"""On-page layouts for PDR-tree nodes.

PDR nodes hold variable-length entries, so unlike the B+-tree they are
decoded on fetch and re-encoded wholesale on update (CPU cost, never
extra I/O).  A leaf decodes into a :class:`LeafNode`: CSR columns that
queries score in one pass; writers build per-entry objects from it.

Leaf layout::

    0  u8   node_type (2)
    1  u8   codec tag (sanity check against the tree's codec)
    2  u16  count
    4  u16  used   (offset one past the last record; enables O(1) appends)
    6  records:  u32 tid, u16 npairs, npairs * (u32 item, f32 prob)
       pairs ascending by item — the UDA "pairs" representation, which
       "also stores the number of pairs in the list"

Internal layout::

    0  u8   node_type (3)
    1  u8   codec tag
    2  u16  count
    4  entries:  u32 child page id, then the codec-encoded boundary
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import PageError, SerializationError
from repro.pdrtree.compression import BoundaryCodec
from repro.pdrtree.mbr import BoundaryVector
from repro.storage.page import Page
from repro.storage.serialization import decode_records

PDR_LEAF = 2
PDR_INTERNAL = 3

LEAF_HEADER_SIZE = 6
INTERNAL_HEADER_SIZE = 4
_LEAF_RECORD_HEADER = struct.Struct("<IH")
_CHILD = struct.Struct("<I")
_PAIRS_DTYPE = np.dtype([("item", "<u4"), ("prob", "<f4")])


@dataclass
class LeafEntry:
    """One stored UDA: tuple id plus its sparse pairs."""

    tid: int
    items: np.ndarray
    probs: np.ndarray

    @property
    def encoded_size(self) -> int:
        return _LEAF_RECORD_HEADER.size + len(self.items) * _PAIRS_DTYPE.itemsize


class LeafNode:
    """A decoded leaf as CSR columns: what queries score in one pass.

    Entry ``i`` is tuple ``tids[i]`` with pairs
    ``items[offsets[i]:offsets[i + 1]]`` and the matching ``probs``.
    Writers, which need :class:`LeafEntry` objects, build them with
    :attr:`entries` (views into the columns).  The node lives in the
    pool's decoded cache under the page's version; treat it as
    immutable.
    """

    __slots__ = ("tids", "offsets", "items", "probs")

    def __init__(
        self,
        tids: np.ndarray,
        offsets: np.ndarray,
        items: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        self.tids = tids
        self.offsets = offsets
        self.items = items
        self.probs = probs

    @property
    def entries(self) -> list[LeafEntry]:
        bounds = self.offsets.tolist()
        items, probs = self.items, self.probs
        return [
            LeafEntry(tid=tid, items=items[start:end], probs=probs[start:end])
            for tid, start, end in zip(self.tids.tolist(), bounds, bounds[1:])
        ]

    def __len__(self) -> int:
        return len(self.tids)

    def __iter__(self):
        return iter(self.entries)


@dataclass
class ChildEntry:
    """One child reference: page id plus its boundary (scheme space)."""

    child_id: int
    boundary: BoundaryVector

    def encoded_size(self, codec: BoundaryCodec) -> int:
        return _CHILD.size + codec.encoded_size(len(self.boundary))


def leaf_capacity_bytes(page_size: int) -> int:
    """Bytes available for leaf records."""
    return page_size - LEAF_HEADER_SIZE


def leaf_used_bytes(page: Page) -> int:
    """Offset one past the last record of a formatted leaf."""
    return page.read_u16(4)


def _write_leaf_record(page: Page, offset: int, entry: LeafEntry) -> int:
    _LEAF_RECORD_HEADER.pack_into(page.data, offset, entry.tid, len(entry.items))
    pairs = np.empty(len(entry.items), dtype=_PAIRS_DTYPE)
    pairs["item"] = entry.items
    pairs["prob"] = entry.probs
    page.write_bytes(offset + _LEAF_RECORD_HEADER.size, pairs.tobytes())
    return offset + entry.encoded_size


def encode_leaf(page: Page, codec: BoundaryCodec, entries: list[LeafEntry]) -> None:
    """Serialize a leaf node onto ``page``."""
    page.zero()
    page.write_u8(0, PDR_LEAF)
    page.write_u8(1, codec.tag)
    page.write_u16(2, len(entries))
    offset = LEAF_HEADER_SIZE
    for entry in entries:
        if offset + entry.encoded_size > page.size:
            raise SerializationError(
                f"leaf overflow: {len(entries)} entries need more than "
                f"{page.size} bytes"
            )
        offset = _write_leaf_record(page, offset, entry)
    page.write_u16(4, offset)


def append_leaf_record(page: Page, entry: LeafEntry) -> bool:
    """Append one record in place; returns False when it does not fit."""
    if page.read_u8(0) != PDR_LEAF:
        raise PageError(f"page {page.page_id} is not a PDR leaf")
    used = page.read_u16(4)
    if used + entry.encoded_size > page.size:
        return False
    end = _write_leaf_record(page, used, entry)
    page.write_u16(2, page.read_u16(2) + 1)
    page.write_u16(4, end)
    return True


def decode_leaf(page: Page) -> LeafNode:
    """Deserialize the leaf node stored on ``page`` (one vectorized gather).

    Only the record headers are walked in Python, to find where each
    record starts; :func:`~repro.storage.serialization.decode_records`
    then decodes every record at once into fresh arrays.
    """
    if page.read_u8(0) != PDR_LEAF:
        raise PageError(f"page {page.page_id} is not a PDR leaf")
    data = page.data
    unpack = _LEAF_RECORD_HEADER.unpack_from
    header, width = _LEAF_RECORD_HEADER.size, _PAIRS_DTYPE.itemsize
    last = page.size - header
    starts = []
    offset = LEAF_HEADER_SIZE
    for _ in range(page.read_u16(2)):
        starts.append(offset)
        if offset > last:
            break  # decode_records reports the overrun
        offset += header + width * unpack(data, offset)[1]
    ends = np.full(len(starts), page.size, dtype=np.int64)
    return LeafNode(*decode_records(data, starts, ends))


def encode_internal(
    page: Page, codec: BoundaryCodec, entries: list[ChildEntry]
) -> None:
    """Serialize an internal node onto ``page``."""
    page.zero()
    page.write_u8(0, PDR_INTERNAL)
    page.write_u8(1, codec.tag)
    page.write_u16(2, len(entries))
    offset = INTERNAL_HEADER_SIZE
    for entry in entries:
        encoded = codec.encode(entry.boundary.items, entry.boundary.values)
        end = offset + _CHILD.size + len(encoded)
        if end > page.size:
            raise SerializationError(
                f"internal overflow: {len(entries)} entries need more than "
                f"{page.size} bytes"
            )
        _CHILD.pack_into(page.data, offset, entry.child_id)
        page.write_bytes(offset + _CHILD.size, encoded)
        offset = end


def decode_internal(page: Page, codec: BoundaryCodec) -> list[ChildEntry]:
    """Deserialize the internal node stored on ``page``.

    Decoded boundary values are the codec's over-estimates; re-encoding
    them is idempotent, so boundaries never drift across updates.
    """
    if page.read_u8(0) != PDR_INTERNAL:
        raise PageError(f"page {page.page_id} is not a PDR internal node")
    if page.read_u8(1) != codec.tag:
        raise PageError(
            f"page {page.page_id} was written with codec tag "
            f"{page.read_u8(1)}, expected {codec.tag}"
        )
    count = page.read_u16(2)
    entries = []
    offset = INTERNAL_HEADER_SIZE
    # Zero-copy window; codec.decode materializes via .astype copies.
    buffer = page.view()
    for _ in range(count):
        (child_id,) = _CHILD.unpack_from(buffer, offset)
        offset += _CHILD.size
        items, values, offset = codec.decode(buffer, offset)
        entries.append(
            ChildEntry(child_id=child_id, boundary=BoundaryVector(items, values))
        )
    return entries


def node_kind(page: Page) -> int:
    """The PDR node-type tag of a formatted page."""
    return page.read_u8(0)
