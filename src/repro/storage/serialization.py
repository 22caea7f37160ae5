"""Byte-level codecs for UDA records and index entries.

Layouts (all little-endian):

* **UDA payload** — ``u16 count`` followed by ``count`` pairs of
  ``(u32 item, f32 prob)``.  This is the paper's "pairs" representation
  (Section 2): only items with non-zero probability are stored, and each
  list of pairs "also stores the number of pairs in the list" (Section 3.2).
* **Heap record** — ``u32 tid`` followed by a UDA payload.  PDR-tree
  leaves store their entries in the same layout, so one vectorized
  decoder (:func:`decode_records`) serves both.
* **Posting entry** — fixed 12 bytes: a big-endian order-preserving key
  (see :func:`encode_posting_key`) plus a ``f32`` probability.

The big-endian key trick: the B+-tree compares keys as raw bytes, so we
encode ``(descending probability, ascending tid)`` into 8 bytes whose
lexicographic byte order equals the logical order.  Probabilities are
quantized to 32-bit fixed point for the key; the exact ``f32`` probability
travels in the entry value.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.exceptions import SerializationError

_HEADER = struct.Struct("<H")
_PAIR = struct.Struct("<If")
_TID = struct.Struct("<I")

#: dtype of a decoded pairs array: item id + probability.
PAIRS_DTYPE = np.dtype([("item", "<u4"), ("prob", "<f4")])

#: Bytes of a heap/leaf record header: ``u32 tid`` + ``u16 count``.
RECORD_HEADER_SIZE = _TID.size + _HEADER.size

_U16 = np.dtype("<u2")
_U32 = np.dtype("<u4")
_F32 = np.dtype("<f4")

#: Fixed-point scale for posting keys (2**32 - 1).
_PROB_SCALE = 0xFFFFFFFF

#: Size in bytes of an encoded posting key and a full posting entry.
POSTING_KEY_SIZE = 8
POSTING_ENTRY_SIZE = 12


# ---------------------------------------------------------------------------
# UDA payloads
# ---------------------------------------------------------------------------

def uda_payload_size(num_pairs: int) -> int:
    """Size in bytes of a serialized UDA with ``num_pairs`` pairs."""
    return _HEADER.size + num_pairs * _PAIR.size


def encode_uda_payload(items: np.ndarray, probs: np.ndarray) -> bytes:
    """Serialize parallel item/prob arrays into a UDA payload."""
    count = len(items)
    if count != len(probs):
        raise SerializationError(
            f"items ({count}) and probs ({len(probs)}) differ in length"
        )
    if count > 0xFFFF:
        raise SerializationError(f"UDA has {count} pairs; maximum is 65535")
    pairs = np.empty(count, dtype=PAIRS_DTYPE)
    pairs["item"] = items
    pairs["prob"] = probs
    return _HEADER.pack(count) + pairs.tobytes()


def decode_uda_payload(buffer: bytes | bytearray | memoryview, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode a UDA payload at ``offset``.

    Returns
    -------
    (pairs, end_offset):
        ``pairs`` is a structured array with fields ``item`` and ``prob``;
        ``end_offset`` is the offset one past the payload.
    """
    (count,) = _HEADER.unpack_from(buffer, offset)
    start = offset + _HEADER.size
    end = start + count * _PAIR.size
    if end > len(buffer):
        raise SerializationError(
            f"UDA payload at offset {offset} claims {count} pairs but "
            f"overruns the {len(buffer)}-byte buffer"
        )
    pairs = np.frombuffer(buffer, dtype=PAIRS_DTYPE, count=count, offset=start)
    return pairs, end


# ---------------------------------------------------------------------------
# Heap records (tid + UDA)
# ---------------------------------------------------------------------------

def heap_record_size(num_pairs: int) -> int:
    """Size in bytes of a heap record holding ``num_pairs`` pairs."""
    return _TID.size + uda_payload_size(num_pairs)


def encode_heap_record(tid: int, items: np.ndarray, probs: np.ndarray) -> bytes:
    """Serialize ``(tid, UDA)`` into a heap record."""
    return _TID.pack(tid) + encode_uda_payload(items, probs)


def decode_heap_record(buffer: bytes | bytearray | memoryview, offset: int = 0) -> tuple[int, np.ndarray, int]:
    """Decode a heap record; returns ``(tid, pairs, end_offset)``."""
    if len(buffer) < offset + RECORD_HEADER_SIZE:
        raise SerializationError(
            f"heap record at offset {offset} is shorter than its "
            f"{RECORD_HEADER_SIZE}-byte header"
        )
    (tid,) = _TID.unpack_from(buffer, offset)
    pairs, end = decode_uda_payload(buffer, offset + _TID.size)
    return tid, pairs, end


def byte_windows(buffer: bytes | bytearray | memoryview, dtype: np.dtype) -> np.ndarray:
    """A ``dtype`` value at every byte offset of ``buffer`` (zero-copy).

    Element ``i`` reads the ``dtype.itemsize`` bytes starting at offset
    ``i``, so fancy-indexing the result with byte offsets gathers
    unaligned fields in one call (and copies them out of ``buffer``).
    """
    count = memoryview(buffer).nbytes - dtype.itemsize + 1
    return np.ndarray(
        (max(count, 0),), dtype=dtype, buffer=buffer, strides=(1,)
    )


def encode_records(
    tids: np.ndarray, items: np.ndarray, probs: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of :func:`decode_records`: N CSR rows as heap records.

    ``offsets`` starts at 0, as :func:`decode_records` returns it.
    Returns ``(buffer, lengths)``, the run
    :meth:`~repro.storage.heapfile.HeapFile.extend` takes: the records
    back to back in a uint8 array, record ``i`` being ``lengths[i]``
    bytes and equal to ``encode_heap_record(tids[i],
    items[offsets[i]:offsets[i + 1]], probs[offsets[i]:offsets[i + 1]])``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if (counts > 0xFFFF).any():
        raise SerializationError(
            f"UDA has {int(counts.max())} pairs; maximum is 65535"
        )
    width = PAIRS_DTYPE.itemsize
    lengths = RECORD_HEADER_SIZE + counts * width
    starts = np.cumsum(lengths) - lengths
    buffer = np.zeros(int(lengths.sum()), dtype=np.uint8)
    byte_windows(buffer, _U32)[starts] = tids
    byte_windows(buffer, _U16)[starts + _TID.size] = counts
    positions = np.repeat(starts + RECORD_HEADER_SIZE - offsets[:-1] * width, counts)
    positions += np.arange(offsets[-1]) * width
    byte_windows(buffer, _U32)[positions] = items
    byte_windows(buffer, _F32)[positions + _U32.itemsize] = probs
    return buffer, lengths


def decode_records(
    buffer: bytes | bytearray | memoryview,
    starts: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decode of ``(u32 tid, UDA payload)`` records into CSR.

    ``starts[i]`` is the byte offset of record ``i`` in ``buffer`` and
    ``ends[i]`` the offset its bytes must not pass.  Returns ``(tids,
    offsets, items, probs)``: record ``i`` holds
    ``items[offsets[i]:offsets[i + 1]]`` (int64) and the matching
    ``probs`` (float64, the stored f32 values), exactly the arrays
    :func:`decode_heap_record` yields per record.  Every output is a
    fresh array; none aliases ``buffer``.

    Raises :class:`SerializationError` for the first record whose header
    or pairs overrun its end.
    """
    width = PAIRS_DTYPE.itemsize
    starts = np.asarray(starts, dtype=np.int64)
    limits = np.minimum(
        np.asarray(ends, dtype=np.int64), memoryview(buffer).nbytes
    )
    pair_starts = starts + RECORD_HEADER_SIZE
    _first_overrun(pair_starts > limits, starts, "header")
    # Typed windows gather faster than the structured pair dtype.
    u32_at = byte_windows(buffer, _U32)
    counts = byte_windows(buffer, _U16)[starts + _TID.size].astype(np.int64)
    _first_overrun(pair_starts + counts * width > limits, starts, "pairs")
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Pair j of record i sits at pair_starts[i] + width * (j - offsets[i]).
    positions = np.repeat(pair_starts - offsets[:-1] * width, counts)
    positions += np.arange(offsets[-1]) * width
    return (
        u32_at[starts].astype(np.int64),
        offsets,
        u32_at[positions].astype(np.int64),
        byte_windows(buffer, _F32)[positions + _U32.itemsize].astype(
            np.float64
        ),
    )


def _first_overrun(bad: np.ndarray, starts: np.ndarray, part: str) -> None:
    if bad.any():
        row = int(np.argmax(bad))
        raise SerializationError(
            f"record {row} at offset {int(starts[row])}: its {part} "
            "overrun the record's bytes"
        )


# ---------------------------------------------------------------------------
# Posting keys and entries
# ---------------------------------------------------------------------------

def quantize_prob(prob: float) -> int:
    """Map a probability in [0, 1] to 32-bit fixed point (round-to-nearest)."""
    if not 0.0 <= prob <= 1.0:
        raise SerializationError(f"probability {prob} outside [0, 1]")
    return int(round(prob * _PROB_SCALE))


def encode_posting_key(prob: float, tid: int) -> bytes:
    """Encode ``(descending prob, ascending tid)`` as an 8-byte sortable key.

    The fixed-point probability is bit-flipped so that byte-lexicographic
    order puts *larger* probabilities first, matching the paper's
    descending-probability posting lists.
    """
    return struct.pack(">II", _PROB_SCALE - quantize_prob(prob), tid)


def decode_posting_key(key: bytes) -> tuple[float, int]:
    """Invert :func:`encode_posting_key` (probability is quantized)."""
    flipped, tid = struct.unpack(">II", key)
    return (_PROB_SCALE - flipped) / _PROB_SCALE, tid


def encode_posting_value(prob: float) -> bytes:
    """Encode the exact probability carried alongside the key."""
    return struct.pack("<f", prob)


def decode_posting_value(value: bytes) -> float:
    """Decode the exact probability from a posting value."""
    return struct.unpack("<f", value)[0]


def decode_posting_leaf(records: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of a run of posting entries.

    Parameters
    ----------
    records:
        Concatenated 12-byte posting entries (key + value), as stored in a
        B+-tree leaf.

    Returns
    -------
    (tids, probs):
        Parallel arrays in stored (descending-probability) order.
    """
    if len(records) % POSTING_ENTRY_SIZE:
        raise SerializationError(
            f"posting run of {len(records)} bytes is not a multiple of "
            f"{POSTING_ENTRY_SIZE}"
        )
    raw = np.frombuffer(
        records,
        dtype=np.dtype([("flipped", ">u4"), ("tid", ">u4"), ("prob", "<f4")]),
    )
    return raw["tid"].astype(np.int64), raw["prob"].astype(np.float64)
