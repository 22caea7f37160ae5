"""Deterministic hashing primitives for the sketch subsystem.

Everything here is a pure function of ``(seed, input)`` built on a
vectorized splitmix64 finalizer — **never** Python's salted ``hash``
— because sharded deployments rebuild sketches independently in worker
processes (:func:`repro.shard.index.build_shard_index`) and the band
tables must agree across processes and runs.

Three derived families share the one mixer, each under its own seed
stream.  The stored sketches of many tuples are computed together, over
their UDAs as CSR rows, a column at a time (see "CSR rows" below):

* **support fingerprint** — a 64-bit Bloom filter (one hash) of the
  UDA's support set.  A *clear* bit is a certificate that the tuple
  stores probability exactly 0 for every query item hashing to it;
  that certificate is what makes the divergence lower bounds of
  :mod:`repro.sketch.bounds` sound.
* **signed projections** — Rademacher ±1 signs per (projection, item),
  giving the Hölder bound ``|<r, q - v>| <= ||q - v||_1``.
* **MinHash** — ``num_perm`` independent 32-bit min-hashes over the
  support set, banded for LSH candidate generation (the
  datasketch-style production framing; see SNIPPETS.md §1).
"""

from __future__ import annotations

import numpy as np

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

#: Seed-stream offsets so the fingerprint, projection, and MinHash
#: families draw from disjoint hash streams under one user seed.
_STREAM_FINGERPRINT = np.uint64(0x0F1A9E5D)
_STREAM_PROJECTION = np.uint64(0x51A7C0DE)
_STREAM_MINHASH = np.uint64(0xB10C8A5E)


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array.

    Array integer arithmetic wraps modulo 2**64 without a warning, which
    is the arithmetic splitmix64 wants.
    """
    z = values.astype(np.uint64, copy=True) + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _stream_key(stream: np.uint64, seed: int) -> np.uint64:
    """``seed * gamma + stream`` modulo 2**64: one hash stream's key."""
    return np.uint64((seed * int(_SPLITMIX_GAMMA) + int(stream)) % 2**64)


def _keyed(items: np.ndarray, stream: np.uint64, seed: int) -> np.ndarray:
    return mix64(items.astype(np.uint64) ^ _stream_key(stream, seed))


def fingerprint_bits(items: np.ndarray, seed: int) -> np.ndarray:
    """Per-item 64-bit one-hot masks (uint64), one bit per item hash."""
    bits = _keyed(items, _STREAM_FINGERPRINT, seed) & np.uint64(63)
    return np.left_shift(np.uint64(1), bits)


def projection_signs(
    items: np.ndarray, num_projections: int, seed: int
) -> np.ndarray:
    """Rademacher ±1 signs, shape ``(num_projections, len(items))``.

    Sign ``j`` of item ``i`` is bit ``j`` of the item's keyed hash, so
    up to 64 projections share one mix per item.
    """
    hashed = _keyed(items, _STREAM_PROJECTION, seed)
    shifts = np.arange(num_projections, dtype=np.uint64)[:, None]
    bits = (hashed[None, :] >> shifts) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def project(
    items: np.ndarray,
    probs: np.ndarray,
    num_projections: int,
    seed: int,
) -> np.ndarray:
    """One query's signed-projection coordinates (see :func:`projections`)."""
    if len(items) == 0:
        return np.zeros(num_projections)
    signs = projection_signs(items, num_projections, seed)
    return signs @ np.asarray(probs, dtype=np.float64)


#: Values a blocked computation over CSR rows holds at once (see
#: :func:`minhash_signatures`): small inputs go in one block, large ones
#: keep their temporaries bounded.
BLOCK_VALUES = 1 << 15


# -- CSR rows -----------------------------------------------------------------
#
# Every function below takes N rows in CSR form -- row ``i`` holds
# ``items[offsets[i]:offsets[i + 1]]`` -- and returns one value per row
# from a fixed number of array operations: one segmented reduction per
# output column, never a loop over rows.


def _nonempty_starts(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, starts)`` of the rows holding at least one element.

    ``ufunc.reduceat`` over the non-empty rows' starts reduces exactly
    each such row: an empty row between two others contributes nothing.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    nonempty = offsets[1:] > offsets[:-1]
    return nonempty, offsets[:-1][nonempty]


def row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each row's ``values[..., offsets[i]:offsets[i + 1]].sum(axis=-1)``, bit for bit.

    ``values`` may stack several columns over the same rows (shape
    ``(..., nnz)``; the result is ``(..., rows)``).  ``np.add.reduceat``
    adds a segment's first element to numpy's pairwise sum of the rest,
    where ``ndarray.sum`` pairwise-sums the whole segment; the two
    differ in the last bit once a row has more than eight elements.  A
    0.0 placed in front of every row makes reduceat's first element that
    zero, so its result is the pairwise sum of the row itself.  An empty
    row sums to 0.0.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    rows = len(offsets) - 1
    nnz = values.shape[-1]
    padded = np.zeros((*values.shape[:-1], nnz + rows))
    if rows <= 0:
        return padded
    shift = np.repeat(np.arange(1, rows + 1), np.diff(offsets))
    padded[..., np.arange(nnz) + shift] = values
    return np.add.reduceat(padded, offsets[:-1] + np.arange(rows), axis=-1)


def fingerprints(items: np.ndarray, offsets: np.ndarray, seed: int) -> np.ndarray:
    """Each row's support fingerprint: the OR of its items' one-hot masks
    (uint64; 0 for an empty row)."""
    nonempty, starts = _nonempty_starts(offsets)
    out = np.zeros(len(nonempty), dtype=np.uint64)
    if len(starts):
        out[nonempty] = np.bitwise_or.reduceat(fingerprint_bits(items, seed), starts)
    return out


def projections(
    items: np.ndarray,
    probs: np.ndarray,
    offsets: np.ndarray,
    num_projections: int,
    seed: int,
) -> np.ndarray:
    """Signed-projection coordinates ``s_j = sum_i sign_j(i) * p_i``.

    Shape ``(rows, num_projections)``.  Sign ``j`` of item ``i`` is bit
    ``j`` of the item's keyed hash (``+1`` when set), so up to 64
    projections share one mix per item.  The projections are summed a
    block at a time (:data:`BLOCK_VALUES`), each row's terms in stored
    order by :func:`row_sums`.  For f32-exact probabilities of at least
    2**-29 whose absolute sum is at most 2, every partial sum is exact
    in float64, so this equals any other summation order, the BLAS one
    of :func:`project` included.
    """
    probs = np.asarray(probs, dtype=np.float64)
    hashed = _keyed(np.asarray(items), _STREAM_PROJECTION, seed)
    out = np.empty((len(offsets) - 1, num_projections))
    step = max(1, BLOCK_VALUES // max(len(probs), 1))
    for first in range(0, num_projections, step):
        shifts = np.arange(first, min(first + step, num_projections), dtype=np.uint64)
        bits = (hashed[None, :] >> shifts[:, None]) & np.uint64(1)
        out[:, first : first + len(shifts)] = row_sums(
            np.where(bits == 1, probs, -probs), offsets
        ).T
    return out


def minhash_signatures(
    items: np.ndarray, offsets: np.ndarray, num_perm: int, seed: int
) -> np.ndarray:
    """MinHash signatures of every row's support set, ``(rows, num_perm)`` uint32.

    Permutation ``j`` hashes every item under its own derived key and
    keeps each row's minimum; an empty support yields the all-ones
    signature (which collides only with other empty supports).  The
    permutations are hashed a block at a time, so the temporaries stay
    near :data:`BLOCK_VALUES` hashes however many pairs the rows hold.
    """
    nonempty, starts = _nonempty_starts(offsets)
    out = np.full((len(nonempty), num_perm), 0xFFFFFFFF, dtype=np.uint32)
    if not len(starts):
        return out
    perm_keys = mix64(
        np.arange(num_perm, dtype=np.uint64) + _stream_key(_STREAM_MINHASH, seed)
    )
    items = np.asarray(items).astype(np.uint64)
    rows = np.flatnonzero(nonempty)
    step = max(1, BLOCK_VALUES // len(items))
    for first in range(0, num_perm, step):
        keys = perm_keys[first : first + step]
        hashed = mix64(items[None, :] ^ keys[:, None]) >> np.uint64(32)
        minima = np.minimum.reduceat(hashed, starts, axis=1)
        out[rows, first : first + len(keys)] = minima.T
    return out


def band_keys(signature: np.ndarray, bands: int) -> list[bytes]:
    """Split a signature into ``bands`` row-groups, one hashable key each."""
    rows = len(signature) // bands
    signature = np.asarray(signature, dtype="<u4")
    return [
        bytes([band]) + signature[band * rows : (band + 1) * rows].tobytes()
        for band in range(bands)
    ]
