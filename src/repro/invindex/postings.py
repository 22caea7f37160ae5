"""Posting lists for the probabilistic inverted index.

A posting list for domain item ``d`` holds the pairs
``{(tid, p) : Pr(tid = d) = p > 0}`` *sorted by descending probability* —
the defining twist of the paper's probabilistic inverted index
(Section 3.1).  Each list is "organized as [a] dynamic structure ... such
as B-trees, allowing efficient searches, insertions, and deletions"; we
store it in a :class:`~repro.btree.BPlusTree` keyed by the
order-preserving ``(descending prob, ascending tid)`` byte encoding of
:mod:`repro.storage.serialization`.

:class:`PostingCursor` is the scan primitive every search strategy is
written against: it walks a list head-to-tail (highest probability
first), decoding one leaf page per fetch.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.btree import BPlusTree
from repro.btree.node import LeafView
from repro.core.exceptions import KeyNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.page import Page
from repro.storage.serialization import (
    POSTING_KEY_SIZE,
    decode_posting_leaf,
    encode_posting_key,
    encode_posting_value,
)

#: DecodedCache kind for a posting leaf's ``(tids, probs)`` array pair.
POSTING_LEAF_KIND = "posting-leaf"


def _decode_leaf_arrays(page: Page) -> tuple[np.ndarray, np.ndarray]:
    """Decode a posting leaf page into independent ``(tids, probs)`` arrays."""
    leaf = LeafView(page, POSTING_KEY_SIZE, 4)
    return decode_posting_leaf(leaf.records_view())


class PostingList:
    """One domain item's descending-probability posting list."""

    def __init__(self, pool: BufferPool) -> None:
        self._tree = BPlusTree(
            pool, key_size=POSTING_KEY_SIZE, value_size=4, tag="postings"
        )

    @classmethod
    def attach(cls, pool: BufferPool, state: dict) -> "PostingList":
        """Re-attach to a persisted posting list (see :meth:`state`)."""
        posting_list = cls.__new__(cls)
        posting_list._tree = BPlusTree.attach(
            pool,
            key_size=POSTING_KEY_SIZE,
            value_size=4,
            tag="postings",
            root_page_id=int(state["root_page_id"]),
            height=int(state["height"]),
            num_records=int(state["num_records"]),
        )
        return posting_list

    def state(self) -> dict:
        """JSON-serializable attachment state."""
        return self._tree.state()

    @property
    def pool(self) -> BufferPool:
        return self._tree.pool

    @pool.setter
    def pool(self, pool: BufferPool) -> None:
        # Flush first: dirty pages stranded in the old pool would leave
        # stale bytes (dangling leaf chains) on disk for the new pool.
        self._tree.pool.flush_all()
        self.repoint(pool)

    def repoint(self, pool: BufferPool) -> None:
        """Switch to ``pool`` without flushing the old one.

        For owners that share one pool among many lists and flush it
        once themselves before re-pointing them all.
        """
        self._tree.pool = pool

    def __len__(self) -> int:
        return len(self._tree)

    # -- updates -------------------------------------------------------------

    def insert(self, tid: int, prob: float) -> None:
        """Add the pair ``(tid, prob)``."""
        self._tree.insert(encode_posting_key(prob, tid), encode_posting_value(prob))

    def delete(self, tid: int, prob: float) -> None:
        """Remove the pair ``(tid, prob)``; raises if absent."""
        try:
            self._tree.delete(encode_posting_key(prob, tid))
        except KeyNotFoundError:
            raise KeyNotFoundError(
                f"posting (tid={tid}, prob={prob}) not present"
            ) from None

    def bulk_build(self, tids: np.ndarray, probs: np.ndarray) -> None:
        """Bulk-load postings (any order; sorted internally).

        Entries are ordered by the *encoded key* — the fixed-point
        quantized probability, not the raw float — because distinct
        float32 probabilities can quantize to the same key prefix, and
        within such a tie the tid must ascend for keys to be strictly
        ascending.
        """
        quantized = np.rint(
            np.asarray(probs, dtype=np.float64) * 0xFFFFFFFF
        ).astype(np.uint64)
        order = np.lexsort((tids, -quantized.astype(np.int64)))

        def records() -> Iterator[tuple[bytes, bytes]]:
            for i in order:
                prob = float(probs[i])
                yield (
                    encode_posting_key(prob, int(tids[i])),
                    encode_posting_value(prob),
                )

        self._tree.bulk_load(records())

    # -- scans ---------------------------------------------------------------

    def cursor(self) -> "PostingCursor":
        """A cursor positioned at the head (highest probability)."""
        return PostingCursor(self)

    def head_page_ids(self) -> list[int]:
        """Page-id path root -> head leaf, in the order a cursor reads them.

        The batch executor's pin-ahead hint: every strategy that touches
        this list fetches exactly these pages first (opening a cursor,
        starting a scan, or reading a prefix), so prefetching them is
        guaranteed useful work.
        """
        return self._tree.leftmost_path_ids()

    def iter_leaf_arrays(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield each leaf's ``(tids, probs)`` pair, head to tail.

        One page fetch per leaf; the arrays come from the pool's decoded
        cache and are shared across scans — callers must not mutate them
        (mask/slice instead).
        """
        decoded = self._tree.pool.decoded
        for page in self._tree.iter_leaf_pages():
            yield decoded.get_or_decode(
                POSTING_LEAF_KIND, page, _decode_leaf_arrays
            )

    def read_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Read the entire list; returns ``(tids, probs)`` descending.

        This is the brute-force access path (`inv-index-search`): every
        leaf page of the list is fetched.
        """
        tid_runs = []
        prob_runs = []
        for tids, probs in self.iter_leaf_arrays():
            tid_runs.append(tids)
            prob_runs.append(probs)
        if not tid_runs:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(tid_runs), np.concatenate(prob_runs)

    def read_prefix(self, min_prob: float) -> tuple[np.ndarray, np.ndarray]:
        """Read the head of the list down to probability ``min_prob``.

        Stops fetching leaf pages as soon as a page's tail probability
        falls below ``min_prob`` — the column-pruning access path.
        Returned arrays contain exactly the entries with
        ``prob >= min_prob``.
        """
        tid_runs = []
        prob_runs = []
        for tids, probs in self.iter_leaf_arrays():
            if len(probs) == 0:
                continue
            keep = probs >= min_prob
            tid_runs.append(tids[keep])
            prob_runs.append(probs[keep])
            if not keep[-1]:
                break
        if not tid_runs:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(tid_runs), np.concatenate(prob_runs)


class PostingCursor:
    """Head-to-tail iterator over a posting list.

    The cursor exposes the probability at its current position
    (:meth:`head_prob`) — the ``p'`` of the paper's stopping criteria —
    and advances one posting at a time.  Leaf pages are fetched lazily,
    one per :meth:`PostingList.iter_leaf_arrays` step, so I/O is only
    paid for the prefix actually consumed.
    """

    __slots__ = ("_runs", "_tids", "_probs", "_pos", "exhausted")

    def __init__(self, posting_list: PostingList) -> None:
        self._runs = posting_list.iter_leaf_arrays()
        self._tids: np.ndarray | None = None
        self._probs: np.ndarray | None = None
        self._pos = 0
        self.exhausted = False
        self._ensure_loaded()

    def _ensure_loaded(self) -> None:
        """Load leaf runs until one has unread entries, or exhaust."""
        while not self.exhausted and (
            self._tids is None or self._pos >= len(self._tids)
        ):
            try:
                self._tids, self._probs = next(self._runs)
            except StopIteration:
                self.exhausted = True
                self._tids = None
                self._probs = None
                return
            self._pos = 0

    def head_prob(self) -> float:
        """Probability at the cursor, or 0.0 when exhausted."""
        if self.exhausted:
            return 0.0
        return float(self._probs[self._pos])

    def peek(self) -> tuple[int, float] | None:
        """The pair at the cursor without advancing, or None."""
        if self.exhausted:
            return None
        return int(self._tids[self._pos]), float(self._probs[self._pos])

    def pop(self) -> tuple[int, float]:
        """Consume and return the pair at the cursor."""
        if self.exhausted:
            raise StopIteration("posting cursor is exhausted")
        pair = int(self._tids[self._pos]), float(self._probs[self._pos])
        self._pos += 1
        self._ensure_loaded()
        return pair

    def pop_run(self) -> tuple[np.ndarray, np.ndarray]:
        """Consume the rest of the current leaf's entries at once.

        Leaf-granularity consumption matches the I/O the cursor already
        paid (the page is read whole) and lets search strategies process
        postings in vectorized batches.  Returns ``(tids, probs)`` in
        descending-probability order.
        """
        if self.exhausted:
            raise StopIteration("posting cursor is exhausted")
        tids = self._tids[self._pos :]
        probs = self._probs[self._pos :]
        self._pos = len(self._tids)
        self._ensure_loaded()
        return tids, probs
