"""LSM-style posting segments for the mutable inverted index.

Static builds bulk-load one B+-tree per item (the *base* lists).  Online
inserts do not touch those trees: each new tuple's ``(tid, p)`` pairs
land in the posting lists of a small mutable :class:`PostingSegment`,
and when the active segment reaches its tuple capacity it is *sealed*
and a fresh one opens — the classic LSM write path, scaled down to the
paper's per-item lists.

Readers never see the segmentation: :class:`SegmentedPostingList` merges
one item's base list and segment lists into a single
descending-probability view with exactly the interface strategies
consume (``cursor`` / ``iter_leaf_arrays`` / ``read_all`` /
``read_prefix`` / ``head_page_ids``), so every search strategy and the
rank-join machinery run unchanged over a mutated index.  Compaction
(:meth:`ProbabilisticInvertedIndex.compact
<repro.invindex.index.ProbabilisticInvertedIndex.compact>`) folds the
segments back into freshly bulk-loaded base trees, restoring the static
build's exact page layout.

The merge compares *encoded keys* — the fixed-point quantized
probability with the tid in the low bits, the same total order the
B+-tree pages are sorted by — so the merged sequence is bit-identical to
what one bulk-loaded tree over the union would produce.  A tid occurs in
at most one part per item (inserts route a tuple wholly into one
segment), so keys never collide across parts.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.uda import UncertainAttribute
from repro.invindex.postings import PostingCursor, PostingList
from repro.storage.buffer import BufferPool

_U32_MAX = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)


def packed_posting_keys(tids, probs) -> np.ndarray:
    """The u64 sort keys of ``(tid, prob)`` pairs, ascending = list order.

    Mirrors :func:`repro.storage.serialization.encode_posting_key`:
    complemented fixed-point probability in the high 32 bits (so higher
    probability sorts first), tid in the low 32 (ascending tie-break).
    """
    quantized = np.rint(
        np.asarray(probs, dtype=np.float64) * 0xFFFFFFFF
    ).astype(np.uint64)
    tids = np.asarray(tids).astype(np.uint64)
    return ((_U32_MAX - quantized) << _SHIFT) | tids


class PostingSegment:
    """One mutable batch of recently inserted tuples.

    Holds a :class:`PostingList` per item touched by its tuples, plus
    the set of tids it owns.  Segments are tiny (a handful of leaf
    pages), so their trees stay shallow and cheap to merge.
    """

    def __init__(self, pool: BufferPool) -> None:
        self._pool = pool
        self.lists: dict[int, PostingList] = {}
        self.tids: set[int] = set()
        self.sealed = False

    @classmethod
    def attach(cls, pool: BufferPool, state: dict) -> "PostingSegment":
        """Re-attach a persisted segment (see :meth:`state`)."""
        segment = cls(pool)
        segment.sealed = bool(state["sealed"])
        segment.tids = {int(tid) for tid in state["tids"]}
        segment.lists = {
            int(item): PostingList.attach(pool, list_state)
            for item, list_state in state["lists"].items()
        }
        return segment

    def state(self) -> dict:
        """JSON-serializable attachment state."""
        return {
            "sealed": self.sealed,
            "tids": sorted(self.tids),
            "lists": {
                str(item): posting_list.state()
                for item, posting_list in self.lists.items()
            },
        }

    @property
    def pool(self) -> BufferPool:
        return self._pool

    @pool.setter
    def pool(self, pool: BufferPool) -> None:
        # Re-point only: the owning index flushed the shared old pool.
        self._pool = pool
        for posting_list in self.lists.values():
            posting_list.repoint(pool)

    def insert(self, tid: int, uda: UncertainAttribute) -> None:
        """Route one tuple's pairs into this segment's lists."""
        for item, prob in uda.pairs():
            posting_list = self.lists.get(item)
            if posting_list is None:
                posting_list = PostingList(self._pool)
                self.lists[item] = posting_list
            posting_list.insert(tid, prob)
        self.tids.add(tid)

    def remove(self, tid: int, uda: UncertainAttribute) -> None:
        """Remove one of this segment's tuples from its lists."""
        for item, prob in uda.pairs():
            self.lists[item].delete(tid, prob)
        self.tids.discard(tid)

    def __repr__(self) -> str:
        return (
            f"PostingSegment(tuples={len(self.tids)}, "
            f"items={len(self.lists)}, sealed={self.sealed})"
        )


class _PartStream:
    """Buffered head of one part during a k-way merge.

    Leaf pages load lazily — the next leaf is only fetched once the
    current one is fully consumed — so a query that stops early (every
    threshold/top-k strategy) pays I/O only for the prefix it reads,
    exactly like a single-tree cursor.
    """

    __slots__ = ("_runs", "tids", "probs", "keys", "pos", "exhausted")

    def __init__(self, part: PostingList) -> None:
        self._runs = part.iter_leaf_arrays()
        self.tids: np.ndarray | None = None
        self.probs: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self.pos = 0
        self.exhausted = False
        self.refill()

    def refill(self) -> None:
        """Load leaves until the buffer has unread entries, or exhaust."""
        while not self.exhausted and (
            self.keys is None or self.pos >= len(self.keys)
        ):
            try:
                self.tids, self.probs = next(self._runs)
            except StopIteration:
                self.exhausted = True
                self.tids = None
                self.probs = None
                self.keys = None
                return
            self.keys = packed_posting_keys(self.tids, self.probs)
            self.pos = 0

    def head_key(self) -> np.uint64:
        return self.keys[self.pos]


class SegmentedPostingList:
    """Read-only merged view over one item's base + segment lists.

    Duck-types the read side of :class:`PostingList`; the write methods
    are deliberately absent — updates go through the owning index, which
    routes them to the part that owns the tid.
    """

    def __init__(self, parts: list[PostingList]) -> None:
        if len(parts) < 2:
            raise ValueError("SegmentedPostingList needs >= 2 parts")
        self._parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def cursor(self) -> PostingCursor:
        """A cursor positioned at the merged head (highest probability)."""
        return PostingCursor(self)

    def head_page_ids(self) -> list[int]:
        """Pin-ahead hint: every part's root -> head-leaf path, in order.

        Opening a merged cursor loads each part's first leaf (the merge
        needs every head to compare), so all of these pages are fetched
        up front.
        """
        page_ids: list[int] = []
        for part in self._parts:
            page_ids.extend(part.head_page_ids())
        return page_ids

    def iter_leaf_arrays(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield merged ``(tids, probs)`` runs in global list order.

        Chunked k-way merge: the stream with the smallest head key emits
        its buffered prefix up to the smallest *other* head key in one
        slice (keys within a part ascend across leaves, so the bound is
        global, not per-leaf).  Runs are slices of the parts' decoded
        leaf arrays — no per-posting Python loop, and callers must not
        mutate them, same contract as :meth:`PostingList.iter_leaf_arrays`.
        """
        streams = [_PartStream(part) for part in self._parts]
        while True:
            live = [stream for stream in streams if not stream.exhausted]
            if not live:
                return
            if len(live) == 1:
                stream = live[0]
                yield stream.tids[stream.pos :], stream.probs[stream.pos :]
                stream.pos = len(stream.keys)
                stream.refill()
                continue
            head = min(live, key=_PartStream.head_key)
            bound = min(
                stream.head_key() for stream in live if stream is not head
            )
            # Keys are unique across parts, so at least the head entry
            # itself is strictly below the bound.
            end = int(np.searchsorted(head.keys, bound, side="left"))
            yield head.tids[head.pos : end], head.probs[head.pos : end]
            head.pos = end
            head.refill()

    def read_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Read every part wholly; returns merged ``(tids, probs)``."""
        return self._merge_reads([part.read_all() for part in self._parts])

    def read_prefix(self, min_prob: float) -> tuple[np.ndarray, np.ndarray]:
        """Merged entries with ``prob >= min_prob``; per-part early stop."""
        return self._merge_reads(
            [part.read_prefix(min_prob) for part in self._parts]
        )

    @staticmethod
    def _merge_reads(
        reads: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        tid_runs = [tids for tids, _ in reads if len(tids)]
        prob_runs = [probs for _, probs in reads if len(probs)]
        if not tid_runs:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if len(tid_runs) == 1:
            return tid_runs[0], prob_runs[0]
        tids = np.concatenate(tid_runs)
        probs = np.concatenate(prob_runs)
        order = np.argsort(packed_posting_keys(tids, probs))
        return tids[order], probs[order]

    def __repr__(self) -> str:
        return f"SegmentedPostingList(parts={len(self._parts)}, len={len(self)})"
