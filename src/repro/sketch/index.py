"""The paged sketch store both index families attach.

A :class:`SketchIndex` owns two append-only heap files on the host
index's disk, both under the page tag :data:`SKETCH_TAG` so sketch
reads show up under their own key in
:meth:`~repro.storage.disk.DiskManager.snapshot_tags` — counted,
CRC-verified, and fault-injectable like every other page:

* the **projection heap** — one fixed-width record per tuple
  (:func:`repro.sketch.bounds.record_dtype`), scanned per query by
  exact mode to compute divergence lower bounds;
* the **signature heap** — one MinHash signature per tuple, read once
  at attach time to rebuild the in-memory LSH band tables (a catalog,
  like the tid -> rid directory: query-time lookups are free, the
  persisted truth still lives in counted pages).

Mutability mirrors the host index: inserts append (the write path the
WAL replays through), deletes drop the tid from the live set while the
stale record lingers until the host's ``compact()`` rebuilds the store
deterministically, and a scan resolves duplicate tids by letting the
later record win — exactly the heap-scan convention of
:meth:`ProbabilisticInvertedIndex.load`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.exceptions import QueryError
from repro.sketch.bounds import QuerySketch, encode_records, record_dtype
from repro.sketch.minhash import BLOCK_VALUES, band_keys, minhash_signatures
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, extend_interleaved

#: Page tag under which every sketch page is allocated and read.
SKETCH_TAG = "sketch"


@dataclass(frozen=True)
class SketchParams:
    """Build-time knobs of a sketch store.

    ``bands`` must divide ``num_perm``; with ``rows = num_perm / bands``
    per band, a candidate is surfaced when any band's rows all collide,
    so raising ``bands`` (fewer rows each) raises recall and candidate
    count together — the axis ``benchmarks/bench_abl_sketch.py`` sweeps.
    """

    num_perm: int = 32
    bands: int = 32
    num_projections: int = 2
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.num_perm < 1:
            raise QueryError(f"num_perm must be >= 1, got {self.num_perm}")
        if not 1 <= self.bands <= min(self.num_perm, 255):
            raise QueryError(
                f"bands must lie in [1, min(num_perm, 255)], got {self.bands}"
            )
        if self.num_perm % self.bands:
            raise QueryError(
                f"bands ({self.bands}) must divide num_perm ({self.num_perm})"
            )
        if not 1 <= self.num_projections <= 32:
            raise QueryError(
                f"num_projections must lie in [1, 32], "
                f"got {self.num_projections}"
            )


class SketchIndex:
    """Per-tuple sketches over one uncertain attribute."""

    def __init__(self, pool: BufferPool, params: SketchParams | None = None) -> None:
        self.params = params if params is not None else SketchParams()
        self._proj_heap = HeapFile(pool, tag=SKETCH_TAG)
        self._sig_heap = HeapFile(pool, tag=SKETCH_TAG)
        self._record_dtype = record_dtype(self.params.num_projections)
        self._sig_dtype = np.dtype(
            [("tid", "<u4"), ("sig", "<u4", (self.params.num_perm,))]
        )
        self._tids: set[int] = set()
        self._bands: dict[bytes, set[int]] = {}

    # -- buffering ----------------------------------------------------------

    @property
    def pool(self) -> BufferPool:
        return self._proj_heap.pool

    @pool.setter
    def pool(self, pool: BufferPool) -> None:
        self._proj_heap.pool = pool
        self._sig_heap.pool = pool

    # -- maintenance --------------------------------------------------------

    def insert(self, tid: int, items: np.ndarray, probs: np.ndarray) -> None:
        """Sketch one tuple (a one-row :meth:`insert_rows`)."""
        self.insert_rows(np.array([tid]), items, probs, np.array([0, len(items)]))

    def insert_rows(
        self,
        tids: np.ndarray,
        items: np.ndarray,
        probs: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        """Sketch a run of tuples given as CSR rows, in order.

        Tuple ``tids[i]`` holds ``items[offsets[i]:offsets[i + 1]]`` and
        the matching ``probs``, which must be the f32-exact values the
        host index stores (what verification will score against), so the
        projection/mass slack of :mod:`repro.sketch.bounds` stays
        sufficient.  Both records of every row are encoded column-wise
        and written a page at a time, the two heaps' pages allocated as
        if each row were appended to both in turn; then the rows' bands
        are indexed.
        """
        params = self.params
        tids = np.asarray(tids, dtype=np.int64)
        records = encode_records(
            tids, items, probs, offsets, params.num_projections, params.seed
        )
        signatures = np.zeros(len(tids), dtype=self._sig_dtype)
        signatures["tid"] = tids
        signatures["sig"] = minhash_signatures(
            items, offsets, params.num_perm, params.seed
        )
        extend_interleaved([
            (heap, column.view(np.uint8), np.full(len(tids), column.itemsize))
            for heap, column in (
                (self._proj_heap, records), (self._sig_heap, signatures)
            )
        ])
        # One int object per tid, shared by the live set and every band.
        members = tids.astype(object)
        self._index_signatures(members, signatures["sig"])
        self._tids.update(members)

    def delete(self, tid: int) -> None:
        """Drop a tuple from the live set; its records linger until the
        host index's next compaction rebuilds the store."""
        self._tids.discard(tid)

    def _index_signatures(self, members: np.ndarray, signatures: np.ndarray) -> None:
        """Add every row's band keys to the band tables.

        ``members`` holds each row's tid as an int object (dtype object),
        which every band's set then shares.  A block of bands at a time
        (about :data:`BLOCK_VALUES` entries): each (band, row) entry is
        keyed by the band number and the band's slice of the signature,
        the entries are sorted by key, and the run of tids under each
        distinct key joins one set.
        """
        bands = self.params.bands
        rows = self.params.num_perm // bands
        width = 1 + 4 * rows
        count = len(members)
        if not count:
            return
        signatures = np.asarray(signatures, dtype="<u4").reshape(count, bands, rows)
        table = self._bands
        step = max(1, BLOCK_VALUES // count)
        for first in range(0, bands, step):
            block = signatures[:, first : first + step].swapaxes(0, 1)
            keyed = np.empty((len(block), count, rows + 1), dtype="<u4")
            keyed[:, :, 0] = np.arange(first, first + len(block))[:, None]
            keyed[:, :, 1:] = block
            keyed = keyed.reshape(-1, rows + 1)
            # Any one-to-one view of an entry's bytes groups alike.
            keys = keyed.view("<u8" if rows == 1 else f"V{4 * (rows + 1)}").reshape(-1)
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
            firsts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            firsts = np.concatenate(([0], firsts))
            heads = keyed[order[firsts]]
            prefixed = np.empty((len(firsts), width), dtype=np.uint8)
            prefixed[:, 0] = heads[:, 0]
            prefixed[:, 1:] = heads[:, 1:].view(np.uint8)
            blob = prefixed.tobytes()
            grouped = members[order % count].tolist()
            ends = [*firsts[1:].tolist(), len(order)]
            for group, (start, end) in enumerate(zip(firsts.tolist(), ends)):
                key = blob[group * width : (group + 1) * width]
                table.setdefault(key, set()).update(grouped[start:end])

    # -- query-time access --------------------------------------------------

    def bounds(self, query) -> tuple[np.ndarray, np.ndarray]:
        """Scan the projection heap; lower-bound every live tuple.

        ``query`` is a similarity descriptor
        (:class:`~repro.core.queries.SimilarityThresholdQuery` or
        :class:`~repro.core.queries.SimilarityTopKQuery`).  Returns
        ``(tids, lower_bounds)`` in ascending-tid order, deduplicated
        (last record wins) and restricted to live tuples.  Every page
        read flows through the pool under :data:`SKETCH_TAG`, one fetch
        per page in file order.
        """
        params = self.params
        sketch = QuerySketch(
            query.q.items,
            query.q.probs,
            query.divergence,
            params.num_projections,
            params.seed,
        )
        records = self._proj_heap.scan_array(self._record_dtype)
        lbs = sketch.lower_bounds(records)
        tids = records["tid"].astype(np.int64)
        # Sorted by tid, stably: the last row of each tid is its latest.
        order = np.argsort(tids, kind="stable")
        ordered = tids[order]
        rows = order[np.append(ordered[1:] != ordered[:-1], True)[: len(order)]]
        rows = rows[np.isin(tids[rows], self._live_array())]
        return tids[rows], lbs[rows]

    def _live_array(self) -> np.ndarray:
        return np.fromiter(self._tids, dtype=np.int64, count=len(self._tids))

    def lsh_candidates(self, items: np.ndarray) -> list[int]:
        """Live tuple ids sharing at least one LSH band with ``items``."""
        params = self.params
        signature = minhash_signatures(
            items, [0, len(items)], params.num_perm, params.seed
        )[0]
        found: set[int] = set()
        for key in band_keys(signature, params.bands):
            found.update(self._bands.get(key, ()))
        return sorted(found & self._tids)

    # -- introspection ------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        return len(self._tids)

    def page_ids(self) -> list[int]:
        """Projection-heap page ids (the pages exact mode scans)."""
        return list(self._proj_heap.state()["page_ids"])

    # -- persistence --------------------------------------------------------

    def state(self) -> dict:
        """JSON-serializable attachment state (catalog only; the records
        themselves live in the disk image)."""
        return {
            "params": asdict(self.params),
            "proj_heap": self._proj_heap.state(),
            "sig_heap": self._sig_heap.state(),
        }

    @classmethod
    def attach(
        cls, pool: BufferPool, state: dict, live_tids: set[int]
    ) -> "SketchIndex":
        """Re-attach a persisted sketch store.

        The band tables are rebuilt by scanning the signature heap
        through ``pool`` (counted attach-time reads, so a damaged
        signature page fails the CRC here rather than serving wrong
        candidates later).  ``live_tids`` comes from the host index's
        directory; lingering records of deleted tuples are skipped.
        """
        sketch = cls(pool, SketchParams(**state["params"]))
        sketch._proj_heap = HeapFile.attach(
            pool, state["proj_heap"], tag=SKETCH_TAG
        )
        sketch._sig_heap = HeapFile.attach(
            pool, state["sig_heap"], tag=SKETCH_TAG
        )
        sketch._tids = set(live_tids)
        signatures = sketch._sig_heap.scan_array(sketch._sig_dtype)
        tids = signatures["tid"].astype(np.int64)
        # Every live record is indexed: both records of a tid deleted
        # and re-inserted since the last compaction join the tables.
        live = np.isin(tids, sketch._live_array())
        sketch._index_signatures(tids[live].astype(object), signatures["sig"][live])
        return sketch

    def __repr__(self) -> str:
        return (
            f"SketchIndex(tuples={self.num_tuples}, "
            f"pages={self._proj_heap.num_pages + self._sig_heap.num_pages}, "
            f"bands={self.params.bands}/{self.params.num_perm})"
        )
