"""Slotted-page heap file.

This is the paper's *tuple-list*: the store that maps a tuple id to its
full UDA so that search strategies can make a "random access ... to check
whether the tuple qualifies" (Section 3.1).  Each random access costs at
most one physical read (zero on a buffer hit), which is exactly how the
paper accounts for it.

Page layout (little-endian)::

    offset 0   u16  num_slots
    offset 2   u16  free_ptr            (offset of next record write)
    offset 4   record area, growing upward
    ...        slot directory, growing downward from the page end:
               slot i occupies the 4 bytes at  page_size - 4*(i+1)
               as  (u16 record_offset, u16 record_length)

Records never move and are never deleted individually (the experiment
datasets are append-only); a record id (rid) is the pair
``(page_id, slot)``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.exceptions import PageError, RecordTooLargeError
from repro.storage.buffer import BufferPool
from repro.storage.page import Page
from repro.storage.serialization import byte_windows

_HEADER_SIZE = 4
_SLOT_SIZE = 4
_U16 = np.dtype("<u2")

#: A record id: (page_id, slot index within the page).
Rid = tuple[int, int]


class HeapFile:
    """An append-only record store over a buffer pool.

    Parameters
    ----------
    pool:
        Buffer pool through which all page access flows.  Swap the
        ``pool`` attribute to run queries against a fresh, bounded pool
        (the harness does this per query).
    """

    def __init__(self, pool: BufferPool, tag: str = "heap") -> None:
        self.pool = pool
        self.tag = tag
        self._page_ids: list[int] = []
        self._current_page_id: int | None = None

    @classmethod
    def attach(cls, pool: BufferPool, state: dict, tag: str = "heap") -> "HeapFile":
        """Re-attach to a persisted heap file (see :meth:`state`)."""
        heap = cls(pool, tag=tag)
        heap._page_ids = [int(pid) for pid in state["page_ids"]]
        current = state["current_page_id"]
        heap._current_page_id = None if current is None else int(current)
        return heap

    def state(self) -> dict:
        """JSON-serializable attachment state."""
        return {
            "page_ids": self._page_ids,
            "current_page_id": self._current_page_id,
        }

    # -- writes -----------------------------------------------------------

    def append(self, record: bytes) -> Rid:
        """Append ``record`` and return its rid."""
        page_size = self.pool.disk.page_size
        max_record = page_size - _HEADER_SIZE - _SLOT_SIZE
        if len(record) > max_record:
            raise RecordTooLargeError(
                f"record of {len(record)} bytes exceeds the per-page "
                f"maximum of {max_record}"
            )
        page = self._writable_page(len(record))
        num_slots = page.read_u16(0)
        free_ptr = page.read_u16(2)
        page.write_bytes(free_ptr, record)
        slot_offset = page.size - _SLOT_SIZE * (num_slots + 1)
        page.write_u16(slot_offset, free_ptr)
        page.write_u16(slot_offset + 2, len(record))
        page.write_u16(0, num_slots + 1)
        page.write_u16(2, free_ptr + len(record))
        self.pool.mark_dirty(page.page_id)
        return (page.page_id, num_slots)

    def extend(self, records, lengths) -> tuple[np.ndarray, np.ndarray]:
        """Append a run of records, a page at a time.

        ``records`` holds the run back to back (any bytes-like object);
        record ``i`` is ``lengths[i]`` bytes.  The pages come out exactly
        as repeated :meth:`append` writes them — the same page breaks,
        slot directories and free pointers, allocated in the same order —
        but each page gets one copy of its records and one of its slot
        entries, and is then marked dirty (its version bumped by the
        writes).  The tail page is fetched once, not once per record.
        Returns the rids as ``(page_ids, slots)`` arrays.

        Raises :class:`RecordTooLargeError`, as :meth:`append` does, for
        the first record no page can hold, after writing every record
        before it.
        """
        return extend_interleaved([(self, records, lengths)])[0]

    def _writable_page(self, record_size: int) -> Page:
        """Return the current tail page, or a new one if it cannot fit."""
        if self._current_page_id is not None:
            page = self.pool.fetch_page(self._current_page_id)
            num_slots = page.read_u16(0)
            free_ptr = page.read_u16(2)
            slot_top = page.size - _SLOT_SIZE * (num_slots + 1)
            if free_ptr + record_size <= slot_top:
                return page
        page = self.pool.new_page(tag=self.tag)
        page.write_u16(0, 0)
        page.write_u16(2, _HEADER_SIZE)
        self.pool.mark_dirty(page.page_id)
        self._page_ids.append(page.page_id)
        self._current_page_id = page.page_id
        return page

    # -- reads -------------------------------------------------------------

    def get(self, rid: Rid) -> bytes:
        """Fetch the record stored at ``rid``."""
        page_id, slot = rid
        page = self.pool.fetch_page(page_id)
        num_slots = page.read_u16(0)
        if not 0 <= slot < num_slots:
            raise PageError(
                f"rid ({page_id}, {slot}): page has only {num_slots} slots"
            )
        slot_offset = page.size - _SLOT_SIZE * (slot + 1)
        record_offset = page.read_u16(slot_offset)
        record_length = page.read_u16(slot_offset + 2)
        return page.read_bytes(record_offset, record_length)

    def get_view(self, rid: Rid) -> memoryview:
        """Zero-copy view of the record at ``rid``.

        The view aliases the live page buffer: decode it (materializing
        any derived arrays) before the next fetch that could evict or
        rewrite the page.
        """
        page_id, slot = rid
        return self.record_view(self.pool.fetch_page(page_id), slot)

    @staticmethod
    def record_view(page: Page, slot: int) -> memoryview:
        """Zero-copy view of record ``slot`` on an already-fetched page."""
        num_slots = page.read_u16(0)
        if not 0 <= slot < num_slots:
            raise PageError(
                f"rid ({page.page_id}, {slot}): page has only {num_slots} slots"
            )
        slot_offset = page.size - _SLOT_SIZE * (slot + 1)
        record_offset = page.read_u16(slot_offset)
        record_length = page.read_u16(slot_offset + 2)
        return page.view(record_offset, record_length)

    @staticmethod
    def locate(
        pages: list[Page], slots: list[int]
    ) -> tuple[bytes, np.ndarray, np.ndarray]:
        """Record extents of a run of already-fetched ``(page, slot)``s.

        The vectorized :meth:`record_view`: the distinct pages are copied
        once into one buffer and every slot directory is read in one
        gather.  Returns ``(buffer, starts, ends)`` — record ``i`` spans
        ``buffer[starts[i]:ends[i]]`` — and raises :class:`PageError`,
        as :meth:`record_view` does, for a slot outside its page's
        directory or a record overrunning its page.
        """
        if not pages:
            empty = np.empty(0, dtype=np.int64)
            return b"", empty, empty
        size = pages[0].size
        page_ids = np.array([page.page_id for page in pages], dtype=np.int64)
        distinct, row_page = np.unique(page_ids, return_inverse=True)
        by_id = {page.page_id: page for page in pages}
        buffer = b"".join([by_id[page_id].data for page_id in distinct.tolist()])
        u16 = byte_windows(buffer, _U16)
        base = row_page.astype(np.int64) * size
        slot = np.asarray(slots, dtype=np.int64)
        num_slots = u16[base]
        _first_bad(
            (slot < 0) | (slot >= num_slots), page_ids, slot,
            "slot outside the page's directory",
        )
        directory = base + size - _SLOT_SIZE * (slot + 1)
        starts = base + u16[directory]
        ends = starts + u16[directory + 2]
        _first_bad(ends > base + size, page_ids, slot, "record overruns its page")
        return buffer, starts, ends

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Iterate over every record in file order (a full scan)."""
        for page_id in self._page_ids:
            page = self.pool.fetch_page(page_id)
            num_slots = page.read_u16(0)
            for slot in range(num_slots):
                slot_offset = page.size - _SLOT_SIZE * (slot + 1)
                record_offset = page.read_u16(slot_offset)
                record_length = page.read_u16(slot_offset + 2)
                yield (page_id, slot), page.read_bytes(record_offset, record_length)

    def scan_array(self, dtype) -> np.ndarray:
        """Every record in file order, as one array of the fixed-width ``dtype``.

        The page-at-a-time :meth:`scan`: one fetch per page, in the same
        order, and per page one read of the slot directory and one
        gather of the records.  Raises :class:`PageError` for a slot
        directory that overruns its page, a record that is not
        ``dtype.itemsize`` bytes long, or a record that overruns its
        page.
        """
        dtype = np.dtype(dtype)
        width = dtype.itemsize
        rows = []
        for page_id in self._page_ids:
            page = self.pool.fetch_page(page_id)
            num_slots = page.read_u16(0)
            directory = page.size - _SLOT_SIZE * num_slots
            if directory < _HEADER_SIZE:
                raise PageError(
                    f"page {page_id}: {num_slots} slots overrun the page"
                )
            entries = np.frombuffer(
                page.data, dtype=_U16, count=2 * num_slots, offset=directory
            ).reshape(num_slots, 2)[::-1]
            starts = entries[:, 0].astype(np.int64)
            rids = (np.full(num_slots, page_id), np.arange(num_slots))
            _first_bad(entries[:, 1] != width, *rids, f"record is not {width} bytes")
            _first_bad(starts + width > page.size, *rids, "record overruns its page")
            raw = np.frombuffer(page.data, dtype=np.uint8)
            rows.append(raw[starts[:, None] + np.arange(width)])
        if not rows:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(rows).view(dtype).reshape(-1)

    # -- introspection ------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages the file occupies."""
        return len(self._page_ids)

    def flush(self) -> None:
        """Flush dirty pages through the owning pool."""
        self.pool.flush_all()

    def __repr__(self) -> str:
        return f"HeapFile(pages={self.num_pages})"


def _first_bad(
    bad: np.ndarray, page_ids: np.ndarray, slots: np.ndarray, problem: str
) -> None:
    if bad.any():
        row = int(np.argmax(bad))
        raise PageError(
            f"rid ({int(page_ids[row])}, {int(slots[row])}): {problem}"
        )


def extend_interleaved(runs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Append equally long runs of records to several heaps, as if row by row.

    ``runs`` is a list of ``(heap, records, lengths)`` as
    :meth:`HeapFile.extend` takes them.  The result is that of appending
    record ``i`` of every run, in list order, before record ``i + 1`` of
    any: each heap's pages come out as :meth:`HeapFile.extend` writes
    them, and the pages of all heaps are allocated in that row-by-row
    order, so the page ids match too.  Each heap's tail page is fetched
    once, in list order; a page is written in full when it is opened.
    Returns each run's rids as ``(page_ids, slots)``.
    """
    sizes = {len(lengths) for _, _, lengths in runs}
    if len(sizes) > 1:
        raise ValueError(f"runs differ in length: {sorted(sizes)}")
    count = sizes.pop() if sizes else 0
    for heap, _, lengths in runs:
        max_record = heap.pool.disk.page_size - _HEADER_SIZE - _SLOT_SIZE
        too_large = np.flatnonzero(np.asarray(lengths) > max_record)
        if len(too_large):
            count = min(count, int(too_large[0]))
    writers = [_RunWriter(*run, count) for run in runs]
    opens = []
    for order, writer in enumerate(writers):
        if count:
            writer.start()
            opens.extend((row, order) for row in writer.page_starts())
    for row, order in sorted(opens):
        writers[order].open_page(row)
    for writer in writers:
        writer.finish()
    return [(writer.page_ids, writer.slots) for writer in writers]


class _RunWriter:
    """One heap's share of :func:`extend_interleaved`.

    Rows ``[0, count)`` are written; ``need[i]`` is the page space
    (record bytes plus slot entries) rows ``[0, i)`` take, so the rows
    fitting in ``room`` bytes from row ``r`` on end at a searchsorted.
    """

    def __init__(self, heap: HeapFile, records, lengths, count: int) -> None:
        self.heap = heap
        self.records = memoryview(records).cast("B")
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.count = count
        self.ends = np.cumsum(self.lengths)
        self.starts = self.ends - self.lengths
        self.need = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(self.lengths[:count] + _SLOT_SIZE, out=self.need[1:])
        self.page_ids = np.empty(count, dtype=np.int64)
        self.slots = np.empty(count, dtype=np.int64)
        self.next_row = 0

    def _fit(self, row: int, room: int) -> int:
        """End of the rows from ``row`` on that fit in ``room`` bytes."""
        return int(np.searchsorted(self.need, self.need[row] + room, side="right")) - 1

    def start(self) -> None:
        """Fill the tail page as far as row 0 on fits; else open a page."""
        heap = self.heap
        if heap._current_page_id is not None:
            page = heap.pool.fetch_page(heap._current_page_id)
            num_slots = page.read_u16(0)
            free_ptr = page.read_u16(2)
            end = self._fit(0, page.size - _SLOT_SIZE * num_slots - free_ptr)
            if end > 0:
                self._write(page, 0, end, num_slots, free_ptr)
                self.next_row = end
                return
        self.open_page(0)

    def page_starts(self) -> list[int]:
        """The rows after :meth:`start` that open a new page."""
        room = self.heap.pool.disk.page_size - _HEADER_SIZE
        rows = []
        row = self.next_row
        while row < self.count:
            rows.append(row)
            row = self._fit(row, room)
        return rows

    def open_page(self, row: int) -> None:
        heap = self.heap
        page = heap.pool.new_page(tag=heap.tag)
        heap._page_ids.append(page.page_id)
        heap._current_page_id = page.page_id
        end = self._fit(row, page.size - _HEADER_SIZE)
        self._write(page, row, end, 0, _HEADER_SIZE)
        self.next_row = end

    def _write(
        self, page: Page, row: int, end: int, num_slots: int, free_ptr: int
    ) -> None:
        first = int(self.starts[row])
        last = int(self.ends[end - 1])
        page.write_bytes(free_ptr, self.records[first:last])
        entries = np.empty((end - row, 2), dtype=_U16)
        entries[:, 0] = free_ptr + self.starts[row:end] - first
        entries[:, 1] = self.lengths[row:end]
        total = num_slots + end - row
        page.write_bytes(page.size - _SLOT_SIZE * total, entries[::-1].tobytes())
        page.write_u16(0, total)
        page.write_u16(2, free_ptr + last - first)
        self.heap.pool.mark_dirty(page.page_id)
        self.page_ids[row:end] = page.page_id
        self.slots[row:end] = np.arange(num_slots, total)

    def finish(self) -> None:
        """Append the first oversized row the plain way, so it raises."""
        if self.count < len(self.lengths):
            row = self.count
            self.heap.append(bytes(self.records[self.starts[row] : self.ends[row]]))
