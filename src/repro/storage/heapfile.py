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
