"""Page-at-a-time heap I/O: ``extend`` and ``scan_array``.

``HeapFile.extend`` must write exactly the pages a loop of ``append``
writes (page breaks, slot directories, free pointers, page ids), and
``extend_interleaved`` exactly what appending row by row to several
heaps in turn writes.  ``scan_array`` must read the pages ``scan`` reads,
in the same order, and refuse a damaged page where ``scan`` would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ChecksumError, PageError, RecordTooLargeError
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.storage import BufferPool, DiskManager, HeapFile
from repro.storage.heapfile import extend_interleaved
from repro.storage.page import Page

PAGE = 256
#: page 256 - header 4 - one slot 4.
MAX_RECORD = PAGE - 8


def _records(lengths, salt=0):
    return [
        bytes([(salt + i + j) % 251 for j in range(n)])
        for i, n in enumerate(lengths)
    ]


def _image(disk):
    return {pid: disk.raw_page_bytes(pid) for pid in disk.page_ids()}


def _pair(capacity=64, prefill=()):
    """Two identical heaps (on their own disks), optionally pre-filled."""
    heaps = []
    for _ in range(2):
        heap = HeapFile(BufferPool(DiskManager(page_size=PAGE), capacity=capacity))
        for record in prefill:
            heap.append(record)
        heaps.append(heap)
    return heaps


def _flushed_image(heap):
    heap.flush()
    return _image(heap.pool.disk), heap.state()


lengths_strategy = st.lists(st.integers(0, MAX_RECORD), max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    prefill=st.lists(st.integers(0, MAX_RECORD), max_size=4),
    lengths=lengths_strategy,
)
def test_extend_writes_the_pages_append_writes(prefill, lengths):
    looped, extended = _pair(prefill=_records(prefill, salt=7))
    records = _records(lengths)
    rids = [looped.append(record) for record in records]
    page_ids, slots = extended.extend(b"".join(records), lengths)
    assert list(zip(page_ids.tolist(), slots.tolist())) == rids
    assert _flushed_image(extended) == _flushed_image(looped)
    assert [data for _, data in extended.scan()] == [
        data for _, data in looped.scan()
    ]


@pytest.mark.parametrize("width", [4, 12, 28, 60, 124, MAX_RECORD])
def test_exact_page_fill_boundaries(width):
    # (PAGE - 4) // (width + 4) records fill a page exactly when the
    # division is exact; one more record must open the next page.
    per_page = (PAGE - 4) // (width + 4)
    for count in (per_page - 1, per_page, per_page + 1, 2 * per_page, 2 * per_page + 1):
        looped, extended = _pair()
        records = _records([width] * count)
        for record in records:
            looped.append(record)
        extended.extend(b"".join(records), [width] * count)
        assert _flushed_image(extended) == _flushed_image(looped)


def test_extend_fills_the_tail_page_then_breaks():
    looped, extended = _pair(prefill=[b"a" * 100])
    records = _records([60, 60, 60, 8])
    for record in records:
        looped.append(record)
    extended.extend(b"".join(records), [60, 60, 60, 8])
    assert _flushed_image(extended) == _flushed_image(looped)
    assert extended.num_pages == 2


def test_too_large_record_raises_after_writing_the_prefix():
    looped, extended = _pair()
    lengths = [40, 80, MAX_RECORD + 1, 20]
    records = _records(lengths)
    with pytest.raises(RecordTooLargeError):
        for record in records:
            looped.append(record)
    with pytest.raises(RecordTooLargeError):
        extended.extend(b"".join(records), lengths)
    assert _flushed_image(extended) == _flushed_image(looped)


def test_extend_marks_pages_dirty_and_bumps_versions():
    heap = HeapFile(BufferPool(DiskManager(page_size=PAGE), capacity=64))
    heap.extend(b"x" * 300, [100, 100, 100])
    for page_id in heap.state()["page_ids"]:
        page = heap.pool.fetch_page(page_id)
        assert page.version > 0
    # Nothing reached the disk yet: every written page is dirty.
    assert all(
        heap.pool.disk.raw_page_bytes(pid) == bytes(PAGE)
        for pid in heap.state()["page_ids"]
    )
    heap.flush()
    assert [data for _, data in heap.scan()] == [b"x" * 100] * 3


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 40),
    widths=st.tuples(st.integers(1, 120), st.integers(1, 120), st.integers(1, 120)),
    prefill=st.integers(0, 3),
)
def test_interleaved_extend_allocates_like_row_by_row_appends(rows, widths, prefill):
    disks = [DiskManager(page_size=PAGE) for _ in range(2)]
    pools = [BufferPool(disk, capacity=64) for disk in disks]
    looped = [HeapFile(pools[0]) for _ in widths]
    extended = [HeapFile(pools[1]) for _ in widths]
    runs = [_records([width] * rows, salt=width) for width in widths]
    for heaps in (looped, extended):
        for heap, width in zip(heaps, widths):
            for _ in range(prefill):
                heap.append(b"p" * width)
    for row in range(rows):
        for heap, run in zip(looped, runs):
            heap.append(run[row])
    extend_interleaved([
        (heap, b"".join(run), [width] * rows)
        for heap, run, width in zip(extended, runs, widths)
    ])
    for pool in pools:
        pool.flush_all()
    assert _image(disks[1]) == _image(disks[0])
    assert [heap.state() for heap in extended] == [heap.state() for heap in looped]


def test_interleaved_extend_rejects_unequal_runs():
    pool = BufferPool(DiskManager(page_size=PAGE), capacity=8)
    with pytest.raises(ValueError):
        extend_interleaved([(HeapFile(pool), b"ab", [2]), (HeapFile(pool), b"", [])])


# -- scan_array -----------------------------------------------------------------

DTYPE = np.dtype([("a", "<u4"), ("b", "<f4"), ("c", "<u8")])


@pytest.fixture()
def fixed_heap():
    disk = DiskManager(page_size=PAGE)
    heap = HeapFile(BufferPool(disk, capacity=4))
    values = np.zeros(40, dtype=DTYPE)
    values["a"] = np.arange(40)
    values["b"] = np.arange(40) / 8
    values["c"] = np.arange(40) * 2**40
    heap.extend(values.tobytes(), [DTYPE.itemsize] * 40)
    heap.flush()
    return heap, values


def _page_events(pool, fn):
    sink = MemorySink()
    with tracing(Tracer(sink)):
        fn()
    return [
        (r["kind"], r["page_id"]) for r in sink.records
        if r["kind"] in ("pool.hit", "pool.miss", "pool.evict")
    ]


def test_scan_array_reads_what_scan_reads(fixed_heap):
    heap, values = fixed_heap
    disk = heap.pool.disk
    heap.pool = BufferPool(disk, capacity=2)
    reference = _page_events(heap.pool, lambda: list(heap.scan()))
    heap.pool = BufferPool(disk, capacity=2)
    scanned = []
    events = _page_events(heap.pool, lambda: scanned.append(heap.scan_array(DTYPE)))
    assert events == reference
    assert scanned[0].tobytes() == values.tobytes()


def test_scan_array_of_empty_heap():
    heap = HeapFile(BufferPool(DiskManager(page_size=PAGE), capacity=2))
    assert len(heap.scan_array(DTYPE)) == 0


def _tamper(heap, page_index, offset, value):
    disk = heap.pool.disk
    page_id = heap.state()["page_ids"][page_index]
    data = bytearray(disk.raw_page_bytes(page_id))
    data[offset : offset + 2] = int(value).to_bytes(2, "little")
    # Rewrite through the disk so the checksum matches the new bytes.
    disk.write_page(Page(page_id, data, size=PAGE))
    heap.pool = BufferPool(disk, capacity=4)


def test_scan_array_rejects_a_tampered_slot_count(fixed_heap):
    heap, _ = fixed_heap
    _tamper(heap, 0, 0, PAGE // 4)  # a directory reaching over the header
    with pytest.raises(PageError, match="slots overrun"):
        heap.scan_array(DTYPE)


def test_scan_array_rejects_a_wrong_record_length(fixed_heap):
    heap, _ = fixed_heap
    _tamper(heap, 0, PAGE - 2, DTYPE.itemsize - 1)  # slot 0's length
    with pytest.raises(PageError, match="not 16 bytes"):
        heap.scan_array(DTYPE)


def test_scan_array_rejects_a_record_overrunning_its_page(fixed_heap):
    heap, _ = fixed_heap
    _tamper(heap, 1, PAGE - 8, PAGE - 4)  # slot 1's offset
    with pytest.raises(PageError, match="overruns its page"):
        heap.scan_array(DTYPE)
    # scan() refuses the same page.
    heap.pool = BufferPool(heap.pool.disk, capacity=4)
    with pytest.raises(PageError):
        list(heap.scan())


def test_scan_array_surfaces_checksum_failures(fixed_heap):
    heap, _ = fixed_heap
    disk = heap.pool.disk
    page_id = heap.state()["page_ids"][1]
    data = bytearray(disk.raw_page_bytes(page_id))
    data[10] ^= 0xFF
    disk.tamper_page(page_id, bytes(data))
    heap.pool = BufferPool(disk, capacity=4)
    with pytest.raises(ChecksumError):
        heap.scan_array(DTYPE)
