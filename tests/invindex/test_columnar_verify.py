"""Columnar verification: same accesses, same checks, fewer decodes.

The strategies verify a run of candidates with one
:meth:`ProbabilisticInvertedIndex.fetch_rows` call (one buffer-pool
fetch per candidate, in order, then one gather) and one ``score_rows``.
These tests pin that against the per-candidate reference it replaced —
one :meth:`~ProbabilisticInvertedIndex.fetch_uda_arrays` plus one
``equality_with_arrays`` per candidate:

* the ordered trace (every ``pool.hit``/``pool.miss``/``disk.read``
  and ``verify.random_access`` record), answers, scores and stats are
  identical under every strategy, for PETQ and top-k, in both kernel
  modes;
* corrupt tuple-list pages raise the same exception classes, for the
  same (first) bad candidate;
* the serve-mode memo keeps serving hits and stores compact copies.
"""

import struct

import numpy as np
import pytest

from repro.core import kernels
from repro.core.exceptions import (
    ChecksumError,
    KeyNotFoundError,
    PageError,
    SerializationError,
)
from repro.core.queries import EqualityThresholdQuery, EqualityTopKQuery
from repro.invindex import ProbabilisticInvertedIndex
from repro.invindex import strategies
from repro.obs import trace as _trace
from repro.obs.metrics import METRICS
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.storage import BufferPool, DiskManager, Page

from tests.invindex.conftest import random_query, random_relation

POOL_SIZE = 100


class ReferenceVerifier:
    """Per-candidate verification: one ``fetch_uda_arrays`` per tid."""

    def __init__(self, index, q, stats):
        self._index = index
        self._q = q
        self._stats = stats
        self._cache = {}

    def score_many(self, tids):
        scores = []
        for tid in tids:
            cached = self._cache.get(tid)
            if cached is None:
                self._stats.random_accesses += 1
                self._stats.candidates_examined += 1
                METRICS.inc("verify.random_access")
                if _trace.ACTIVE is not None:
                    _trace.ACTIVE.event("verify.random_access", tid=tid)
                items, probs = self._index.fetch_uda_arrays(tid)
                cached = self._q.equality_with_arrays(items, probs)
                self._cache[tid] = cached
            scores.append(cached)
        return scores


@pytest.fixture(scope="module")
def relation():
    return random_relation(1500, 24, seed=17, max_nnz=6)


@pytest.fixture(scope="module")
def small_pages(relation):
    """Small pages: the heap outgrows the 100-frame pool, so verification
    runs evict and re-read tuple pages."""
    index = ProbabilisticInvertedIndex(
        len(relation.domain), disk=DiskManager(page_size=512)
    )
    index.build(relation)
    return index


def traced_run(index, strategy, query):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    sink = MemorySink()
    with tracing(Tracer(sink)):
        result = index.execute(query, strategy=strategy)
    return result, sink.records


@pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
@pytest.mark.parametrize("strategy", sorted(strategies.STRATEGIES))
@pytest.mark.parametrize("kind", ["petq", "top_k"])
def test_trace_identical_to_per_candidate_reference(
    small_pages, relation, monkeypatch, mode, strategy, kind
):
    access_kinds = {"pool.hit", "pool.miss", "verify.random_access"}
    for seed in range(4):
        q = random_query(len(relation.domain), seed=100 + seed)
        query = (
            EqualityThresholdQuery(q, 0.05)
            if kind == "petq"
            else EqualityTopKQuery(q, 10)
        )
        with kernels.kernel_override(mode):
            result, records = traced_run(small_pages, strategy, query)
            with monkeypatch.context() as patch:
                patch.setattr(strategies, "_Verifier", ReferenceVerifier)
                expected, expected_records = traced_run(
                    small_pages, strategy, query
                )
        assert records == expected_records
        assert [r for r in records if r["kind"] in access_kinds]
        assert [(m.tid, m.score) for m in result.matches] == [
            (m.tid, m.score) for m in expected.matches
        ]
        assert result.stats == expected.stats


def test_fetch_rows_matches_fetch_uda_arrays(small_pages, relation):
    index = small_pages
    order = np.random.default_rng(3).permutation(len(relation))[:300]
    tids = order.tolist()
    index.pool = BufferPool(index.disk, POOL_SIZE)
    start = index.disk.stats.snapshot()
    items, probs, offsets = index.fetch_rows(tids)
    columnar_reads = index.disk.stats.delta_since(start).reads
    index.pool = BufferPool(index.disk, POOL_SIZE)
    start = index.disk.stats.snapshot()
    for row, tid in enumerate(tids):
        want_items, want_probs = index.fetch_uda_arrays(tid)
        span = slice(offsets[row], offsets[row + 1])
        assert items[span].tolist() == want_items.tolist()
        assert probs[span].tolist() == want_probs.tolist()
    assert columnar_reads == index.disk.stats.delta_since(start).reads > 0


def test_verifier_dedupes_runs_and_remembers_verified_tids(small_pages, relation):
    index = small_pages
    index.pool = BufferPool(index.disk, POOL_SIZE)
    q = random_query(len(relation.domain), seed=9)
    stats = strategies.QueryStats()
    verifier = strategies._Verifier(index, q, stats)
    first = verifier.score_many([5, 7, 5, 11])
    assert first[0] == first[2]
    assert stats.random_accesses == 3
    again = verifier.score_many([11, 7, 13, 13])
    assert stats.random_accesses == 4
    for tid, score in zip([5, 7, 5, 11, 11, 7, 13, 13], first + again):
        assert score == q.equality_probability(relation.uda_of(tid))


def test_memo_serves_hits_and_stores_compact_copies(small_pages, relation):
    index = small_pages
    index.pool = BufferPool(index.disk, POOL_SIZE)
    memo = {}
    with index.shared_scan(memo):
        index.fetch_rows([1, 2, 3])
        # Each entry is its own copy of one heap record.
        assert sorted(memo) == [1, 2, 3]
        for tid, record in memo.items():
            assert type(record) is bytes
            assert len(record) == 6 + 8 * relation.uda_of(tid).nnz
        accesses = index.pool.hits + index.pool.misses
        tids = [4, 2, 5, 1]
        items, probs, offsets = index.fetch_rows(tids)
        # Only the two unremembered tids touched the pool.
        assert index.pool.hits + index.pool.misses == accesses + 2
        assert [index.fetch_uda_arrays(2)[0].tolist()] == [
            relation.uda_of(2).items.tolist()
        ]
    for row, tid in enumerate(tids):
        uda = relation.uda_of(tid)
        span = slice(offsets[row], offsets[row + 1])
        assert items[span].tolist() == uda.items.tolist()
        assert probs[span].tolist() == uda.probs.tolist()


# -- corruption ---------------------------------------------------------------


def _u16(data, offset, value):
    struct.pack_into("<H", data, offset, value)


def empty_directory(data, slot):
    _u16(data, 0, slot)  # the slot now lies outside the directory


def short_record(data, slot):
    _u16(data, len(data) - 4 * (slot + 1) + 2, 3)  # shorter than a header


def truncated_pairs(data, slot):
    _u16(data, len(data) - 4 * (slot + 1) + 2, 6)  # header but no pairs


def record_past_page(data, slot):
    _u16(data, len(data) - 4 * (slot + 1), len(data) - 2)


def wrong_tid(data, slot):
    offset = struct.unpack_from("<H", data, len(data) - 4 * (slot + 1))[0]
    struct.pack_into("<I", data, offset, 999_999)


CORRUPTIONS = [
    (empty_directory, PageError),
    (short_record, SerializationError),
    (truncated_pairs, SerializationError),
    (record_past_page, PageError),
    (wrong_tid, KeyNotFoundError),
]


def corrupted_index(relation, victims, *, seal=True):
    """An index whose heap pages hold the given ``(tid, corruption)``s.

    ``seal`` writes the bad bytes through :meth:`DiskManager.write_page`
    (checksum-consistent, so the record decoders see them); otherwise
    :meth:`DiskManager.tamper_page` leaves a CRC mismatch that the read
    itself reports.
    """
    index = ProbabilisticInvertedIndex(
        len(relation.domain), disk=DiskManager(page_size=512)
    )
    index.build(relation)
    pages = {}
    for tid, corrupt in victims:
        page_id, slot = index._rid_of_tid[tid]
        data = pages.setdefault(
            page_id, bytearray(index.disk.raw_page_bytes(page_id))
        )
        corrupt(data, slot)
    for page_id, data in pages.items():
        if seal:
            index.disk.write_page(Page(page_id, data, size=len(data)))
        else:
            index.disk.tamper_page(page_id, bytes(data))
    return index


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc)
    return None


def reference_raised(index, tids):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    return raised(lambda: [index.fetch_uda_arrays(tid) for tid in tids])


def columnar_raised(index, tids):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    return raised(lambda: index.fetch_rows(tids))


RUN = [40, 41, 300, 42, 900, 43]


@pytest.mark.parametrize("corrupt, error", CORRUPTIONS)
def test_corruption_raises_todays_exception_class(relation, corrupt, error):
    index = corrupted_index(relation, [(300, corrupt)])
    assert reference_raised(index, RUN) is error
    assert columnar_raised(index, RUN) is error
    # Runs that never touch the victim are unaffected.
    assert columnar_raised(index, [40, 41, 42]) is None


def test_crc_failure_raises_before_decoding(relation):
    index = corrupted_index(relation, [(300, wrong_tid)], seal=False)
    assert reference_raised(index, RUN) is ChecksumError
    assert columnar_raised(index, RUN) is ChecksumError


@pytest.mark.parametrize(
    "first, second",
    [(wrong_tid, empty_directory), (empty_directory, short_record),
     (truncated_pairs, wrong_tid)],
)
def test_first_bad_candidate_names_the_error(relation, first, second):
    """With several bad rows, the earliest in fetch order decides."""
    index = corrupted_index(relation, [(300, first), (900, second)])
    for run in (RUN, RUN[::-1]):
        assert columnar_raised(index, run) is reference_raised(index, run)
