"""Installing a buffer pool flushes the old one exactly once.

Every component of an inverted index (heap, posting lists, segments,
sketch) shares the index's pool, so the index's ``pool`` setter flushes
it once and then only re-points the components; a per-component flush
repeated the same walk over the old pool once per posting list.
"""

import pytest

from repro.invindex import ProbabilisticInvertedIndex
from repro.storage import BufferPool

from tests.invindex.conftest import random_relation


@pytest.fixture
def index():
    relation = random_relation(300, 15, seed=23)
    built = ProbabilisticInvertedIndex(len(relation.domain))
    built.build(relation)
    # Dirty pages in the current pool: segment inserts and a delete.
    for tid in range(300, 340):
        built.insert(tid, relation.uda_of(tid - 300))
    built.delete(7)
    return built


@pytest.fixture
def flushes(monkeypatch):
    calls = []
    original = BufferPool.flush_all

    def counted(pool):
        calls.append(pool)
        original(pool)

    monkeypatch.setattr(BufferPool, "flush_all", counted)
    return calls


def test_one_flush_per_install(index, flushes):
    old = index.pool
    index.pool = BufferPool(index.disk, 100)
    assert flushes == [old]
    flushes.clear()
    index.pool = BufferPool(index.disk, 100)
    assert len(flushes) == 1
    flushes.clear()
    index.pool = index.pool  # re-installing the same pool is a no-op
    assert flushes == []


def test_dirty_pages_reach_disk_before_the_swap(index):
    old = index.pool
    dirty = [pid for pid, frame in old._frames.items() if frame.dirty]
    assert dirty
    writes = index.disk.stats.writes
    index.pool = BufferPool(index.disk, 100)
    assert not any(frame.dirty for frame in old._frames.values())
    assert index.disk.stats.writes == writes + len(dirty)
    # A cold pool reads the flushed state back.
    assert index.fetch_uda(339).nnz > 0
    assert 7 not in index.live_tids()
