"""The columnar sketch store against per-row references.

The store encodes, indexes and scans many tuples at once.  Each test
here keeps a per-row reference -- the record encoder, MinHash, band
indexing and projection-heap scan as they were written one tuple at a
time -- and requires byte-identical records, equal band tables, and the
same page accesses (ordered trace events and per-tag reads).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimilarityThresholdQuery, SimilarityTopKQuery
from repro.invindex import ProbabilisticInvertedIndex
from repro.obs.trace import MemorySink, Tracer, tracing
from repro.pdrtree import PDRTree
from repro.sketch import SketchIndex, SketchParams
from repro.sketch.bounds import QuerySketch, encode_records, record_dtype
from repro.sketch.minhash import (
    _SPLITMIX_GAMMA,
    _STREAM_MINHASH,
    band_keys,
    fingerprint_bits,
    minhash_signatures,
    mix64,
    projection_signs,
    row_sums,
)
from repro.storage import BufferPool, DiskManager

from tests.invindex.conftest import random_query, random_relation
from tests.sketch.conftest import POOL_SIZE

# -- per-row references -----------------------------------------------------


def _reference_record(tid, items, probs, num_projections, seed):
    record = np.zeros(1, dtype=record_dtype(num_projections))
    record["tid"] = tid
    record["nnz"] = len(items)
    record["mass"] = float(np.asarray(probs, dtype=np.float64).sum())
    record["fp"] = (
        int(np.bitwise_or.reduce(fingerprint_bits(items, seed))) if len(items) else 0
    )
    if len(items):
        proj = projection_signs(items, num_projections, seed) @ probs
    else:
        proj = np.zeros(num_projections)
    record["proj"] = proj.astype(np.float32)
    return record.tobytes()


def _reference_signature(items, num_perm, seed):
    if len(items) == 0:
        return np.full(num_perm, 0xFFFFFFFF, dtype=np.uint32)
    with np.errstate(over="ignore"):
        perm_keys = mix64(
            np.arange(num_perm, dtype=np.uint64)
            + np.uint64(seed) * _SPLITMIX_GAMMA
            + _STREAM_MINHASH
        )
        hashed = mix64(items.astype(np.uint64)[None, :] ^ perm_keys[:, None])
    return (hashed >> np.uint64(32)).min(axis=1).astype(np.uint32)


def _reference_bands(tids, signatures, bands):
    table = {}
    for tid, signature in zip(tids, signatures):
        for key in band_keys(signature, bands):
            table.setdefault(key, set()).add(int(tid))
    return table


# -- generated rows -----------------------------------------------------------

#: Probabilities are multiples of 2**-20 with mass <= 1: f32-exact and
#: at least 2**-29, so every partial sum of +-p is exact in float64 and
#: the reference's BLAS order and the store's pairwise order agree.
_GRAIN = 2**20


@st.composite
def csr_rows(draw):
    count = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(count):
        nnz = draw(st.sampled_from((0, 1, 2, 3, 5, 8, 9, 17, 40)))
        items = np.sort(rng.choice(300, size=nnz, replace=False)).astype(np.int64)
        grains = np.zeros(0)
        if nnz:
            # nnz positive grain counts summing to ``mass`` <= _GRAIN.
            mass = int(rng.integers(nnz, _GRAIN + 1))
            cuts = rng.choice(np.arange(1, mass), size=nnz - 1, replace=False)
            grains = np.diff(np.concatenate([[0], np.sort(cuts), [mass]]))
        rows.append((items, grains.astype(np.float64) / _GRAIN))
    tids = np.asarray(rng.choice(10_000, size=count, replace=False), dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum([len(items) for items, _ in rows], out=offsets[1:])
    items = np.concatenate([np.zeros(0, np.int64)] + [items for items, _ in rows])
    probs = np.concatenate([np.zeros(0)] + [probs for _, probs in rows])
    return tids, items, probs, offsets, rows


PERM_BANDS = ((32, 32), (16, 8), (8, 2), (12, 3), (4, 1))


@settings(max_examples=80, deadline=None)
@given(
    data=csr_rows(),
    num_projections=st.sampled_from((1, 2, 32)),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_records_matches_the_per_row_encoder(data, num_projections, seed):
    tids, items, probs, offsets, rows = data
    got = encode_records(tids, items, probs, offsets, num_projections, seed)
    want = b"".join(
        _reference_record(int(tid), row_items, row_probs, num_projections, seed)
        for tid, (row_items, row_probs) in zip(tids, rows)
    )
    assert got.tobytes() == want


@settings(max_examples=80, deadline=None)
@given(
    data=csr_rows(),
    perm_bands=st.sampled_from(PERM_BANDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_minhash_signatures_match_per_row_minhash(data, perm_bands, seed):
    tids, items, _, offsets, rows = data
    num_perm, _ = perm_bands
    got = minhash_signatures(items, offsets, num_perm, seed)
    want = np.stack(
        [_reference_signature(row_items, num_perm, seed) for row_items, _ in rows]
        or [np.zeros((0, num_perm), np.uint32)]
    ).reshape(len(rows), num_perm)
    assert got.dtype == np.uint32
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 300), max_size=8),
    seed=st.integers(0, 2**32 - 1),
    columns=st.integers(1, 3),
)
def test_row_sums_equal_ndarray_sum_bit_for_bit(lengths, seed, columns):
    # Any float64 values, mixed magnitudes: reduceat's order must be
    # numpy's pairwise order exactly, not merely close to it.
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    values = rng.standard_normal((columns, offsets[-1])) * 10.0 ** rng.integers(
        -12, 12, size=(columns, offsets[-1])
    )
    got = row_sums(values, offsets)
    want = np.array(
        [[row[a:b].sum() for a, b in zip(offsets, offsets[1:])] for row in values]
    ).reshape(columns, len(lengths))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=csr_rows(), perm_bands=st.sampled_from(PERM_BANDS))
def test_band_tables_equal_per_row_indexing(data, perm_bands):
    tids, items, probs, offsets, rows = data
    num_perm, bands = perm_bands
    params = SketchParams(num_perm=num_perm, bands=bands)
    sketch = SketchIndex(BufferPool(DiskManager(), 64), params)
    sketch.insert_rows(tids, items, probs, offsets)
    signatures = [
        _reference_signature(row_items, num_perm, params.seed) for row_items, _ in rows
    ]
    assert sketch._bands == _reference_bands(tids, signatures, bands)
    # One row at a time through insert() builds the same tables.
    one_by_one = SketchIndex(BufferPool(DiskManager(), 64), params)
    for tid, (row_items, row_probs) in zip(tids, rows):
        one_by_one.insert(int(tid), row_items, row_probs)
    assert one_by_one._bands == sketch._bands
    # Each tid is one int object, shared by every band holding it.
    members = {}
    for table in sketch._bands.values():
        for tid in table:
            assert members.setdefault(tid, tid) is tid


@pytest.mark.parametrize("params", [SketchParams(), SketchParams(16, 8, 4)])
def test_attach_indexes_every_live_record(tmp_path, params):
    relation = random_relation(160, 40, seed=17)
    index = ProbabilisticInvertedIndex(len(relation.domain))
    base = type(relation)(relation.domain)
    for tid in range(120):
        base.append(relation.uda_of(tid))
    index.build(base)
    index.build_sketch(params)
    for tid in range(120, 160):
        index.insert(tid, relation.uda_of(tid))
    for tid in (3, 121, 50):
        index.delete(tid)
    # Deleted, then re-inserted with other contents before compaction:
    # both of its records are live records of a live tid.
    index.insert(50, relation.uda_of(7))
    index.insert(121, relation.uda_of(8))
    path = tmp_path / "index.reprodb"
    index.save(path)
    reopened = ProbabilisticInvertedIndex.load(path)
    live = set(index.live_tids())
    records = [
        np.frombuffer(record, dtype=reopened.sketch._sig_dtype)[0]
        for _, record in reopened.sketch._sig_heap.scan()
    ]
    kept = [record for record in records if int(record["tid"]) in live]
    assert len(kept) == len(live) + 2
    want = _reference_bands(
        [int(r["tid"]) for r in kept], [r["sig"] for r in kept], params.bands
    )
    assert reopened.sketch._bands == want


# -- read identity of the exact-mode scan ------------------------------------------


def _scan_bounds(self, query):
    """The projection-heap scan as written per record, with HeapFile.scan."""
    params = self.params
    sketch = QuerySketch(
        query.q.items, query.q.probs, query.divergence,
        params.num_projections, params.seed,
    )
    chunks = [record for _, record in self._proj_heap.scan()]
    if not chunks:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    records = np.frombuffer(b"".join(chunks), dtype=self._record_dtype)
    lbs = sketch.lower_bounds(records)
    latest = {}
    for row, tid in enumerate(records["tid"].astype(np.int64).tolist()):
        if tid in self._tids:
            latest[tid] = row
    ordered = sorted(latest)
    rows = np.fromiter((latest[t] for t in ordered), dtype=np.int64, count=len(ordered))
    return np.asarray(ordered, dtype=np.int64), lbs[rows]


def _traced(index, query):
    index.pool = BufferPool(index.disk, POOL_SIZE)
    before = dict(index.disk.snapshot_tags())
    sink = MemorySink()
    with tracing(Tracer(sink)):
        result = index.execute(query, sketch="exact")
    tags = {
        tag: count - before.get(tag, 0)
        for tag, count in index.disk.snapshot_tags().items()
    }
    events = [
        record for record in sink.records
        if record["kind"] in ("pool.hit", "pool.miss")
        or record["kind"].startswith("sketch.")
    ]
    return [(m.tid, m.score) for m in result.matches], events, tags


@pytest.fixture(scope="module")
def mutated_families():
    relation = random_relation(260, 40, seed=23)
    base = type(relation)(relation.domain)
    for tid in range(220):
        base.append(relation.uda_of(tid))
    inverted = ProbabilisticInvertedIndex(len(relation.domain))
    inverted.build(base)
    pdr = PDRTree(len(relation.domain))
    pdr.build(base)
    for index in (inverted, pdr):
        index.build_sketch()
        for tid in range(220, 260):
            index.insert(tid, relation.uda_of(tid))
        for tid in (4, 9, 230):
            index.delete(tid)
        index.insert(9, relation.uda_of(11))
    return {"inverted": inverted, "pdr": pdr}


@pytest.mark.parametrize("family", ["inverted", "pdr"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_scan_reads_like_the_per_record_scan(
    monkeypatch, mutated_families, family, seed
):
    index = mutated_families[family]
    q = random_query(40, seed=seed)
    queries = [
        SimilarityTopKQuery(q, 5, "l1"),
        SimilarityTopKQuery(q, 3, "kl"),
        SimilarityThresholdQuery(q, 0.7, "l2"),
    ]
    got = [_traced(index, query) for query in queries]
    monkeypatch.setattr(SketchIndex, "bounds", _scan_bounds)
    want = [_traced(index, query) for query in queries]
    assert got == want
    assert all(tags.get("sketch", 0) > 0 for _, _, tags in got)
