"""Differential suite for the columnar row scorer.

``score_rows`` scores a whole CSR run of stored tuples with one
gather-multiply and a segmented sum, falling back to ``math.fsum`` only
for rows with three or more nonzero products.  Every row's score must
equal ``math.fsum`` over that row's products *bit for bit*: the
verification paths of both index families depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidDistributionError
from repro.core.uda import (
    QueryVector,
    UncertainAttribute,
    _DenseScorer,
    sparse_dot_fsum,
)

#: f32-exact probabilities, as the on-page layout stores them.
f32_probs = st.floats(
    min_value=2.0**-20, max_value=1.0, allow_nan=False, width=32
)

queries = st.dictionaries(
    st.integers(0, 40), f32_probs, min_size=1, max_size=12
)

#: Items may run past any query's largest item (the clipped guard zero).
rows = st.lists(
    st.dictionaries(st.integers(0, 60), f32_probs, max_size=10),
    max_size=25,
)


def to_csr(row_dicts):
    items, probs, offsets = [], [], [0]
    for row in row_dicts:
        for item in sorted(row):
            items.append(item)
            probs.append(row[item])
        offsets.append(len(items))
    return (
        np.asarray(items, dtype=np.int64),
        np.asarray(probs, dtype=np.float64),
        np.asarray(offsets, dtype=np.int64),
    )


def reference_scores(table_items, table_probs, items, probs, offsets):
    """Per-row ``math.fsum`` of the row's products against the query."""
    weight = dict(zip(table_items.tolist(), table_probs.tolist()))
    scores = []
    for start, end in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        products = [
            weight.get(item, 0.0) * prob
            for item, prob in zip(items[start:end].tolist(), probs[start:end].tolist())
        ]
        scores.append(math.fsum(products))
    return scores


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(queries, rows)
def test_score_rows_is_bitwise_fsum(query, row_dicts):
    q = None
    if sum(query.values()) <= 1:
        q = UncertainAttribute.from_pairs(query.items())
    q_items = np.asarray(sorted(query), dtype=np.int64)
    q_probs = np.asarray([query[i] for i in sorted(query)], dtype=np.float64)
    items, probs, offsets = to_csr(row_dicts)
    expected = reference_scores(q_items, q_probs, items, probs, offsets)
    got = _DenseScorer(q_items, q_probs).score_rows(items, probs, offsets)
    assert bits(got) == bits(expected)
    weights = QueryVector(q_items, q_probs)
    assert bits(weights.score_rows(items, probs, offsets)) == bits(expected)
    if q is not None:
        per_row = [
            q.equality_with_arrays(items[s:e], probs[s:e])
            for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist())
        ]
        assert bits(q.score_rows(items, probs, offsets)) == bits(per_row)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(f32_probs, min_size=3, max_size=12), min_size=1, max_size=8))
def test_rows_with_many_nonzero_products(row_probs):
    """Dense overlaps force the fsum fallback on every row."""
    size = max(len(row) for row in row_probs)
    q_items = np.arange(size, dtype=np.int64)
    q_probs = np.full(size, 0.1)
    row_dicts = [dict(enumerate(row)) for row in row_probs]
    items, probs, offsets = to_csr(row_dicts)
    expected = reference_scores(q_items, q_probs, items, probs, offsets)
    got = _DenseScorer(q_items, q_probs).score_rows(items, probs, offsets)
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("nonzero", [0, 1, 2, 3, 5])
def test_each_nonzero_count(nonzero):
    """Rows with 0, 1, 2 (segmented sum) and >= 3 (fallback) products."""
    q = QueryVector(np.arange(6, dtype=np.int64), np.full(6, 1 / 3))
    # Items 10.. are outside the query: their products are exact zeros.
    items = np.concatenate(
        [np.arange(nonzero), np.arange(10, 13)]
    ).astype(np.int64)
    probs = np.full(len(items), 0.1)
    offsets = np.array([0, len(items)], dtype=np.int64)
    expected = math.fsum([(1 / 3) * 0.1] * nonzero)
    assert bits(q.score_rows(items, probs, offsets)) == bits([expected])


def test_empty_rows_and_empty_runs():
    q = UncertainAttribute.from_pairs([(1, 0.5), (4, 0.5)])
    items = np.array([1, 4, 9], dtype=np.int64)
    probs = np.array([0.25, 0.5, 1.0])
    # Rows: empty, [1, 4], empty, [9], empty.
    offsets = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
    assert q.score_rows(items, probs, offsets) == [0.0, 0.375, 0.0, 0.0, 0.0]
    assert q.score_rows(items[:0], probs[:0], np.zeros(1, np.int64)) == []
    assert q.score_rows(items[:0], probs[:0], np.zeros(3, np.int64)) == [0.0, 0.0]


def test_empty_query_scores_zero():
    q = UncertainAttribute(np.empty(0, np.int64), np.empty(0))
    items = np.array([0, 3], dtype=np.int64)
    probs = np.array([0.5, 0.5])
    offsets = np.array([0, 1, 2], dtype=np.int64)
    assert q.score_rows(items, probs, offsets) == [
        sparse_dot_fsum(q.items, q.probs, items[:1], probs[:1]),
        sparse_dot_fsum(q.items, q.probs, items[1:], probs[1:]),
    ]


class TestNonFiniteRejected:
    """Definition 1 forbids non-finite probabilities; NaN fails every
    ordered comparison, so it needs its own check."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_uncertain_attribute(self, bad):
        with pytest.raises(InvalidDistributionError):
            UncertainAttribute(np.array([0, 1]), np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_query_vector(self, bad):
        with pytest.raises(InvalidDistributionError):
            QueryVector(np.array([0, 1]), np.array([0.5, bad]))

    def test_from_pairs(self):
        with pytest.raises(InvalidDistributionError):
            UncertainAttribute.from_pairs([(3, float("nan"))])
