"""Naive-scan answers for a base relation under a stream of mutations.

The correctness oracle of every benchmark run is
:meth:`repro.core.relation.UncertainRelation.execute`, the exhaustive
scan the repository's differential suites compare against.  A run's
mutation stream changes the logical state between requests, and a full
scan per request and state would cost more than the run itself, so the
oracle composes two scans per distinct query instead:

* the base relation, scanned once with the query *widened* so that no
  answer can be lost to a later delete (top-k forms ask for
  ``k + max_deletes`` tuples; a threshold query is already monotone);
* a relation holding every tuple the stream inserts, scanned once with
  every qualifying tuple returned.

The answer at mutation stamp ``j`` (after the first ``j`` inserts and
deletes of the stream) is the union of both lists restricted to tuples
alive at ``j``, in the canonical :class:`~repro.core.results.Match`
order, cut to ``k`` for top-k forms.  Every score is computed by the
same function on the same UDA as a scan of the mutated relation, and
the order is the same total order, so the composition equals that scan
exactly.
"""

from __future__ import annotations

from repro.core.queries import (
    EqualityThresholdQuery,
    EqualityTopKQuery,
    Query,
    SimilarityTopKQuery,
)
from repro.core.relation import UncertainRelation
from repro.core.results import Match


def _widened(query: Query, depth: int) -> Query:
    """The same query asking for ``depth`` answers (top-k forms only)."""
    if isinstance(query, EqualityTopKQuery):
        return EqualityTopKQuery(query.q, depth)
    if isinstance(query, SimilarityTopKQuery):
        return SimilarityTopKQuery(query.q, depth, query.divergence)
    if isinstance(query, EqualityThresholdQuery):
        return query
    raise TypeError(f"the benchmark oracle has no rule for {type(query).__name__}")


def _cut(query: Query) -> int | None:
    return query.k if isinstance(query, (EqualityTopKQuery, SimilarityTopKQuery)) else None


class StreamOracle:
    """Answers of ``base`` after any prefix of a mutation stream.

    ``mutations`` lists ``("insert", tid, uda)`` and ``("delete", tid,
    None)`` in stream order; inserted tids are fresh (never present in
    ``base``, never reinserted).
    """

    def __init__(self, base: UncertainRelation, mutations: list[tuple]) -> None:
        self.base = base
        self._inserted_at: dict[int, int] = {}
        self._deleted_at: dict[int, int] = {}
        self._overlay = UncertainRelation(base.domain, name="inserted")
        self._overlay_tids: list[int] = []
        for stamp, (op, tid, uda) in enumerate(mutations):
            if op == "insert":
                self._inserted_at[tid] = stamp
                self._overlay.append(uda)
                self._overlay_tids.append(tid)
            else:
                self._deleted_at[tid] = stamp
        self._depth_slack = len(self._deleted_at)
        self._lists: dict[int, tuple[list[Match], list[Match]]] = {}

    def alive(self, tid: int, stamp: int) -> bool:
        """Whether ``tid`` is live after the first ``stamp`` mutations."""
        inserted = self._inserted_at.get(tid)
        if inserted is not None and inserted >= stamp:
            return False
        deleted = self._deleted_at.get(tid)
        return deleted is None or deleted >= stamp

    def _scans(self, key: int, query: Query) -> tuple[list[Match], list[Match]]:
        scans = self._lists.get(key)
        if scans is None:
            cut = _cut(query)
            depth = len(self.base) if cut is None else cut + self._depth_slack
            base = self.base.execute(_widened(query, max(depth, 1))).matches
            overlay: list[Match] = []
            if len(self._overlay):
                result = self._overlay.execute(_widened(query, len(self._overlay)))
                overlay = [
                    Match(tid=self._overlay_tids[match.tid], score=match.score)
                    for match in result.matches
                ]
            scans = (base, overlay)
            self._lists[key] = scans
        return scans

    def answer(self, key: int, query: Query, stamp: int) -> list[tuple[int, float]]:
        """``[(tid, score), ...]`` of ``query`` after ``stamp`` mutations.

        ``key`` identifies the query across calls (the scans are cached
        per key).
        """
        base, overlay = self._scans(key, query)
        merged = sorted(
            [match for match in base if self.alive(match.tid, stamp)]
            + [match for match in overlay if self.alive(match.tid, stamp)]
        )
        cut = _cut(query)
        if cut is not None:
            merged = merged[:cut]
        return [(match.tid, match.score) for match in merged]
