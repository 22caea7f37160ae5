"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of ``repro`` at the layer
boundaries the benchmark reports (see ``README.md`` in this directory)
and records one span per call: name, start, end, parent span and the
request (root span) it belongs to.  The program's own sources are not
touched; functions that other modules imported by name are rebound in
those modules too.

A span is recorded only inside a *root* call (a request entering the
executor, a mutation, a WAL replay), so data generation, index builds
and the oracle's scans never appear.  Each thread keeps its own span
stack and tallies; the serve worker thread and the client thread never
share one.

Per span name the tracer sums calls, inclusive time, self time (time
not covered by child spans) and, for spans opened as roots, root time.
Span records are kept in memory up to :data:`SPAN_CAP` per thread and
written out when the run ends; the tallies count every call.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter_ns

#: Span records kept per thread; the tallies keep counting past it.
SPAN_CAP = 50_000


class _ThreadState:
    __slots__ = ("stack", "tally", "counts", "spans", "next_id", "thread")

    def __init__(self) -> None:
        #: Open spans: ``[child_ns, span_id]`` per level.
        self.stack: list[list[int]] = []
        #: name -> [calls, total_ns, self_ns, root_ns]
        self.tally: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.thread = threading.current_thread().name


class Tracer:
    """Installs span-recording wrappers and tallies what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _close(self, state: _ThreadState, name: str, frame, start: int) -> None:
        end = perf_counter_ns()
        stack = state.stack
        stack.pop()
        duration = end - start
        tally = state.tally.get(name)
        if tally is None:
            tally = state.tally[name] = [0, 0, 0, 0]
        tally[0] += 1
        tally[1] += duration
        tally[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
            parent, request = stack[-1][1], stack[0][1]
        else:
            tally[3] += duration
            parent, request = -1, frame[1]
        if len(state.spans) < SPAN_CAP:
            state.spans.append((name, start, end, frame[1], parent, request))

    # -- wrappers --------------------------------------------------------------

    def span(self, fn, name: str, *, root: bool = False, on_result=None):
        """Wrap ``fn`` so that each call inside a root records a span.

        ``on_result(tracer, result)`` may add counts taken from the
        return value at the same boundary.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if not state.stack and not root:
                return fn(*args, **kwargs)
            frame = [0, state.next_id]
            state.next_id += 1
            state.stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, name, frame, start)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def span_steps(self, fn, name: str):
        """Wrap a generator function: each step it takes is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                state = tracer._state()
                if not state.stack:
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = [0, state.next_id]
                state.next_id += 1
                state.stack.append(frame)
                start = perf_counter_ns()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer._close(state, name, frame, start)
                yield item

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named count, if the calling thread is inside a root."""
        state = self._state()
        if state.stack:
            state.counts[name] = state.counts.get(name, 0) + amount

    # -- installation ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Summed tallies and counts over every thread, as of now."""
        tally: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, values in list(state.tally.items()):
                into = tally.setdefault(name, [0, 0, 0, 0])
                for i, value in enumerate(values):
                    into[i] += value
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
        return {"tally": tally, "counts": counts}

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """Tallies and counts accrued between two snapshots."""
        tally = {}
        for name, values in after["tally"].items():
            old = before["tally"].get(name, [0, 0, 0, 0])
            tally[name] = [a - b for a, b in zip(values, old)]
        counts = {
            name: value - before["counts"].get(name, 0)
            for name, value in after["counts"].items()
        }
        return {"tally": tally, "counts": counts}

    def write_spans(self, path) -> int:
        """Write every kept span as one JSON line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in self._states:
                for name, start, end, span_id, parent, request in state.spans:
                    out.write(json.dumps({
                        "thread": state.thread, "name": name, "id": span_id,
                        "parent": parent, "request": request,
                        "start_ns": start, "end_ns": end,
                    }) + "\n")
                    written += 1
        return written


def layer_tracer() -> Tracer:
    """A tracer with every layer boundary the benchmark reports patched in.

    Nothing is wrapped until :meth:`Tracer.install`.
    """
    from repro.core import kernels
    from repro.core.queries import SimilarityThresholdQuery, SimilarityTopKQuery
    from repro.core.uda import QueryVector, UncertainAttribute
    from repro.exec.serving import GenerationalTupleCache, ServingExecutor
    from repro.invindex import index as invindex_module
    from repro.invindex import postings as postings_module
    from repro.invindex.index import ProbabilisticInvertedIndex
    from repro.invindex.postings import PostingCursor
    from repro.invindex.segments import SegmentedPostingList
    from repro.invindex.strategies import STRATEGIES
    from repro.pdrtree import tree as pdrtree_module
    from repro.pdrtree.mbr import BoundaryVector
    from repro.pdrtree.tree import PDRTree
    from repro.sketch import search as sketch_search
    from repro.storage.backends import SimulatedBackend
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager
    from repro.storage.heapfile import HeapFile
    from repro.wal.log import WriteAheadLog

    tracer = Tracer()

    def method(cls, attr, name, **kwargs):
        tracer.patch(cls, attr, tracer.span(cls.__dict__[attr], name, **kwargs))

    def function(module, attr, name):
        tracer.patch(module, attr, tracer.span(getattr(module, attr), name))

    def strategy_counts(tracer, result):
        tracer.count("invindex.verified", result.stats.random_accesses)
        tracer.count("invindex.matches", len(result))

    def pdr_counts(tracer, result):
        tracer.count("pdrtree.entries_scored", result.stats.candidates_examined)

    # exec: request roots.
    method(ServingExecutor, "execute", "exec.execute", root=True)
    method(ServingExecutor, "execute_batch", "exec.execute_batch", root=True)
    method(ServingExecutor, "apply_mutation", "exec.mutation", root=True)
    cache_get = GenerationalTupleCache.__dict__["get"]

    @functools.wraps(cache_get)
    def counted_get(self, key, default=None):
        value = cache_get(self, key, default)
        tracer.count("exec.tuple_cache.lookup")
        if value is not default:
            tracer.count("exec.tuple_cache.hit")
        return value

    tracer.patch(GenerationalTupleCache, "get", counted_get)

    # invindex: strategies, cursors, segments, verification, write path.
    for strategy in STRATEGIES.values():
        cls = type(strategy)
        for attr in ("threshold", "top_k"):
            if attr in cls.__dict__:
                method(cls, attr, "invindex.strategy", on_result=strategy_counts)
    method(PostingCursor, "pop_run", "invindex.cursor")
    tracer.patch(
        SegmentedPostingList,
        "iter_leaf_arrays",
        tracer.span_steps(
            SegmentedPostingList.__dict__["iter_leaf_arrays"], "invindex.segment_merge"
        ),
    )
    method(ProbabilisticInvertedIndex, "fetch_uda_arrays", "invindex.verify")
    method(ProbabilisticInvertedIndex, "insert", "invindex.insert")
    method(ProbabilisticInvertedIndex, "delete", "invindex.delete")
    method(ProbabilisticInvertedIndex, "compact", "invindex.compact")
    method(ProbabilisticInvertedIndex, "attach_wal", "wal.replay", root=True)

    # core: scoring kernels.
    method(UncertainAttribute, "equality_with_arrays", "core.score")
    method(QueryVector, "equality_with_arrays", "core.score")
    method(SimilarityTopKQuery, "distance_arrays", "core.score")
    method(SimilarityThresholdQuery, "distance_arrays", "core.score")
    function(kernels, "exact_scores", "core.score")

    # storage: pool, disk, backends, heap file, page decoding.
    method(BufferPool, "fetch_page", "storage.fetch")
    method(DiskManager, "read_page", "storage.read")
    # The default backend; the benchmark clears REPRO_BACKEND.
    method(SimulatedBackend, "read", "storage.backend_read")
    method(HeapFile, "get_view", "storage.heap_get_view")
    function(invindex_module, "decode_heap_record", "storage.heap_decode_record")
    function(postings_module, "decode_posting_leaf", "storage.posting_decode")

    # pdrtree: traversal, leaf decoding, boundary bounds.
    method(PDRTree, "execute", "pdrtree.execute", on_result=pdr_counts)
    function(pdrtree_module, "decode_leaf", "pdrtree.decode_leaf")
    method(BoundaryVector, "dot", "pdrtree.bound")

    # sketch and wal.
    function(sketch_search, "similarity_execute", "sketch.search")
    method(WriteAheadLog, "append_insert", "wal.append")
    method(WriteAheadLog, "append_delete", "wal.append")
    return tracer
