"""Per-layer metrics from a traced phase.

Inputs are the tracer's tallies over the measured phase (per span name:
calls, inclusive ns, self ns, root ns; plus named counts) and the
program's own ``METRICS`` counter delta over the same phase.  Times and
counts are per completed query unless the name says otherwise; a
layer the workload does not exercise reports 0.

Metric names carrying ``self`` are self time (span time minus child
spans); other ``_ms`` metrics are inclusive time of the named call.
"""

from __future__ import annotations

_EMPTY = (0, 0, 0, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: dict,
    metrics: dict,
    *,
    queries: int,
    reads_per_query: float,
    reads_by_tag: dict,
    client_latency_ms: float | None = None,
    server_counters: dict | None = None,
) -> dict[str, float]:
    tally = traced["tally"]
    counts = traced["counts"]

    def calls(name):
        return tally.get(name, _EMPTY)[0]

    def total_ms(name):
        return tally.get(name, _EMPTY)[1] / 1e6

    def self_ms(name):
        return tally.get(name, _EMPTY)[2] / 1e6

    def root_ms(name):
        return tally.get(name, _EMPTY)[3] / 1e6

    def per_query(value):
        return _ratio(value, queries)

    executor_ms = root_ms("exec.execute") + root_ms("exec.execute_batch")
    writes = calls("invindex.insert") + calls("invindex.delete")
    counters = server_counters or {}
    out = {
        # serve: wire, queueing and coalescing.
        "serve.wire_ms": (
            client_latency_ms - per_query(executor_ms)
            if client_latency_ms is not None
            else 0.0
        ),
        "serve.batch_size": _ratio(counters.get("coalesced", 0), counters.get("batches", 0)),
        "serve.shed": float(counters.get("shed", 0)),
        # exec: executor bookkeeping and the cross-request tuple cache.
        "exec.execute_self_ms": per_query(
            self_ms("exec.execute") + self_ms("exec.execute_batch")
        ),
        "exec.tuple_cache_hit_ratio": _ratio(
            counts.get("exec.tuple_cache.hit", 0), counts.get("exec.tuple_cache.lookup", 0)
        ),
        # invindex: strategies, cursors, verification, segments, writes.
        "invindex.strategy_self_ms": per_query(self_ms("invindex.strategy")),
        "invindex.cursor_ms": per_query(total_ms("invindex.cursor")),
        "invindex.cursor_runs": per_query(calls("invindex.cursor")),
        "invindex.verify_calls": per_query(calls("invindex.verify")),
        "invindex.verify_self_ms": per_query(self_ms("invindex.verify")),
        "invindex.verify_yield": _ratio(
            counts.get("invindex.matches", 0), counts.get("invindex.verified", 0)
        ),
        "invindex.segment_merge_ms": per_query(total_ms("invindex.segment_merge")),
        "invindex.apply_ms": _ratio(
            total_ms("invindex.insert") + total_ms("invindex.delete") - total_ms("wal.append"),
            writes,
        ),
        "invindex.compact_ms": _ratio(total_ms("invindex.compact"), calls("invindex.compact")),
        # core: scoring kernels.
        "core.score_calls": per_query(calls("core.score")),
        "core.score_ms": per_query(total_ms("core.score")),
        # storage: buffer pool and decoded-page cache.
        "storage.fetch_calls": per_query(calls("storage.fetch")),
        "storage.fetch_self_ms": per_query(self_ms("storage.fetch")),
        "storage.pool_hit_ratio": _ratio(
            metrics.get("pool.hit", 0), metrics.get("pool.hit", 0) + metrics.get("pool.miss", 0)
        ),
        "storage.evictions": per_query(metrics.get("pool.evict", 0)),
        "storage.decoded_hit_ratio": _ratio(
            metrics.get("decoded.hit", 0),
            metrics.get("decoded.hit", 0) + metrics.get("decoded.miss", 0),
        ),
        # storage: disk and backends.
        "storage.reads": reads_per_query,
        **{
            f"storage.reads.{tag}": float(reads_by_tag.get(tag, 0.0))
            for tag in ("postings", "tuples", "pdr-node", "sketch")
        },
        "storage.read_self_ms": per_query(self_ms("storage.read")),
        "storage.backend_read_ms": per_query(total_ms("storage.backend_read")),
        # storage: heap file and page serialization.
        "storage.heap_decode_calls": per_query(calls("storage.heap_decode_record")),
        "storage.heap_decode_ms": per_query(
            self_ms("storage.heap_get_view") + total_ms("storage.heap_decode_record")
        ),
        "storage.posting_decode_ms": per_query(total_ms("storage.posting_decode")),
        # pdrtree: traversal, leaf decoding, boundary bounds.
        "pdrtree.decode_leaf_calls": per_query(calls("pdrtree.decode_leaf")),
        "pdrtree.decode_leaf_ms": per_query(total_ms("pdrtree.decode_leaf")),
        "pdrtree.bound_ms": per_query(total_ms("pdrtree.bound")),
        "pdrtree.nodes_visited": per_query(metrics.get("pdr.visit", 0)),
        "pdrtree.prune_ratio": _ratio(
            metrics.get("pdr.verdict.prune", 0),
            metrics.get("pdr.verdict.prune", 0) + metrics.get("pdr.verdict.descend", 0),
        ),
        "pdrtree.entries_scored": per_query(counts.get("pdrtree.entries_scored", 0)),
        # sketch: similarity pre-filter.
        "sketch.self_ms": per_query(self_ms("sketch.search")),
        "sketch.prune_ratio": _ratio(
            metrics.get("sketch.prune", 0),
            metrics.get("sketch.prune", 0) + metrics.get("sketch.verify", 0),
        ),
        "sketch.verify_calls": per_query(metrics.get("sketch.verify", 0)),
        # wal: appends in the phase (per mutation).
        "wal.append_ms": _ratio(total_ms("wal.append"), calls("wal.append")),
    }
    return out
