"""The two benchmark workloads.

``cold_paper``
    The paper's protocol: one in-process caller, a fresh 100-frame pool
    per query (``ServingExecutor(mode="measure")``), queries alternating
    between the inverted index and the PDR-tree over a Gen3 relation.
    The inverted index is larger than the pool, so storage, buffer,
    decoding and verification do nearly all the work.
``mixed_write``
    A ``QueryServer`` on loopback with two closed-loop client
    connections over a Zipf relation whose whole index fits the serve
    pool.  One connection interleaves inserts, deletes and compactions
    with its queries while the other only reads.  Verification, scoring,
    the sketch filter and the serve wire do the read work; every
    mutation clears the server's cross-request tuple-decode cache and
    adds posting segments.

Each workload's relation and its pool of calibrated queries are fixed
(drawn from :data:`DATA_SEED`), like the paper's datasets; the run seed
draws everything that is executed over them: the order of the queries,
the client request streams, and which tuples are inserted and deleted.
A run sets the system up several times (``setup_s`` is the median),
measures for the requested seconds, then checks every answer against
:mod:`perfbench.oracle`.

Recovery and compaction are timed on fixed work, repeated between the
query passes or wire segments of the measured phase (see
:class:`_Maintenance`).  ``cold_paper`` ends with a write probe over
the wire (a fixed number of inserts, deletes and compactions on the
otherwise idle system) for the mutation and space metrics;
``mixed_write`` takes them from its own stream.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.bench.harness import IndexUnderTest, measure_query
from repro.core.queries import SimilarityTopKQuery
from repro.datagen.synthetic import gen3_dataset, zipf_dataset
from repro.datagen.workload import build_workload, sample_query_udas
from repro.exec.serving import DEFAULT_SERVE_POOL_SIZE, ServingExecutor
from repro.invindex.index import DEFAULT_SEGMENT_TUPLES, ProbabilisticInvertedIndex
from repro.obs.metrics import METRICS
from repro.pdrtree.tree import PDRTree
from repro.serve import QueryServer, ServeClient, ServeConfig
from repro.serve.client import ServeError
from repro.storage.buffer import DEFAULT_POOL_SIZE
from repro.wal import WriteAheadLog
from repro.wal.log import MAGIC as WAL_MAGIC

from perfbench import layers
from perfbench.oracle import StreamOracle
from perfbench.stats import far_tail, median_ms, tail

#: Seed of every workload's relation and query pool.  Fixing them keeps
#: a run's aggregate cost independent of the run seed: Gen3's few dozen
#: item groups, drawn anew per seed, move reads per query by a fifth.
DATA_SEED = 0
#: Paper selectivities the calibrated PETQ / top-k queries are drawn at.
SELECTIVITIES = (0.001, 0.01)
#: Times the system is set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``cold_paper`` runs one maintenance repeat after this many passes.
MAINTAIN_EVERY_PASSES = 2
#: ``mixed_write`` runs its wire traffic in segments of this many
#: seconds, with one maintenance repeat between two segments.
SEGMENT_S = 5.0
#: Maintenance repeats after the measured phase of a traced run, which
#: interleaves none (their spans would land in the phase's tallies).
TRACED_MAINTENANCE = 2

# cold_paper: Gen3 at domain 100.  5,000 tuples keep three PDR-tree
# builds inside a run while the inverted index stays twice the pool.
COLD_TUPLES = 5_000
COLD_DOMAIN = 100
COLD_QUERIES_PER_POINT = 20

# mixed_write: Zipf (domain 50, skew 1.1, 4 items a tuple).
SERVE_TUPLES = 5_000
SERVE_DOMAIN = 50
SERVE_SKEW = 1.1
SERVE_NNZ = 4
SERVE_QUERIES_PER_POINT = 12
SIM_QUERIES = 8
SIM_K = 10
#: Request mix of the read streams: PETQ, top-k, similarity top-k.
READ_MIX = (0.4, 0.4, 0.2)
CONNECTIONS = 2
#: mixed_write counts physical reads over the first this-many queries
#: from a cold serve pool; afterwards the pool holds the whole index and
#: reads are zero.
READ_WINDOW = 64
#: Operations generated per connection (more than any run completes).
READ_STREAM_OPS = 20_000
MIXED_STREAM_OPS = 5_000

#: Deadline every wire query carries.  A read queued behind a
#: compaction (about 1.5 s here, most of it the sketch rebuild) waits it
#: out and shows as latency; the server's 1 s default would shed it.
REQUEST_DEADLINE_MS = 30_000.0

# mixed_write's mutating connection: shares of queries / inserts /
# deletes.
MIXED_SHARES = (0.7, 0.2, 0.1)
#: Inserts between compactions.  The index seals its active posting
#: segment after this many inserted tuples (the shipped default), and
#: every writer here compacts once per sealed segment.
COMPACT_AFTER_INSERTS = DEFAULT_SEGMENT_TUPLES

# Write probe: rounds of one segment's inserts and half as many deletes
# (mixed_write's 2:1) in a seeded order, each round followed by one
# compaction.  cold_paper sends it over the wire, spread over its
# measured phase; its first round is every workload's maintenance log.
PROBE_ROUNDS = 2
PROBE_INSERTS = COMPACT_AFTER_INSERTS
PROBE_DELETES = COMPACT_AFTER_INSERTS // 2
#: Passes of the trace probe's query plan with the wrappers removed and
#: installed each, in alternating order after one warm-up pass.
TRACE_PROBE_PAIRS = 4


@dataclass
class Run:
    """What one run measured, checked and recorded."""

    workload: str
    seed: int
    seconds: float
    tmp: Path
    tracer: object = None
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    #: perf_counter (start, end) of "setup" (all repeats) and "phase".
    periods: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def mismatch(self, message: str) -> None:
        if len(self.mismatches) < 50:
            self.mismatches.append(message)
        else:
            self.mismatches[-1] = f"... and more (last: {message})"


# -- inputs --------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _answer(result) -> list[tuple[int, float]]:
    return [(match.tid, match.score) for match in result.matches]


def _sketch_of(query) -> str | None:
    return "exact" if isinstance(query, SimilarityTopKQuery) else None


class _Mutator:
    """Seeded inserts of fresh tuples (tids after the base relation's)
    and deletes of uniformly drawn live tids."""

    def __init__(self, rng, base_size: int, fresh) -> None:
        self.rng = rng
        self.fresh = fresh
        self.base_size = base_size
        self.live = list(range(base_size))
        self.next_tid = base_size

    def insert(self) -> tuple:
        tid = self.next_tid
        self.next_tid += 1
        self.live.append(tid)
        return ("insert", tid, self.fresh.uda_of(tid - self.base_size))

    def delete(self) -> tuple:
        live = self.live
        position = int(self.rng.integers(len(live)))
        live[position], live[-1] = live[-1], live[position]
        return ("delete", live.pop(), None)


def _probe_ops(seed: int, base_size: int, generate) -> list[tuple]:
    """The write probe, compactions included: ``cold_paper`` sends it
    over the wire, and its first round is every maintenance log."""
    rng = _rng(seed, 7)
    mutator = _Mutator(rng, base_size, generate(PROBE_ROUNDS * PROBE_INSERTS, [seed, 2]))
    ops: list[tuple] = []
    for _ in range(PROBE_ROUNDS):
        kinds = ["insert"] * PROBE_INSERTS + ["delete"] * PROBE_DELETES
        rng.shuffle(kinds)
        ops.extend(getattr(mutator, kind)() for kind in kinds)
        ops.append(("compact", None, None))
    return ops


def _mutations_only(ops: list[tuple]) -> list[tuple]:
    return [op for op in ops if op[0] in ("insert", "delete")]


def _first_round(ops: list[tuple]) -> list[tuple]:
    """The mutations before the first compaction."""
    return _mutations_only(ops[: ops.index(("compact", None, None))])


def _live_pairs(relation, ops: list[tuple]) -> int:
    """Stored (item, prob) pairs of the live tuples after ``ops``."""
    nnz = {tid: relation.uda_of(tid).nnz for tid in relation.tids()}
    for op, tid, uda in ops:
        if op == "insert":
            nnz[tid] = uda.nnz
        elif op == "delete":
            del nnz[tid]
    return sum(nnz.values())


# -- shared steps ----------------------------------------------------------------


def _settle(*, freeze: bool = False) -> None:
    """Collect garbage before a timed step, outside its timing.

    With ``freeze`` every surviving object moves to the permanent
    generation, so collections inside the timed step scan only what the
    step allocates, as in a freshly started process.  Setup freezes; the
    measured phase and the maintenance repeats inside it only collect,
    because the served index belongs to the heap a running server scans.
    """
    gc.collect()
    if freeze:
        gc.freeze()


def _reset_files(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def _query_metrics(run: Run, latencies, elapsed: float) -> None:
    run.metrics["qps"] = len(latencies) / elapsed
    run.metrics["query_p50_ms"] = median_ms(latencies)
    run.info["query_tail"] = tail(latencies)
    run.info["query_far_tail"] = far_tail(latencies)
    run.metrics["query_tail_ms"] = run.info["query_tail"]["value_ms"]


def _mutation_metrics(run: Run, mutations: list[float]) -> None:
    """The acknowledgement tail goes to the record, not to the metrics:
    on ``cold_paper`` it is the tail of the disk's fsync latency, which
    moves in episodes of minutes (over two sets of ten runs its tail
    spread 0.28 and 0.62)."""
    run.metrics["mutation_p50_ms"] = median_ms(mutations)
    run.info["mutation_tail"] = tail(mutations)
    run.info["mutation_far_tail"] = far_tail(mutations)
    run.info["mutation_latencies_ms"] = [round(1000.0 * t, 3) for t in mutations]


class _Maintenance:
    """Recovery and compaction of one fixed log, repeated through a run.

    The log is the first round of the run's write probe (one posting
    segment of inserts and half as many deletes).  It is written once,
    before the measured phase, by an index loaded from the setup image
    with a WAL of its own (fsync on).  One repeat loads the setup image
    and replays the log (one recovery), then compacts the result (one
    compaction), so both are the same work in every run of a seed.

    The repeats are spread through the measured phase, between query
    passes or wire segments, because this shared host's speed changes in
    episodes of seconds: the same compaction took 0.75 s in one and
    1.35 s in the next, so repeats run back to back can all fall in one
    slow episode.  ``recovery_s`` and ``compact_s`` are the mean of the
    repeats.  Over five runs the mean spread less than the median or
    the fastest repeat (0.11 against 0.14 and 0.28 for ``cold_paper``'s
    compaction).
    """

    def __init__(self, image: Path, log: Path, mutations: list[tuple]) -> None:
        self.image = image
        self.log = log
        self.mutations = mutations
        self.recovery_s: list[float] = []
        self.compact_s: list[float] = []
        _reset_files(log)
        index = ProbabilisticInvertedIndex.load(image)
        with WriteAheadLog(log) as wal:
            index.attach_wal(wal, replay=False)
            for op, tid, uda in mutations:
                if op == "insert":
                    index.insert(tid, uda)
                else:
                    index.delete(tid)

    def repeat(self) -> ProbabilisticInvertedIndex:
        """One timed recovery and compaction; returns the compacted index."""
        _settle()
        start = perf_counter()
        index = ProbabilisticInvertedIndex.load(self.image)
        with WriteAheadLog(self.log) as wal:
            index.attach_wal(wal, replay=True)
            replayed = perf_counter()
            index.compact()
            compacted = perf_counter()
        self.recovery_s.append(replayed - start)
        self.compact_s.append(compacted - replayed)
        return index

    def finish(self, run: Run, relation, queries) -> None:
        """The closing repeats, the two metrics and the oracle check.

        A traced run's closing repeats give ``wal.replay_ms``.  The
        compacted index must answer every query like a scan of the
        relation after the log.
        """
        before = run.tracer.snapshot() if run.tracer is not None else None
        for _ in range(TRACED_MAINTENANCE if run.tracer is not None else 1):
            index = self.repeat()
        if run.tracer is not None:
            replay = run.tracer.delta(run.tracer.snapshot(), before)["tally"]["wal.replay"]
            run.layers["wal.replay_ms"] = replay[1] / replay[0] / 1e6
        run.metrics["recovery_s"] = statistics.fmean(self.recovery_s)
        run.metrics["compact_s"] = statistics.fmean(self.compact_s)
        run.info["maintenance"] = {
            "mutations": len(self.mutations),
            "recovery_times_s": self.recovery_s,
            "compact_times_s": self.compact_s,
        }
        oracle = StreamOracle(relation, self.mutations)
        _check_recovered(
            run, index, queries, oracle, len(self.mutations), "compacted maintenance index"
        )


def _recover(run: Run, image: Path, wal_path: Path, mutations: int):
    """Reload the setup image and replay the run's own log (untimed)."""
    run.layers["wal.bytes_per_mutation"] = (
        (wal_path.stat().st_size - len(WAL_MAGIC)) / mutations
    )
    _settle()
    recovered = ProbabilisticInvertedIndex.load(image)
    with WriteAheadLog(wal_path) as wal:
        recovered.attach_wal(wal, replay=True)
    return recovered


def _check_recovered(run: Run, index, queries, oracle, stamp: int, label: str) -> None:
    """``index`` must answer every query like the oracle at ``stamp``."""
    executor = ServingExecutor(index)
    for qid, query in enumerate(queries):
        served = executor.execute(query, sketch=_sketch_of(query))
        if _answer(served.result) != oracle.answer(qid, query, stamp):
            run.mismatch(f"{label}: query {qid} differs from the oracle")


def _trace_probe(run: Run, indexes: dict, plan, queries) -> None:
    """Traced and untraced execution of the same queries must agree.

    Runs each ``(family, qid)`` of ``plan`` in measurement mode (fresh
    pool, so reads are deterministic) with the wrappers removed and
    again with them installed; answers, reads and per-tag reads must be
    identical.  After an untimed warm-up pass, :data:`TRACE_PROBE_PAIRS`
    pairs of passes alternate which side runs first; the tracing
    overhead is the median of the pairs' traced ÷ untraced times.
    """
    executors = {
        family: ServingExecutor(index, mode="measure") for family, index in indexes.items()
    }

    def one_pass(installed: bool) -> tuple[float, list]:
        (run.tracer.install if installed else run.tracer.uninstall)()
        rows = []
        start = perf_counter()
        for family, qid in plan:
            query = queries[qid]
            served = executors[family].execute(query, sketch=_sketch_of(query))
            rows.append((_answer(served.result), served.reads, served.reads_by_tag))
        return perf_counter() - start, rows

    _, untraced = one_pass(False)
    ratios = []
    for pair in range(TRACE_PROBE_PAIRS):
        timings = {}
        for installed in ((False, True) if pair % 2 == 0 else (True, False)):
            timings[installed], rows = one_pass(installed)
            if rows != untraced:
                run.mismatch("traced execution differs from untraced execution")
        ratios.append(timings[True] / timings[False])
    run.tracer.uninstall()
    run.info["trace_overhead_pairs"] = ratios
    run.layers["trace.overhead"] = statistics.median(ratios)


def _reads_since(disk, before, tags_before) -> tuple[int, dict]:
    tags = disk.snapshot_tags()
    return disk.stats.delta_since(before).reads, {
        tag: tags[tag] - tags_before.get(tag, 0)
        for tag in tags
        if tags[tag] != tags_before.get(tag, 0)
    }


class _Phase:
    """Tracer and METRICS snapshots around a measured phase, and its
    period in ``run.periods``."""

    def __init__(self, run: Run) -> None:
        self.run = run
        if run.tracer is not None:
            run.tracer.install()
            self.traced_before = run.tracer.snapshot()
        self.metrics_before = METRICS.snapshot()
        self.start = perf_counter()

    def end(self) -> None:
        self.run.periods["phase"] = (self.start, perf_counter())
        self.metrics = METRICS.delta_since(self.metrics_before)
        if self.run.tracer is not None:
            self.traced = self.run.tracer.delta(
                self.run.tracer.snapshot(), self.traced_before
            )

    def report_layers(self, **kwargs) -> None:
        if self.run.tracer is not None:
            self.run.layers.update(layers.per_layer(self.traced, self.metrics, **kwargs))
            self.run.info["phase_spans"] = {
                name: dict(zip(("calls", "total_ns", "self_ns", "root_ns"), values))
                for name, values in sorted(self.traced["tally"].items())
            }
            self.run.info["phase_counts"] = self.traced["counts"]


# -- cold_paper -------------------------------------------------------------------


def cold_paper(run: Run) -> None:
    relation = gen3_dataset(COLD_TUPLES, COLD_DOMAIN, seed=DATA_SEED)
    workload = build_workload(
        relation, SELECTIVITIES, COLD_QUERIES_PER_POINT, seed=DATA_SEED
    )
    queries = [
        form
        for selectivity in SELECTIVITIES
        for calibrated in workload[selectivity]
        for form in (calibrated.threshold_query(), calibrated.top_k_query())
    ]
    order = _rng(run.seed, 1).permutation(len(queries)).tolist()
    plan = [(family, qid) for qid in order for family in ("inverted", "pdr")]
    probe = _probe_ops(
        run.seed, len(relation),
        lambda count, seed: gen3_dataset(count, COLD_DOMAIN, seed=seed),
    )
    image, wal_path = run.tmp / "inverted.img", run.tmp / "inverted.wal"

    setup_times = []
    wal = None
    began = perf_counter()
    for _ in range(SETUP_REPEATS):
        if wal is not None:
            wal.close()
        inverted = pdr = executors = wal = None
        _reset_files(image, wal_path)
        _settle(freeze=True)
        start = perf_counter()
        inverted = ProbabilisticInvertedIndex(COLD_DOMAIN)
        inverted.build(relation)
        pdr = PDRTree(COLD_DOMAIN)
        pdr.build(relation)
        inverted.save(image)
        wal = WriteAheadLog(wal_path)
        inverted.attach_wal(wal, replay=False)
        executors = {
            "inverted": ServingExecutor(inverted, mode="measure"),
            "pdr": ServingExecutor(pdr, mode="measure"),
        }
        setup_times.append(perf_counter() - start)
    run.periods["setup"] = (began, perf_counter())
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.info["setup_times_s"] = setup_times
    indexes = {"inverted": inverted, "pdr": pdr}
    pages = {family: index.disk.num_pages for family, index in indexes.items()}
    maintenance = _Maintenance(image, run.tmp / "maintenance.wal", _first_round(probe))
    # The write probe goes to an index of its own, loaded from the image,
    # so that every pass queries the built index.
    probe_wal_path = run.tmp / "probe.wal"
    probed = ProbabilisticInvertedIndex.load(image)
    probe_wal = WriteAheadLog(probe_wal_path)
    probed.attach_wal(probe_wal, replay=False)

    oracle = StreamOracle(relation, _mutations_only(probe))
    expected = [oracle.answer(qid, query, 0) for qid, query in enumerate(queries)]

    # The paper harness fixes every query's reads (and warms the code
    # paths); every execution below must match it, traced or not.
    harness = {}
    for family, qid in plan:
        measured = measure_query(IndexUnderTest(family, indexes[family]), queries[qid])
        harness[family, qid] = (measured.reads, measured.reads_by_tag)
    run.metrics["reads_per_query"] = statistics.fmean(
        reads for reads, _ in harness.values()
    )
    tags = sorted({tag for _, by_tag in harness.values() for tag in by_tag})
    reads_by_tag = {
        tag: statistics.fmean(by_tag.get(tag, 0) for _, by_tag in harness.values())
        for tag in tags
    }

    def execute_checked(family: str, qid: int) -> float:
        start = perf_counter()
        served = executors[family].execute(queries[qid])
        elapsed = perf_counter() - start
        if _answer(served.result) != expected[qid]:
            run.mismatch(f"{family} query {qid}: answer differs from the oracle")
        if (served.reads, served.reads_by_tag) != harness[family, qid]:
            run.mismatch(
                f"{family} query {qid}: {served.reads} reads, "
                f"measure_query counted {harness[family, qid][0]}"
            )
        return elapsed

    async def phase_and_probe() -> tuple[list[float], "_Wire"]:
        """Whole passes of the plan for the run's seconds.  Between two
        passes the probe's connection sends the probe's operations due by
        then (the probe is spread evenly over the phase), and every
        other pass is followed by a maintenance repeat.  A traced run
        interleaves neither, since their spans would enter the phase's
        tallies: it sends the probe afterwards.  The passes block the
        event loop, which has nothing else to do then: the probe's
        connection has no request in flight between its chunks."""
        interleave = run.tracer is None
        server = QueryServer(probed, config=ServeConfig())
        await server.start()
        client = None
        try:
            client = await ServeClient(*server.address).connect()
            wire = _Wire(run, [], probed.disk)
            conn = _Conn(client, probe)
            latencies: list[float] = []
            passes = 0
            _settle()
            phase = _Phase(run)
            start = perf_counter()
            while not passes or perf_counter() - start < run.seconds:
                latencies.extend(execute_checked(family, qid) for family, qid in plan)
                passes += 1
                if interleave:
                    due = math.ceil(len(probe) * (perf_counter() - start) / run.seconds)
                    await wire.drive(conn, lambda: conn.used >= due)
                    if passes % MAINTAIN_EVERY_PASSES == 0:
                        maintenance.repeat()
            phase.end()
            await wire.drive(conn, lambda: False)
        finally:
            if client is not None:
                await client.close()
            await server.stop()
        phase.report_layers(
            queries=len(latencies),
            reads_per_query=run.metrics["reads_per_query"],
            reads_by_tag=reads_by_tag,
        )
        return latencies, wire

    latencies, wire = asyncio.run(phase_and_probe())
    run.attempted += len(latencies)
    # The time inside execute: the oracle and read-count checks between
    # executions, the probe and the maintenance do not count.
    _query_metrics(run, latencies, math.fsum(latencies))
    _mutation_metrics(run, wire.mutation_latencies)
    run.info["probe_compact_times_s"] = wire.compact_latencies
    run.metrics["space_amp"] = probed.disk.size_in_bytes / (
        _live_pairs(relation, probe) * 8
    )
    wal.close()
    probe_wal.close()
    mutations = _mutations_only(probe)
    recovered = _recover(run, image, probe_wal_path, len(mutations))
    _check_recovered(run, recovered, queries, oracle, len(mutations), "recovered index")
    maintenance.finish(run, relation, queries)
    if run.tracer is not None:
        _trace_probe(run, {"inverted": recovered, "pdr": pdr}, plan, queries)
    run.info.update(
        relation={"family": "gen3", "tuples": len(relation), "domain": COLD_DOMAIN},
        queries={
            "distinct": len(queries), "per_pass": len(plan), "executed": len(latencies),
        },
        index_pages=pages,
        pool_frames=DEFAULT_POOL_SIZE,
        working_set_ratio=pages["inverted"] / DEFAULT_POOL_SIZE,
        similarity_share=0.0,
        mutation_share=0.0,
        reads_by_tag=reads_by_tag,
        probe_mutations=len(mutations),
    )


# -- mixed_write ---------------------------------------------------------------------


def _serve_inputs():
    relation = zipf_dataset(
        SERVE_TUPLES, SERVE_DOMAIN, SERVE_SKEW, SERVE_NNZ, seed=DATA_SEED
    )
    workload = build_workload(
        relation, SELECTIVITIES, SERVE_QUERIES_PER_POINT, seed=DATA_SEED
    )
    calibrated = [c for s in SELECTIVITIES for c in workload[s]]
    petq = [c.threshold_query() for c in calibrated]
    topk = [c.top_k_query() for c in calibrated]
    sims = [
        SimilarityTopKQuery(q, SIM_K, "l1")
        for q in sample_query_udas(relation, SIM_QUERIES, seed=DATA_SEED + 1)
    ]
    queries = petq + topk + sims
    first_topk, first_sim = len(petq), len(petq) + len(topk)
    by_kind = (
        range(first_topk), range(first_topk, first_sim), range(first_sim, len(queries)),
    )
    return relation, queries, by_kind


def _fresh_zipf(count: int, seed: int):
    return zipf_dataset(count, SERVE_DOMAIN, SERVE_SKEW, SERVE_NNZ, seed=seed)


def _read_stream(rng, by_kind, length: int) -> list[tuple]:
    kinds = rng.choice(len(by_kind), size=length, p=READ_MIX)
    picks = rng.random(length)
    return [
        ("query", by_kind[k][int(pick * len(by_kind[k]))], None)
        for k, pick in zip(kinds.tolist(), picks.tolist())
    ]


def _mixed_stream(seed: int, by_kind, base_size: int) -> list[tuple]:
    rng = _rng(seed, 1)
    draws = rng.random(MIXED_STREAM_OPS)
    query_share, insert_share, _ = MIXED_SHARES
    inserts = int(((draws >= query_share) & (draws < query_share + insert_share)).sum())
    mutator = _Mutator(rng, base_size, _fresh_zipf(inserts, [seed, 2]))
    reads = iter(_read_stream(rng, by_kind, MIXED_STREAM_OPS))
    ops: list[tuple] = []
    pending = 0
    for draw in draws.tolist():
        if draw < query_share:
            ops.append(next(reads))
        elif draw >= query_share + insert_share:
            ops.append(mutator.delete())
        else:
            ops.append(mutator.insert())
            pending += 1
            if pending == COMPACT_AFTER_INSERTS:
                ops.append(("compact", None, None))
                pending = 0
    return ops


class _Wire:
    """Client-side bookkeeping of the serve workloads.

    Mutation stamps count the inserts and deletes of the mutating
    connection.  A read is accepted if it equals the oracle at some
    stamp between the mutations acknowledged before it was sent and the
    mutations sent before its reply arrived.
    """

    def __init__(self, run: Run, queries, disk) -> None:
        self.run = run
        self.queries = queries
        self.disk = disk
        self.query_latencies: list[float] = []
        self.completed_at: list[float] = []
        self.mutation_latencies: list[float] = []
        self.compact_latencies: list[float] = []
        #: (start, end) of every acknowledged compaction.
        self.compact_spans: list[tuple[float, float]] = []
        #: (qid, lowest stamp, highest stamp, answer) per ok query.
        self.answers: list[tuple] = []
        self.statuses: dict[str, int] = {}
        self.sent = 0
        self.acked = 0
        self.similarity = 0
        self.window = None
        self._reads_before = disk.stats.snapshot()
        self._tags_before = disk.snapshot_tags()

    def close_window(self) -> tuple[int, dict]:
        if self.window is None:
            self.window = _reads_since(self.disk, self._reads_before, self._tags_before)
        return self.window

    def _failed(self, payload: dict) -> None:
        self.run.failed += 1
        status = str(payload.get("status"))
        self.statuses[status] = self.statuses.get(status, 0) + 1

    async def query(self, client, qid: int) -> None:
        query = self.queries[qid]
        self.run.attempted += 1
        low = self.acked
        start = perf_counter()
        payload = await client.request(
            query, sketch=_sketch_of(query), deadline_ms=REQUEST_DEADLINE_MS
        )
        elapsed = perf_counter() - start
        if payload.get("status") != "ok":
            self._failed(payload)
            return
        self.query_latencies.append(elapsed)
        self.completed_at.append(perf_counter())
        self.similarity += isinstance(query, SimilarityTopKQuery)
        answer = [(int(tid), float(score)) for tid, score in payload["matches"]]
        self.answers.append((qid, low, self.sent, answer))
        if len(self.query_latencies) == READ_WINDOW:
            self.close_window()

    async def mutate(self, client, op: str, tid, uda) -> None:
        self.run.attempted += 1
        if op != "compact":
            self.sent += 1
        start = perf_counter()
        try:
            if op == "insert":
                await client.insert(tid, uda)
            elif op == "delete":
                await client.delete(tid)
            else:
                await client.compact()
        except ServeError as error:
            self._failed(error.payload)
            return
        end = perf_counter()
        elapsed = end - start
        if op == "compact":
            self.compact_latencies.append(elapsed)
            self.compact_spans.append((start, end))
        else:
            self.mutation_latencies.append(elapsed)
            self.acked += 1

    async def drive(self, conn: "_Conn", stop) -> None:
        """Issue ``conn``'s next operations in a closed loop until
        ``stop()``."""
        while not stop():
            item = next(conn.ops, None)
            if item is None:
                break
            op, arg, uda = item
            if op == "query":
                await self.query(conn.client, arg)
            else:
                await self.mutate(conn.client, op, arg, uda)
            conn.previous = op
            conn.used += 1


class _Conn:
    """A client connection and the rest of its operation stream."""

    def __init__(self, client, ops: list[tuple]) -> None:
        self.client = client
        self.ops = iter(ops)
        self.used = 0
        self.previous = "compact"


def _compaction_share(wire: "_Wire", elapsed: float) -> dict:
    """The wire time inside compactions, and the query rate outside
    them.  Reads wait while the single serve worker compacts,
    so this separates the compaction stall from the rest of what writes
    cost reads: the mutating connection's time waiting for insert and
    delete acknowledgements, and the tuple-cache clears."""
    stalled = sum(end - begin for begin, end in wire.compact_spans)
    outside = sum(
        not any(begin <= moment < end for begin, end in wire.compact_spans)
        for moment in wire.completed_at
    )
    return {
        "count": len(wire.compact_spans),
        "seconds": stalled,
        "share_of_phase": stalled / elapsed,
        "mutation_ack_seconds": sum(wire.mutation_latencies),
        "qps_outside": outside / (elapsed - stalled),
    }


async def _serve_setup(run: Run, relation, image: Path, wal_path: Path):
    setup_times = []
    server = wal = None
    began = perf_counter()
    for _ in range(SETUP_REPEATS):
        if server is not None:
            await server.stop()
            wal.close()
        index = server = wal = None
        _reset_files(image, wal_path)
        _settle(freeze=True)
        start = perf_counter()
        index = ProbabilisticInvertedIndex(SERVE_DOMAIN)
        index.build(relation)
        index.build_sketch()
        index.save(image)
        wal = WriteAheadLog(wal_path)
        index.attach_wal(wal, replay=False)
        server = QueryServer(index, config=ServeConfig())
        await server.start()
        setup_times.append(perf_counter() - start)
    run.periods["setup"] = (began, perf_counter())
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.info["setup_times_s"] = setup_times
    return index, server, wal


async def _mixed(run: Run) -> None:
    relation, queries, by_kind = _serve_inputs()
    streams = [
        _mixed_stream(run.seed, by_kind, len(relation)),
        _read_stream(_rng(run.seed, 2), by_kind, READ_STREAM_OPS),
    ]
    probe = _probe_ops(run.seed, len(relation), _fresh_zipf)
    image, wal_path = run.tmp / "served.img", run.tmp / "served.wal"
    index, server, wal = await _serve_setup(run, relation, image, wal_path)
    pages = index.disk.num_pages
    maintenance = _Maintenance(image, run.tmp / "maintenance.wal", _first_round(probe))
    host, port = server.address
    clients = []
    try:
        clients = [await ServeClient(host, port).connect() for _ in range(CONNECTIONS)]
        writer, reader = (_Conn(client, stream) for client, stream in zip(clients, streams))
        wire = _Wire(run, queries, index.disk)
        # The wire runs in segments with one maintenance repeat between
        # two.  A traced run interleaves no maintenance: one segment.
        segment_s = SEGMENT_S if run.tracer is None else run.seconds
        segments = []
        elapsed = 0.0
        _settle()
        phase = _Phase(run)
        while True:
            last = elapsed + segment_s >= run.seconds
            start = perf_counter()
            deadline = start + min(segment_s, run.seconds - elapsed)
            queries_before = len(wire.query_latencies)

            def past_deadline() -> bool:
                return perf_counter() >= deadline

            async def write() -> None:
                await wire.drive(writer, past_deadline)
                if last and writer.previous != "compact":
                    # The run ends compacted, so space_amp is taken on
                    # the same kind of state in every run.
                    await wire.mutate(writer.client, "compact", None, None)

            # The reader reads until the writer is done.
            writing = asyncio.ensure_future(write())
            await asyncio.gather(writing, wire.drive(reader, writing.done))
            segments.append({
                "seconds": perf_counter() - start,
                "queries": len(wire.query_latencies) - queries_before,
            })
            elapsed += segments[-1]["seconds"]
            if last:
                break
            maintenance.repeat()
        phase.end()
        written = streams[0][: writer.used]
        space_bytes = index.disk.size_in_bytes
        run.info["compaction"] = _compaction_share(wire, elapsed)
        run.info["segments"] = segments
        server_counters = (await clients[0].stats())["counters"]
        window_queries = min(READ_WINDOW, len(wire.query_latencies))
        window_reads, window_tags = wire.close_window()
        run.metrics["reads_per_query"] = window_reads / window_queries
        reads_by_tag = {tag: n / window_queries for tag, n in window_tags.items()}
        _query_metrics(run, wire.query_latencies, elapsed)
        phase.report_layers(
            queries=len(wire.query_latencies),
            reads_per_query=run.metrics["reads_per_query"],
            reads_by_tag=reads_by_tag,
            client_latency_ms=1000.0 * statistics.fmean(wire.query_latencies),
            server_counters=server_counters,
        )
        _mutation_metrics(run, wire.mutation_latencies)
        run.info["stream_compact_times_s"] = wire.compact_latencies
        run.metrics["space_amp"] = space_bytes / (_live_pairs(relation, written) * 8)
    finally:
        for client in clients:
            await client.close()
        await server.stop()
        wal.close()

    mutations = _mutations_only(written)
    recovered = _recover(run, image, wal_path, len(mutations))
    oracle = StreamOracle(relation, mutations)
    for qid, low, high, answer in wire.answers:
        if not any(
            answer == oracle.answer(qid, queries[qid], stamp)
            for stamp in range(high, low - 1, -1)
        ):
            run.mismatch(
                f"query {qid} answered between stamps {low} and {high} "
                "matches the oracle at none of them"
            )
    _check_recovered(run, recovered, queries, oracle, len(mutations), "recovered index")
    maintenance.finish(run, relation, queries)
    if run.tracer is not None:
        plan = [("inverted", qid) for qid in range(len(queries))]
        _trace_probe(run, {"inverted": recovered}, plan, queries)
    measured_ops = (
        len(wire.query_latencies) + len(wire.mutation_latencies) + len(wire.compact_latencies)
    )
    run.info.update(
        relation={
            "family": "zipf", "tuples": len(relation), "domain": SERVE_DOMAIN,
            "skew": SERVE_SKEW, "nnz": SERVE_NNZ,
        },
        queries={"distinct": len(queries), "completed": len(wire.query_latencies)},
        index_pages=pages,
        pool_frames=DEFAULT_SERVE_POOL_SIZE,
        working_set_ratio=pages / DEFAULT_SERVE_POOL_SIZE,
        similarity_share=wire.similarity / len(wire.query_latencies),
        mutation_share=len(wire.mutation_latencies) / measured_ops,
        reads_window_queries=window_queries,
        reads_by_tag=reads_by_tag,
        server_counters=server_counters,
        failed_statuses=wire.statuses,
        mutations=len(mutations),
    )


def mixed_write(run: Run) -> None:
    asyncio.run(_mixed(run))


WORKLOADS = {
    "cold_paper": cold_paper,
    "mixed_write": mixed_write,
}
