"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed_write --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records layer spans and reports the per-layer
metrics (see ``perfbench/README.md``).  Every metric is printed as
``name value unit``, timings at the reference speed
(:func:`perfbench.stats.at_reference_speed`) with the measured value
beside them; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full
record (inputs, environment, checks, both metric sets) is written to
``perfbench/out/results/``; traced runs also write their spans to
``perfbench/out/spans/``.  The exit code is 0 only when every answer
matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # The system runs as shipped: no REPRO_* knob from the caller's
    # environment may change a default.
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.stats import (
        REFERENCE_LOOP_MS, MachineSampler, at_reference_speed, environment, peak_rss_mb,
    )
    from perfbench.tracing import layer_tracer
    from perfbench.workloads import WORKLOADS, Run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected {sorted(WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        tmp=tmp,
        tracer=layer_tracer() if args.trace else None,
    )
    started = time.time()
    sampler = MachineSampler()
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.info["machine"] = sampler.stop()
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    run.metrics["peak_rss_mb"] = peak_rss_mb()

    measured = run.layers if args.trace else run.metrics
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"run produced no value for {missing}")
    # Timings are reported at the reference speed: set-up time by the
    # reference loop's mean over the set-ups, every other time by its
    # mean over the measured phase.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    phase_ms = sampler.mean_ms(run.periods["phase"])
    setup_ms = sampler.mean_ms(run.periods["setup"])
    loop_ms = {name: phase_ms for name in units} | {"setup_s": setup_ms}
    end_to_end = at_reference_speed(run.metrics, units, loop_ms)
    per_layer = at_reference_speed(run.layers, units, loop_ms)
    reported = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": float(reported[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    correct = not run.mismatches
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": started,
        "wall_s": time.time() - started,
        "environment": {
            **environment(ROOT, args.seed), "cleared_env": cleared,
        },
        "correct": correct,
        "mismatches": run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "reference_loop_mean_ms": {"setup": setup_ms, "phase": phase_ms},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "end_to_end_measured": run.metrics,
        "per_layer_measured": run.layers,
        "inputs": run.info,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}"
    if run.tracer is not None:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        record["spans_written"] = run.tracer.write_spans(spans / f"{stem}.jsonl")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"reference loop {setup_ms:.4g} ms over the set-ups, {phase_ms:.4g} ms over "
          f"the phase; timings below are at {REFERENCE_LOOP_MS} ms (measured in brackets)")
    for name, entry in metrics.items():
        value = float(measured[name])
        note = f" ({value:.6g})" if value != entry["value"] else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"error_rate {record['error_rate']:.6g} ratio")
    for key in ("query_tail", "query_far_tail", "mutation_tail", "mutation_far_tail"):
        if key in run.info:
            tail = run.info[key]
            print(f"{key}: {tail['value_ms']:.6g} ms measured, p{tail['percentile']:.2f} "
                  f"of {tail['samples']} samples")
    for message in run.mismatches:
        print(f"MISMATCH {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
