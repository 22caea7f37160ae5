"""Compare two sets of benchmark results, per (end-to-end metric, workload).

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result records ``perfbench/run.py`` writes to
``perfbench/out/results/`` (copy them aside between the two commits).
Untraced records (``--trace 0``) are compared; runs pair up by seed
where both sides ran the same seeds, otherwise in run order.

For each metric and workload the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict, with the bound from ``BENCHMARK.json``:

``unresolved``
    a side's run-to-run spread (interquartile range over median) is
    wider than the bound, unless every run of the change reads better
    than every run of the base;
``worse``
    the change's median is worse than the base's by more than the bound;
``better``
    the change won at least nine tenths of the pairs and the medians
    differ by more than the base's interquartile range;
``same``
    none of the above.

Each workload also gets a line with each side's failed / attempted
operations.  Where the change fails a larger share of its operations
than the base, every verdict of that workload reads ``void``: a gain
bought with failures is no gain.

The records' end-to-end timings are at the reference speed (see
``at_reference_speed`` in ``stats.py``).  Each workload's lines also
give the machine's speed: the median CPU time of the fixed pure-Python
loop sampled through every run, and the hypervisor's steal share, so a
difference that is the machine's shows as one.  Where traced records (``--trace 1``) of
the same seeds exist, the run-level tracing overhead (untraced qps /
traced qps) is printed too.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace flag), each list in run order."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in groups.values():
        records.sort(key=lambda record: record["started"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {record["environment"]["seed"]: record for record in base}
    matched = [
        (by_seed[record["environment"]["seed"]], record)
        for record in change
        if record["environment"]["seed"] in by_seed
    ]
    return matched if len(matched) == min(len(base), len(change)) else list(zip(base, change))


def error_rate(records: list[dict]) -> tuple[int, int, float]:
    failed = sum(record["failed"] for record in records)
    attempted = sum(record["attempted"] for record in records)
    return failed, attempted, failed / attempted


def verdict(metric: dict, base: list[float], change: list[float], won: float) -> str:
    bound = metric["bound"]
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    lower = metric["better"] == "lower"
    worse_by = (c2 - b2) / b2 if lower else (b2 - c2) / b2
    spread = max((b3 - b1) / b2, (c3 - c1) / c2)
    dominates = max(change) < min(base) if lower else min(change) > max(base)
    if spread > bound and not dominates:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if won >= 0.9 and abs(c2 - b2) > (b3 - b1):
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = (load(Path(arg)) for arg in argv)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':12} {'metric':17} {'base q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won':>5}  verdict")
    for workload in workloads:
        left, right = base.get((workload, 0), []), change.get((workload, 0), [])
        if not left or not right:
            print(f"{workload:12} (no runs on {'both sides' if not left and not right else 'one side'})")
            continue
        matched = pairs(left, right)
        rates = [error_rate(side) for side in (left, right)]
        void = rates[1][2] > rates[0][2]
        print(f"{workload:12} failed/attempted, base/change: "
              f"{rates[0][0]}/{rates[0][1]} ({rates[0][2]:.3g}) / "
              f"{rates[1][0]}/{rates[1][1]} ({rates[1][2]:.3g})"
              + ("  -> verdicts void" if void else ""))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_b = [r["end_to_end"][name] for r in left]
            values_c = [r["end_to_end"][name] for r in right]
            lower = metric["better"] == "lower"
            wins = sum(
                (c["end_to_end"][name] < b["end_to_end"][name]) == lower
                and c["end_to_end"][name] != b["end_to_end"][name]
                for b, c in matched
            )
            won = wins / len(matched)
            b = "/".join(f"{v:.4g}" for v in quartiles(values_b))
            c = "/".join(f"{v:.4g}" for v in quartiles(values_c))
            judged = "void" if void else verdict(metric, values_b, values_c, won)
            print(f"{workload:12} {name:17} {b:>28} {c:>28} {won:5.2f}  {judged}")
        machine = [
            [r["inputs"]["machine"] for r in side] for side in (left, right)
        ]
        loops = [
            statistics.median(m["reference_loop_ms"] for m in side if m["reference_loop_ms"])
            for side in machine
        ]
        steals = [
            statistics.median(m["steal_share"] or 0.0 for m in side) for side in machine
        ]
        print(f"{workload:12} machine during the runs, base/change: reference loop "
              f"{loops[0]:.3g}/{loops[1]:.3g} ms, steal {steals[0]:.3g}/{steals[1]:.3g}")
        for side, groups in (("base", base), ("change", change)):
            traced = {r["environment"]["seed"]: r for r in groups.get((workload, 1), [])}
            ratios = [
                r["end_to_end"]["qps"] / traced[r["environment"]["seed"]]["end_to_end"]["qps"]
                for r in groups.get((workload, 0), [])
                if r["environment"]["seed"] in traced
            ]
            if ratios:
                print(f"{workload:12} tracing overhead ({side}): "
                      f"untraced/traced qps = {statistics.median(ratios):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
