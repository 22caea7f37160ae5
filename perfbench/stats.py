"""Summaries, the run record's environment block, and metric formatting."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path

#: Samples the far tail leaves beyond it.
TAIL_BEYOND = 10
#: Stretches a run's samples are cut into for :func:`tail`.
TAIL_STRETCHES = 10


def median_ms(samples_s: list[float]) -> float:
    return statistics.median(samples_s) * 1000.0


def tail(samples_s: list[float]) -> dict:
    """The p90 of a typical stretch of the run.

    The samples, in completion order, are cut into ten equal stretches
    (fewer if a stretch would hold fewer than ten samples); the result is
    the median of the stretches' p90s.  A slow episode of
    the shared host (CPU or disk) that covers a few stretches moves the
    pooled p90, not this: over ten ``cold_paper`` runs the pooled p90 of
    the write probe's 384 acknowledgements spread 0.28 (interquartile
    range over median), the median of ten stretch p90s 0.06; an episode
    covering most of a run moves both.  A pooled percentile further out
    moves more: over five ``mixed_write`` runs,
    p99 of 385 acknowledgements spread 0.30 where p90 spread 0.06.
    Returns the value in milliseconds with the sample count.
    """
    n = len(samples_s)
    if n < 10:
        raise ValueError(f"{n} samples cannot give a p90")
    stretches = min(TAIL_STRETCHES, n // 10)
    size = n // stretches
    p90s = [
        sorted(samples_s[i * size:(i + 1) * size])[math.ceil(0.9 * size) - 1]
        for i in range(stretches)
    ]
    return {
        "value_ms": statistics.median(p90s) * 1000.0,
        "percentile": 90.0,
        "stretches": stretches,
        "samples": n,
    }


def far_tail(samples_s: list[float]) -> dict:
    """The highest percentile with ten samples beyond it, capped at p99
    (reached at 1,000 samples), over all samples.  Kept in the run
    record beside :func:`tail`.
    """
    n = len(samples_s)
    beyond = max(TAIL_BEYOND, math.ceil(n * 0.01))
    if n <= beyond:
        raise ValueError(f"{n} samples cannot give a tail with {beyond} beyond it")
    position = n - 1 - beyond
    return {
        "value_ms": sorted(samples_s)[position] * 1000.0,
        "percentile": 100.0 * (position + 1) / n,
        "samples": n,
    }


#: Iterations of the reference loop, about 1 ms of CPU on a current core.
REFERENCE_ITERATIONS = 5_000


def _reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


class MachineSampler:
    """Watches the machine's speed while a run goes on.

    A side thread times :func:`_reference_loop` at the start and every
    ``every_s`` seconds in its own CPU time (``time.thread_time``, so
    waiting for the interpreter lock does not count), and the host's
    steal share (time the hypervisor gave this VM's CPUs to others) is
    taken over the run.  The loop costs about 0.1% of one core.  The
    garbage collector's passes and their time are counted per
    generation.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        #: (perf_counter at the sample's end, loop time in ms)
        self.samples: list[tuple[float, float]] = []
        self.gc_passes = [0, 0, 0]
        self.gc_ms = [0.0, 0.0, 0.0]
        self._gc_started = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._jiffies = _cpu_jiffies()
        gc.callbacks.append(self._on_gc)
        self._thread.start()

    def mean_ms(self, span: tuple[float, float]) -> float:
        """The loop's mean time over the samples taken within ``span``
        (perf_counter start and end), or over all samples if none was."""
        inside = [ms for at, ms in self.samples if span[0] <= at <= span[1]]
        return statistics.fmean(inside or [ms for _, ms in self.samples])

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            generation = info["generation"]
            self.gc_passes[generation] += 1
            self.gc_ms[generation] += (time.perf_counter() - self._gc_started) * 1000.0

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            _reference_loop()
            self.samples.append((time.perf_counter(), (time.thread_time() - start) * 1000.0))
            if self._stop.wait(self.every_s):
                return

    def stop(self) -> dict:
        self._stop.set()
        self._thread.join()
        gc.callbacks.remove(self._on_gc)
        after = _cpu_jiffies()
        steal = None
        if self._jiffies is not None and after is not None and after[1] > self._jiffies[1]:
            steal = (after[0] - self._jiffies[0]) / (after[1] - self._jiffies[1])
        loop_ms = [ms for _, ms in self.samples]
        return {
            "reference_loop_ms": statistics.median(loop_ms),
            "reference_loop_samples_ms": [round(v, 4) for v in loop_ms],
            "steal_share": steal,
            "gc_passes": self.gc_passes,
            "gc_ms": [round(v, 3) for v in self.gc_ms],
        }


#: The reference loop's time, in ms, at which timings are reported:
#: about its median on the 2-core VM the baseline in README.md was
#: taken on.
REFERENCE_LOOP_MS = 0.5


def at_reference_speed(values: dict, units: dict, loop_ms: dict) -> dict:
    """``values`` as they would read on a host that runs the reference
    loop in :data:`REFERENCE_LOOP_MS`.

    ``loop_ms`` gives, per metric name, the loop's mean time while the
    metric was measured.  A time (unit ``s`` or ``ms``) is scaled by
    ``REFERENCE_LOOP_MS / loop_ms`` and a rate (a unit ending in ``/s``)
    by its inverse; counts, sizes and ratios stay as measured.  The
    shared host's speed drifts over minutes by more than the benchmark's
    bounds; the program's timings drift with the loop's, and their ratio
    much less (see README.md, Steadiness).
    """
    scaled = {}
    for name, value in values.items():
        unit = units.get(name, "")
        scale = REFERENCE_LOOP_MS / loop_ms[name] if name in loop_ms else 1.0
        if unit in ("s", "ms"):
            scaled[name] = value * scale
        elif unit.endswith("/s"):
            scaled[name] = value / scale
        else:
            scaled[name] = value
    return scaled


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, so a result names its code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "source_digest": source_digest(root),
        "machine": platform.machine(),
    }
