"""Shared plumbing: run context, metric sink, statistics, child processes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")


@dataclass
class Context:
    """Everything one workload run reads: where, how long, which seed."""

    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    protocol: Mapping[str, object]
    #: ``{slug: [Figure-3 label, ...]}`` in Table I order.
    kernels: Mapping[str, List[str]]
    #: The 12 registered dual-backend kernels.
    backend_kernels: List[str]

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


@dataclass
class Result:
    """Metric values with their sample counts, plus the output-check tally."""

    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def set(self, name: str, value: float, samples: int) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = value
        self.samples[name] = int(samples)

    def check(self, failures: Sequence[str], attempted: int = 1) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile; needs one value.

    A beta-weighted average of all order statistics.  The samples here
    are mixtures (nine applications, hits beside misses), and a plain
    order statistic jumps between their clusters from run to run; this
    estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("quantile of no samples")
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta function."""
    tiny = 1e-300

    def guard(value: float) -> float:
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    result = d
    for m in range(1, 300):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / guard(1.0 + numerator * d)
            c = guard(1.0 + numerator / c)
            result *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return result


@dataclass
class ChildRun:
    """One finished child process: wall time, peak RSS and its report."""

    started: float
    wall: float
    peak_rss_mb: float
    report: Dict[str, object]

    def span_total(self, name: str) -> float:
        return sum(float(s["end"]) - float(s["start"])
                   for s in self.report["spans"]  # type: ignore[union-attr]
                   if s["name"] == name and s["end"] is not None)

    def spans(self, name: str) -> List[Dict[str, object]]:
        return [s for s in self.report["spans"]  # type: ignore[union-attr]
                if s["name"] == name and s["end"] is not None]

    def measure_split(self) -> Tuple[float, float]:
        """(warmup, measured) seconds of ``runner.measure`` spans.

        The first ``warmup`` measure spans under each ``runner.cell``
        span are the discarded warmup executions of that cell.
        """
        spans = self.report["spans"]  # type: ignore[index]
        seen: Dict[int, int] = {}
        warmup = measured = 0.0
        for span in self.spans("runner.measure"):
            parent = span["parent"]
            seconds = float(span["end"]) - float(span["start"])
            if parent is None or spans[parent]["name"] != "runner.cell":  # type: ignore[index]
                measured += seconds
                continue
            position = seen[parent] = seen.get(parent, -1) + 1  # type: ignore[index]
            if position < int(spans[parent]["warmup"]):  # type: ignore[index]
                warmup += seconds
            else:
                measured += seconds
        return warmup, measured

    def setup_total(self) -> float:
        return sum(float(s["end"]) - float(s["start"])
                   for s in self.report["spans"]  # type: ignore[union-attr]
                   if str(s["name"]).startswith("setup.")
                   and s["end"] is not None)


def spawn(ctx: Context, mode: str, args: Sequence[str],
          stdout: Optional[str] = None) -> Tuple[subprocess.Popen, float, str]:
    """Start ``child.py MODE``; returns (process, start stamp, report path)."""
    report = ctx.path(f"{mode}-{clock():.6f}.json")
    out = open(stdout, "w") if stdout else subprocess.DEVNULL
    err = open(report + ".stderr", "w")
    try:
        started = clock()
        process = subprocess.Popen(
            [sys.executable, CHILD, mode, "--out", report, *args],
            env=ctx.env, cwd=ctx.work, stdout=out, stderr=err)
    finally:
        if stdout:
            out.close()  # type: ignore[union-attr]
        err.close()
    return process, started, report


def reap(process: subprocess.Popen, started: float, report: str,
         timeout: float = 170.0) -> ChildRun:
    """Wait for a child, take its peak RSS, and load its report.

    A blocking ``wait4`` stamps the exit without polling the CPU the
    child is using; a timer kills a child that outlives ``timeout``.
    """
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        watchdog.cancel()
    ended = clock()
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0 or not os.path.exists(report):
        with open(report + ".stderr", encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"child {process.args[2]} exited "
                           f"{process.returncode}:\n{tail}")
    with open(report, encoding="utf-8") as handle:
        data = json.load(handle)
    return ChildRun(started=started, wall=ended - started,
                    peak_rss_mb=usage.ru_maxrss / 1024.0, report=data)


def run_child(ctx: Context, mode: str, args: Sequence[str],
              stdout: Optional[str] = None) -> ChildRun:
    return reap(*spawn(ctx, mode, args, stdout=stdout))


def cell_layers(result: Result, ctx: Context,
                passes: Sequence[Sequence[Mapping[str, object]]]) -> None:
    """Per-application, per-kernel and per-backend-kernel metrics.

    ``passes`` are groups of exported run records (one ``sdvbs run``
    export, one suite pass, or every run-job cell of a served phase).
    Application, kernel and NonKernelWork seconds are medians over an
    application's cells; profiler totals and backend flop/byte counts
    are sums over a pass, then the median over passes.
    """
    per_app: Dict[str, List[Mapping[str, object]]] = {}
    kernel_totals: List[float] = []
    nonkernel_totals: List[float] = []
    backend: Dict[str, List[float]] = {}
    for cells in passes:
        kernel_sum = nonkernel_sum = 0.0
        counts: Dict[str, float] = {}
        for cell in cells:
            per_app.setdefault(str(cell["benchmark"]), []).append(cell)
            kernel = sum(dict(cell["kernel_seconds"]).values())  # type: ignore[arg-type]
            kernel_sum += kernel
            nonkernel_sum += float(cell["total_seconds"]) - kernel  # type: ignore[arg-type]
            entries = dict(dict(cell.get("metrics") or {}).get("kernels") or {})
            for name, entry in entries.items():
                for key in ("flops", "bytes"):
                    counts[f"{name}.{key}"] = (counts.get(f"{name}.{key}", 0.0)
                                               + float(entry.get(key, 0.0)))
        kernel_totals.append(kernel_sum)
        nonkernel_totals.append(nonkernel_sum)
        for name in ctx.backend_kernels:
            for key in ("flops", "bytes"):
                backend.setdefault(f"{name}.{key}", []).append(
                    counts.get(f"{name}.{key}", 0.0))
    result.set("profiler.kernel_s", median(kernel_totals), len(kernel_totals))
    result.set("profiler.nonkernel_s", median(nonkernel_totals),
               len(nonkernel_totals))
    for name, values in backend.items():
        result.set(f"backend.{name}", median(values), len(values))
    for slug, labels in ctx.kernels.items():
        cells = per_app.get(slug, [])
        totals = [float(c["total_seconds"]) for c in cells]  # type: ignore[arg-type]
        kernel = [sum(dict(c["kernel_seconds"]).values()) for c in cells]  # type: ignore[arg-type]
        result.set(f"app.{slug}_s", median(totals) if cells else 0.0,
                   len(cells))
        result.set(f"nonkernel.{slug}_s",
                   median([t - k for t, k in zip(totals, kernel)])
                   if cells else 0.0, len(cells))
        for label in labels:
            values = [float(dict(c["kernel_seconds"]).get(label, 0.0))  # type: ignore[arg-type]
                      for c in cells]
            result.set(f"kernel.{slug}.{label}_s",
                       median(values) if values else 0.0, len(values))
