"""Compare two suite results: speedups and occupancy drift.

Architecture studies run the suite on two configurations and compare;
this module diffs two :class:`~repro.core.types.SuiteResult` objects into
a speedup table (baseline time / candidate time per benchmark/size) and a
per-kernel occupancy delta, rendered in the same ASCII style as the
paper's artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .report import format_table
from .types import InputSize, SuiteResult


#: Three-way significance verdicts produced by :meth:`SpeedupEntry.verdict`.
VERDICT_SIGNIFICANT = "significant"
VERDICT_WITHIN_NOISE = "within noise"
VERDICT_INSUFFICIENT = "insufficient data"


@dataclass(frozen=True)
class SpeedupEntry:
    """One benchmark/size comparison.

    ``baseline_seconds``/``candidate_seconds`` are medians (per-cell
    repeat medians, then the median over variants); the stddevs are the
    recorded measurement noise, ``None`` when a side carries no repeat
    statistics (single-shot runs, v1/v2 exports) — its noise is simply
    unknown, which is not the same as zero.
    """

    benchmark: str
    size: InputSize
    baseline_seconds: float
    candidate_seconds: float
    baseline_stddev: Optional[float] = None
    candidate_stddev: Optional[float] = None

    @property
    def speedup(self) -> float:
        if self.candidate_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.candidate_seconds

    @property
    def noise(self) -> Optional[float]:
        """Combined measurement noise of the two sides (seconds).

        ``None`` when either side carries no noise estimate — without
        one, no statement about significance can be made.
        """
        if self.baseline_stddev is None or self.candidate_stddev is None:
            return None
        return (self.baseline_stddev ** 2 + self.candidate_stddev ** 2) ** 0.5

    def is_significant(self, sigmas: float = 2.0) -> bool:
        """Whether the runtime change exceeds the recorded noise.

        ``False`` when the noise is unknown: a run without repeat
        statistics cannot support a significance claim (treating unknown
        noise as 0.0 would make every nonzero delta "significant").
        Use :meth:`verdict` to distinguish "within noise" from
        "insufficient data".
        """
        noise = self.noise
        if noise is None:
            return False
        delta = abs(self.baseline_seconds - self.candidate_seconds)
        return delta > sigmas * noise

    def verdict(self, sigmas: float = 2.0) -> str:
        """Three-way significance call for this comparison.

        ``"insufficient data"`` when either side lacks a noise estimate,
        else ``"significant"`` / ``"within noise"`` per
        :meth:`is_significant`.
        """
        if self.noise is None:
            return VERDICT_INSUFFICIENT
        if self.is_significant(sigmas):
            return VERDICT_SIGNIFICANT
        return VERDICT_WITHIN_NOISE


def speedups(baseline: SuiteResult,
             candidate: SuiteResult) -> List[SpeedupEntry]:
    """Per-(benchmark, size) median speedups over the shared run set."""
    entries: List[SpeedupEntry] = []
    for slug in baseline.benchmarks():
        if slug not in candidate.benchmarks():
            continue
        for size in InputSize:
            base = baseline.median_total(slug, size)
            cand = candidate.median_total(slug, size)
            if base is None or cand is None:
                continue
            entries.append(
                SpeedupEntry(
                    benchmark=slug,
                    size=size,
                    baseline_seconds=base,
                    candidate_seconds=cand,
                    baseline_stddev=baseline.total_stddev(slug, size),
                    candidate_stddev=candidate.total_stddev(slug, size),
                )
            )
    return entries


def geometric_mean_speedup(entries: List[SpeedupEntry]) -> float:
    """The architecture-standard aggregate over a benchmark suite."""
    if not entries:
        raise ValueError("no comparable entries")
    product = 1.0
    for entry in entries:
        product *= entry.speedup
    return product ** (1.0 / len(entries))


def occupancy_drift(
    baseline: SuiteResult,
    candidate: SuiteResult,
    slug: str,
    size: InputSize,
) -> Dict[str, float]:
    """Per-kernel occupancy change (candidate - baseline, in points)."""
    base = baseline.mean_occupancy(slug, size)
    cand = candidate.mean_occupancy(slug, size)
    if not base or not cand:
        raise ValueError(f"no runs for {slug} at {size.name}")
    kernels = sorted(set(base) | set(cand))
    return {
        kernel: cand.get(kernel, 0.0) - base.get(kernel, 0.0)
        for kernel in kernels
    }


def render_comparison(
    baseline: SuiteResult,
    candidate: SuiteResult,
    baseline_label: str = "baseline",
    candidate_label: str = "candidate",
) -> str:
    """Speedup table plus the geometric mean, paper-artifact style."""
    entries = speedups(baseline, candidate)
    if not entries:
        return "no comparable runs"
    rows: List[Tuple[str, str, str, str, str, str]] = []
    for entry in entries:
        verdict = entry.verdict()
        if verdict == VERDICT_SIGNIFICANT:
            verdict = "yes"
        rows.append(
            (
                entry.benchmark,
                entry.size.name,
                f"{entry.baseline_seconds * 1000:.1f} ms",
                f"{entry.candidate_seconds * 1000:.1f} ms",
                f"{entry.speedup:.2f}x",
                verdict,
            )
        )
    table = format_table(
        ("Benchmark", "Size", baseline_label, candidate_label, "Speedup",
         "Significant"),
        rows,
        title=f"Suite comparison: {candidate_label} vs {baseline_label}",
    )
    return (
        table
        + f"\ngeometric mean speedup: {geometric_mean_speedup(entries):.2f}x"
    )
