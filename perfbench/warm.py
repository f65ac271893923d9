"""``warm_suite_cif``: timed CIF suite passes in one long-lived process.

One untimed fill pass pays the lazy caches (face-cascade training);
the timed passes then call ``runner.run_benchmark`` for the nine
applications at CIF.  Kernels are about 97% of a pass, so kernel,
backend and multicore changes show here and set-up changes do not.
The seed permutes the application order within a pass.  Input variant
0 throughout: at CIF the variant alone moves a pass from 7.1 s
(variant 0) to 10.7 s (variant 4), which would swamp the bounds.
"""

from __future__ import annotations

import random
from typing import Dict, List

from gate import check_cell
from measure import Context, Result, cell_layers, median, run_child

SIZE = "CIF"

#: Timed passes per run at least (of each kind, traced and untraced, in
#: a ``--trace 1`` run), however long ``--seconds`` is.
MIN_PASSES = 3


def _walls(passes: List[Dict[str, object]]) -> List[float]:
    return [float(p["wall"]) for p in passes]  # type: ignore[arg-type]


def run(ctx: Context) -> Result:
    order = list(ctx.kernels)
    random.Random(ctx.seed).shuffle(order)
    result = Result()
    child = run_child(ctx, "warm", [
        "--size", SIZE, "--seconds", str(ctx.seconds),
        "--min-passes", str(MIN_PASSES * (2 if ctx.trace else 1)),
        "--trace", str(int(ctx.trace)), "--order", *order])
    fill = child.report["fill"]
    passes = list(child.report["passes"])  # type: ignore[call-overload]
    for one in [fill, *passes]:
        cells = one["cells"]  # type: ignore[index]
        result.check([r for r in (check_cell(c, ctx.protocol["floors"],  # type: ignore[arg-type]
                                             ctx.kernels) for c in cells)
                      if r is not None], attempted=len(cells))

    # Set-up is paid once per process, so fresh processes repeat it.
    setups = [child.span_total("registry.import") + sum(
        float(s["end"]) - float(s["start"]) for s in child.report["spans"]  # type: ignore[union-attr]
        if str(s["name"]).startswith("setup.") and s.get("parent") is not None
        and child.report["spans"][s["parent"]].get("phase") == "fill")]  # type: ignore[index]
    probe = run_child(ctx, "setup", ["--size", SIZE])
    setups.append(probe.span_total("registry.import") + probe.setup_total())

    timed = [p for p in passes if p["phase"] == "timed"]
    walls = _walls(timed)
    suite = median(walls)
    result.set("suite_s", suite, len(walls))
    result.set("setup_s", median(setups), len(setups))
    result.set("peak_rss_mb", child.peak_rss_mb, 1)
    # The result line carries every end-to-end metric; this workload
    # has no invocations and no jobs, so those repeat the pass time.
    for name in ("wall_s", "job_p50_s", "job_p90_s", "hit_p50_s"):
        result.set(name, suite, len(walls))
    result.set("jobs_per_s", len(order) / suite, len(walls))
    if not ctx.trace:
        return result

    traced = [p for p in passes if p["phase"] == "traced"]
    spans = child.report["spans"]  # type: ignore[assignment]

    def within(name: str, phase: str) -> List[float]:
        """Per-pass totals of span ``name`` under passes of ``phase``."""
        totals: Dict[int, float] = {}
        for span in spans:  # type: ignore[union-attr]
            if not str(span["name"]).startswith(name):
                continue
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] != "suite.pass":  # type: ignore[index]
                parent = spans[parent]["parent"]  # type: ignore[index]
            if parent is not None and spans[parent]["phase"] == phase:  # type: ignore[index]
                totals[parent] = totals.get(parent, 0.0) + (
                    float(span["end"]) - float(span["start"]))
        return list(totals.values()) or [0.0]

    result.set("process.start_s", float(child.report["enter"]) - child.started,  # type: ignore[arg-type]
               1)
    result.set("process.exit_s", child.started + child.wall
               - float(child.report["leave"]), 1)  # type: ignore[arg-type]
    result.set("registry.import_s", child.span_total("registry.import"), 1)
    result.set("face.train_s", child.span_total("face.train"), 1)
    setup = within("setup.", "traced")
    measured = within("runner.measure", "traced")
    cells = within("runner.cell", "traced")
    result.set("inputs.setup_s", median(setup), len(setup))
    result.set("runner.warmup_s", float(fill["wall"]), 1)  # type: ignore[arg-type]
    result.set("runner.measured_s", median(measured), len(measured))
    result.set("runner.overhead_s", median(cells) - median(setup)
               - median(measured), len(cells))
    traced_walls = _walls(traced)
    result.set("ledger.wall_s", median(traced_walls), len(traced_walls))
    result.set("ledger.unaccounted_s", median(traced_walls) - median(cells),
               len(traced_walls))
    result.set("ledger.unaccounted_pct", 100.0 * (
        1.0 - median(cells) / median(traced_walls)), len(traced_walls))
    cell_layers(result, ctx, [p["cells"] for p in traced])  # type: ignore[misc]
    face = [float(c["wall"]) for c in fill["cells"]  # type: ignore[index]
            if c["benchmark"] == "face"]
    result.set("face.first_job_s", face[0], 1)
    calls = [float(c["wall"]) for p in timed for c in p["cells"]]  # type: ignore[index]
    result.set("jobs.exec_p50_s", median(calls), len(calls))
    result.set("trace.overhead_pct",
               100.0 * (median(traced_walls) / median(walls) - 1.0),
               len(traced_walls))
    return result
