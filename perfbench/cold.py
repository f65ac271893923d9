"""``cold_cli_sqcif``: one fresh ``sdvbs run`` process per iteration.

What a researcher pays per invocation: interpreter start, import, input
set-up with face-cascade training, the nine SQCIF cells, and the export
written to a file.  The command line is the plain one, so the seed
changes nothing here: the CLI offers no single-variant choice other
than variant 0, and permuting the applications on the command line
moved peak RSS between 55 and 64 MB from seed to seed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from gate import check_export
from measure import ChildRun, Context, Result, cell_layers, median, run_child

ARGV = ("run", "--sizes", "SQCIF", "--json", "--jobs", "1",
        "--backend", "fast")

#: Invocations per run at least (of each kind, traced and untraced, in
#: a ``--trace 1`` run), however long ``--seconds`` is.
MIN_INVOCATIONS = 3

#: Rows that tile one invocation's wall time, in the order they occur.
LEDGER = ("process.start_s", "registry.import_s", "profiler.calibrate_s",
          "manifest.collect_s", "face.train_s", "inputs.setup_s",
          "runner.warmup_s", "runner.measured_s", "runner.overhead_s",
          "export.serialize_s", "process.exit_s")


def _invoke(ctx: Context, traced: bool, index: int) -> ChildRun:
    export = ctx.path(f"export-{index}.json")
    run = run_child(ctx, "cli", ["--export", export, "--trace",
                                 str(int(traced)), "--", *ARGV])
    with open(export, encoding="utf-8") as handle:
        run.report["export"] = json.load(handle)
    run.report["export_bytes"] = os.path.getsize(export)
    return run


def _ledger(run: ChildRun) -> Dict[str, float]:
    """Layer rows of one traced invocation; they sum to its wall time."""
    setup = run.setup_total()
    train = run.span_total("face.train")
    warmup, measured = run.measure_split()
    cells = run.span_total("runner.cell")
    rows = {
        "process.start_s": float(run.report["enter"]) - run.started,
        "registry.import_s": run.span_total("registry.import"),
        "profiler.calibrate_s": run.span_total("profiler.calibrate"),
        "manifest.collect_s": run.span_total("manifest.collect"),
        "face.train_s": train,
        "inputs.setup_s": setup - train,
        "runner.warmup_s": warmup,
        "runner.measured_s": measured,
        "runner.overhead_s": cells - setup - warmup - measured,
        "export.serialize_s": run.span_total("export.serialize"),
        "process.exit_s": run.started + run.wall - float(run.report["leave"]),
    }
    rows["ledger.unaccounted_s"] = run.wall - sum(rows.values())
    return rows


def _cell_walls(run: ChildRun) -> Dict[str, float]:
    return {str(s["benchmark"]): float(s["end"]) - float(s["start"])
            for s in run.spans("runner.cell")}


def run(ctx: Context) -> Result:
    protocol = ctx.protocol["cold_cli_sqcif"]
    cells = len(ctx.kernels)
    result = Result()
    plain: List[ChildRun] = []
    traced: List[ChildRun] = []
    started = None
    while True:
        # Traced mode alternates, so both sides see the same conditions.
        use_trace = ctx.trace and len(plain) > len(traced)
        invocation = _invoke(ctx, use_trace, len(plain) + len(traced))
        (traced if use_trace else plain).append(invocation)
        started = started if started is not None else invocation.started
        result.check(check_export(invocation.report["export"],  # type: ignore[arg-type]
                                  ctx.protocol["floors"], ctx.kernels,  # type: ignore[arg-type]
                                  expected_cells=cells),
                     attempted=cells)
        elapsed = invocation.started + invocation.wall - started
        enough = min(len(plain), len(traced) if ctx.trace
                     else MIN_INVOCATIONS) >= MIN_INVOCATIONS
        if enough and elapsed + invocation.wall > ctx.seconds:
            break

    walls = [r.wall for r in plain]
    wall = median(walls)
    result.set("wall_s", wall, len(walls))
    result.set("setup_s", median([r.span_total("registry.import")
                                  + r.setup_total() for r in plain]),
               len(plain))
    result.set("peak_rss_mb", median([r.peak_rss_mb for r in plain]),
               len(plain))
    # The result line carries every end-to-end metric; this workload
    # has no suite pass and no jobs, so those repeat the invocation.
    for name in ("suite_s", "job_p50_s", "job_p90_s", "hit_p50_s"):
        result.set(name, wall, len(walls))
    result.set("jobs_per_s", 1.0 / wall, len(walls))
    if not ctx.trace:
        return result

    # The ledger is one whole traced invocation (the lower median by
    # wall), so its rows and the unaccounted rest add up to its wall.
    middle = sorted(traced, key=lambda r: r.wall)[(len(traced) - 1) // 2]
    for name, value in _ledger(middle).items():
        result.set(name, value, 1)
    result.set("ledger.wall_s", middle.wall, 1)
    share = result.values["ledger.unaccounted_s"] / middle.wall
    result.set("ledger.unaccounted_pct", 100.0 * share, 1)
    bound = float(protocol["ledger_unaccounted_share_max"])  # type: ignore[index]
    if abs(share) > bound:
        result.notes.append(f"LEDGER OPEN: unaccounted {100 * share:.2f}% "
                            f"of wall exceeds {100 * bound:.0f}%")
    result.set("export.bytes", median([r.report["export_bytes"]  # type: ignore[misc]
                                       for r in traced]), len(traced))
    cell_layers(result, ctx, [r.report["export"]["runs"]  # type: ignore[index]
                              for r in traced])
    faces = [_cell_walls(r)["face"] for r in traced]
    result.set("face.first_job_s", median(faces), len(faces))
    calls = [w for r in traced for w in _cell_walls(r).values()]
    result.set("jobs.exec_p50_s", median(calls), len(calls))
    result.set("trace.overhead_pct", 100.0 * (
        median([r.wall for r in traced]) / median(walls) - 1.0), len(traced))
    return result
