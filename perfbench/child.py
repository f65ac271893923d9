"""Fresh program process for one benchmark measurement.

Run as ``python3 child.py MODE ...`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Each mode imports the program the way its entry
point does, opens the benchmark's spans around calls into the
program's layers, runs the program, and writes the spans plus its
results as JSON to ``--out`` when it is done.  Modes:

``cli``    ``repro.cli.main(argv)`` for ``sdvbs run``; stdout (the export)
           goes to ``--export``.
``warm``   one long-lived process: a fill pass, then timed suite passes.
``setup``  import plus every ``Benchmark.setup`` call, nothing else.
``serve``  ``repro.cli.main(["serve", ...])`` until ``server.shutdown``.

Without ``--trace`` only the spans the end-to-end metrics need are
recorded (import, the setup calls and, for ``cli``, the cells); with
it every layer below is wrapped too.
"""

from __future__ import annotations

import time

ENTER = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

from spans import Spans, clock  # noqa: E402

spans = Spans()


def _import_program():
    with spans.span("registry.import"):
        import repro.cli  # noqa: F401
        from repro.core import registry

        benchmarks = registry.all_benchmarks()
    return benchmarks


def _wrap_setups(benchmarks) -> None:
    for benchmark in benchmarks:
        spans.wrap(benchmark, "setup", f"setup.{benchmark.slug}",
                   setter=object.__setattr__)


def _wrap_layers(serving: bool = False) -> None:
    """Spans around every layer call the per-layer metrics read."""
    import repro.cli
    from repro.core import export, profiler, runner, tracing
    from repro.face import benchmark as face

    spans.wrap(face, "trained_cascade", "face.train")
    spans.wrap(runner, "_measure_once", "runner.measure")
    spans.wrap(export, "result_to_json", "export.serialize")
    spans.wrap(profiler, "measure_probe_overhead", "profiler.calibrate")
    spans.wrap(repro.cli, "run_manifest", "manifest.collect")
    spans.wrap(tracing, "run_manifest", "manifest.collect")
    if serving:
        from repro.core import history, jobs

        spans.wrap(history.HistoryStore, "record", "history.record")
        spans.wrap(jobs, "_write_artifact", "jobs.artifact_write")


def _wrap_cells() -> None:
    """One ``runner.cell`` span per ``run_benchmark`` call, tagged."""
    from repro.core import runner

    original = runner.run_benchmark

    def run_benchmark(benchmark, size, variant=0, warmup=0, *args, **kwargs):
        with spans.span("runner.cell", benchmark=benchmark.slug,
                        warmup=warmup):
            return original(benchmark, size, variant, warmup,
                            *args, **kwargs)

    runner.run_benchmark = run_benchmark


def _cell_record(run, wall: float) -> Dict[str, object]:
    kernels = (run.metrics or {}).get("kernels", {})
    return {
        "benchmark": run.benchmark,
        "wall": wall,
        "total_seconds": run.total_seconds,
        "kernel_seconds": dict(run.kernel_seconds),
        "kernel_calls": dict(run.kernel_calls),
        "outputs": {k: (v if isinstance(v, (int, float, str)) else repr(v))
                    for k, v in run.outputs.items()},
        "metrics": {"kernels": {
            name: {"flops": entry.get("flops", 0.0),
                   "bytes": entry.get("bytes", 0.0)}
            for name, entry in kernels.items()}},
    }


def _mode_cli(args, argv: List[str]) -> Dict[str, object]:
    _wrap_setups(_import_program())
    _wrap_cells()
    if args.trace:
        _wrap_layers()
    import repro.cli

    with open(args.export, "w", encoding="utf-8") as handle:
        with contextlib.redirect_stdout(handle):
            rc = repro.cli.main(argv)
    return {"rc": rc, "export_closed": clock()}


def _mode_setup(args, argv: List[str]) -> Dict[str, object]:
    from repro.core.types import InputSize

    benchmarks = _import_program()
    _wrap_setups(benchmarks)
    for benchmark in benchmarks:
        benchmark.setup(InputSize[args.size], 0)
    return {"rc": 0}


def _mode_warm(args, argv: List[str]) -> Dict[str, object]:
    from repro.core import registry, runner
    from repro.core.types import InputSize

    _wrap_setups(_import_program())
    size = InputSize[args.size]
    order = [registry.get_benchmark(slug) for slug in args.order]

    def one_pass(phase: str) -> Dict[str, object]:
        cells = []
        with spans.span("suite.pass", phase=phase) as record:
            for benchmark in order:
                with spans.span("runner.cell", benchmark=benchmark.slug,
                                phase=phase) as cell:
                    run = runner.run_benchmark(benchmark, size, 0,
                                               backend="fast")
                cells.append(_cell_record(
                    run, clock() - float(cell["start"])))  # type: ignore[arg-type]
        return {"phase": phase, "wall": clock() - float(record["start"]),  # type: ignore[arg-type]
                "cells": cells}

    if args.trace:
        _wrap_layers()
    fill = one_pass("fill")
    spans.unwrap_all()
    _wrap_setups(order)
    passes: List[Dict[str, object]] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            _wrap_layers()
        passes.append(one_pass("traced" if traced else "timed"))
        if traced:
            spans.unwrap_all()
            _wrap_setups(order)
        # The budget counts from process start, fill pass included.
        elapsed = clock() - ENTER
        if (len(passes) >= args.min_passes
                and elapsed + float(passes[-1]["wall"]) > args.seconds):  # type: ignore[arg-type]
            break
    return {"rc": 0, "fill": fill, "passes": passes}


def _mode_serve(args, argv: List[str]) -> Dict[str, object]:
    _import_program()
    if args.trace:
        from repro.core import registry

        _wrap_setups(registry.all_benchmarks())
        _wrap_cells()
        _wrap_layers(serving=True)
    import repro.cli

    return {"rc": repro.cli.main(argv)}


MODES = {"cli": _mode_cli, "setup": _mode_setup, "warm": _mode_warm,
         "serve": _mode_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--export")
    parser.add_argument("--size", default="CIF")
    parser.add_argument("--order", nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    args, rest = parser.parse_known_args()
    argv = rest[1:] if rest[:1] == ["--"] else rest
    result = MODES[args.mode](args, argv)
    result.update(enter=ENTER, spans=spans.records, leave=clock())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return int(result.get("rc") or 0)


if __name__ == "__main__":
    sys.exit(main())
