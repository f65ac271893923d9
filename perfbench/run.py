"""Run one benchmark workload and print every metric it measured.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_cli_sqcif --seed 1 \\
        --seconds 20 --trace 0

The program runs from the checkout's ``src``; the benchmark exits 2
without a result when that is missing.  Every metric is printed as
``name value unit (n=samples)``, then the output-check verdict; the
last line of standard output is the JSON result: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Per-layer metrics of a layer the workload does not run read 0 with
``n=0``.  Workload and metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from typing import Dict, List

import cold
import serve
import warm
from measure import Context, Result

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench_work"

WORKLOADS = {
    "cold_cli_sqcif": cold.run,
    "warm_suite_cif": warm.run,
    "serve_mixed": serve.run,
}


def _load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def report(result: Result, catalog: Dict[str, object], trace: bool
           ) -> Dict[str, object]:
    """Print the human-readable table; return the JSON result object."""
    failed = min(len(result.failures), result.attempted)
    result.set("failed_ratio", failed / max(1, result.attempted),
               result.attempted)
    rows: List[Dict[str, object]] = (list(catalog["end_to_end"])  # type: ignore[arg-type]
                                     + list(catalog["per_layer"]))  # type: ignore[arg-type]
    units = {str(row["name"]): str(row["unit"]) for row in rows}
    wanted = [str(row["name"]) for row in
              catalog["per_layer" if trace else "end_to_end"]]  # type: ignore[union-attr]
    missing = [n for n in catalog_names(catalog, "end_to_end")
               if n not in result.values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for name in wanted:
        if name not in result.values:
            result.set(name, 0.0, 0)
    for name in [n for n in units if n in result.values]:
        print(f"{name:<44} {result.values[name]:>16.6g} {units[name]:<6} "
              f"(n={result.samples[name]})")
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"output check: {verdict} ({result.attempted} attempted, "
          f"{failed} failed)")
    for reason in result.failures[:20]:
        print(f"  failed: {reason}")
    for note in result.notes:
        print(f"  note: {note}")
    return {
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": result.values[name], "unit": units[name]}
                    for name in wanted},
    }


def catalog_names(catalog: Dict[str, object], key: str) -> List[str]:
    return [str(row["name"]) for row in catalog[key]]  # type: ignore[union-attr]


def main(argv: List[str] = None) -> int:  # type: ignore[assignment]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the program processes it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    catalog = _load(os.path.join(ROOT, "BENCHMARK.json"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core import backend, registry

    kernels = {b.slug: b.kernel_names() for b in registry.all_benchmarks()}
    backend_kernels = [spec.name for spec in backend.registered_kernels()]
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ctx = Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace),
                  protocol=_load(os.path.join(HERE, "protocol.json")),
                  kernels=kernels, backend_kernels=backend_kernels)
    try:
        result = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass
    print(json.dumps(report(result, catalog, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
