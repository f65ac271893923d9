"""The metric catalog: which metrics ``BENCHMARK.json`` lists, with units.

Run ``python3 perfbench/catalog.py`` (with ``src`` on ``PYTHONPATH``) to
print the ``per_layer`` list generated from the program's own registry:
the nine applications' Figure-3 kernel labels and the registered
dual-backend kernels.  The self-tests check that ``BENCHMARK.json``
still matches it.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Sequence, Tuple

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

#: (name, unit, better) for the layers that are not per application.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("failed_ratio", "ratio", "lower"),
    ("process.start_s", "s", "lower"),
    ("registry.import_s", "s", "lower"),
    ("profiler.calibrate_s", "s", "lower"),
    ("manifest.collect_s", "s", "lower"),
    ("face.train_s", "s", "lower"),
    ("inputs.setup_s", "s", "lower"),
    ("runner.warmup_s", "s", "lower"),
    ("runner.measured_s", "s", "lower"),
    ("runner.overhead_s", "s", "lower"),
    ("profiler.kernel_s", "s", "lower"),
    ("profiler.nonkernel_s", "s", "lower"),
    ("export.serialize_s", "s", "lower"),
    ("export.bytes", "bytes", "lower"),
    ("process.exit_s", "s", "lower"),
    ("ledger.unaccounted_s", "s", "lower"),
    ("ledger.wall_s", "s", "lower"),
    ("ledger.unaccounted_pct", "%", "lower"),
    ("face.first_job_s", "s", "lower"),
    ("serve.status_rpc_p50_s", "s", "lower"),
    ("jobs.submit_p50_s", "s", "lower"),
    ("jobs.queue_wait_p50_s", "s", "lower"),
    ("jobs.queue_wait_p90_s", "s", "lower"),
    ("jobs.exec_p50_s", "s", "lower"),
    ("jobs.exec_inflation", "ratio", "lower"),
    ("jobs.cache_hit_ratio", "ratio", "higher"),
    ("jobs.leaked_cells", "count", "lower"),
    ("jobs.poll_requests", "count", "lower"),
    ("history.recorded_cells", "count", "higher"),
    ("history.record_s", "s", "lower"),
    ("jobs.artifact_write_s", "s", "lower"),
    ("jobs.artifact_get_p50_s", "s", "lower"),
    ("jobs.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer(kernels: Mapping[str, Sequence[str]],
              backend_kernels: Sequence[str]) -> List[Dict[str, str]]:
    """The full ``per_layer`` list for ``BENCHMARK.json``."""
    rows = list(LAYERS)
    rows += [(f"app.{slug}_s", "s", "lower") for slug in kernels]
    rows += [(f"kernel.{slug}.{label}_s", "s", "lower")
             for slug, labels in kernels.items() for label in labels]
    rows += [(f"nonkernel.{slug}_s", "s", "lower") for slug in kernels]
    rows += [(f"backend.{name}.{kind}", unit, "lower")
             for name in backend_kernels
             for kind, unit in (("flops", "count"), ("bytes", "bytes"))]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


def main() -> None:
    from repro.core import backend, registry

    kernels = {b.slug: b.kernel_names() for b in registry.all_benchmarks()}
    rows = per_layer(kernels,
                     [spec.name for spec in backend.registered_kernels()])
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
