"""Self-tests of the benchmark: catalog, correctness gate, seeded plans.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import gate  # noqa: E402
import serve  # noqa: E402
from repro.core import backend, registry  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
with open(os.path.join(HERE, "protocol.json"), encoding="utf-8") as _handle:
    PROTOCOL = json.load(_handle)
KERNELS = {b.slug: b.kernel_names() for b in registry.all_benchmarks()}
BACKEND_KERNELS = [spec.name for spec in backend.registered_kernels()]

GOOD = {
    "disparity": {"mean_abs_error": "0.4955357142857143", "max_disparity": "16"},
    "tracking": {"median_motion": "(np.float64(-1.99999674), np.float64(-1.9999975))",
                 "true_motion": "(-2.0, -2.0)"},
    "segmentation": {"purity": "0.9876302083333334", "n_segments": "4"},
    "sift": {"keypoints": "229", "features": "471"},
    "localization": {"global_error": "0.1704", "tracking_error": "0.1661"},
    "svm": {"test_accuracy": "0.7833333333333333"},
    "face": {"detections": "3", "true_faces": "3", "hit_rate": "1.0"},
    "stitch": {"registration_error": "2.4242552967656972e-14"},
    "texture": {"final_residual": "0.864", "initial_residual": "1.298"},
}


def cell(slug, **outputs):
    return {"benchmark": slug, "outputs": {**GOOD[slug], **outputs},
            "kernel_calls": {label: 1 for label in KERNELS[slug]}}


def test_top_level_keys_and_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert len(BENCH["end_to_end"]) <= catalog.MAX_END_TO_END
    assert len(BENCH["per_layer"]) <= catalog.MAX_PER_LAYER
    assert len(json.dumps(BENCH)) <= 64 * 1024


def test_metric_names_and_units():
    rows = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [row["name"] for row in rows] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME.match(name), name
    for row in rows:
        assert row["better"] in ("higher", "lower")
        assert all(c.isalnum() or c in "_/%.-" for c in row["unit"])
    for row in BENCH["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    bounds = {row["name"]: row["bound"] for row in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_matches_registry():
    assert BENCH["per_layer"] == catalog.per_layer(KERNELS, BACKEND_KERNELS)
    assert sum(len(labels) for labels in KERNELS.values()) == 34
    assert len(BACKEND_KERNELS) == 12


def test_gate_accepts_good_cells():
    for slug in KERNELS:
        assert gate.check_cell(cell(slug), PROTOCOL["floors"], KERNELS) is None


def test_gate_rejects_wrong_face_hit_rate():
    bad = cell("face", hit_rate="0.0")
    reason = gate.check_cell(bad, PROTOCOL["floors"], KERNELS)
    assert reason is not None and "hit_rate" in reason


def test_gate_rejects_foreign_kernel_label():
    leaked = cell("svm")
    leaked["kernel_calls"]["SSD"] = 14
    reason = gate.check_cell(leaked, PROTOCOL["floors"], KERNELS)
    assert reason is not None and "SSD" in reason


@pytest.mark.parametrize("slug,outputs", [
    ("disparity", {"mean_abs_error": "3.5"}),
    ("tracking", {"median_motion": "(np.float64(-1.5), np.float64(-2.0))"}),
    ("segmentation", {"purity": "0.5"}),
    ("localization", {"global_error": "2.0"}),
    ("svm", {"test_accuracy": "0.5"}),
    ("stitch", {"registration_error": "0.5"}),
    ("texture", {"final_residual": "2.0"}),
    ("sift", {"keypoints": "0"}),
])
def test_gate_rejects_each_broken_output(slug, outputs):
    assert gate.check_cell(cell(slug, **outputs), PROTOCOL["floors"],
                           KERNELS) is not None


def test_leak_check_flags_foreign_backend_counter():
    alone = cell("svm")
    alone["metrics"] = {"kernels": {"svm.kernel_matrix": {"flops": 9.0}}}
    served = json.loads(json.dumps(alone))
    assert gate.foreign_counters(served, alone) == []
    served["metrics"]["kernels"]["disparity.ssd"] = {"flops": 14.0}
    assert gate.foreign_counters(served, alone) == ["disparity.ssd"]


def test_export_cell_count_is_checked():
    export = {"runs": [cell("svm")]}
    assert gate.check_export(export, PROTOCOL["floors"], KERNELS, 1) == []
    assert gate.check_export(export, PROTOCOL["floors"], KERNELS, 9)


def _misses(plan):
    return [[item.spec for item in step] for step in plan
            if step[0].kind == "miss"]


def test_serve_plan_is_seeded():
    apps = list(KERNELS)
    mix = PROTOCOL["serve_mixed"]
    first = serve.make_plan(1, apps, mix, 3)
    assert first == serve.make_plan(1, apps, mix, 3)
    second = serve.make_plan(2, apps, mix, 3)
    assert first != second
    # A second seed resubmits other specs around the same miss steps.
    assert _misses(first) == _misses(second)


def test_serve_plan_shape():
    apps = list(KERNELS)
    mix = PROTOCOL["serve_mixed"]
    plan = serve.make_plan(7, apps, mix, len(mix["run_pool"]))
    suite = [step for step in plan if step[0].round == 0]
    assert [len(step) for step in suite] == [1] * len(apps)
    assert [step[0].app for step in suite] == apps
    seen = set()
    for step in plan:
        assert len({item.kind for item in step}) == 1
        assert len(step) <= mix["clients"]
        if step[0].kind == "miss" and step[0].round > 0:
            # Two jobs side by side are of different applications.
            assert len({item.app for item in step}) == len(step)
        for item in step:
            key = json.dumps(item.spec, sort_keys=True)
            if item.kind == "miss":
                assert key not in seen, "a miss must be a spec not seen before"
            else:
                assert key in seen, "a hit resubmits a spec already done"
        seen.update(json.dumps(item.spec, sort_keys=True) for item in step
                    if item.kind == "miss")
    rounds = len(mix["run_pool"])
    hits = [item for step in plan for item in step if item.kind == "hit"]
    assert len(hits) == rounds * mix["hits_per_round"]
    assert sum(len(step) for step in _misses(plan)) == len(apps) * (1 + 2 * rounds)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_cli_sqcif",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
