"""Output-correctness gate: each cell's outputs against the generators' truth.

The synthetic input generators plant known structure (a true disparity
map, a true camera motion, labelled regions, a true robot path, planted
faces, a known homography), and every application reports how well it
recovered it.  The floors that separate a working application from a
broken one live in ``protocol.json``; they sit well outside the spread
seen across sizes SQCIF/QCIF/CIF at variant 0.

Outputs arrive either as Python values (in-process runs) or as the
``repr`` strings a suite export stores, so every reader parses both.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Mapping, Optional

_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def numbers(value: object) -> List[float]:
    """Every number in an output value (scalar, tuple, or its repr)."""
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in numbers(item)]
    # np.float64(...) reprs carry a "64" inside the type name; drop it.
    text = str(value).replace("float64", "").replace("int64", "")
    return [float(token) for token in _NUMBER.findall(text)]


def number(outputs: Mapping[str, object], key: str) -> float:
    values = numbers(outputs[key])
    if len(values) != 1:
        raise ValueError(f"output {key!r} is not one number: {outputs[key]!r}")
    return values[0]


def check_outputs(slug: str, outputs: Mapping[str, object],
                  floors: Mapping[str, Mapping[str, object]]) -> Optional[str]:
    """``None`` when ``outputs`` meet the floors, else the reason they fail."""
    floor = floors[slug]
    try:
        if slug == "disparity":
            error = number(outputs, "mean_abs_error")
            if error > floor["mean_abs_error_max"]:
                return f"disparity mean_abs_error {error:.4g}"
        elif slug == "tracking":
            measured = numbers(outputs["median_motion"])
            truth = numbers(outputs["true_motion"])
            if len(measured) != 2 or len(truth) != 2:
                return "tracking motion is not a 2-vector"
            error = max(abs(m - t) for m, t in zip(measured, truth))
            if error > floor["motion_error_max_px"]:
                return f"tracking motion off by {error:.4g} px"
        elif slug == "segmentation":
            purity = number(outputs, "purity")
            if purity < floor["purity_min"]:
                return f"segmentation purity {purity:.4g}"
        elif slug == "sift":
            # The generator plants no keypoints, so only sanity holds:
            # some keypoints, each with at least one descriptor.
            keypoints = number(outputs, "keypoints")
            features = number(outputs, "features")
            if keypoints < floor["keypoints_min"] or features < keypoints:
                return f"sift {keypoints:g} keypoints, {features:g} features"
        elif slug == "localization":
            for key in ("global_error", "tracking_error"):
                error = number(outputs, key)
                if error > floor[f"{key}_max"]:
                    return f"localization {key} {error:.4g}"
        elif slug == "svm":
            accuracy = number(outputs, "test_accuracy")
            if accuracy < floor["test_accuracy_min"]:
                return f"svm test_accuracy {accuracy:.4g}"
        elif slug == "face":
            hit_rate = number(outputs, "hit_rate")
            if hit_rate < floor["hit_rate_min"]:
                return f"face hit_rate {hit_rate:.4g}"
        elif slug == "stitch":
            error = number(outputs, "registration_error")
            if error > floor["registration_error_max"]:
                return f"stitch registration_error {error:.4g}"
        elif slug == "texture":
            final = number(outputs, "final_residual")
            initial = number(outputs, "initial_residual")
            if not final < initial:
                return f"texture residual {final:.4g} >= {initial:.4g}"
        else:
            return f"no floor for application {slug!r}"
    except (KeyError, ValueError) as exc:
        return f"{slug} outputs unreadable: {exc}"
    return None


def foreign_labels(slug: str, labels: Iterable[str],
                   kernels: Mapping[str, Iterable[str]]) -> List[str]:
    """Kernel labels recorded for ``slug`` that belong to no kernel of it."""
    own = set(kernels[slug])
    return sorted(set(labels) - own)


def backend_counters(cell: Mapping[str, object]) -> List[str]:
    """Backend kernels counted in an exported cell's metrics block."""
    metrics = dict(cell.get("metrics") or {})  # type: ignore[call-overload]
    return sorted(dict(metrics.get("kernels") or {}))


def foreign_counters(cell: Mapping[str, object],
                     alone: Mapping[str, object]) -> List[str]:
    """Backend kernels ``cell`` counts that ``alone``, a cell of the same
    application run with nothing beside it, does not."""
    return sorted(set(backend_counters(cell)) - set(backend_counters(alone)))


def check_cell(cell: Mapping[str, object],
               floors: Mapping[str, Mapping[str, object]],
               kernels: Mapping[str, Iterable[str]]) -> Optional[str]:
    """Gate one exported run record: outputs, then kernel-label ownership."""
    slug = str(cell["benchmark"])
    if slug not in kernels:
        return f"unknown application {slug!r}"
    reason = check_outputs(slug, cell.get("outputs") or {}, floors)
    if reason is not None:
        return reason
    foreign = foreign_labels(slug, dict(cell.get("kernel_calls") or {}),
                             kernels)
    if foreign:
        return f"{slug} export lists foreign kernels {foreign}"
    return None


def check_export(export: Mapping[str, object],
                 floors: Mapping[str, Mapping[str, object]],
                 kernels: Mapping[str, Iterable[str]],
                 expected_cells: int) -> List[str]:
    """Every failure in one suite export (empty list when it passes)."""
    runs = list(export.get("runs") or [])
    failures = [reason for reason in
                (check_cell(run, floors, kernels) for run in runs)
                if reason is not None]
    if len(runs) != expected_cells:
        failures.append(f"export holds {len(runs)} cells, "
                        f"expected {expected_cells}")
    return failures

