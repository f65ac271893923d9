"""User errors on the CLI: exit status 2 and one line on stderr.

Each subcommand that takes benchmark slugs must reject an unknown slug
the same way, in a fresh process, without a Python traceback; so must
each subcommand that reads a suite export it cannot open or parse, and
each that is given an output path it cannot write (before any work).
"""

import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

UNKNOWN_SLUG_COMMANDS = [
    ["run", "bogus"],
    ["run", "disparity", "bogus"],
    ["figure3", "bogus"],
    ["stream", "bogus"],
    ["flame", "bogus"],
    ["report", "bogus"],
    ["trace", "bogus"],
]


def _run_cli(argv, cwd):
    """Run ``sdvbs <argv>`` in a fresh interpreter inside ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, cwd=str(cwd), env=env,
        timeout=120,
    )


@pytest.mark.parametrize("argv", UNKNOWN_SLUG_COMMANDS,
                         ids=[" ".join(a) for a in UNKNOWN_SLUG_COMMANDS])
def test_unknown_benchmark_exits_2_with_one_line(argv, tmp_path):
    completed = _run_cli(argv, tmp_path)
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1, completed.stderr
    assert lines[0].startswith(f"sdvbs {argv[0]}: unknown benchmark 'bogus'")
    assert completed.stdout == ""


UNREADABLE_FILE_COMMANDS = [
    ["compare", "missing.json", "missing.json"],
    ["compare", "not-json.txt", "not-json.txt"],
    ["regress", "missing.json"],
]


@pytest.mark.parametrize("argv", UNREADABLE_FILE_COMMANDS,
                         ids=[" ".join(a) for a in UNREADABLE_FILE_COMMANDS])
def test_unreadable_export_exits_2_with_one_line(argv, tmp_path):
    (tmp_path / "not-json.txt").write_text("not json\n", encoding="utf-8")
    completed = _run_cli(argv, tmp_path)
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1, completed.stderr
    assert lines[0].startswith(f"sdvbs {argv[0]}: cannot read {argv[1]}: ")
    assert completed.stdout == ""


UNWRITABLE_OUTPUT_COMMANDS = [
    (["trace", "disparity", "--size", "sqcif", "--out", "missing/t.json"],
     "trace", "missing/t.json"),
    (["trace", "disparity", "--size", "sqcif", "--events",
      "missing/e.jsonl"], "trace", "missing/e.jsonl"),
    (["flame", "disparity", "--size", "sqcif", "--out",
      "missing/f.collapsed"], "flame", "missing/f.collapsed"),
    (["report", "disparity", "--sizes", "sqcif", "--out", "missing/r.html"],
     "report", "missing/r.html"),
    (["run", "disparity", "--sizes", "sqcif", "--events", "missing/e.jsonl"],
     "run", "missing/e.jsonl"),
    (["history", "record", "r.json", "--db", "missing/h.sqlite"],
     "history record", "missing/h.sqlite"),
    (["profile", "diff", "a", "b", "--benchmark", "disparity", "--db",
      "missing/p.sqlite"], "profile diff", "missing/p.sqlite"),
    (["stream", "disparity", "--size", "sqcif", "--json", "missing/s.json"],
     "stream", "missing/s.json"),
    (["stream", "disparity", "--size", "sqcif", "--json", "", "--trace",
      "missing/t.json"], "stream", "missing/t.json"),
    (["regress", "r.json", "--json-out", "missing/v.json"],
     "regress", "missing/v.json"),
]


@pytest.mark.parametrize(
    "argv, label, path", UNWRITABLE_OUTPUT_COMMANDS,
    ids=[" ".join(a) for a, _, _ in UNWRITABLE_OUTPUT_COMMANDS])
def test_unwritable_output_exits_2_with_one_line(argv, label, path,
                                                 tmp_path):
    completed = _run_cli(argv, tmp_path)
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1, completed.stderr
    assert lines[0].startswith(f"sdvbs {label}: cannot write {path}: ")
    assert completed.stdout == ""
    assert list(tmp_path.iterdir()) == []  # the probes left nothing behind
