"""Pin the bytes of every benchmark report in tests/golden/reports.json.

For each invocation of perfbench's three ladders at seeds 1-10, and each of
the larger rungs in RUNGS, in JSON and in CSV, each written with --out, the
file maps the argv to four values: the
sha256 of the report, the exit code, and the sha256 of stdout and of stderr.
It also records the numpy version the digests were taken with, because
numpy's own sin, cos and exp may change bits between releases.

A change that moves a report on purpose regenerates the file with

    PYTHONPATH=src python tests/golden/make_reports.py

and lists in CHANGES.md the argvs that moved.  tests/test_cli.py reruns
every argv in process and compares.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from pointsplit import cli

GOLDEN = Path(__file__).resolve().with_name("reports.json")
LADDERS = ("verify-ladder", "anomaly-ladder", "vacuum-kernel")
SEEDS = range(1, 11)
FORMATS = ("json", "csv")
# rungs past the ladders' n_max: verify where its kernels span several row blocks, anomaly at n_max 1024
RUNGS = [
    *(
        ["verify", "--n-max", str(n), "--eps", "0.3", "--eps", "0.9", "--f-harmonic", "1:0.5:0"]
        for n in (24, 32, 48, 64, 96, 128, 256)
    ),
    ["anomaly", "--n-max", "1024", "--f-harmonic", "1:0.5:0", "--f-harmonic", "2:0.3:0", "--eps", "0.01"],
]


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded from its file once without importing the benchmark as a package."""
    path = GOLDEN.parents[2] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def ladder(workload: str, seed: int) -> list[list[str]]:
    """perfbench's ladder for a seed."""
    return [list(inv.argv) for inv in _workloads().build(workload, seed)]


def argvs() -> list[list[str]]:
    """Every ladder invocation at every seed and every rung in RUNGS, in both formats, without --out, each once."""
    calls = {}
    ladders = [argv for workload in LADDERS for seed in SEEDS for argv in ladder(workload, seed)]
    for argv in ladders + RUNGS:
        for fmt in FORMATS:
            call = argv + ["--format", fmt]
            calls[" ".join(call)] = call
    return list(calls.values())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure() -> dict[str, dict]:
    """Run each argv in this process with --out; its digests keyed by the argv joined with spaces."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for argv in argvs():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--out", str(out)])
            runs[" ".join(argv)] = {
                "exit": code,
                "report": _sha256(out.read_bytes()) if out.exists() else None,
                "stdout": _sha256(stdout.getvalue().encode()),
                "stderr": _sha256(stderr.getvalue().encode()),
            }
            out.unlink(missing_ok=True)
    return runs


if __name__ == "__main__":
    pinned = {"numpy": np.__version__, "runs": measure()}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned['runs'])} runs to {GOLDEN}")
