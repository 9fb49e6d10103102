"""Benchmark of the `pointsplit` CLI over seeded n_max ladders.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs a closed loop:
each pass is a fresh single-threaded interpreter that calls
`pointsplit.cli.main(argv)` for every invocation of the workload's ladder,
one after another, with `--out` pointed at a scratch file.  Passes repeat
until S seconds have gone by and at least three have run.  Every report is
validated (validate.py).  Times are also reported in reference units: each
invocation's seconds over a reference kernel timed while it ran, which
cancels most of the drift in the speed of a shared host (pass_child.py).

With --trace 0 the last stdout line carries the end-to-end metrics, from
untraced passes.  With --trace 1 it carries the per-layer metrics, from
one more pass traced by spans.py.  The lines before it print every metric
by name and unit, the environment and any failed invocation.  Metric names
and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 3  # dedicated set-up samples per run, on top of one per pass
MIN_PASSES = 3  # so the per-run medians of the slowest workload rest on three passes
RUN_LIMIT_S = 150.0  # stay well inside the 180 s a run may take
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=src, PERFBENCH_SRC=src, PYTHONHASHSEED="0")
    return env


def _spawn(args: list[str], env: dict, timeout: float) -> tuple[int, subprocess.CompletedProcess]:
    """Run pass_child.py; returns the monotonic spawn time and the finished process."""
    cmd = [sys.executable, os.path.join(HERE, "pass_child.py"), *args]
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    return spawned, proc


def measure_setup(env: dict) -> float:
    spawned, proc = _spawn(["--setup-only"], env, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return (int(proc.stdout.strip()) - spawned) / 1e9


def run_pass(invs, workdir: str, tag: str, env: dict, trace: bool, timeout: float) -> dict:
    """One pass in a fresh interpreter; returns its timings and each report's text."""
    outs = [os.path.join(workdir, f"{tag}-{i}.json") for i in range(len(invs))]
    for path in outs:
        if os.path.exists(path):
            os.remove(path)
    spec = {
        "argvs": [list(inv.argv) + ["--out", out] for inv, out in zip(invs, outs)],
        "trace": trace,
        "spans_path": os.path.join(workdir, f"{tag}-spans.jsonl"),
        "result_path": os.path.join(workdir, f"{tag}-result.json"),
    }
    spec_path = os.path.join(workdir, f"{tag}-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    started = time.monotonic()
    try:
        spawned, proc = _spawn([spec_path], env, timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"pass exceeded {timeout:.0f} s", "duration": time.monotonic() - started}
    duration = time.monotonic() - started
    if proc.returncode != 0:
        return {"ok": False, "error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}", "duration": duration}
    with open(spec["result_path"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    reports = []
    for path in outs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(fh.read())
        except FileNotFoundError:
            reports.append(None)
    return {
        "ok": True,
        "traced": trace,
        "duration": duration,
        "setup_s": (result["ready_ns"] - spawned) / 1e9,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "invocations": result["invocations"],
        "reports": reports,
        "spans_path": spec["spans_path"] if trace else None,
    }


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "pointsplit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(root: str, src: str, seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "os": f"{platform.system()} {platform.release()} {platform.machine()}",
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(src),
    }


def in_reference_units(p: dict) -> list[float]:
    """Each invocation's time over the mean reference-kernel time sampled
    while it ran (see pass_child.py)."""
    return [inv["seconds"] / inv["reference_s"] for inv in p["invocations"]]


def _median(values) -> float:
    if not values:
        raise BenchError("no successful untraced pass to take a median over")
    return statistics.median(values)


def _run_passes(invs, workdir: str, env: dict, seconds: float, trace: bool, run_start: float) -> list[dict]:
    """Untraced passes until `seconds` have gone by and at least MIN_PASSES ran,
    then the traced pass."""
    passes: list[dict] = []
    measure_start = time.monotonic()
    while True:
        left = RUN_LIMIT_S - (time.monotonic() - run_start)
        p = run_pass(invs, workdir, f"pass{len(passes)}", env, trace=False, timeout=max(left, 1.0))
        passes.append(p)
        reserve = p["duration"] * (3 if trace else 2)
        done = len(passes) >= MIN_PASSES and time.monotonic() - measure_start >= seconds
        if done or time.monotonic() - run_start + reserve > RUN_LIMIT_S:
            break
    if trace:
        left = RUN_LIMIT_S - (time.monotonic() - run_start)
        passes.append(run_pass(invs, workdir, "traced", env, trace=True, timeout=max(left, 1.0)))
    return passes


def _validate_passes(invs, passes: list[dict], lines: list[str]) -> tuple[int, int]:
    """Validate every report; returns (attempted, failed) and appends a line per failure."""
    from validate import validate

    attempted = failed = 0
    for p in passes:
        attempted += len(invs)
        if not p["ok"]:
            failed += len(invs)
            lines.append(f"FAIL pass: {p['error']}")
            continue
        for inv, res, report in zip(invs, p["invocations"], p["reports"]):
            problems = validate(inv.argv, inv.expect_exit, res["exit"], report)
            if problems:
                failed += 1
                lines.append(f"FAIL {' '.join(inv.argv)}: {'; '.join(problems)} {res['stderr'].strip()}")
    return attempted, failed


def _layer_metrics(spec: dict, invs, traced: dict, metrics: dict) -> dict:
    """Per-layer metrics from the traced pass's spans, each name in BENCHMARK.json filled."""
    import pointsplit.cli  # noqa: F401  (loads every module the tracer wraps)
    from spans import COUNTER_KEYS, aggregate, public_functions, read_jsonl

    rungs = {i: inv.n_max for i, inv in enumerate(invs) if inv.rung}
    layer = aggregate(read_jsonl(traced["spans_path"]), rungs)
    traced_wall = sum(in_reference_units(traced))
    layer["trace.overhead_frac"] = (traced_wall - metrics["wall_ref"]) / metrics["wall_ref"]
    traced_names = set(public_functions().values())
    for m in spec["per_layer"]:
        name = m["name"]
        if name in metrics:
            layer[name] = metrics[name]
        elif name not in layer:
            # A function this workload never calls, or a count it never makes.
            if name not in COUNTER_KEYS and name.rsplit(".", 1)[0] not in traced_names:
                raise BenchError(f"per-layer metric {name} is not produced by the tracer")
            layer[name] = 0
    return layer


def bench(workload: str, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, list[str]]:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pointsplit", "cli.py")):
        raise BenchError(f"no pointsplit sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, src)
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    invs = workloads.build(workload, seed)
    workdir = os.path.join(HERE, ".work", f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = _child_env(src)
    run_start = time.monotonic()
    setup = [measure_setup(env) for _ in range(SETUP_SPAWNS)]
    passes = _run_passes(invs, workdir, env, seconds, trace, run_start)

    lines: list[str] = []
    attempted, failed = _validate_passes(invs, passes, lines)
    ok_plain = [p for p in passes if p["ok"] and not p["traced"]]
    traced = [p for p in passes if p["ok"] and p["traced"]]
    top = next(i for i, inv in enumerate(invs) if inv.top)
    metrics = {
        "setup_s": _median(setup + [p["setup_s"] for p in passes if p["ok"]]),
        "wall_ref": _median([sum(in_reference_units(p)) for p in ok_plain]),
        "top_rung_ref": _median([in_reference_units(p)[top] for p in ok_plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok_plain]),
        "wall_s": _median([sum(r["seconds"] for r in p["invocations"]) for p in ok_plain]),
        "top_rung_s": _median([p["invocations"][top]["seconds"] for p in ok_plain]),
        "reference_s": _median([inv["reference_s"] for p in ok_plain for inv in p["invocations"]]),
        "failed_frac": failed / attempted,
    }
    if trace:
        if not traced:
            raise BenchError("the traced pass failed")
        metrics.update(_layer_metrics(spec, invs, traced[0], metrics))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = [m["name"] for m in spec["end_to_end"] + (spec["per_layer"] if trace else [])]
    shown += [name for name in ("wall_s", "top_rung_s", "reference_s", "failed_frac") if name not in shown]
    for i, inv in enumerate(invs):
        times = " ".join(f"{p['invocations'][i]['seconds']:.3f}" for p in ok_plain)
        traced_time = f" traced {traced[0]['invocations'][i]['seconds']:.3f}" if traced else ""
        lines.append(f"inv {i} [{times}]{traced_time} s: {' '.join(inv.argv)}")
    for name in shown:
        lines.append(f"{name:56s} {metrics[name]!r:>24} {units[name]}")
    lines.append(
        f"passes {len(ok_plain)} untraced + {len(traced)} traced, {attempted} invocations attempted, "
        f"{failed} failed, {time.monotonic() - run_start:.1f} s in all"
    )
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(root, src, seed),
        "metrics": metrics,
        "invocations": [list(inv.argv) for inv in invs],
        "passes": [{k: v for k, v in p.items() if k != "reports"} for p in passes],
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    lines.append("env " + json.dumps(record["environment"], sort_keys=True))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        result, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
