"""Per-invocation validation of `pointsplit` reports.

Each rule checks a report against the exit code the benchmark expects and
against numbers the benchmark computes itself, never against the
package's own second routes.  `validate` returns a list of problems; an
empty list means the invocation passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from pointsplit.lattice import LatticeConfig, spinor
from pointsplit.trigpoly import TrigPoly

REL_TOL = 1e-10

VERIFY_CHECKS = {
    "dispersion_properties",
    "spinor_identities",
    "car_relations",
    "vacuum_annihilation",
    "hermiticity",
    "continuity",
    "split_continuity_defining_relation",
    "split_commutator_gradient_form",
    "split_hamiltonian_renormalization",
    "split_current_consistency",
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_argv(argv) -> dict:
    """The inputs an invocation asked for, read from its argv."""
    out = {"command": argv[0], "n_max": 2, "mass": 1.0, "delta_p": 1.0, "eps": [], "harmonics": []}
    it = iter(argv[1:])
    for flag in it:
        if flag == "--n-max":
            out["n_max"] = int(next(it))
        elif flag == "--eps":
            out["eps"].append(float(next(it)))
        elif flag == "--f-harmonic":
            n, re, im = next(it).split(":")
            out["harmonics"].append((int(n), float(re), float(im)))
        elif flag == "--corrupt-sign-hook":
            out["corrupt"] = True
        else:
            raise ValueError(f"benchmark argv has an unexpected flag {flag!r}")
    return out


def _close(value, ref: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= REL_TOL * abs(ref)


def spectral_closed_form(args: dict) -> float:
    """2 sum_{je,jp} |f_{je-jp} u_+(je)' u_-(jp)|^2 (E_je + E_jp)."""
    cfg = LatticeConfig(args["mass"], args["delta_p"], args["n_max"])
    js = list(cfg.mode_indices())
    f = TrigPoly.from_harmonics(cfg.box_length, args["harmonics"])
    up = np.array([spinor(+1, j, cfg).u for j in js])
    um = np.array([spinor(-1, j, cfg).u for j in js])
    energy = np.array([spinor(+1, j, cfg).energy for j in js])
    overlap = up.conj() @ um.T
    coeff = np.array([[f.coeff(ja - jb) for jb in js] for ja in js])
    weight = energy[:, None] + energy[None, :]
    return float(2.0 * np.sum(np.abs(coeff * overlap) ** 2 * weight))


def negative_mode_energy(args: dict, eps: float) -> float:
    """sum over modes with cos(p eps) < 0 of 2 E_p cos(p eps)."""
    total = 0.0
    for j in range(-args["n_max"], args["n_max"] + 1):
        p = j * args["delta_p"]
        c = math.cos(p * eps)
        if c < 0:
            total += 2.0 * math.hypot(p, args["mass"]) * c
    return total


def _check_config(report: dict, args: dict) -> list[str]:
    cfg = report.get("config", {})
    problems = []
    if args["command"] != "derive" and cfg.get("n_max") != args["n_max"]:
        problems.append(f"config echoes n_max {cfg.get('n_max')}, asked {args['n_max']}")
    if args["eps"] and cfg.get("eps") != args["eps"]:
        problems.append(f"config echoes eps {cfg.get('eps')}, asked {args['eps']}")
    return problems


def _verify(report: dict, args: dict) -> list[str]:
    checks = {c.get("name"): c for c in report.get("checks", [])}
    if args.get("corrupt"):
        cont = checks.get("continuity")
        if cont is None or cont.get("passed") is not False:
            return ["negative control: continuity did not fail under the corrupted sign"]
        return []
    problems = [f"missing check {name}" for name in sorted(VERIFY_CHECKS - set(checks))]
    for name, c in sorted(checks.items()):
        r, tol = c.get("residual"), c.get("tolerance")
        if not isinstance(r, (int, float)) or not math.isfinite(r) or not isinstance(tol, (int, float)):
            problems.append(f"{name}: residual {r!r} is not a finite number")
        elif not r <= tol:
            problems.append(f"{name}: residual {r!r} above tolerance {tol!r}")
        elif c.get("passed") is not True:
            problems.append(f"{name}: reported as failed")
    return problems


def _anomaly(report: dict, args: dict) -> list[str]:
    problems = []
    summary = report.get("summary", {})
    if summary.get("formal_zero") is not True:
        problems.append("formal_zero is not true")
    ref = spectral_closed_form(args)
    if not _close(summary.get("exact_spectral"), ref):
        problems.append(f"exact_spectral {summary.get('exact_spectral')!r} differs from closed form {ref!r}")
    rows = report.get("tables", {}).get("pointsplit", [])
    if len(rows) != len(set(args["eps"])):
        problems.append(f"{len(rows)} pointsplit rows for {len(set(args['eps']))} eps")
    for row in rows:
        v = row.get("value")
        if not isinstance(v, (int, float)) or not v > 0 or row.get("positive") is not True:
            problems.append(f"pointsplit row at eps={row.get('eps')!r} is not positive: {v!r}")
    return problems


def _vacuum(report: dict, args: dict) -> list[str]:
    problems = []
    rows = {r.get("quantity"): r.get("value") for r in report.get("tables", {}).get("ground_state", [])}
    brute = 2 * (2 * args["n_max"] + 1) <= 24
    for eps in args["eps"]:
        ref = negative_mode_energy(args, eps)
        names = [f"redefined_vacuum_energy[eps={eps!r}]"]
        if brute:
            names.append(f"bruteforce_minimum[eps={eps!r}]")
        elif f"bruteforce_skipped[eps={eps!r}]" not in rows:
            problems.append(f"eps={eps!r}: no bruteforce_skipped row above the enumeration bound")
        for name in names:
            if not _close(rows.get(name), ref):
                problems.append(f"{name} = {rows.get(name)!r}, closed form {ref!r}")
    return problems


def _kernel(report: dict, args: dict) -> list[str]:
    rows = report.get("tables", {}).get("kernel_asymptote", [])
    problems = [] if len(rows) == len(args["eps"]) else [f"{len(rows)} kernel rows for {len(args['eps'])} eps"]
    for row in rows:
        v = row.get("eps_times_extrapolated")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not 0 < v <= 1:
            problems.append(f"eps_times_extrapolated at eps={row.get('eps')!r} is {v!r}, outside (0, 1]")
    return problems


def _derive(report: dict, args: dict) -> list[str]:
    finals = {
        r.get("pipeline"): r.get("expression")
        for r in report.get("tables", {}).get("derivation", [])
        if r.get("step") == "final"
    }
    problems = []
    if finals.get("coincident") != "0":
        problems.append(f"coincident pipeline ends in {finals.get('coincident')!r}, not 0")
    if finals.get("split") in (None, "0"):
        problems.append(f"split pipeline ends in {finals.get('split')!r}")
    return problems


_RULES = {"verify": _verify, "anomaly": _anomaly, "vacuum": _vacuum, "kernel": _kernel, "derive": _derive}


def validate(argv, expect_exit: int, exit_code, report_text: str | None) -> list[str]:
    """Problems with one invocation's outcome; empty when it passed."""
    if exit_code != expect_exit:
        return [f"exit code {exit_code!r}, expected {expect_exit}"]
    if report_text is None:
        return ["no report written to --out"]
    try:
        report = load_strict(report_text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    args = parse_argv(argv)
    try:
        return _check_config(report, args) + _RULES[args["command"]](report, args)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"report has an unexpected shape: {type(exc).__name__}: {exc}"]
