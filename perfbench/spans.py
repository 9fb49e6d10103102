"""Spans around the public functions of `pointsplit`, recorded from outside.

`Tracer.install` wraps every public function each `pointsplit` module
defines (plus `cli._emit`, the report writer) and rebinds the wrapper
under every name that refers to the original, in every loaded
`pointsplit` module, because `checks`, `anomaly`, `groundstate` and `cli`
import functions by name.  The per-bit helpers (`fock._apply_*_linear`,
`modeops._reduce_word`, `fock._parity_below`) are private and stay
unwrapped: they run 10^5-10^6 times per invocation, so their work is
counted through `term_pairs` and `term_state_pairs` instead.

Spans stay in memory as tuples and are written as JSONL once the pass is
over.  `aggregate` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from types import FunctionType

PACKAGE = "pointsplit"

BUILDERS = (
    "charge_density",
    "current_density",
    "split_current",
    "boulware_current",
    "charge_commutator_gradient_form",
    "smeared_charge",
    "split_hamiltonian",
    "split_hamiltonian_raw",
)

# Functions whose per-invocation time is fitted against n_max.
FITTED = (
    "modeops.commutator",
    "modeops.apply_operator",
    "anomaly.double_commutator_direct",
    "anomaly.double_commutator_spectral",
    "groundstate.ground_state_bruteforce",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _multiply_counts(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return {
        "modeops.multiply.term_pairs": len(a.terms) * len(b.terms),
        "modeops.multiply.out_terms": len(result.terms),
    }


def _apply_counts(args, kwargs, result):
    a, v = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "v")
    return {"modeops.apply_operator.term_state_pairs": len(a.terms) * len(v.amp)}


def _bruteforce_counts(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"groundstate.enumerated_states": 1 << (2 * (2 * cfg.n_max + 1))}


def _emit_counts(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    return {"cli.report_bytes": os.path.getsize(config.out)} if config.out else {}


def _terms_counter(builder: str):
    key = f"modeops.{builder}.terms"
    return lambda args, kwargs, result: {key: len(result.terms)}


# Counters run when a span closes; each returns metric name -> amount.
COUNTER_KEYS = frozenset(
    {
        "modeops.multiply.term_pairs",
        "modeops.multiply.out_terms",
        "modeops.apply_operator.term_state_pairs",
        "groundstate.enumerated_states",
        "cli.report_bytes",
    }
    | {f"modeops.{b}.terms" for b in BUILDERS}
)
COUNTERS = {
    "modeops.multiply": _multiply_counts,
    "modeops.apply_operator": _apply_counts,
    "groundstate.ground_state_bruteforce": _bruteforce_counts,
    "cli.emit": _emit_counts,
    **{f"modeops.{b}": _terms_counter(b) for b in BUILDERS},
}


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def public_functions() -> dict:
    """Function -> span name ('<module>.<function>') for every public function
    a loaded pointsplit module defines, plus the report writer cli._emit."""
    targets = {}
    for mod in _package_modules():
        short = mod.__name__.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if isinstance(value, FunctionType) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                targets[value] = f"{short}.{attr}"
    targets[sys.modules[PACKAGE + ".cli"]._emit] = "cli.emit"
    return targets


class Tracer:
    """In-memory span recorder.  One tracer serves one pass."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index, invocation id, counts)
        self.spans: list = []
        self._stack: list[int] = []
        self.invocation = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.invocation, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            counts = counter(args, kwargs, result) if counter is not None else None
            spans[idx] = (name, start, end, parent, self.invocation, counts)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every public function and rebind each name that refers to it."""
        wrappers = {fn: self.wrap(name, fn) for fn, name in public_functions().items()}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, inv, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "inv": inv}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(n_max); 0 with fewer than two n_max."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def aggregate(spans: list[dict], rung_n_max: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    `<fn>.calls` counts spans; `<fn>.s` sums spans not nested inside another
    span of the same function; `<fn>.self_s` subtracts each span's direct
    children.  Counters from COUNTERS are summed under their own names.
    `rung_n_max` maps the invocation ids on the n_max ladder to their n_max;
    the fitted exponents use only those invocations.
    """
    out: dict[str, float] = defaultdict(int)
    per_inv = defaultdict(float)
    children = defaultdict(list)
    for sp in spans:
        children[sp["parent"]].append(sp)

    def duration(sp) -> int:
        return sp["end_ns"] - sp["start_ns"]

    for sp in spans:
        name, dur = sp["name"], duration(sp)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (dur - sum(duration(ch) for ch in children[sp["id"]])) / 1e9
        ancestor, nested = sp["parent"], False
        while ancestor >= 0:
            if spans[ancestor]["name"] == name:
                nested = True
                break
            ancestor = spans[ancestor]["parent"]
        if not nested:
            out[f"{name}.s"] += dur / 1e9
            per_inv[(name, sp["inv"])] += dur / 1e9
        for key, value in (sp.get("counts") or {}).items():
            out[key] += value
    for name in FITTED:
        points = [(rung_n_max[inv], t) for (fn, inv), t in per_inv.items() if fn == name and inv in rung_n_max]
        out[f"{name}.n_exponent"] = _slope(points)
    # Time inside each cli.main not covered by the layer spans under it: the
    # nearest non-cli spans, plus report emission.
    def covered(sp) -> int:
        total = 0
        for ch in children[sp["id"]]:
            if ch["name"] == "cli.emit" or not ch["name"].startswith("cli."):
                total += duration(ch)
            else:
                total += covered(ch)
        return total

    main_ns = accounted_ns = 0
    for sp in children[-1]:
        if sp["name"] == "cli.main":
            main_ns += duration(sp)
            accounted_ns += covered(sp)
    out["cli.main.unaccounted_frac"] = (main_ns - accounted_ns) / main_ns if main_ns else 0.0
    return dict(out)
