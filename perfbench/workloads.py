"""Seeded ladders of `pointsplit` CLI invocations, one ladder per workload.

Each workload fixes its n_max rungs and how many eps values and smearing
harmonics every invocation carries, because those set the amount of work.
The seed draws only the input values: eps, harmonic indices and their
amplitudes.  No argv repeats within a ladder.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the argv a user would type (without --out) and what to expect."""

    argv: tuple[str, ...]
    n_max: int | None  # the lattice n_max the call runs at; None for derive
    expect_exit: int = 0
    rung: bool = True  # part of the n_max ladder used by the scaling fits
    top: bool = False  # the workload's heaviest invocation (reported as top_rung_ref)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _eps_flags(values) -> list[str]:
    out: list[str] = []
    for v in values:
        out += ["--eps", _num(v)]
    return out


def _harmonic_flags(rng: random.Random, indices) -> list[str]:
    out: list[str] = []
    for n in indices:
        c = rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        out += ["--f-harmonic", f"{n}:{_num(c.real)}:{_num(c.imag)}"]
    return out


def verify_ladder(rng: random.Random) -> list[Invocation]:
    # Two eps per rung at every rung, so per-invocation times at different
    # n_max carry the same number of split checks and the fits compare alike.
    invs = []
    for n_max in (1, 2, 3, 5):
        argv = ["verify", "--n-max", str(n_max)]
        argv += _eps_flags(rng.uniform(0.05, 1.5) for _ in range(2))
        argv += _harmonic_flags(rng, [rng.choice((1, 2))])
        invs.append(Invocation(tuple(argv), n_max, top=n_max == 5))
    control = ["verify", "--n-max", "1", "--corrupt-sign-hook"] + _eps_flags([rng.uniform(0.05, 1.5)])
    invs.append(Invocation(tuple(control), 1, expect_exit=1, rung=False))
    return invs


def anomaly_ladder(rng: random.Random) -> list[Invocation]:
    # Harmonic indices come from {1, 2, 3}: the smeared charge's term count
    # depends on them only through 2*n_max + 1 - n, a few percent at most.
    invs = []
    for n_max in (8, 12, 16, 24, 32):
        argv = ["anomaly", "--n-max", str(n_max)]
        argv += _harmonic_flags(rng, sorted(rng.sample((1, 2, 3), 2)))
        argv += _eps_flags(10.0 ** rng.uniform(-2.0, -1.0) for _ in range(3))
        invs.append(Invocation(tuple(argv), n_max, top=n_max == 32))
    return invs


def vacuum_kernel(rng: random.Random) -> list[Invocation]:
    # eps > pi/(2*cutoff) at n_max 3, so every rung has a negative mode set.
    # n_max 5 is the largest brute-force rung (22 slots); 16 and 64 take the
    # enumeration-skip path and build large spectrum tables.
    invs = []
    for n_max in (3, 4, 5, 16, 64):
        argv = ["vacuum", "--n-max", str(n_max)] + _eps_flags(rng.uniform(0.6, 3.0) for _ in range(3))
        invs.append(Invocation(tuple(argv), n_max, top=n_max == 5))
    kernel_eps = [10.0 ** (-3.0 + 0.5 * k + rng.uniform(-0.1, 0.1)) for k in range(5)]
    kernel_eps = [min(max(e, 1e-3), 1e-1) for e in kernel_eps]
    invs.append(Invocation(tuple(["kernel"] + _eps_flags(kernel_eps)), 2, rung=False))
    invs.append(Invocation(("derive",), None, rung=False))
    return invs


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "anomaly-ladder": anomaly_ladder,
    "vacuum-kernel": vacuum_kernel,
}


def build(workload: str, seed: int) -> list[Invocation]:
    """The workload's ladder for this seed; the same seed gives the same ladder."""
    invs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    if len({inv.argv for inv in invs}) != len(invs):
        raise ValueError(f"{workload}: a config repeats within the pass")
    if sum(inv.top for inv in invs) != 1:
        raise ValueError(f"{workload}: exactly one invocation must be the top rung")
    return invs
