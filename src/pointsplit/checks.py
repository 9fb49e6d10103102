"""Machine-checkable identity suites shared by the CLI and the test suite.

Each check returns a CheckResult carrying the worst residual it saw; a check passes when that
residual stays below its tolerance.  The suites cover the algebraic backbone: anticommutation
relations on every basis state, spinor eigenvector/completeness identities, hermiticity of the
smeared charge, the continuity identity for the unsplit theory, and the split-Hamiltonian analogs
(defining relation for the corrected current, gradient form of the commutator,
renormalization-constant bookkeeping).

Every operator checked here is a fermion bilinear A'KA, so the checks stay on the kernels K:
[A'KA, A'GA] = A'[K,G]A and the vacuum value is Tr(P_- K) off K's diagonal.  The Hamiltonians are
diagonal, carried as the vector h of their diagonal, so every continuity identity takes one
elementwise commutator [diag(h), K] = (h_a - h_b) K[a,b] (_commute_diagonal), and its two kernels
are compared entry by entry, one block of rows at a time (_largest_difference): no N x N array is
held, and a block does only its O(rows x N) work, as each eps's diagonal and plane wave are built
once and handed to every block (_split_residual).  Those kernels carry no shift, so they are real:
rho and the current are u_a' M u_b / L, the corrected current and the gradient form are real by
their gamma average, and modeops' one d/dz rule, i d/dz K = (p_a - p_b) K (_i_d_dz), keeps them
real; each identity is read in float64.  The renormalization
check builds operators, as it tests the normal-ordering engine itself, and the hermiticity check
builds F, the one operator whose hermiticity can fail.
tests/test_checks.py holds every check that reads less than whole kernels to a dense route.

Every kernel is z-free: only the public builders in modeops place one at z, by a unimodular phase
that multiplies both sides of an identity alike, so each identity is checked once per eps and holds
at every z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import _first_positron, n_slots_for
from .lattice import ID2, SIGMA_X, LatticeConfig, dispersion
from .modeops import (
    _boulware_kernel,
    _gradient_kernel,
    _i_d_dz,
    _kernel_vev,
    _mode_table,
    _plane_wave,
    _Rows,
    _sandwich_at,
    _split_hamiltonian_diagonal,
    _worst,
    coeff_distance,
    smeared_charge,
    split_hamiltonian,
    split_hamiltonian_raw,
)
from .trigpoly import TrigPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


# Tolerance per check: a check passes when its worst residual is at most this.
TOL = {
    "dispersion_properties": 1e-12,
    "spinor_identities": 1e-12,
    "car_relations": 1e-12,
    "vacuum_annihilation": 1e-12,
    "hermiticity": 1e-12,
    "continuity": 1e-12,
    "split_continuity_defining_relation": 1e-10,
    "split_commutator_gradient_form": 1e-10,
    "split_hamiltonian_renormalization": 1e-10,
    "split_current_consistency": 1e-12,
}


def _result(name: str, residual: float, detail: str = "") -> CheckResult:
    tol = TOL[name]
    return CheckResult(name=name, passed=residual <= tol, residual=float(residual), tolerance=tol, detail=detail)


def check_dispersion(cfg: LatticeConfig) -> CheckResult:
    """Evenness, monotonicity in |p| and the >= m floor of the dispersion."""
    tol = TOL["dispersion_properties"]
    residuals = []
    prev = cfg.mass
    for j in range(0, cfg.n_max + 1):
        p = cfg.momentum(j)
        e = dispersion(p, cfg.mass)
        residuals.append(abs(e - dispersion(-p, cfg.mass)))
        if e < prev - tol or e < cfg.mass - tol:
            residuals.append(abs(min(e - prev, e - cfg.mass)))
        prev = e
    return _result("dispersion_properties", _worst(residuals))


def check_spinors(cfg: LatticeConfig) -> CheckResult:
    """Eigenvector residual, normalization, orthogonality and completeness per mode, for every mode at
    once from the mode table: u+ with lam = +1 on the electron slots, u- with lam = -1 on the positron
    slots.  The spinors and h(p) = sigma_x p + sigma_z m are real, so each identity is read in
    elementwise float64, which rounds alike on every CPU, as a BLAS kernel need not."""
    t = _mode_table(cfg)
    half = _first_positron(cfg.n_max)
    u0, u1 = t.u.T
    lam_energy = t.energy * np.repeat([1.0, -1.0], half)
    r0 = cfg.mass * u0 + t.p * u1 - lam_energy * u0
    r1 = t.p * u0 - cfg.mass * u1 - lam_energy * u1
    (a0, b0), (a1, b1) = np.split(u0, 2), np.split(u1, 2)  # a: u+, b: u- of the same mode
    residuals = (
        np.sqrt(r0 * r0 + r1 * r1),  # |h u - lam E u|
        np.abs(u0 * u0 + u1 * u1 - 1.0),  # |u'u - 1|
        np.abs(a0 * b0 + a1 * b1),  # |u+' u-|
        np.abs(a0 * a0 + b0 * b0 - 1.0),  # |sum_lam u u' - 1|, entry by entry
        np.abs(a0 * a1 + b0 * b1),
        np.abs(a1 * a1 + b1 * b1 - 1.0),
    )
    return _result("spinor_identities", _worst(r.max() for r in residuals))


def _factor_table(n: int, apply_word):
    """Every single factor a_0..a_{n-1}, a'_0..a'_{n-1} on every bitstring,
    one apply_word call each (fock's one sign rule): the target bitstrings
    and the signs (int8) as (2n, 2^n) arrays, sign 0 where the factor meets
    its slot in the wrong state (the target then stays put).  A row reads
    each hit as the one integer 2*bits + odd, -1 for a miss; the targets are
    intp, numpy's index type, so the sweep gathers by them unconverted."""
    dim = 1 << n
    states = range(dim)
    code = np.empty((2 * n, dim), dtype=np.intp)
    words = [((), (s,)) for s in range(n)] + [((s,), ()) for s in range(n)]
    for row, (cre, ann) in enumerate(words):
        code[row] = [-1 if (hit := apply_word(cre, ann, bits)) is None else 2 * hit[0] + hit[1] for bits in states]
    miss = code < 0
    sign = 1 - 2 * (code & 1).astype(np.int8)
    sign[miss] = 0
    target = np.right_shift(code, 1, out=code)  # in place: no second (2n, 2^n) intp array
    np.copyto(target, np.arange(dim), where=miss)
    return target, sign


@functools.lru_cache(maxsize=2)
def _car_worst(n: int, apply_word) -> int:
    """The largest squared norm of ({x, y} - delta)|b> over all factors x, y
    of n slots and all bitstrings b, under the sign rule apply_word.

    Each factor x, a row of the table, is composed with itself and every
    later row y on all states at once, so each identity is checked once:
    ({x, y} - delta)|b> is c0|b> + c1|x y b> + c2|y x b> with integer
    amplitudes, and its squared norm is the integer sum_ij c_i c_j [t_i == t_j].
    A pure function of its arguments, so each sweep runs once per process;
    2 entries hold the 6- and 10-slot sweeps that verify runs."""
    states = np.arange(1 << n)
    target, sign = _factor_table(n, apply_word)
    worst = 0
    for x in range(2 * n):
        tx, sx = target[x], sign[x]
        ty, sy = target[x:], sign[x:]
        t1, c1 = tx.take(ty), sy * sx.take(ty)  # x y|b>: the rightmost factor acts first
        t2, c2 = ty.take(tx, axis=1), sx * sy.take(tx, axis=1)  # y x|b>
        square = c1 * c1 + c2 * c2 + 2 * c1 * c2 * (t1 == t2)
        if x < n:  # x = a_s, and a'_s, n rows on, has {a_s, a'_s} = 1: c0 = -1
            square[n] += 1 - 2 * (c1[n] * (t1[n] == states) + c2[n] * (t2[n] == states))
        worst = max(worst, int(square.max()))
    return worst


def check_car(cfg: LatticeConfig) -> CheckResult:
    """All pairwise anticommutator identities on every occupation basis state.

    For slots s, t checks {a_s, a'_t} = delta_st, {a_s, a_t} = 0 and
    {a'_s, a'_t} = 0 by explicit application to each basis state; the
    residual is the square root of _car_worst's largest squared norm.
    fock._apply_word is looked up at each call, so a replaced sign rule is a
    new cache key and gets a fresh sweep.
    """
    n = n_slots_for(cfg.n_max)
    worst = _car_worst(n, fock._apply_word)
    return _result("car_relations", math.sqrt(worst), detail=f"{n} slots, dim {1 << n}")


def check_hermiticity(cfg: LatticeConfig, f: TrigPoly) -> CheckResult:
    """coeff_distance(F, F') for F = smeared_charge(f): nonzero where one of f's
    c_{-n} sits off conj(c_n), as TrigPoly allows within its tolerance."""
    F = smeared_charge(f, cfg)
    return _result("hermiticity", coeff_distance(F, F.adjoint()))


def _commute_diagonal(h: np.ndarray, k: np.ndarray, rows: _Rows) -> np.ndarray:
    """Kernel of [A'diag(h)A, A'KA] on K's rows: (h_a - h_b) K[a,b], diag(h) @ K - K @ diag(h) without products."""
    return h[rows.slots, None] * k - k * h[None, :]


BLOCK_BYTES = 2**20  # the kernel identities are read in blocks of rows of about BLOCK_BYTES / 16 entries


def _largest_difference(cfg: LatticeConfig, identities) -> float:
    """Largest |K - G|, NaN if any is NaN, over the pairs (K, G) identities(rows) gives per block of
    rows: the bilinears' exact distance, as both sides have zero diagonals and so equal vacuum values."""
    n = n_slots_for(cfg.n_max)
    height = max(1, BLOCK_BYTES // (16 * n))
    blocks = (_Rows(cfg, start, start + height) for start in range(0, n, height))
    return _worst(np.abs(k - g).max() for rows in blocks for k, g in identities(rows))


def _pairwise(h: np.ndarray, rows: _Rows):
    """The per-mode-pair continuity identity on these rows, as a pair of kernels to subtract:

        u_a' [ (h_a - h_b) + (p_b - p_a) sigma_x ] u_b = 0,

    with h_a = E_a on electron slots and -E_a on positron slots, which makes the commutator
    of the Hamiltonian with the charge density equal i d/dz of the current for every z at once."""
    return _commute_diagonal(h, rows.sandwich(ID2), rows), _i_d_dz(rows.sandwich(SIGMA_X), rows)


def check_continuity(cfg: LatticeConfig, corrupt_sign: bool = False) -> CheckResult:
    """Operator-level continuity: [H, rho(z)] - i d/dz J(z) vanishes monomial-wise, read in one
    pass with the pairwise identity unless corrupt_sign is set.

    corrupt_sign is a negative-control hook: it flips the sign of the positron part of the
    Hamiltonian (a classic convention bug), which must make this check fail.
    """
    h = _split_hamiltonian_diagonal(cfg, 0.0)
    if corrupt_sign:
        h[_first_positron(cfg.n_max) :] *= -1

    def identities(rows):
        if not corrupt_sign:
            yield _pairwise(h, rows)
        rho, current = rows.sandwich(ID2) / cfg.box_length, rows.sandwich(SIGMA_X) / cfg.box_length
        yield _commute_diagonal(h, rho, rows), _i_d_dz(current, rows)

    return _result("continuity", _largest_difference(cfg, identities))


def _split_residual(cfg: LatticeConfig, eps_values, other_side) -> float:
    """[H_split(eps), rho] against other_side(eps, e(eps), rows) for every eps, rho built once per block.
    Each eps is paired with its diagonal and plane wave in a list: 0.0 and -0.0 would be one dict key."""
    per_eps = [(eps, _split_hamiltonian_diagonal(cfg, eps), _plane_wave(cfg, eps)) for eps in eps_values]

    def identities(rows):
        rho = rows.sandwich(ID2) / cfg.box_length
        return ((_commute_diagonal(h, rho, rows), other_side(eps, e, rows)) for eps, h, e in per_eps)

    return _largest_difference(cfg, identities)


def check_split_continuity(cfg: LatticeConfig, eps_values) -> CheckResult:
    """Defining relation for the corrected split current:

        [H_split(eps), rho(z)] = i d/dz J_corrected(z; eps)

    checked monomial by monomial for every eps, on the z-free kernels."""
    residual = _split_residual(cfg, eps_values, lambda eps, e, rows: _i_d_dz(_boulware_kernel(eps, e, rows), rows))
    return _result("split_continuity_defining_relation", residual)


def check_gradient_form(cfg: LatticeConfig, eps_values) -> CheckResult:
    """[H_split, rho(z)] against its point-shifted field-gradient expansion."""
    residual = _split_residual(cfg, eps_values, lambda eps, e, rows: _gradient_kernel(e, rows))
    return _result("split_commutator_gradient_form", residual)


def check_split_renormalization(cfg: LatticeConfig, eps_values) -> CheckResult:
    """Two independent normal orderings of the split Hamiltonian's one diagonal kernel agree:
    _bilinear's (split_hamiltonian) and the engine's, word by word, with the subtraction constant
    added back (split_hamiltonian_raw).  At eps = 0 there is nothing to compare: hamiltonian
    is split_hamiltonian at eps 0."""
    residuals = (coeff_distance(split_hamiltonian_raw(cfg, eps), split_hamiltonian(cfg, eps)) for eps in eps_values)
    return _result("split_hamiltonian_renormalization", _worst(residuals))


def check_split_current_consistency(cfg: LatticeConfig, eps_values) -> CheckResult:
    """The gamma-symmetrized split current's vacuum value vanishes; it reads only
    the N diagonal entries u_a' sigma_x u_a conj(e(+-eps))_a / L."""
    u = _mode_table(cfg).u
    diagonal = _sandwich_at(u, SIGMA_X, u) / cfg.box_length
    residuals = []
    for eps in eps_values:
        plus, minus = (diagonal * _plane_wave(cfg, g).conj() for g in (+eps, -eps))
        residuals.append(abs(0.5 * (_kernel_vev(plus, cfg) + _kernel_vev(minus, cfg))))
    return _result("split_current_consistency", _worst(residuals))


def check_vacuum_annihilation(cfg: LatticeConfig) -> CheckResult:
    """Every annihilator kills the empty state."""
    vac = fock.vacuum(cfg)
    worst = _worst(
        fock.apply_annihilate(fock.SlotIndex(species, j), vac).norm()
        for species in (fock.ELECTRON, fock.POSITRON)
        for j in cfg.mode_indices()
    )
    return _result("vacuum_annihilation", worst)


# The anticommutator sweep is exhaustive over the Fock basis, so it runs on a
# lattice capped at this n_max: the identities are per-slot and gain nothing
# from more modes.
CAR_MAX_N_MAX = 2


def run_verify_suite(cfg: LatticeConfig, eps_values, f: TrigPoly, corrupt_sign: bool = False) -> list[CheckResult]:
    """The full identity battery in a fixed order; check_car runs at n_max
    at most CAR_MAX_N_MAX, everything else uses cfg as given."""
    car_cfg = cfg if cfg.n_max <= CAR_MAX_N_MAX else LatticeConfig(cfg.mass, cfg.delta_p, CAR_MAX_N_MAX)
    return [
        check_dispersion(cfg),
        check_spinors(cfg),
        check_car(car_cfg),
        check_vacuum_annihilation(cfg),
        check_hermiticity(cfg, f),
        check_continuity(cfg, corrupt_sign=corrupt_sign),
        check_split_continuity(cfg, eps_values),
        check_gradient_form(cfg, eps_values),
        check_split_renormalization(cfg, eps_values),
        check_split_current_consistency(cfg, eps_values),
    ]
