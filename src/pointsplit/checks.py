"""Machine-checkable identity suites shared by the CLI and the test suite.

Each check returns a CheckResult carrying the worst residual it saw; a
check passes when that residual stays below its tolerance.  The suites
cover the algebraic backbone: anticommutation relations on every basis
state, spinor eigenvector/completeness identities, hermiticity of the
built operators, the continuity identity for the unsplit theory, and the
split-Hamiltonian analogs (defining relation for the corrected current,
gradient form of the commutator, renormalization-constant bookkeeping).

Every commutator here is one of two fermion bilinears, so the checks take it
on the single-particle kernels, [A'KA, A'GA] = A'[K,G]A
(modeops.bilinear_commutator); the general normal-ordering engine is the
oracle the tests hold that route to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import POSITRON, SlotIndex, n_slots_for
from .lattice import ID2, SIGMA_X, SIGMA_Z, LatticeConfig, dispersion, spinor
from .modeops import (
    ModeOperator,
    _worst,
    bilinear_commutator,
    boulware_current,
    charge_commutator_gradient_form,
    charge_density,
    coeff_distance,
    current_density,
    hamiltonian,
    smeared_charge,
    split_current,
    split_hamiltonian,
    split_hamiltonian_raw,
    vev,
)
from .trigpoly import TrigPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=residual <= tol, residual=float(residual), tolerance=tol, detail=detail)


def check_dispersion(cfg: LatticeConfig, tol: float = 1e-12) -> CheckResult:
    """Evenness, monotonicity in |p| and the >= m floor of the dispersion."""
    residuals = []
    prev = cfg.mass
    for j in range(0, cfg.n_max + 1):
        p = cfg.momentum(j)
        e = dispersion(p, cfg.mass)
        residuals.append(abs(e - dispersion(-p, cfg.mass)))
        if e < prev - tol or e < cfg.mass - tol:
            residuals.append(abs(min(e - prev, e - cfg.mass)))
        prev = e
    return _result("dispersion_properties", _worst(residuals), tol)


def check_spinors(cfg: LatticeConfig, tol: float = 1e-12) -> CheckResult:
    """Eigenvector residual, normalization, orthogonality and completeness per mode."""
    residuals = []
    for j in cfg.mode_indices():
        p = cfg.momentum(j)
        h = SIGMA_X * p + SIGMA_Z * cfg.mass
        total = np.zeros((2, 2), dtype=complex)
        us = {}
        for lam in (+1, -1):
            sp = spinor(lam, j, cfg)
            us[lam] = sp.u
            residuals.append(float(np.linalg.norm(h @ sp.u - lam * sp.energy * sp.u)))
            residuals.append(abs(float(np.vdot(sp.u, sp.u).real) - 1.0))
            total += np.outer(sp.u, sp.u.conj())
        residuals.append(abs(complex(np.vdot(us[+1], us[-1]))))
        residuals.append(float(np.abs(total - ID2).max()))
    return _result("spinor_identities", _worst(residuals), tol)


def _signed_table(word, n: int):
    """One factor on every bitstring, through fock's one sign rule: the
    target bitstrings and the signs, 0 where the factor meets its slot in
    the wrong state (the target then stays put)."""
    hits = [fock._apply_word(*word, bits) for bits in range(1 << n)]
    target = np.array([hit[0] if hit else bits for bits, hit in enumerate(hits)])
    sign = np.array([(-1) ** hit[1] if hit else 0 for hit in hits])
    return target, sign


def check_car(cfg: LatticeConfig, tol: float = 1e-12) -> CheckResult:
    """All pairwise anticommutator identities on every occupation basis state.

    For slots s, t checks {a_s, a'_t} = delta_st, {a_s, a_t} = 0 and
    {a'_s, a'_t} = 0 by explicit application to each basis state: per-slot
    sign tables are composed so that one identity covers all states at once.
    """
    n = n_slots_for(cfg.n_max)
    states = np.arange(1 << n)
    ann = [_signed_table(((), (s,)), n) for s in range(n)]
    cre = [_signed_table(((s,), ()), n) for s in range(n)]

    def worst_norm(x, y, delta: int) -> float:
        """Largest norm of ({x, y} - delta)|bits> over all bitstrings; the
        rightmost factor acts first and every amplitude is an integer."""
        (tx, sx), (ty, sy) = x, y
        parts = [(states, -delta), (tx[ty], sy * sx[ty]), (ty[tx], sx * sy[tx])]
        # |sum_i c_i |t_i>|^2 = sum_ij c_i c_j [t_i == t_j]
        square = sum(ci * cj * (ti == tj) for ti, ci in parts for tj, cj in parts)
        return float(np.sqrt(square).max())

    def residuals():
        for s in range(n):
            for t in range(n):
                yield worst_norm(ann[s], cre[t], 1 if s == t else 0)
                if t <= s:
                    yield worst_norm(ann[s], ann[t], 0)
                    yield worst_norm(cre[s], cre[t], 0)

    return _result("car_relations", _worst(residuals()), tol, detail=f"{n} slots, dim {1 << n}")


def check_hermiticity(
    cfg: LatticeConfig, eps_values, z_values, f: TrigPoly | None = None, tol: float = 1e-12
) -> CheckResult:
    """Hermiticity of the Hamiltonians, charge density and smeared charge."""
    ops: list[ModeOperator] = [hamiltonian(cfg)]
    for eps in eps_values:
        ops.append(split_hamiltonian(cfg, eps))
    for z in z_values:
        ops.append(charge_density(z, cfg))
    if f is not None:
        ops.append(smeared_charge(f, cfg))
    return _result("hermiticity", _worst(coeff_distance(op, op.adjoint()) for op in ops), tol)


def continuity_pairwise_residual(cfg: LatticeConfig) -> float:
    """Largest residual of the per-mode-pair continuity identity

        u_a' [ (lam_a E_a - lam_b E_b) + (p_b - p_a) sigma_x ] u_b = 0,

    which makes the commutator of the Hamiltonian with the charge density
    equal i d/dz of the current for every z at once."""
    residuals = []
    modes = [(lam, j) for lam in (+1, -1) for j in cfg.mode_indices()]
    for lam_a, ja in modes:
        sa = spinor(lam_a, ja, cfg)
        for lam_b, jb in modes:
            sb = spinor(lam_b, jb, cfg)
            mat = (lam_a * sa.energy - lam_b * sb.energy) * ID2 + (sb.p - sa.p) * SIGMA_X
            residuals.append(abs(complex(np.vdot(sa.u, mat @ sb.u))))
    return _worst(residuals)


def check_continuity(
    cfg: LatticeConfig, z_values, tol: float = 1e-12, corrupt_sign: bool = False
) -> CheckResult:
    """Operator-level continuity: [H, rho(z)] - i d/dz J(z) vanishes monomial-wise.

    corrupt_sign is a negative-control hook: it flips the sign of the
    positron part of the Hamiltonian (a classic convention bug), which must
    make this check fail.
    """
    h = hamiltonian(cfg)
    if corrupt_sign:
        terms = dict(h.terms)
        for j in cfg.mode_indices():
            slot = SlotIndex(POSITRON, j).linear(cfg.n_max)
            terms[((slot,), (slot,))] = -terms[((slot,), (slot,))]
        h = ModeOperator(h.n_slots, terms)
    residuals = [continuity_pairwise_residual(cfg) if not corrupt_sign else 0.0]
    for z in z_values:
        lhs = bilinear_commutator(h, charge_density(z, cfg), cfg)
        residuals.append(coeff_distance(lhs, 1j * current_density(z, cfg, dz=True)))
    return _result("continuity", _worst(residuals), tol)


def check_split_continuity(cfg: LatticeConfig, eps_values, z_values, tol: float = 1e-10) -> CheckResult:
    """Defining relation for the corrected split current:

        [H_split(eps), rho(z)] = i d/dz J_corrected(z; eps)

    checked monomial by monomial for every (eps, z) pair."""
    residuals = []
    for eps in eps_values:
        h = split_hamiltonian(cfg, eps)
        for z in z_values:
            lhs = bilinear_commutator(h, charge_density(z, cfg), cfg)
            residuals.append(coeff_distance(lhs, 1j * boulware_current(z, eps, cfg, dz=True)))
    return _result("split_continuity_defining_relation", _worst(residuals), tol)


def check_gradient_form(cfg: LatticeConfig, eps_values, z_values, tol: float = 1e-10) -> CheckResult:
    """[H_split, rho(z)] against its point-shifted field-gradient expansion."""
    residuals = []
    for eps in eps_values:
        h = split_hamiltonian(cfg, eps)
        for z in z_values:
            lhs = bilinear_commutator(h, charge_density(z, cfg), cfg)
            residuals.append(coeff_distance(lhs, charge_commutator_gradient_form(z, eps, cfg)))
    return _result("split_commutator_gradient_form", _worst(residuals), tol)


def check_split_renormalization(cfg: LatticeConfig, eps_values, tol: float = 1e-10) -> CheckResult:
    """Raw (pre-normal-ordered) split Hamiltonian plus its subtraction constant
    equals the diagonal form; at eps = 0 both reduce to the unsplit one."""
    residuals = [coeff_distance(split_hamiltonian(cfg, 0.0), hamiltonian(cfg))]
    for eps in eps_values:
        residuals.append(coeff_distance(split_hamiltonian_raw(cfg, eps), split_hamiltonian(cfg, eps)))
    return _result("split_hamiltonian_renormalization", _worst(residuals), tol)


def check_split_current_consistency(cfg: LatticeConfig, eps_values, z_values, tol: float = 1e-12) -> CheckResult:
    """Split current sanity: gamma-symmetrized vacuum value vanishes, the
    eps = 0 reduction matches the unsplit current, and so does the corrected
    current at eps = 0."""
    residuals = []
    for z in z_values:
        plain = current_density(z, cfg)
        residuals.append(coeff_distance(split_current(z, 0.0, cfg), plain))
        residuals.append(coeff_distance(boulware_current(z, 0.0, cfg), plain))
        for eps in eps_values:
            residuals.append(abs(vev(split_current(z, eps, cfg))))
    return _result("split_current_consistency", _worst(residuals), tol)


def check_vacuum_annihilation(cfg: LatticeConfig, tol: float = 1e-12) -> CheckResult:
    """Every annihilator kills the empty state."""
    vac = fock.vacuum(cfg)
    worst = _worst(
        fock.apply_annihilate(fock.SlotIndex(species, j), vac).norm()
        for species in (fock.ELECTRON, fock.POSITRON)
        for j in cfg.mode_indices()
    )
    return _result("vacuum_annihilation", worst, tol)


def default_z_values(count: int = 5, seed: int = 20260808) -> list[float]:
    """Deterministic pseudo-random positions in [0, 2*pi)."""
    rng = np.random.default_rng(seed)
    return [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, count)]


# The anticommutator sweep is exhaustive over the Fock basis, so it runs on a
# lattice capped at this n_max: the identities are per-slot and gain nothing
# from more modes.
CAR_MAX_N_MAX = 2


def run_verify_suite(
    cfg: LatticeConfig,
    eps_values,
    f: TrigPoly | None = None,
    corrupt_sign: bool = False,
) -> list[CheckResult]:
    """The full identity battery in a fixed order; check_car runs at n_max
    at most CAR_MAX_N_MAX, everything else uses cfg as given."""
    car_cfg = cfg if cfg.n_max <= CAR_MAX_N_MAX else LatticeConfig(cfg.mass, cfg.delta_p, CAR_MAX_N_MAX)
    zs = default_z_values()
    results = [
        check_dispersion(cfg),
        check_spinors(cfg),
        check_car(car_cfg),
        check_vacuum_annihilation(cfg),
        check_hermiticity(cfg, eps_values, zs, f=f),
        check_continuity(cfg, zs, corrupt_sign=corrupt_sign),
        check_split_continuity(cfg, eps_values, zs),
        check_gradient_form(cfg, eps_values, zs),
        check_split_renormalization(cfg, eps_values),
        check_split_current_consistency(cfg, eps_values, zs),
    ]
    return results
