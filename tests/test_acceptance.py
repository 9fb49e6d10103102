"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line so `pytest -v -s tests/test_acceptance.py`
reads as a checklist.  Tolerances are fixed here, not tuned elsewhere.
"""

import json
import math
import time

import numpy as np

from pointsplit.anomaly import (
    double_commutator_direct,
    double_commutator_spectral,
    finite_difference_limit,
    kernel_asymptote,
    split_commutator_integral,
)
from pointsplit.checks import check_car
from pointsplit.cli import main as cli_main
from pointsplit.fock import ELECTRON, POSITRON, n_slots_for
from pointsplit.groundstate import (
    _mask,
    excitation_energy,
    ground_state_bruteforce,
    redefined_vacuum,
    redefined_vacuum_energy,
    split_spectrum,
)
from pointsplit.lattice import LatticeConfig, dispersion
from pointsplit.modeops import (
    boulware_current,
    charge_commutator_gradient_form,
    charge_density,
    coeff_distance,
    commutator,
    current_density,
    hamiltonian,
    smeared_kernel,
    split_hamiltonian,
)
from pointsplit.symbolic import formal_smeared_commutator
from pointsplit.trigpoly import TrigPoly

from oracles import continuity_pairwise_residual

RNG_SEED = 20260808


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_car_suite():
    cfg = LatticeConfig(1.0, 1.0, 2)
    assert n_slots_for(cfg.n_max) == 10
    start = time.perf_counter()
    res = check_car(cfg)
    elapsed = time.perf_counter() - start
    ok = res.passed and res.tolerance == 1e-12 and elapsed < 10.0
    report(1, "anticommutators on all 1024 basis states", ok,
           f"max residual {res.residual:.3e} (tol 1e-12), {elapsed:.2f}s (< 10s)")


def test_criterion_02_free_spectrum_minimum():
    cfg = LatticeConfig(1.0, 1.0, 2)
    h = hamiltonian(cfg)
    n = n_slots_for(cfg.n_max)
    weights = np.array([h.coefficient(((s,), (s,))).real for s in range(n)])
    bits = np.arange(1 << n, dtype=np.int64)
    energies = np.zeros(len(bits))
    for s in range(n):
        energies += weights[s] * ((bits >> s) & 1)
    unique_zero = energies.min() == 0.0 and int((energies == 0.0).sum()) == 1
    positive_rest = bool((energies[1:] > 0).all())
    report(2, "free Hamiltonian minimum", unique_zero and positive_rest,
           f"min {energies.min()!r} attained {int((energies == 0.0).sum())} time(s), rest > 0: {positive_rest}")


def test_criterion_03_continuity():
    cfg = LatticeConfig(1.0, 1.0, 4)
    rng = np.random.default_rng(RNG_SEED)
    worst = continuity_pairwise_residual(cfg)
    for z in rng.uniform(0.0, cfg.box_length, 5):
        lhs = commutator(hamiltonian(cfg), charge_density(float(z), cfg))
        rhs = 1j * current_density(float(z), cfg, dz=True)
        worst = max(worst, coeff_distance(lhs, rhs))
    report(3, "continuity identity", worst < 1e-12, f"worst residual {worst:.3e} over 5 random z (tol 1e-12)")


def test_criterion_04_anomaly_juxtaposition():
    start = time.perf_counter()
    cfg = LatticeConfig(1.0, 1.0, 2)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    formal = formal_smeared_commutator(split=False)
    kernel = smeared_kernel(f, cfg)
    direct = double_commutator_direct(kernel, cfg)
    spectral = double_commutator_spectral(kernel, cfg)
    elapsed = time.perf_counter() - start
    agree = abs(direct - spectral) <= 1e-10 * max(abs(direct), abs(spectral))
    ok = formal.is_zero() and direct > 0 and agree and elapsed < 5.0
    report(4, "formal zero vs exact positive", ok,
           f"formal zero: {formal.is_zero()}, direct {direct!r} == spectral {spectral!r} (rel 1e-10), {elapsed:.2f}s")


def test_criterion_05_pointsplit_reconciliation():
    cfg = LatticeConfig(1.0, 1.0, 60)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    assert cfg.cutoff * 0.1 > math.pi and cfg.mass * 0.1 < 0.2
    value = split_commutator_integral(f, 0.1, cfg)[0]
    exact = double_commutator_direct(smeared_kernel(f, cfg), cfg)
    ok = value > 0 and exact > 0
    report(5, "split current gives the exact sign", ok,
           f"split evaluation {value!r} > 0, exact {exact!r} > 0 (same sign)")


def test_criterion_06_kernel_asymptote():
    start = time.perf_counter()
    scaled = {eps: eps * kernel_asymptote(eps, m=1.0)[3] for eps in (0.1, 0.05, 0.01)}
    elapsed = time.perf_counter() - start
    in_window = 0.95 <= scaled[0.01] <= 1.05
    gaps = [abs(1.0 - scaled[eps]) for eps in (0.1, 0.05, 0.01)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    ok = in_window and monotone and elapsed < 5.0
    report(6, "kernel principal-value asymptote", ok,
           f"eps*value at 0.01: {scaled[0.01]:.6f} in [0.95, 1.05], gaps {[f'{g:.2e}' for g in gaps]} monotone, {elapsed:.2f}s")


def test_criterion_07_continuum_limit_rate():
    cfg = LatticeConfig(1.0, 1.0, 2)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    errors = []
    for eps in (0.1, 0.05):
        fd, limit = finite_difference_limit(f, eps, split_commutator_integral(f, eps, cfg)[2])
        errors.append(abs(fd - limit))
    ratio = errors[0] / errors[1]
    ok = abs(ratio - 4.0) <= 0.15 * 4.0
    report(7, "finite difference converges at second order", ok,
           f"error ratio eps 0.1/0.05 = {ratio:.4f} (4 within 15%)")


def test_criterion_08_split_excitation_energies():
    cfg = LatticeConfig(1.0, 1.0, 3)
    worst = 0.0
    sign_ok = True
    for eps in (0.0, 0.5, 2.0):
        for q in cfg.mode_indices():
            expected = dispersion(cfg.momentum(q), cfg.mass) * math.cos(cfg.momentum(q) * eps)
            for species in (ELECTRON, POSITRON):
                got = excitation_energy(q, species, eps, cfg)
                worst = max(worst, abs(got - expected))
                phase = abs(cfg.momentum(q) * eps)
                if math.pi / 2 < phase < 3 * math.pi / 2 and got >= 0:
                    sign_ok = False
    ok = worst < 1e-12 and sign_ok
    report(8, "split excitation energies", ok,
           f"worst |got - E cos(p eps)| = {worst:.3e} (tol 1e-12), negativity in (pi/2, 3pi/2): {sign_ok}")


def test_criterion_09_corrected_current_defining_relation():
    cfg = LatticeConfig(1.0, 1.0, 3)
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for eps in (0.3, 1.7):
        h = split_hamiltonian(cfg, eps)
        for z in rng.uniform(0.0, cfg.box_length, 3):
            lhs = commutator(h, charge_density(float(z), cfg))
            worst = max(worst, coeff_distance(lhs, 1j * boulware_current(float(z), eps, cfg, dz=True)))
            worst = max(worst, coeff_distance(lhs, charge_commutator_gradient_form(float(z), eps, cfg)))
    report(9, "split continuity with corrected current", worst < 1e-10,
           f"worst per-monomial residual {worst:.3e} over eps in (0.3, 1.7), 3 random z (tol 1e-10)")


def test_criterion_10_redefined_vacuum():
    cfg = LatticeConfig(1.0, 1.0, 3)
    start = time.perf_counter()
    rep = ground_state_bruteforce(2.0, cfg)
    elapsed = time.perf_counter() - start
    expected = 4.0 * (math.sqrt(2.0) * math.cos(2.0) + math.sqrt(5.0) * math.cos(4.0))
    spectrum = split_spectrum(2.0, cfg)
    (bits,) = redefined_vacuum(spectrum).amp
    ok = (
        abs(rep.energy - expected) < 1e-10
        and abs(rep.energy - redefined_vacuum_energy(spectrum)) < 1e-10
        and rep.degeneracy == 1
        and bits == _mask(spectrum.negative_modes, cfg.n_max)
        and rep.energy < 0.0
        and elapsed < 30.0
    )
    report(10, "redefined vacuum is the unique ground state", ok,
           f"min {rep.energy!r} == 4(sqrt2 cos2 + sqrt5 cos4) = {expected!r}, degeneracy {rep.degeneracy}, {elapsed:.2f}s")


def test_criterion_11_deterministic_reports(tmp_path):
    args = ["anomaly", "--f-harmonic", "1:0.5:0", "--eps", "0.1", "--eps", "0.05"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # well-formed
    report(11, "byte-identical reports for identical config", same,
           f"two runs produced identical {len(a.read_bytes())}-byte JSON: {same}")
