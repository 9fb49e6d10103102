import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pointsplit.lattice import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    LatticeConfig,
    dispersion,
    mode_function,
    mode_overlap,
    spinor,
)

CFG = LatticeConfig(mass=1.0, delta_p=1.0, n_max=4)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(mass=0.0, delta_p=1.0, n_max=2)
    with pytest.raises(ValueError):
        LatticeConfig(mass=1.0, delta_p=-1.0, n_max=2)
    with pytest.raises(ValueError):
        LatticeConfig(mass=1.0, delta_p=1.0, n_max=0)
    for bad in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="n_max"):
            LatticeConfig(mass=1.0, delta_p=1.0, n_max=bad)


def test_config_rejects_a_cutoff_past_the_float_range():
    with pytest.raises(ValueError, match=r"n_max \* delta_p overflows to inf at delta_p=1e\+307, n_max=64"):
        LatticeConfig(mass=1.0, delta_p=1e307, n_max=64)
    # an integer n_max past the largest float, which n_max * delta_p cannot convert
    with pytest.raises(ValueError, match=r"n_max \* delta_p overflows to inf at delta_p=1e-300, n_max=1000"):
        LatticeConfig(mass=1.0, delta_p=1e-300, n_max=10**400)
    assert LatticeConfig(mass=1.0, delta_p=1e307, n_max=17).cutoff == 1.7e308


def test_config_accepts_numpy_integers():
    cfg = LatticeConfig(mass=1.0, delta_p=1.0, n_max=np.int64(3))
    assert cfg.n_max == 3 and type(cfg.n_max) is int


def test_config_derived_quantities():
    cfg = LatticeConfig(mass=2.0, delta_p=0.5, n_max=3)
    assert cfg.box_length == pytest.approx(4.0 * math.pi)
    assert cfg.cutoff == pytest.approx(1.5)
    assert cfg.n_modes == 7
    assert cfg.momentum(-3) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        cfg.momentum(4)


def test_dispersion_examples():
    assert dispersion(0.0, 1.0) == 1.0
    assert dispersion(4.0, 3.0) == 5.0  # 3-4-5 triple
    assert dispersion(-4.0, 3.0) == 5.0


@given(st.floats(-50, 50), st.floats(0.01, 10))
def test_dispersion_properties(p, m):
    e = dispersion(p, m)
    assert e >= m
    assert e == dispersion(-p, m)
    assert dispersion(abs(p) + 1.0, m) > e


def test_spinor_rest_frame():
    up = spinor(+1, 0, CFG)
    dn = spinor(-1, 0, CFG)
    assert np.allclose(up.u, [1.0, 0.0])
    assert np.allclose(dn.u, [0.0, 1.0])


def test_spinor_345_example():
    # p = 4, m = 3: normalizing (1, p/(E+m)) = (1, 1/2) gives (2, 1)/sqrt(5)
    cfg = LatticeConfig(mass=3.0, delta_p=1.0, n_max=4)
    sp = spinor(+1, 4, cfg)
    assert sp.energy == pytest.approx(5.0)
    assert np.allclose(sp.u, np.array([2.0, 1.0]) / math.sqrt(5.0), atol=1e-14)


@pytest.mark.parametrize("j", range(-4, 5))
@pytest.mark.parametrize("lam", [+1, -1])
def test_spinor_eigenvector_and_norm(lam, j):
    sp = spinor(lam, j, CFG)
    h = SIGMA_X * sp.p + SIGMA_Z * CFG.mass
    assert np.linalg.norm(h @ sp.u - lam * sp.energy * sp.u) < 1e-12
    assert abs(np.vdot(sp.u, sp.u) - 1.0) < 1e-12


@pytest.mark.parametrize("j", range(-4, 5))
def test_spinor_orthogonality_and_completeness(j):
    up = spinor(+1, j, CFG).u
    dn = spinor(-1, j, CFG).u
    assert abs(np.vdot(up, dn)) < 1e-12
    total = np.outer(up, up.conj()) + np.outer(dn, dn.conj())
    assert np.abs(total - ID2).max() < 1e-12


@pytest.mark.parametrize("j", [-4, -2, -1, 1, 3, 4])
def test_negative_spinor_phase_relation(j):
    # the regularized -1 column equals the textbook one times -sign(p) for p != 0
    sp = spinor(-1, j, CFG)
    p, e, m = sp.p, sp.energy, CFG.mass
    textbook = np.array([1.0, p / (-e + m)], dtype=complex) * math.sqrt((e - m) / (2.0 * e))
    assert np.allclose(sp.u, -math.copysign(1.0, p) * textbook, atol=1e-12)


def test_spinor_index_out_of_range():
    with pytest.raises(ValueError):
        spinor(+1, 5, CFG)
    with pytest.raises(ValueError):
        spinor(2, 0, CFG)


def test_mode_function_zero_momentum():
    val = mode_function(+1, 0, 1.234, CFG)
    assert np.allclose(val, np.array([1.0, 0.0]) / math.sqrt(CFG.box_length))


def test_mode_overlap_orthonormality():
    for j1 in (-2, 0, 1):
        for j2 in (-2, 0, 1):
            for l1 in (+1, -1):
                for l2 in (+1, -1):
                    expect = 1.0 if (j1, l1) == (j2, l2) else 0.0
                    assert abs(mode_overlap(l1, j1, l2, j2, CFG) - expect) < 1e-12


def test_mode_overlap_matches_quadrature():
    # periodic trapezoid rule is exact for harmonics resolved by the grid
    n_grid = 64
    zs = np.linspace(0.0, CFG.box_length, n_grid, endpoint=False)
    dz = CFG.box_length / n_grid
    for (l1, j1, l2, j2) in [(+1, 1, +1, 1), (+1, 1, -1, 1), (+1, 2, +1, -1), (-1, 3, -1, 3)]:
        vals = sum(
            np.vdot(mode_function(l1, j1, z, CFG), mode_function(l2, j2, z, CFG)) for z in zs
        ) * dz
        assert abs(vals - mode_overlap(l1, j1, l2, j2, CFG)) < 1e-12
