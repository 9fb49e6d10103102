"""The verify suite's checks against the dense routes they replaced, and its contract.

check_hermiticity reads only F's hermiticity and check_split_current_consistency
only N diagonal entries per eps.  The dense routes below read every N x N kernel
the two checks used to read; what the slim checks leave out is exactly 0 by
construction (test_modeops holds the guarantees), so the results must agree bit
for bit.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pointsplit.checks import (
    TOL,
    _result,
    check_hermiticity,
    check_split_current_consistency,
    run_verify_suite,
)
from pointsplit.fock import n_slots_for
from pointsplit.lattice import ID2, SIGMA_X, LatticeConfig
from pointsplit.modeops import (
    _boulware_kernel,
    _field_kernel,
    _kernel_distance,
    _kernel_vev,
    _sandwich_of_bytes,
    _smeared_kernel,
    _split_hamiltonian_diagonal,
    _worst,
)
from pointsplit.trigpoly import TrigPoly

LATTICES = st.builds(
    LatticeConfig,
    mass=st.floats(0.05, 5.0) | st.sampled_from([1, 2, 1e10]),
    delta_p=st.floats(0.1, 3.0) | st.sampled_from([0.25, 1, 16]),
    n_max=st.integers(1, 8),
)
EPS_VALUES = st.lists(st.floats(-3.0, 3.0) | st.just(0.0), min_size=1, max_size=3)


def dense_hermiticity(cfg: LatticeConfig, eps_values, f: TrigPoly):
    """Every kernel the check used to read: the split Hamiltonians at 0 and each
    eps as np.diag matrices, rho's kernel and F's band scattered into a dense one."""
    rows, cols, values = _smeared_kernel(f, cfg)
    smeared = np.zeros((n_slots_for(cfg.n_max),) * 2, dtype=complex)
    smeared[rows, cols] = values
    kernels = [np.diag(_split_hamiltonian_diagonal(cfg, eps)) for eps in (0.0, *eps_values)]
    kernels += [_field_kernel(0.0, ID2, cfg), smeared]
    residuals = [_kernel_distance(k, k.conj().T, cfg) for k in kernels]
    return _result("hermiticity", _worst(residuals), TOL["hermiticity"])


def dense_split_current_consistency(cfg: LatticeConfig, eps_values):
    """The eps = 0 comparison of the corrected and unsplit current kernels, and
    the vacuum values off the full kernels psi'(z +- eps) sigma_x psi(z)."""
    residuals = [_kernel_distance(_boulware_kernel(0.0, cfg), _field_kernel(0.0, SIGMA_X, cfg), cfg)]
    for eps in eps_values:
        plus, minus = _field_kernel(+eps, SIGMA_X, cfg), _field_kernel(-eps, SIGMA_X, cfg)
        residuals.append(abs(0.5 * (_kernel_vev(np.diagonal(plus), cfg) + _kernel_vev(np.diagonal(minus), cfg))))
    return _result("split_current_consistency", _worst(residuals), TOL["split_current_consistency"])


@st.composite
def _lattices_and_skewed_smearings(draw):
    """A lattice and a TrigPoly on its box whose c_{-n} sits off conj(c_n) by
    1e-13 to 5e-13 in its real part and up to 5e-13 in its imaginary part,
    inside TrigPoly's 1e-12 symmetry tolerance, so F's hermiticity residual
    reads nonzero; c_0 may carry an imaginary part as well."""
    cfg = draw(LATTICES)
    skew, amplitude = st.floats(-5e-13, 5e-13), st.floats(-1.0, 1.0)
    coeffs = {0: complex(draw(amplitude), draw(skew))}
    for n in draw(st.sets(st.integers(1, 2 * cfg.n_max), min_size=1, max_size=3)):
        c = complex(draw(amplitude), draw(amplitude))
        off = draw(st.floats(1e-13, 5e-13)) * draw(st.sampled_from([-1, 1]))
        coeffs[n], coeffs[-n] = c, c.conjugate() + complex(off, draw(skew))
    return cfg, TrigPoly(cfg.box_length, coeffs)


SKEWED = (
    LatticeConfig(0.7, 1.3, 4),
    TrigPoly(2 * math.pi / 1.3, {
        0: 0.2 + 3e-13j, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j + 4e-13, 3: -0.1j, -3: 0.1j - 5e-13j
    }),
)


@given(_lattices_and_skewed_smearings(), EPS_VALUES)
@example(SKEWED, [0.3, 0.9])
@settings(max_examples=150, deadline=None)
def test_hermiticity_equals_the_dense_route_bit_for_bit(case, eps_values):
    cfg, f = case
    slim = check_hermiticity(cfg, f)
    assert slim == dense_hermiticity(cfg, eps_values, f)
    assert slim.residual > 0  # the skew shows, so the routes agree on more than zeros


@given(LATTICES, EPS_VALUES)
@example(LatticeConfig(1.0, 16.0, 32), [0.3, 0.9])
@example(LatticeConfig(1e10, 1.0, 3), [0.3])
@settings(max_examples=150, deadline=None)
def test_split_current_consistency_equals_the_dense_route_bit_for_bit(cfg, eps_values):
    assert check_split_current_consistency(cfg, eps_values) == dense_split_current_consistency(cfg, eps_values)


def test_slim_checks_build_no_dense_kernel():
    """At n_max 512 (N = 2050) one dense float64 sandwich alone is 32 MiB; with the
    sandwich cache empty, each check must stay far below that."""
    cfg = LatticeConfig(1.0, 1.0, 512)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    for check in (lambda: check_hermiticity(cfg, f), lambda: check_split_current_consistency(cfg, [0.3, 0.9])):
        _sandwich_of_bytes.cache_clear()
        tracemalloc.start()
        try:
            result = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 16 * 2**20, f"{result.name} peaked at {peak / 2**20:.1f} MiB"


def _benchmark_verify_checks() -> set:
    """perfbench.validate.VERIFY_CHECKS, loaded from its file without importing the benchmark as a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "validate.py"
    spec = importlib.util.spec_from_file_location("_perfbench_validate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VERIFY_CHECKS


def test_verify_suite_reports_exactly_the_tolerance_table_in_order():
    cfg = LatticeConfig(1.0, 1.0, 2)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    names = [r.name for r in run_verify_suite(cfg, [0.3, 0.9], f)]
    assert names == list(TOL)
    assert set(names) == _benchmark_verify_checks()
