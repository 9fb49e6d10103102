"""Oracles that only the tests read.

_kernel_distance compares two bilinears exactly by their kernels, vacuum
values included: test_modeops holds it equal to coeff_distance of the
normal-ordered bilinears, and the dense routes in test_checks and
test_modeops compare whole kernels with it.
"""

import numpy as np

from pointsplit.lattice import LatticeConfig
from pointsplit.modeops import _kernel_vev, _worst


def _kernel_distance(k: np.ndarray, g: np.ndarray, cfg: LatticeConfig) -> float:
    """coeff_distance(_bilinear(_entries(k), cfg), _bilinear(_entries(g), cfg))
    exactly: each entry is one monomial's coefficient up to sign, plus the
    c-number.  np.hypot of the real and imaginary parts rounds as Python's
    complex abs in coeff_distance does; np.abs does not."""
    d = k - g
    vev_k, vev_g = (_kernel_vev(np.diagonal(x), cfg) for x in (k, g))
    return _worst([np.hypot(d.real, d.imag).max(), abs(vev_k - vev_g)])
