"""Oracles that only the tests read.

_kernel_distance compares two bilinears exactly by their kernels, vacuum
values included: test_modeops holds it equal to coeff_distance of the
normal-ordered bilinears, and the dense routes in test_checks and
test_modeops compare whole kernels with it.

TrigPoly is pointsplit's smearing function plus the evaluation and the
arithmetic (f(z), f', translates, sums, products, the box integral) that
the package itself never needs: the tests form the anomaly's integrals
through them and hold the package's closed forms to the results.
"""

import cmath

import numpy as np

from pointsplit import trigpoly
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


class TrigPoly(trigpoly.TrigPoly):
    """pointsplit.trigpoly.TrigPoly with the tests' evaluation and arithmetic; results are of this class."""

    def __call__(self, z: float) -> float:
        total = sum(c * cmath.exp(1j * self.wavenumber(n) * z) for n, c in self.coeffs.items())
        return total.real

    def derivative(self) -> "TrigPoly":
        return TrigPoly(self.length, {n: 1j * self.wavenumber(n) * c for n, c in self.coeffs.items()})

    def shifted(self, a: float) -> "TrigPoly":
        """The translate z -> f(z + a); still real."""
        return TrigPoly(
            self.length,
            {n: c * cmath.exp(1j * self.wavenumber(n) * a) for n, c in self.coeffs.items()},
        )

    def integral(self) -> float:
        """Exact integral over one period: L * c_0."""
        return (self.length * self.coeff(0)).real

    def __add__(self, other: trigpoly.TrigPoly) -> "TrigPoly":
        self._check_box(other)
        merged = dict(self.coeffs)
        for n, c in other.coeffs.items():
            merged[n] = merged.get(n, 0j) + c
        return TrigPoly(self.length, merged)

    def __sub__(self, other: trigpoly.TrigPoly) -> "TrigPoly":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, trigpoly.TrigPoly):
            self._check_box(other)
            prod: dict[int, complex] = {}
            for n1, c1 in self.coeffs.items():
                for n2, c2 in other.coeffs.items():
                    n = n1 + n2
                    prod[n] = prod.get(n, 0j) + c1 * c2
            return TrigPoly(self.length, prod)
        return TrigPoly(self.length, {n: other * c for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _check_box(self, other: trigpoly.TrigPoly) -> None:
        if abs(self.length - other.length) > 1e-12 * max(self.length, other.length):
            raise ValueError(f"box length mismatch: {self.length} vs {other.length}")
