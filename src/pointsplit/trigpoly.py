"""Real trigonometric polynomials on the periodic box.

Smearing functions are restricted to finitely many box harmonics,

    f(z) = sum_n c_n exp(2*pi*i*n*z / L),   c_{-n} = conj(c_n),

so that every spatial integral used elsewhere (products, derivatives,
shifted arguments) is an exact finite sum over the coefficients instead of
a quadrature.  The package reads f through its coefficients alone; the
tests' oracles evaluate and combine TrigPolys (tests/oracles.py).
"""

from __future__ import annotations

import cmath
import math

_SYMMETRY_TOL = 1e-12


class TrigPoly:
    """Finite real harmonic sum on a box of length L."""

    def __init__(self, length: float, coeffs: dict[int, complex]):
        if not length > 0:
            raise ValueError(f"box length must be positive, got {length}")
        cleaned = {int(n): complex(c) for n, c in coeffs.items() if c != 0}
        for n, c in cleaned.items():
            if not cmath.isfinite(c):
                raise ValueError(f"harmonic {n} must be finite, got {c}")
        for n, c in cleaned.items():
            mirror = cleaned.get(-n, 0.0 + 0.0j)
            if abs(mirror - c.conjugate()) > _SYMMETRY_TOL:
                raise ValueError(
                    f"harmonic {n} breaks conjugate symmetry: c[{-n}]={mirror}, conj(c[{n}])={c.conjugate()}"
                )
        self.length = float(length)
        self.coeffs = cleaned

    @classmethod
    def from_harmonics(cls, length: float, harmonics) -> "TrigPoly":
        """Build from (n, re, im) triples with n >= 0; negative harmonics mirrored.

        The entry (n, re, im) contributes (re + i*im) exp(i k_n z) plus its
        conjugate at -n, so from_harmonics(L, [(1, 0.5, 0)]) is cos(2*pi*z/L).
        """
        coeffs: dict[int, complex] = {}
        for n, re, im in harmonics:
            if n < 0:
                raise ValueError(f"harmonic index must be >= 0, got {n}")
            c = complex(re, im)
            if n == 0:
                if im != 0:
                    raise ValueError("constant harmonic must be real")
                coeffs[0] = coeffs.get(0, 0j) + c
            else:
                coeffs[n] = coeffs.get(n, 0j) + c
                coeffs[-n] = coeffs.get(-n, 0j) + c.conjugate()
        return cls(length, coeffs)

    def wavenumber(self, n: int) -> float:
        return 2.0 * math.pi * n / self.length

    def coeff(self, n: int) -> complex:
        return self.coeffs.get(n, 0.0 + 0.0j)

    @property
    def max_harmonic(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def check_on_lattice(self, cfg) -> None:
        """ValueError unless f lives on the lattice's box and every harmonic is
        a momentum transfer the grid can carry (|n| <= 2*n_max)."""
        if abs(self.length - cfg.box_length) > 1e-9 * cfg.box_length:
            raise ValueError(f"smearing box {self.length} does not match lattice box {cfg.box_length}")
        if self.max_harmonic > 2 * cfg.n_max:
            raise ValueError(
                f"harmonic {self.max_harmonic} out of range for n_max={cfg.n_max} (limit {2 * cfg.n_max})"
            )

    def derivative_power(self) -> float:
        """Exact integral of f'(z)^2 over one period (Parseval)."""
        # the constant harmonic adds an exact +0.0, however large its coefficient
        return self.length * sum(self.wavenumber(n) ** 2 * abs(c) ** 2 for n, c in self.coeffs.items() if n)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}: {c}" for n, c in sorted(self.coeffs.items()))
        return f"TrigPoly(L={self.length}, {{{parts}}})"
