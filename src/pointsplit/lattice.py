"""Discretized 1+1D free-fermion model: momentum grid, dispersion, spinors.

Everything downstream lives on a periodic box of length L = 2*pi/delta_p
with plane waves exp(i*p_j*z)/sqrt(L), where p_j = j*delta_p for
j = -n_max .. +n_max (the p = 0 mode is kept; its energy is m > 0).
With this normalization every spatial integral of a box harmonic over
[0, L] is exact, so the operator identities checked by the rest of the
package carry no quadrature error at all.

Spinors are two-component eigenvectors of the single-particle operator

    h(p) = sigma_x * p + sigma_z * m

with eigenvalue lam * E_p, E_p = +sqrt(p^2 + m^2) and lam = +-1 the sign
of the energy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class LatticeConfig:
    """Finite momentum-space model: mass, grid spacing and cutoff index.

    mass     -- fermion mass m > 0, finite (energy units)
    delta_p  -- momentum spacing between adjacent modes, > 0 and finite
    n_max    -- largest mode index; modes are j = -n_max .. +n_max, n_max * delta_p finite
    """

    mass: float
    delta_p: float
    n_max: int

    def __post_init__(self):
        try:  # any integer type, numpy's included; never a bool, a float or a string
            if isinstance(self.n_max, bool):
                raise TypeError
            object.__setattr__(self, "n_max", operator.index(self.n_max))
        except TypeError:
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}") from None
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.delta_p < math.inf:
            raise ValueError(f"delta_p must be positive and finite, got {self.delta_p}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        try:
            cutoff = self.cutoff
        except OverflowError:  # an integer n_max past the largest float
            cutoff = math.inf
        if cutoff == math.inf:
            raise ValueError(f"the cutoff n_max * delta_p overflows to inf at delta_p={self.delta_p}, n_max={self.n_max}")

    @property
    def box_length(self) -> float:
        """Period L of the spatial box, L = 2*pi/delta_p."""
        return 2.0 * math.pi / self.delta_p

    @property
    def cutoff(self) -> float:
        """Largest momentum on the grid, n_max * delta_p."""
        return self.n_max * self.delta_p

    def check_phase(self, eps: float) -> None:
        """ValueError, as math.cos would raise, unless every phase p_j * eps is finite; the largest
        is cutoff * |eps|."""
        if math.isinf(self.cutoff * eps):
            raise ValueError(
                f"the phase p * eps leaves the float range at eps={eps!r}, delta_p={self.delta_p}, n_max={self.n_max}"
            )

    @property
    def n_modes(self) -> int:
        """Number of modes per species, 2*n_max + 1."""
        return 2 * self.n_max + 1

    def momentum(self, j: int) -> float:
        if abs(j) > self.n_max:
            raise ValueError(f"mode index {j} out of range [-{self.n_max}, {self.n_max}]")
        return j * self.delta_p

    def mode_indices(self) -> range:
        return range(-self.n_max, self.n_max + 1)


def dispersion(p: float, m: float) -> float:
    """Single-particle energy +sqrt(p^2 + m^2); even in p and >= m."""
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    return math.hypot(p, m)


@dataclass(frozen=True)
class ModeSpinor:
    """One (lam, p) mode: energy, momentum and its unit spinor.

    Satisfies (sigma_x*p + sigma_z*m) u = lam * energy * u with u'u = 1.
    """

    lam: int
    j: int
    p: float
    energy: float
    u: np.ndarray


def spinor(lam: int, j: int, cfg: LatticeConfig) -> ModeSpinor:
    """Unit-normalized energy eigenspinor for mode j and energy sign lam.

    For lam = +1 this is the textbook column (1, p/(E+m)) normalized to
    one.  For lam = -1 the rationalized column (-p/(E+m), 1) is used: it
    is finite at p = 0 and differs from the textbook -1 column only by
    the momentum-sign phase -sign(p), a per-mode canonical phase that no
    quantity computed in this package can see.
    """
    if lam not in (+1, -1):
        raise ValueError(f"energy sign must be +1 or -1, got {lam}")
    p = cfg.momentum(j)
    energy = dispersion(p, cfg.mass)
    norm, w_norm = _spinor_components(p, energy, cfg.mass)
    u = np.array([norm, w_norm] if lam == +1 else [-w_norm, norm], dtype=complex)
    return ModeSpinor(lam=lam, j=j, p=p, energy=energy, u=u)


def _spinor_components(p, energy, m):
    """(norm, w * norm) with norm = sqrt((E + m)/(2E)) and w = p/(E + m), for floats or for arrays
    over modes alike: the lam = +1 spinor is (norm, w * norm) and the lam = -1 one (-w * norm, norm)."""
    norm = np.sqrt((energy + m) / (2.0 * energy))
    return norm, p / (energy + m) * norm


def mode_function(lam: int, j: int, z: float, cfg: LatticeConfig) -> np.ndarray:
    """Plane-wave mode u_{lam,p_j} * exp(i p_j z) / sqrt(L) at position z."""
    sp = spinor(lam, j, cfg)
    phase = np.exp(1j * sp.p * z) / math.sqrt(cfg.box_length)
    return sp.u * phase


def mode_overlap(lam1: int, j1: int, lam2: int, j2: int, cfg: LatticeConfig) -> complex:
    """Exact box integral of mode_function(lam1,j1)' . mode_function(lam2,j2).

    The z-integral of exp(i(p_j2 - p_j1)z) over one period is L*delta_{j1,j2},
    so the overlap reduces to the spinor inner product at equal momentum.
    """
    if j1 != j2:
        return 0.0 + 0.0j
    u1 = spinor(lam1, j1, cfg).u
    u2 = spinor(lam2, j2, cfg).u
    return complex(np.vdot(u1, u2))
