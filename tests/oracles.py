"""Oracles that only the tests read.

_kernel_distance compares two bilinears exactly by their kernels, vacuum
values included: test_modeops holds it equal to coeff_distance of the
normal-ordered bilinears, and the dense routes in test_checks and
test_modeops compare whole kernels with it.

TrigPoly is pointsplit's smearing function plus the evaluation and the
arithmetic (f(z), f', translates, sums, products, the box integral) that
the package itself never needs: the tests form the anomaly's integrals
through them and hold the package's closed forms to the results.

damped_kernel_integral is the kernel quadrature leg by leg, one evaluation
per (leg, rule): test_anomaly holds the package's one evaluation per rule
to it by float.hex, errors included.

factor_table is the CAR sweep's table of single factors built row by row
through map, filter and a boolean scatter: test_fock holds the package's
one-integer-per-hit table to it entry by entry, under corrupted sign rules.

spinor_residuals is verify's spinor check mode by mode in Python floats from
lattice.spinor: test_checks holds the package's one pass over the mode table
to it by float.hex, on clean and on broken spinors.

slot_from_linear inverts SlotIndex.linear from the slot layout written out
again: test_fock holds the two to a round trip, and test_fock and
test_modeops name slots through it.

mode_function and mode_overlap state a mode in position space, u exp(i p z)
/ sqrt(L), and its exact box integral: test_lattice holds the overlap to
orthonormality and to a quadrature of the mode functions, and test_modeops
holds every placed field kernel to sandwiches of mode functions.

continuity_pairwise_residual reads the per-mode-pair continuity identity
(checks._pairwise) alone, as check_continuity reads it in the same pass as
the operator identity: test_modeops holds it to a per-pair spinor oracle,
test_checks to a dense route by float.hex, and test_acceptance to its
tolerance.

total_charge is Q written monomial by monomial, electron number minus
positron number plus the background 2 n_max + 1: test_modeops holds it to
the box integral of the charge density, to the identity kernel and to the
smeared charge of a constant.
"""

import cmath
import math
from itertools import chain, repeat

import numpy as np

from pointsplit import anomaly, checks, lattice, trigpoly
from pointsplit.fock import ELECTRON, POSITRON, SlotIndex, n_slots_for
from pointsplit.lattice import LatticeConfig
from pointsplit.modeops import ModeOperator, _kernel_vev, _split_hamiltonian_diagonal, _worst


def _kernel_distance(k: np.ndarray, g: np.ndarray, cfg: LatticeConfig) -> float:
    """coeff_distance(_bilinear(_entries(k), cfg), _bilinear(_entries(g), cfg))
    exactly: each entry is one monomial's coefficient up to sign, plus the
    c-number.  np.hypot of the real and imaginary parts rounds as Python's
    complex abs in coeff_distance does; np.abs does not."""
    d = k - g
    vev_k, vev_g = (_kernel_vev(np.diagonal(x), cfg) for x in (k, g))
    return _worst([np.hypot(d.real, d.imag).max(), abs(vev_k - vev_g)])


def factor_table(n: int, apply_word):
    """pointsplit.checks._factor_table as the map over each row's bitstrings, its hits
    filtered and scattered onto an int32 table that starts at the identity targets."""
    dim = 1 << n
    target = np.tile(np.arange(dim, dtype=np.int32), (2 * n, 1))
    sign = np.zeros((2 * n, dim), dtype=np.int8)
    words = [((), (s,)) for s in range(n)] + [((s,), ()) for s in range(n)]
    for row, (cre, ann) in enumerate(words):
        hits = list(map(apply_word, repeat(cre, dim), repeat(ann, dim), range(dim)))
        acts = np.fromiter(map(bool, hits), dtype=bool, count=dim)
        flat = np.fromiter(chain.from_iterable(filter(None, hits)), dtype=np.intp)
        target[row, acts] = flat[0::2]
        sign[row, acts] = 1 - 2 * (flat[1::2] & 1)
    return target, sign


def spinor_residuals(cfg: LatticeConfig, spinor=lattice.spinor) -> list[float]:
    """checks.check_spinors' residuals per mode j, from spinor(lam, j, cfg) in Python floats: for each
    lam the eigenvector residual |h u - lam E u| with h = sigma_x p + sigma_z m, and |u'u - 1|; then
    |u+' u-| and the entries of |u+ u+' + u- u-' - 1|."""
    m, out = cfg.mass, []
    for j in cfg.mode_indices():
        modes = [spinor(lam, j, cfg) for lam in (+1, -1)]
        (a0, a1), (b0, b1) = ([float(c.real) for c in sp.u] for sp in modes)
        for sp, (u0, u1) in zip(modes, ((a0, a1), (b0, b1))):
            r0 = m * u0 + sp.p * u1 - sp.lam * sp.energy * u0
            r1 = sp.p * u0 - m * u1 - sp.lam * sp.energy * u1
            out += [math.sqrt(r0 * r0 + r1 * r1), abs(u0 * u0 + u1 * u1 - 1.0)]
        out.append(abs(a0 * b0 + a1 * b1))
        completeness = [[a0 * a0 + b0 * b0 - 1.0, a0 * a1 + b0 * b1], [a1 * a0 + b1 * b0, a1 * a1 + b1 * b1 - 1.0]]
        out += [abs(x) for row in completeness for x in row]
    return out


def slot_from_linear(k: int, n_max: int) -> SlotIndex:
    """The slot at linear position k: electrons at 0 .. 2 n_max, positrons after them."""
    per_species = 2 * n_max + 1
    if not 0 <= k < 2 * per_species:
        raise ValueError(f"linear slot {k} out of range")
    if k < per_species:
        return SlotIndex(ELECTRON, k - n_max)
    return SlotIndex(POSITRON, k - per_species - n_max)


def mode_function(lam: int, j: int, z: float, cfg: LatticeConfig) -> np.ndarray:
    """Plane-wave mode u_{lam,p_j} * exp(i p_j z) / sqrt(L) at position z."""
    sp = lattice.spinor(lam, j, cfg)
    return sp.u * (np.exp(1j * sp.p * z) / math.sqrt(cfg.box_length))


def mode_overlap(lam1: int, j1: int, lam2: int, j2: int, cfg: LatticeConfig) -> complex:
    """Exact box integral of mode_function(lam1, j1)' mode_function(lam2, j2): the z-integral of
    exp(i(p_j2 - p_j1)z) over one period is L delta_{j1,j2}, leaving the spinor inner product."""
    if j1 != j2:
        return 0j
    u1, u2 = lattice.spinor(lam1, j1, cfg).u, lattice.spinor(lam2, j2, cfg).u
    return complex(np.vdot(u1, u2))


def continuity_pairwise_residual(cfg: LatticeConfig) -> float:
    """Largest residual of checks._pairwise over the blocks of rows check_continuity reads."""
    h = _split_hamiltonian_diagonal(cfg, 0.0)
    return checks._largest_difference(cfg, lambda rows: [checks._pairwise(h, rows)])


def total_charge(cfg: LatticeConfig) -> ModeOperator:
    """Q = sum_e b'_e b_e - sum_p d'_p d_p + 2 n_max + 1, its c-number first, then slot by slot."""
    n = n_slots_for(cfg.n_max)
    terms = {((), ()): n // 2} | {((a,), (a,)): 1.0 if a < n // 2 else -1.0 for a in range(n)}
    return ModeOperator(n, terms)


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


def _graded_edges(length: float, rate: float) -> np.ndarray:
    """pointsplit.anomaly._graded_edges in numpy arithmetic: the same edges, as an array."""
    if rate * length <= 1:
        return np.array([0.0, length])
    doublings = min(11, math.ceil(math.log2(rate) + math.log2(length)))
    inner = np.ldexp(1.0, np.arange(doublings)) / rate
    return np.concatenate(([0.0], inner, [min(length, 2.0**doublings / rate)]))


def _leg(start: complex, direction: complex, edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t = start + direction*u of the n-point rule on every panel of edges in u, and the real
    and imaginary parts of their weights dt."""
    x, w = anomaly._GAUSS_LEGENDRE[n]
    half = 0.5 * np.diff(edges)[:, None]
    u = edges[:-1, None] + half * (1.0 + x)
    weights = (half * w).ravel()
    return start + direction * u.ravel(), direction.real * weights, direction.imag * weights


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def damped_kernel_integral(eps: float, eta: float, cutoff: float, m: float) -> float:
    """pointsplit.anomaly.damped_kernel_integral with the same legs, panels and checks, each leg's
    nodes built and evaluated on their own."""
    if eps <= 0 or eta <= 0 or cutoff <= 0:
        raise ValueError("eps, eta and cutoff must all be positive")
    m = abs(m)
    elementary = (1.0 / complex(eta, -eps)).imag
    c, abs_c = complex(-eta, eps), math.hypot(eta, eps)
    rate = abs_c * m
    if not (math.isfinite(elementary) and math.isfinite(rate)):
        raise ValueError(f"the kernel quadrature leaves the float range at eps={eps!r}, eta={eta!r}, m={m!r}")
    if m == 0:
        return elementary
    theta = math.atan2(eps, eta)
    d = cmath.exp(1j * theta)
    z1 = (theta / math.sin(theta) if theta else 1.0) * d
    T = math.asinh(cutoff / m)
    legs = [(0j, d, _graded_edges(abs(z1), rate), 1.0)]
    x_end = min(T, math.asinh(745.0 / max(rate, 1e-300)) - z1.real)
    if x_end > 0:
        legs.append((z1, 1.0, np.linspace(0.0, x_end, math.ceil(x_end) + 1), 1.0))
    rate_T = abs_c * math.hypot(m, cutoff)
    if T + eta * cutoff < 700.0 and rate_T < math.inf:
        legs.append((complex(T), d, _graded_edges(abs(z1), rate_T), -1.0))
    cm = c * m
    values = []
    for n in (anomaly._PANEL_NODES, anomaly._CHECK_NODES):
        integral = 0j
        for start, direction, edges, sign in legs:
            t, dt_re, dt_im = _leg(start, direction, edges, n)
            # both complex products from real and imaginary parts, as a scalar complex multiply does them
            s = np.sinh(t)
            e = np.exp(_complex(cm.real * s.real - cm.imag * s.imag, cm.real * s.imag + cm.imag * s.real) - t)
            f = _complex(dt_re * e.real - dt_im * e.imag, dt_re * e.imag + dt_im * e.real)
            integral += sign * complex(np.sum(f))
        values.append(elementary - m * integral.imag)
    value, check = values
    err = abs(value - check)
    if not err <= 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(f"quadrature tolerance not met: achieved error estimate {err}")
    return value
