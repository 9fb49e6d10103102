"""The central juxtaposition: the smeared double commutator evaluated four ways.

For a real smearing function f on the box, define the smeared charge
F = integral rho(z) f(z) dz and the vacuum response

    <0| [F, [H, F]] |0>.

Evaluated exactly on the finite model this is strictly positive for any f
that creates electron-positron pairs (two independent routes below agree:
direct operator application versus the explicit spectral sum over pair
states).  Evaluated by the formal continuum rewriting (symbolic module)
the same quantity cancels to an identical zero.  The point-split current
repairs the formal route: its evaluation through the split vacuum kernel
is again positive, approaching 4 * integral f'(z)^2 dz as the separation
shrinks.  The functions here compute each of those numbers, plus the
continuum kernel integral whose small-separation asymptote carries the
principal-value 1/eps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import _vacuum_part, inner, vacuum
from .lattice import LatticeConfig
from .modeops import _first_positron, _mode_table, _smeared_kernel, apply_operator, hamiltonian, smeared_charge
from .trigpoly import TrigPoly

__all__ = [
    "AnomalyReport",
    "double_commutator_direct",
    "double_commutator_spectral",
    "split_commutator_integral",
    "split_vev_kernel",
    "damped_kernel_integral",
    "kernel_asymptote",
    "finite_difference_limit",
]

_REAL_TOL = 1e-12


def _require_real(value: complex, what: str) -> float:
    scale = max(1.0, abs(value))
    if abs(value.imag) > _REAL_TOL * scale:
        raise RuntimeError(f"{what} has imaginary residue {value.imag} beyond tolerance")
    return value.real


def double_commutator_direct(f: TrigPoly, cfg: LatticeConfig) -> float:
    """2 <0| F H F |0> by raw operator application: F, then H, applied to |0>,
    then the last F read against the bra <0|.

    Equals <0|[F,[H,F]]|0> because the vacuum is the zero-energy eigenstate.
    The last pass keeps only the vacuum component of F H F |0>, the one
    entry the bra reads, so it never builds the four-particle states.
    """
    F = smeared_charge(f, cfg)
    H = hamiltonian(cfg)
    vac = vacuum(cfg)
    w = _vacuum_part(F.terms.items(), apply_operator(H, apply_operator(F, vac)))
    return _require_real(2.0 * inner(vac, w), "double commutator (direct route)")


def double_commutator_spectral(f: TrigPoly, cfg: LatticeConfig) -> float:
    """Spectral sum 2 sum_m |<0|F|m>|^2 E(m) over electron-positron pair states.

    The smeared charge connects the vacuum only to states with one electron
    and one positron (plus the vacuum itself, which carries zero energy), so
    the pair states are the whole sum.  The amplitude is read off F's kernel
    without touching a state: F's term K[p, e] d_p b_e (positron slot p,
    electron slot e) gives <0|F d'_p b'_e|0> = -K[p, e], so |<0|F|m>|^2 = |K[p, e]|^2.
    Only the nonzero entries of that block, on the band of f's harmonics,
    enter the sum, electron slot outer and positron slot inner.
    """
    rows, cols, values = _smeared_kernel(f, cfg)
    first_positron = _first_positron(cfg)
    pairs = np.flatnonzero((rows >= first_positron) & (cols < first_positron))
    pairs = pairs[np.lexsort((rows[pairs], cols[pairs]))]
    energy = _mode_table(cfg).energy.tolist()
    total = 0.0
    for p, e, k in zip(rows[pairs].tolist(), cols[pairs].tolist(), values[pairs].tolist()):
        total += 2.0 * abs(k) ** 2 * (energy[e] + energy[p])
    return total


def split_vev_kernel(g: float, cfg: LatticeConfig) -> complex:
    """Vacuum value of the one-sided bilinear psi'(z+g) sigma_x psi(z).

    Exactly -(1/L) sum_j (p_j/E_j) exp(-i p_j g): independent of z, purely
    imaginary, odd in g.  The gamma-symmetrized split current therefore has
    vanishing vacuum value.
    """
    cfg.check_phase(g)
    t = _mode_table(cfg)
    electrons = slice(_first_positron(cfg))
    total = 0j
    for p, energy in zip(t.p[electrons].tolist(), t.energy[electrons].tolist()):
        total += (p / energy) * cmath.exp(-1j * p * g)
    return -total / cfg.box_length


def split_commutator_integral(f: TrigPoly, eps: float, cfg: LatticeConfig) -> float:
    """The smeared double commutator evaluated through the split current:

        (-i/2) sum_gamma integral (f(z+g) - f(z)) f'(z) K(g) dz,  g = gamma*eps,

    with K the split vacuum kernel and the z-integral exact over harmonics.
    Real by the odd/imaginary structure of K; zero for constant f and at
    eps = 0.
    """
    return _split_commutator(f, eps, cfg)[0]


def _split_commutator(f: TrigPoly, eps: float, cfg: LatticeConfig) -> tuple[float, list[complex]]:
    """split_commutator_integral and the kernels [K(eps), K(-eps)] it reads, in that order."""
    f.check_on_lattice(cfg)
    total, kernels = 0j, []
    for g in (eps, -eps):
        weight = _shift_weight(f, g)
        kernels.append(split_vev_kernel(g, cfg))
        total += weight * kernels[-1]
    return _require_real(-0.5j * total, "split-current evaluation"), kernels


def _shift_weight(f: TrigPoly, g: float) -> float:
    """integral (f(z+g) - f(z)) f'(z) dz = L sum_n (c_n e^{i k_n g} - c_n) i k_{-n} c_{-n}.

    These are the terms that the TrigPoly product ((f.shifted(g) - f) * f.derivative())
    of tests/oracles.py sums into its constant coefficient, formed by the same expressions
    and summed in the same order from the same 0j, so the value is the same float, without
    that product's symmetry checks.
    The product drops terms with an exactly zero factor (n = 0, g = +-0.0); each adds
    a signed zero to a sum started at +0.0, which stays +0.0, so no bit depends on it.
    A phase k_n g that leaves the float range raises a ValueError, as math.cos would.
    """
    n = f.max_harmonic
    if math.isinf(f.wavenumber(n) * g):
        raise ValueError(
            f"the phase k_n * g leaves the float range at harmonic {n}, g={g!r}, delta_p={2.0 * math.pi / f.length:.6g}"
        )
    total = 0j
    for n, c in f.coeffs.items():
        total += (c * cmath.exp(1j * f.wavenumber(n) * g) + -1.0 * c) * (1j * f.wavenumber(-n) * f.coeff(-n))
    return (f.length * total).real


_PANEL_NODES, _CHECK_NODES = 24, 12  # Gauss-Legendre order per panel, and the lower order that checks it


def _mirrored(half_nodes: list[float], half_weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of an even-order rule on [-1, 1] from its positive half: the
    rule is symmetric, so the negative nodes are the positive ones negated, in mirrored order."""
    nodes = np.array([-x for x in reversed(half_nodes)] + half_nodes)
    weights = np.array(half_weights[::-1] + half_weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# numpy.polynomial.legendre.leggauss(n) to the last bit, pinned so that no run loads numpy.polynomial
_GAUSS_LEGENDRE = {
    24: _mirrored(
        [0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451, 0.5454214713888396,
         0.6480936519369755, 0.7401241915785544, 0.820001985973903, 0.8864155270044011, 0.9382745520027328,
         0.9747285559713095, 0.9951872199970213],
        [0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552, 0.10744427011596556,
         0.09761865210411393, 0.0861901615319532, 0.07334648141108016, 0.05929858491543636, 0.04427743881741941,
         0.02853138862893356, 0.01234122979998869],
    ),
    12: _mirrored(
        [0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047, 0.9041172563704748,
         0.9815606342467192],
        [0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642, 0.10693932599531907,
         0.04717533638651141],
    ),
}


def _graded_edges(length: float, rate: float) -> np.ndarray:
    """Panel edges on [0, length] for an integrand below exp(-2 rate u / pi): the first panel
    is 1/rate wide, each next one twice as wide, and none reaches past 2048/rate, where that
    bound has underflowed."""
    if rate * length <= 1:
        return np.array([0.0, length])
    doublings = min(11, math.ceil(math.log2(rate) + math.log2(length)))
    inner = np.ldexp(1.0, np.arange(doublings)) / rate
    return np.concatenate(([0.0], inner, [min(length, 2.0**doublings / rate)]))


def _leg(start: complex, direction: complex, edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = start + direction*u and weights dt of the n-point rule on every panel of edges in u."""
    x, w = _GAUSS_LEGENDRE[n]
    half = 0.5 * np.diff(edges)[:, None]
    u = edges[:-1, None] + half * (1.0 + x)
    return start + direction * u.ravel(), direction * (half * w).ravel()


def damped_kernel_integral(eps: float, eta: float, cutoff: float, m: float) -> float:
    """integral_0^inf (p/E_p) sin(p*eps) exp(-eta*p) dp, with p/E_p replaced by 1 beyond the cutoff
    (an error below m^2/(2*cutoff)).

    Write p/E = 1 - g(p).  The 1 and the damped tail beyond the cutoff add up to the elementary
    eps/(eps^2 + eta^2), and p = m sinh t turns g(p) dp into m exp(-t) dt, so with m -> |m|

        damped = eps/(eps^2 + eta^2) - m Im integral_0^T exp(-t + c m sinh t) dt,
        c = i*eps - eta,  T = asinh(cutoff/m).

    With m = 0 the value is the elementary part exactly.  The integrand is entire, so the path
    [0, T] is deformed into the parallelogram 0 -> z1 -> z1 + T -> T, z1 = (theta/sin theta)
    exp(i theta) with theta = atan2(eps, eta), which is pi/2 when eta << eps.  The slanted legs
    leave 0 and T in the direction in which c m sinh t falls fastest, at the rates |c| m and
    |c| m cosh T, and on the horizontal leg, Im t = theta, the integrand stays below
    exp(-Re t - |c| m sinh(Re t)) with a bounded phase.  Nothing oscillates, so composite
    Gauss-Legendre panels, graded at those rates near 0 and T, reach round-off at a cost that
    does not depend on eps*cutoff; each leg stops where its integrand has underflowed.  The
    same panels with a lower-order rule estimate the error, and an estimate above
    1e-6 * max(1, |value|) raises a RuntimeError.
    """
    if eps <= 0 or eta <= 0 or cutoff <= 0:
        raise ValueError("eps, eta and cutoff must all be positive")
    m = abs(m)
    elementary = (1.0 / complex(eta, -eps)).imag  # eps/(eps^2 + eta^2), with no square to overflow
    c, abs_c = complex(-eta, eps), math.hypot(eta, eps)  # abs(c) would raise where hypot gives inf
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
    # |c| m sinh(Re t) reaches 745 here, or Re t reaches about 698 when |c| m is below 1e-300
    x_end = min(T, math.asinh(745.0 / max(rate, 1e-300)) - z1.real)
    if x_end > 0:
        legs.append((z1, 1.0, np.linspace(0.0, x_end, math.ceil(x_end) + 1), 1.0))
    # the last leg lies below exp(-T - eta*cutoff) and falls at rate_T: past these bounds it adds
    # nothing, and short of them sinh(t) stays finite on it
    rate_T = abs_c * math.hypot(m, cutoff)
    if T + eta * cutoff < 700.0 and rate_T < math.inf:
        legs.append((complex(T), d, _graded_edges(abs(z1), rate_T), -1.0))
    values = []
    for n in (_PANEL_NODES, _CHECK_NODES):
        integral = 0j
        for start, direction, edges, sign in legs:
            t, dt = _leg(start, direction, edges, n)
            integral += sign * complex(np.sum(dt * np.exp(c * m * np.sinh(t) - t)))
        values.append(elementary - m * integral.imag)
    value, check = values
    err = abs(value - check)
    if not err <= 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(f"quadrature tolerance not met: achieved error estimate {err}")
    return value


def _kernel_defaults(eps: float, eta: float | None, cutoff: float | None) -> tuple[float, float]:
    """eta and cutoff for the kernel integrals at eps, defaulting to eps*eps and max(1e4, 100/eps);
    a ValueError names an eps that is not positive or a default that leaves the float range."""
    if not eps > 0:
        raise ValueError(f"kernel asymptote needs eps > 0, got {eps}")
    if eta is None:
        eta = eps * eps
        if eta == 0:
            raise ValueError(f"the default eta = eps*eps underflows to 0 at eps {eps!r}; pass --eta")
    if cutoff is None:
        cutoff = max(1e4, 100.0 / eps)
        if cutoff == math.inf:
            raise ValueError(f"the default cutoff = max(1e4, 100/eps) overflows to inf at eps {eps!r}; pass --cutoff")
    return eta, cutoff


def kernel_asymptote(
    eps: float, eta: float | None = None, cutoff: float | None = None, m: float = 1.0
) -> float:
    """Damping-free limit of the kernel integral via extrapolation eta -> 0.

    Evaluates the damped integral at eta, eta/2, ..., eta/16 and removes the
    damping by Neville polynomial extrapolation.  The small-eps asymptote is
    the principal value 1/eps: eps * kernel_asymptote(eps) -> 1 from below.
    """
    eta, cutoff = _kernel_defaults(eps, eta, cutoff)
    return _damped_and_extrapolated(eps, eta, cutoff, m)[1]


def _damped_and_extrapolated(eps: float, eta: float, cutoff: float, m: float) -> tuple[float, float]:
    """(damped, extrapolated): the damped integral at eta, the first of the five that
    kernel_asymptote extrapolates, and the extrapolation."""
    etas = [eta / (2.0**k) for k in range(5)]
    vals = [damped_kernel_integral(eps, e, cutoff, m) for e in etas]
    damped = vals[0]
    # Neville tableau toward eta = 0
    for level in range(1, len(etas)):
        for i in range(len(etas) - level):
            x0, x1 = etas[i], etas[i + level]
            vals[i] = (x0 * vals[i + 1] - x1 * vals[i]) / (x0 - x1)
    return damped, vals[0]


def finite_difference_limit(f: TrigPoly, eps: float) -> tuple[float, float]:
    """Symmetric difference-quotient integral and its derivative-squared limit.

    Returns (finite_difference, limit) where

        finite_difference = 2 sum_gamma integral [(f(z+g) - f(z))/g] f'(z) dz
        limit             = 4 integral f'(z)^2 dz        (Parseval, exact)

    with g = gamma*eps; the first approaches the second at O(eps^2) for
    trigonometric f.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero")
    fd = 0.0
    for g in (eps, -eps):
        fd += 2.0 * _shift_weight(f, g) / g
    limit = 4.0 * f.derivative_power()
    return fd, limit


@dataclass
class AnomalyReport:
    """One run of the full juxtaposition, ready for serialization.

    Validates its own defining invariants: the spectral value is
    nonnegative and the two exact routes agree to 1e-10 relative.
    """

    config: dict
    exact_direct: float
    exact_spectral: float
    formal_zero: bool
    formal_transcript: str
    pointsplit: list[dict] = field(default_factory=list)
    kernel: list[dict] = field(default_factory=list)
    continuum: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.exact_spectral < -1e-12:
            raise RuntimeError(f"spectral sum came out negative: {self.exact_spectral}")
        scale = max(1.0, abs(self.exact_direct), abs(self.exact_spectral))
        if abs(self.exact_direct - self.exact_spectral) > 1e-10 * scale:
            raise RuntimeError(
                f"exact routes disagree: direct={self.exact_direct!r}, spectral={self.exact_spectral!r}"
            )

    def to_dict(self) -> dict:
        summary = {
            "exact_direct": self.exact_direct,
            "exact_spectral": self.exact_spectral,
            "formal_zero": self.formal_zero,
        }
        return {
            "config": self.config,
            "summary": summary,
            "formal_transcript": self.formal_transcript,
            "tables": {
                "summary": [{"quantity": k, "value": v} for k, v in summary.items()],
                "pointsplit": self.pointsplit,
                "kernel": self.kernel,
                "continuum": self.continuum,
            },
        }
