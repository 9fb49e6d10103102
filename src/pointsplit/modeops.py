"""Normal-ordered polynomials in mode creation/annihilation operators.

A ModeOperator is a sparse sum of monomials

    coeff * a'_{c1} a'_{c2} ... a_{s1} a_{s2} ...

with creators stored in strictly ascending linear-slot order and
annihilators in strictly descending order (the canonical normal form;
the empty monomial is the c-number part).  Products re-normal-order via
the anticommutator rule {a_s, a'_t} = delta_st, so all operator algebra
is exact up to floating-point coefficient arithmetic.

Builders construct every operator of the 1+1D model.  The field is

    psi(z) = sum_a A_a u_a exp(i p_a z) / sqrt(L)

where a runs over the linear slots: electron slots carry positive-energy
modes (A = electron annihilator b_j) and positron slots negative-energy
modes (A = positron creator d'_j).  Every builder is therefore a kernel
matrix over slots,

    sum_ab K[a,b] A'_a A_b,   e.g.  K[a,b] = u_a' M u_b exp(i(p_b y - p_a x)) / L

for the bilinear psi'(x) M psi(y), computed by a private kernel function
(_field_kernel, ...) and normal-ordered by one conversion (_bilinear)
through the four blocks b'b, b'd', d b and d d'.  _bilinear reads a kernel
as its nonzero entries (rows, cols, values) in row-major order: the dense
kernels give theirs through _entries, and the smeared charge's kernel,
nonzero only on the band of its harmonics, is built as those entries and
never as a matrix (_smeared_kernel).  Only the d d' diagonal produces
a c-number, the vacuum value Tr(P_- K), read off K's diagonal alone (_kernel_vev;
densities are not normal-ordered here).  The checks stay on kernels: [A'KA, A'GA] =
A'[K,G]A, whose c-number is the finite Schwinger term; the split Hamiltonian's diagonal
kernel is a vector there (_split_hamiltonian_diagonal).  The general product
engine (multiply, commutator) is the independent oracle the tests hold them to.

Every spinor sandwich u_a' M u_b comes from one elementwise float64 rule (_sandwich_at), never
from a matrix product, so no BLAS kernel sets a bit of a report.  A kernel function evaluates one
range of its kernel's rows (_Rows, which holds the range's sandwiches for every kernel built on it),
all rows for the public builders; the smeared charge evaluates the rule on its band alone.

Position enters only through the per-slot factor e(x)_a = exp(i p_a x) (_plane_wave).
The private kernels are z-free, with a shift g as the factor conj(e(g))_a of psi'(z + g);
only the public builders place a kernel at z, by the unimodular phase conj(e(z))_a e(z)_b
(_phased), so the checks read each identity once, on its z-free kernels.  One d/dz rule,
K[a,b] -> i(p_b - p_a) K[a,b] (_d_dz), serves every dz=True flag.  The checks' kernel
identities are read in float64, as every kernel they compare carries no shift and is real:
rho and the current are _Rows.sandwich / L (_field_kernel's conj(e(0)) is 1), and
_boulware_kernel and _gradient_kernel return float64.  The checks multiply no two complex
numbers that both have real and imaginary parts, a product numpy's SIMD kernels may round
differently, so the CPU's dispatch sets no bit of a verify report.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import fock
from .fock import FockVector, n_slots_for
from .lattice import ID2, SIGMA_X, SIGMA_Z, LatticeConfig, _spinor_components, dispersion
from .trigpoly import TrigPoly

Signature = tuple[tuple[int, ...], tuple[int, ...]]

_IDENTITY_SIG: Signature = ((), ())


class ModeOperator:
    """Sparse normal-ordered operator polynomial on n_slots fermionic slots."""

    __slots__ = ("n_slots", "terms")

    def __init__(self, n_slots: int, terms: dict[Signature, complex] | None = None):
        self.n_slots = n_slots
        self.terms: dict[Signature, complex] = {}
        if terms:
            for sig, c in terms.items():
                if c != 0:
                    self.terms[sig] = complex(c)

    @classmethod
    def _of(cls, n_slots: int, terms: dict[Signature, complex]) -> "ModeOperator":
        """The operator holding a finished term dict itself: every coefficient complex, none zero."""
        op = object.__new__(cls)
        op.n_slots, op.terms = n_slots, terms
        return op

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        _check_same(self, other)
        out = dict(self.terms)
        for sig, c in other.terms.items():
            s = out.get(sig, 0j) + c
            if s == 0:
                out.pop(sig, None)
            else:
                out[sig] = s
        return ModeOperator._of(self.n_slots, out)

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "ModeOperator":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, ModeOperator):
            return multiply(self, other)
        return ModeOperator(self.n_slots, {sig: other * c for sig, c in self.terms.items()})

    def __rmul__(self, scalar) -> "ModeOperator":
        return ModeOperator(self.n_slots, {sig: scalar * c for sig, c in self.terms.items()})

    def adjoint(self) -> "ModeOperator":
        """Hermitian conjugate; the canonical form is closed under it."""
        out: dict[Signature, complex] = {}
        for (cre, ann), c in self.terms.items():
            out[(tuple(reversed(ann)), tuple(reversed(cre)))] = c.conjugate()
        return ModeOperator(self.n_slots, out)

    def max_abs_coeff(self) -> float:
        return _worst(abs(c) for c in self.terms.values())

    def coefficient(self, sig: Signature) -> complex:
        return self.terms.get(sig, 0.0 + 0.0j)

    def __repr__(self) -> str:
        return f"ModeOperator(n_slots={self.n_slots}, n_terms={len(self.terms)})"


def _check_same(a: ModeOperator, b: ModeOperator) -> None:
    if a.n_slots != b.n_slots:
        raise ValueError(f"lattice mismatch: {a.n_slots} vs {b.n_slots} slots")


def constant_op(value: complex, n_slots: int) -> ModeOperator:
    return ModeOperator(n_slots, {_IDENTITY_SIG: value})


def creator_op(slot: int, n_slots: int) -> ModeOperator:
    return ModeOperator(n_slots, {((slot,), ()): 1.0 + 0.0j})


def annihilator_op(slot: int, n_slots: int) -> ModeOperator:
    return ModeOperator(n_slots, {((), (slot,)): 1.0 + 0.0j})


# -- normal ordering -----------------------------------------------------


def _sort_with_parity(seq, descending: bool):
    """Sort distinct slots, tracking the anticommutation sign; None on repeats."""
    arr = list(seq)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and (arr[j - 1] < arr[j] if descending else arr[j - 1] > arr[j]):
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for x, y in zip(arr, arr[1:]):
        if x == y:
            return None, 0
    return tuple(arr), sign


def _reduce_word(word: tuple, coeff: complex, out: dict[Signature, complex]) -> None:
    """Normal-order a word of (slot, is_creator) factors into `out`.

    Repeatedly applies a_s a'_t = delta_st - a'_t a_s to the first
    annihilator-creator adjacency; terminates because each swap removes
    an inversion and each contraction shortens the word.
    """
    for i in range(len(word) - 1):
        (s, ds), (t, dt) = word[i], word[i + 1]
        if (not ds) and dt:
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            _reduce_word(swapped, -coeff, out)
            if s == t:
                _reduce_word(word[:i] + word[i + 2 :], coeff, out)
            return
    n_cre = sum(1 for _, d in word if d)
    cre, sign_c = _sort_with_parity((s for s, _ in word[:n_cre]), descending=False)
    if cre is None:
        return
    ann, sign_a = _sort_with_parity((s for s, _ in word[n_cre:]), descending=True)
    if ann is None:
        return
    sig = (cre, ann)
    s = out.get(sig, 0j) + coeff * sign_c * sign_a
    if s == 0:
        out.pop(sig, None)
    else:
        out[sig] = s


def multiply(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """Exact normal-ordered product; bilinear and associative."""
    _check_same(a, b)
    out: dict[Signature, complex] = {}
    for (c1, a1), x in a.terms.items():
        w1 = tuple((s, True) for s in c1) + tuple((s, False) for s in a1)
        for (c2, a2), y in b.terms.items():
            word = w1 + tuple((s, True) for s in c2) + tuple((s, False) for s in a2)
            _reduce_word(word, x * y, out)
    return ModeOperator._of(a.n_slots, out)


def commutator(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """A*B - B*A in canonical form; c-number parts drop out."""
    return multiply(a, b) - multiply(b, a)


def _worst(residuals) -> float:
    """Largest of the residuals, 0.0 if there are none, NaN if any is NaN.

    The builtin max would let a NaN residual pass: max(0.0, nan) is 0.0.
    """
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return float(r)
        worst = max(worst, float(r))
    return worst


def coeff_distance(a: ModeOperator, b: ModeOperator) -> float:
    """Largest coefficient difference over the union of monomials."""
    _check_same(a, b)
    keys = set(a.terms) | set(b.terms)
    return _worst(abs(a.coefficient(k) - b.coefficient(k)) for k in keys)


def is_hermitian(a: ModeOperator) -> bool:
    return coeff_distance(a, a.adjoint()) <= 1e-12


# -- state action --------------------------------------------------------


def apply_operator(a: ModeOperator, v: FockVector) -> FockVector:
    """Apply the operator to a sparse state, monomial by monomial."""
    if a.n_slots != v.n_slots:
        raise ValueError(f"lattice mismatch: {a.n_slots} vs {v.n_slots} slots")
    return fock._apply_terms(a.terms.items(), v)


def vev(a: ModeOperator) -> complex:
    """Vacuum expectation value: the c-number part of the normal form."""
    return a.coefficient(_IDENTITY_SIG)


def expectation(v: FockVector, a: ModeOperator) -> complex:
    """<v|A|v> via explicit state application (independent of vev)."""
    return fock.inner(v, apply_operator(a, v))


# -- field modes ---------------------------------------------------------


class _Modes(NamedTuple):
    """The field's modes in linear slot order, row a describing slot a; read-only, as callers share it."""

    j: np.ndarray  # mode index
    p: np.ndarray  # momentum, float64
    energy: np.ndarray  # E_j, the same on both of mode j's slots
    u: np.ndarray  # unit spinors, shape (n_slots, 2)


@functools.lru_cache(maxsize=8)
def _mode_table(cfg: LatticeConfig) -> _Modes:
    """Positive-energy spinors on electron slots, negative-energy ones on positron slots, once per
    lattice: lattice.spinor's values, from its momenta and dispersion per mode and its component
    formula over all modes at once."""
    p = [j * cfg.delta_p for j in cfg.mode_indices()]  # cfg.momentum's product, whatever delta_p's type
    energy = np.array([dispersion(x, cfg.mass) for x in p])
    p = np.array(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # out of float range: inf and nan, as spinor's floats, no error
        norm, w_norm = _spinor_components(p, energy, cfg.mass)
    u = np.concatenate((np.column_stack((norm, w_norm)), np.column_stack((-w_norm, norm))))
    table = _Modes(
        j=np.tile(np.arange(-cfg.n_max, cfg.n_max + 1), 2),
        p=np.tile(p, 2),
        energy=np.tile(energy, 2),
        u=u.astype(complex),
    )
    for column in table:
        column.flags.writeable = False
    return table


def _sandwich_at(cfg: LatticeConfig, matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one sandwich rule: u_a' M u_b for slot indices a, b broadcast together, as
    v_a0 u_b0 + v_a1 u_b1 with v = u'M.  The spinors and the insertions are real, and
    elementwise float64 arithmetic rounds alike on every CPU, as a BLAS kernel need not."""
    u, m = _mode_table(cfg).u.real, np.asarray(matrix).real
    v = u[:, :1] * m[0] + u[:, 1:] * m[1]
    return v[a, 0] * u[b, 0] + v[a, 1] * u[b, 1]


class _Rows:
    """Rows [start, stop) of a lattice's N x N kernels, every column b included: the range as a slice,
    and each insertion's sandwiches u_a' M u_b on it, from _sandwich_at on first use, for every kernel."""

    def __init__(self, cfg: LatticeConfig, start: int = 0, stop: int | None = None):
        self.cfg, self.slots, self._sandwiches = cfg, slice(start, stop), {}

    def sandwich(self, matrix: np.ndarray) -> np.ndarray:
        key = np.asarray(matrix).tobytes()
        if key not in self._sandwiches:
            b = np.arange(n_slots_for(self.cfg.n_max))
            self._sandwiches[key] = _sandwich_at(self.cfg, matrix, b[self.slots, None], b)
        return self._sandwiches[key]


def _first_positron(cfg: LatticeConfig) -> int:
    """Linear slots below this one are electron slots, the rest positron slots."""
    return n_slots_for(cfg.n_max) // 2


def _kernel_vev(diagonal: np.ndarray, cfg: LatticeConfig) -> complex:
    """Vacuum value of A'KA from the diagonal of K, Tr(P_- K): its positron entries summed in slot order."""
    return sum(diagonal[_first_positron(cfg) :].tolist(), 0j)


def _entries(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a dense kernel as (rows, cols, values), in np.nonzero's row-major order."""
    rows, cols = np.nonzero(kernel)
    return rows, cols, kernel[rows, cols]


def _bilinear(entries, cfg: LatticeConfig) -> ModeOperator:
    """Normal-ordered sum_ab K[a,b] A'_a A_b over linear slots a, b, from K's
    nonzero entries (rows, cols, values) in row-major order.

    A is b (electron annihilator) on electron slots and d' (positron
    creator) on positron slots, so the four blocks normal-order as below;
    only the d d' diagonal (d_a d'_a = 1 - d'_a d_a) yields a c-number, summed
    in slot order as _kernel_vev sums it, where a zero entry adds nothing.
    The entries are nonzero, so only a c-number that sums to zero is dropped.
    """
    first_positron = _first_positron(cfg)
    terms: dict[Signature, complex] = {_IDENTITY_SIG: 0j}
    rows, cols, values = entries
    for a, b, c in zip(rows.tolist(), cols.tolist(), values.astype(complex, copy=False).tolist()):
        if a < first_positron:
            # b'b, or b'd' with the electron slot below the positron slot
            terms[((a,), (b,)) if b < first_positron else ((a, b), ())] = c
        elif b < first_positron:
            terms[((), (a, b))] = c  # d b: positron slot above electron slot
        else:
            terms[((b,), (a,))] = -c  # d_a d'_b = delta_ab - d'_b d_a; the delta is the c-number
            if a == b:
                terms[_IDENTITY_SIG] += c
    if not terms[_IDENTITY_SIG]:
        del terms[_IDENTITY_SIG]
    return ModeOperator._of(n_slots_for(cfg.n_max), terms)


# -- operator builders ---------------------------------------------------


def hamiltonian(cfg: LatticeConfig) -> ModeOperator:
    """Free Hamiltonian sum_j E_j (b'_j b_j + d'_j d_j), c-number exactly zero.

    The subtraction constant that removes the filled-sea energy has already
    been applied, so the empty state is the zero-energy eigenvector.
    """
    return split_hamiltonian(cfg, 0.0)


def _split_energies(cfg: LatticeConfig, eps: float) -> list[float]:
    """E_j cos(p_j eps) for modes j = -n_max .. n_max, the energy of both of mode j's slots."""
    cfg.check_phase(eps)
    t = _mode_table(cfg)
    electrons = slice(_first_positron(cfg))
    return [e * math.cos(p * eps) for e, p in zip(t.energy[electrons].tolist(), t.p[electrons].tolist())]


def split_hamiltonian(cfg: LatticeConfig, eps: float) -> ModeOperator:
    """Point-split Hamiltonian: per-mode energies E_j cos(p_j eps), renormalized."""
    first_positron = _first_positron(cfg)
    terms: dict[Signature, complex] = {}
    for se, w in enumerate(_split_energies(cfg, eps)):
        if w != 0:
            terms[((se,), (se,))] = complex(w)
            terms[((se + first_positron,), (se + first_positron,))] = complex(w)
    return ModeOperator._of(n_slots_for(cfg.n_max), terms)


def _split_hamiltonian_diagonal(cfg: LatticeConfig, eps: float) -> np.ndarray:
    """Kernel of split_hamiltonian up to its c-number, as the vector of its
    diagonal: E_j cos(p_j eps) on the electron slots and its negative on the
    positron slots (d'd = 1 - d d')."""
    splits = _split_energies(cfg, eps)
    return np.array(splits + [-w for w in splits])


def split_hamiltonian_raw(cfg: LatticeConfig, eps: float, renormalization: float | None = None) -> ModeOperator:
    """Pre-normal-ordered form sum_j E_j cos(p_j eps)(b'_j b_j - d_j d'_j) + const.

    Each word is normal-ordered by _reduce_word, the engine under multiply,
    and the d d' word exposes the c-number -sum_j E_j cos(p_j eps).  With the default renormalization
    constant (+sum_j E_j cos(p_j eps)) the result equals split_hamiltonian
    coefficient for coefficient.
    """
    n = n_slots_for(cfg.n_max)
    splits = _split_energies(cfg, eps)
    if renormalization is None:
        renormalization = sum(splits)
    terms = constant_op(renormalization, n).terms
    for se, w in enumerate(splits):
        sp = se + _first_positron(cfg)
        _reduce_word(((se, True), (se, False)), w, terms)
        _reduce_word(((sp, False), (sp, True)), -w, terms)
    return ModeOperator(n, terms)


def _plane_wave(cfg: LatticeConfig, x: float) -> np.ndarray:
    """The per-slot factor e(x)_a = exp(i p_a x), the one place a position enters a kernel."""
    return np.exp(1j * _mode_table(cfg).p * x)


def _phased(kernel: np.ndarray, z: float, cfg: LatticeConfig) -> np.ndarray:
    """K[a,b] conj(e(z))_a e(z)_b: the z-free kernel K placed at z."""
    e_z = _plane_wave(cfg, z)
    return kernel * e_z.conj()[:, None] * e_z[None, :]


def _d_dz(kernel: np.ndarray, rows: _Rows) -> np.ndarray:
    """The one d/dz rule: z enters through _phased alone, so d/dz K[a,b] = i(p_b - p_a) K[a,b]."""
    p = _mode_table(rows.cfg).p
    return kernel * (1j * (p[None, :] - p[rows.slots, None]))


def charge_density(z: float, cfg: LatticeConfig) -> ModeOperator:
    """psi'(z) psi(z), hermitian; carries the constant background (2n_max+1)/L."""
    return _bilinear(_entries(_phased(_field_kernel(0.0, ID2, _Rows(cfg)), z, cfg)), cfg)


def current_shifted(z: float, shift: float, cfg: LatticeConfig, dz: bool = False) -> ModeOperator:
    """One-sided bilinear psi'(z + shift) sigma_x psi(z) (no gamma average)."""
    kernel = _field_kernel(shift, SIGMA_X, _Rows(cfg))
    return _bilinear(_entries(_phased(_d_dz(kernel, _Rows(cfg)) if dz else kernel, z, cfg)), cfg)


def current_density(z: float, cfg: LatticeConfig, dz: bool = False) -> ModeOperator:
    """Unsplit current psi'(z) sigma_x psi(z); dz=True gives its exact z-derivative."""
    return current_shifted(z, 0.0, cfg, dz)


def split_current(z: float, eps: float, cfg: LatticeConfig, dz: bool = False) -> ModeOperator:
    """Symmetrized split current (1/2) sum_{gamma=+-1} psi'(z + gamma*eps) sigma_x psi(z)."""
    return 0.5 * (current_shifted(z, +eps, cfg, dz) + current_shifted(z, -eps, cfg, dz))


def _field_kernel(shift: float, matrix: np.ndarray, rows: _Rows) -> np.ndarray:
    """z-free kernel of psi'(z + shift) M psi(z) on these rows: K[a,b] = u_a' M u_b conj(e(shift))_a / L."""
    return rows.sandwich(matrix) / rows.cfg.box_length * _plane_wave(rows.cfg, shift).conj()[rows.slots, None]


def boulware_current(z: float, eps: float, cfg: LatticeConfig, dz: bool = False) -> ModeOperator:
    """Split current corrected by a line-integral term so that the continuity
    relation with the split Hamiltonian holds exactly:

        commutator(split_hamiltonian, charge_density(z)) == 1j * d/dz of this.

    Structure per gamma = +-1 (averaged with weight 1/2):

        psi'(z + g) sigma_x psi(z)
        + i * integral_{z-g}^{z} psi'(z' + g) (i sigma_x d/dz' - m sigma_z) psi(z') dz'

    with g = gamma*eps.  In mode space the line integral is the elementary
    closed form (1 - e(g)_a conj(e(g))_b)/(iq), with momentum transfer
    q = p_b - p_a, and just g when q = 0.  It multiplies the shifted field's
    conj(e(g))_a, and since |e(g)| = 1 the gamma average is real: with
    c + i s = e(eps), the line factor is (c_a - c_b)/q, or eps s_a where q = 0.
    _phased places the kernel at z; dz=True applies the one d/dz rule to it.
    """
    kernel = _boulware_kernel(eps, _Rows(cfg))
    return _bilinear(_entries(_phased(_d_dz(kernel, _Rows(cfg)) if dz else kernel, z, cfg)), cfg)


def _boulware_kernel(eps: float, rows: _Rows) -> np.ndarray:
    cfg, a, p, e = rows.cfg, rows.slots, _mode_table(rows.cfg).p, _plane_wave(rows.cfg, eps)
    q, c = p[None, :] - p[a, None], e.real
    ins_x = rows.sandwich(SIGMA_X)
    ins_line = (-p[None, :]) * ins_x - cfg.mass * rows.sandwich(SIGMA_Z)  # line integrand, d/dz' -> i p_b
    line = np.where(q == 0, eps * e.imag[a, None], (c[a, None] - c[None, :]) / np.where(q == 0, 1.0, q))
    return (ins_x * c[a, None] + ins_line * line) / cfg.box_length


def charge_commutator_gradient_form(z: float, eps: float, cfg: LatticeConfig) -> ModeOperator:
    """The commutator of the split Hamiltonian with the charge density, written
    through point-shifted field gradients instead of operator products:

        (1/2) sum_gamma [ i d/dz(psi'(z+g)) sigma_x psi(z)
                          + i psi'(z) sigma_x d/dz(psi(z+g))
                          + m psi'(z+g) sigma_z psi(z)
                          - m psi'(z) sigma_z psi(z+g) ],  g = gamma*eps.

    Used as the independent cross-check against the commutator of
    split_hamiltonian with charge_density; the two agree term by term.
    """
    return _bilinear(_entries(_phased(_gradient_kernel(eps, _Rows(cfg)), z, cfg)), cfg)


def _gradient_kernel(eps: float, rows: _Rows) -> np.ndarray:
    # the gamma average of either shifted field's factor, conj(e(g)) or e(g), is Re e(eps)
    cfg, a, p, c = rows.cfg, rows.slots, _mode_table(rows.cfg).p, _plane_wave(rows.cfg, eps).real
    ins_x, m_z = rows.sandwich(SIGMA_X), cfg.mass * rows.sandwich(SIGMA_Z)
    return ((p[a, None] * ins_x + m_z) * c[a, None] - (p[None, :] * ins_x + m_z) * c[None, :]) / cfg.box_length


def smeared_charge(f: TrigPoly, cfg: LatticeConfig) -> ModeOperator:
    """F = integral of charge_density(z) * f(z) dz, exact over box harmonics.

    The harmonic k_n = n*delta_p matches the momentum grid, so the z-integral
    picks out coefficient c_{j_a - j_b} for each mode pair; hermitian for any
    real f.
    """
    return _bilinear(_smeared_kernel(f, cfg), cfg)


def _smeared_kernel(f: TrigPoly, cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel of smeared_charge as its nonzero entries (rows, cols, values) in
    row-major order; rejects harmonics the lattice cannot carry.

    K[a,b] = c_{j_a - j_b} u_a' u_b is nonzero only on the band where
    j_a - j_b is a harmonic of f, so the sandwich rule runs on those entries
    alone and nothing N x N is built.  Each value is the product the dense
    matrix would hold there, and products that come out zero are dropped, as
    np.nonzero would.
    """
    f.check_on_lattice(cfg)
    t = _mode_table(cfg)
    span = 2 * cfg.n_max  # j_a - j_b runs over -span .. span
    coeffs = np.zeros(2 * span + 1, dtype=complex)  # c_n at n + span; check_on_lattice bounds |n| by span
    coeffs[np.array(list(f.coeffs), dtype=int) + span] = list(f.coeffs.values())
    # row a meets j_b = j_a - offset at electron slot j_b + n_max and at the
    # positron slot first_positron further on; with the offsets descending,
    # the (row, block, offset) axes run in row-major order
    j_b = t.j[:, None, None] - (np.flatnonzero(coeffs) - span)[::-1]
    cols = j_b + cfg.n_max + np.array([0, _first_positron(cfg)])[:, None]
    band = np.broadcast_to(np.abs(j_b) <= cfg.n_max, cols.shape)
    rows, cols = np.broadcast_to(np.arange(len(t.j))[:, None, None], cols.shape)[band], cols[band]
    values = coeffs[t.j[rows] - t.j[cols] + span] * _sandwich_at(cfg, ID2, rows, cols)
    kept = values != 0
    return rows[kept], cols[kept], values[kept]


def total_charge(cfg: LatticeConfig) -> ModeOperator:
    """Q = integral of charge_density over the box: electron number minus
    positron number plus the constant background 2*n_max + 1."""
    slots = np.arange(n_slots_for(cfg.n_max))
    return _bilinear((slots, slots, np.ones(len(slots))), cfg)
