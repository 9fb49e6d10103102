"""Formal continuum operator algebra for equal-time bilinear commutators.

Represents sums of terms

    coeff * [delta factors] * [smearing placeholders] * psi'(x) M psi(y)

with symbolic points x, y (a base variable plus an integer multiple of the
split separation e) and explicit 2x2 matrix insertions M.  The only
rewriting rules are the ones the formal derivation uses:

  * the equal-time commutator of two bilinears,
        [psi'(x1) M1 psi(y1), psi'(x2) M2 psi(y2)]
          = psi'(x1) M1 M2 psi(y2) delta(y1 - x2)
            - psi'(x2) M2 M1 psi(y1) delta(y2 - x1),
    which follows from the canonical anticommutation relations alone;
  * substitution of a delta root under a formal integral sign; and
  * translation of an integration variable.

Smearing functions are never evaluated, only tagged (f or f' at a point).
Expressions are kept canonical: structurally equal terms merge, zero
coefficients vanish, so "is the result identically zero" is a syntactic
question.  Matrix insertions are stored as explicit entries (exact small
integers here), making equality of insertions plain numeric equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MatrixKey = tuple[complex, complex, complex, complex]

MAT_ID: MatrixKey = (1 + 0j, 0j, 0j, 1 + 0j)
MAT_SX: MatrixKey = (0j, 1 + 0j, 1 + 0j, 0j)
MAT_SZ: MatrixKey = (1 + 0j, 0j, 0j, -1 + 0j)

_MATRIX_NAMES = {MAT_ID: "1", MAT_SX: "sx", MAT_SZ: "sz"}


def matrix_key(m) -> MatrixKey:
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"insertion must be 2x2, got shape {a.shape}")
    return (complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 0]), complex(a[1, 1]))


def _mat_mul(a: MatrixKey, b: MatrixKey) -> MatrixKey:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


@dataclass(frozen=True, order=True)
class SymPoint:
    """A spatial argument: base variable plus an integer multiple of e."""

    base: str
    shift: int = 0

    def shifted(self, amount: int) -> "SymPoint":
        return SymPoint(self.base, self.shift + amount)

    def __str__(self) -> str:
        if self.shift == 0:
            return self.base
        mag = abs(self.shift)
        stem = "e" if mag == 1 else f"{mag}e"
        return f"{self.base}{'+' if self.shift > 0 else '-'}{stem}"


@dataclass(frozen=True)
class DeltaFactor:
    """delta(a - b); even, so the two points are stored in sorted order."""

    a: SymPoint
    b: SymPoint

    @classmethod
    def of(cls, x: SymPoint, y: SymPoint) -> "DeltaFactor":
        return cls(*sorted((x, y)))

    def involves(self, var: str) -> bool:
        return self.a.base == var or self.b.base == var

    def __str__(self) -> str:
        rhs = f"({self.b})" if self.b.shift != 0 else f"{self.b}"
        return f"d({self.a} - {rhs})"


@dataclass(frozen=True)
class SmearFactor:
    """Formal smearing tag: f (order 0) or its derivative f' (order 1) at a point."""

    point: SymPoint
    order: int = 0
    name: str = "f"

    def __str__(self) -> str:
        return f"{self.name}{chr(39) * self.order}({self.point})"


@dataclass(frozen=True)
class Bilinear:
    """psi'(left) . M . psi(right) with an explicit 2x2 insertion."""

    left: SymPoint
    matrix: MatrixKey
    right: SymPoint

    def __str__(self) -> str:
        name = _MATRIX_NAMES.get(self.matrix)
        if name is None:
            name = f"[[{_fmt_c(self.matrix[0])},{_fmt_c(self.matrix[1])}],[{_fmt_c(self.matrix[2])},{_fmt_c(self.matrix[3])}]]"
        return f"psi+({self.left}).{name}.psi({self.right})"


TermKey = tuple[tuple[DeltaFactor, ...], tuple[SmearFactor, ...], Bilinear | None]


def _point_key(p: SymPoint):
    return (p.base, p.shift)


def _smear_key(s: SmearFactor):
    return (s.name, s.order, _point_key(s.point))


def _delta_key(d: DeltaFactor):
    return (_point_key(d.a), _point_key(d.b))


def _term_key(deltas, smears, bilinear) -> TermKey:
    deltas = tuple(sorted(deltas, key=_delta_key))
    smears = tuple(sorted(smears, key=_smear_key))
    return (deltas, smears, bilinear)


def _term_sort_key(key: TermKey):
    deltas, smears, bil = key
    if bil is None:
        bil_part = ((), (), ())
    else:
        bil_part = (
            _point_key(bil.left),
            tuple((c.real, c.imag) for c in bil.matrix),
            _point_key(bil.right),
        )
    return (
        bil is None,
        bil_part,
        tuple(_delta_key(d) for d in deltas),
        tuple(_smear_key(s) for s in smears),
    )


class SymExpr:
    """Canonical sum of terms: structurally equal terms merged, zeros removed."""

    def __init__(self, terms: dict[TermKey, complex] | None = None):
        self.terms: dict[TermKey, complex] = {}
        if terms:
            for k, c in terms.items():
                if c != 0:
                    self.terms[k] = complex(c)

    @classmethod
    def zero(cls) -> "SymExpr":
        return cls()

    @classmethod
    def single(cls, coeff: complex, deltas=(), smears=(), bilinear: Bilinear | None = None) -> "SymExpr":
        return cls({_term_key(deltas, smears, bilinear): coeff})

    def add_term(self, coeff: complex, deltas=(), smears=(), bilinear: Bilinear | None = None) -> None:
        key = _term_key(deltas, smears, bilinear)
        s = self.terms.get(key, 0j) + coeff
        if s == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other: "SymExpr") -> "SymExpr":
        out = SymExpr(self.terms)
        for k, c in other.terms.items():
            s = out.terms.get(k, 0j) + c
            if s == 0:
                out.terms.pop(k, None)
            else:
                out.terms[k] = s
        return out

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "SymExpr":
        return SymExpr({k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return format_expr(self)


def commute_bilinears(first: Bilinear, second: Bilinear) -> SymExpr:
    """Equal-time commutator of two field bilinears as a two-term expression."""
    expr = SymExpr()
    expr.add_term(
        1.0,
        deltas=(DeltaFactor.of(first.right, second.left),),
        bilinear=Bilinear(first.left, _mat_mul(first.matrix, second.matrix), second.right),
    )
    expr.add_term(
        -1.0,
        deltas=(DeltaFactor.of(second.right, first.left),),
        bilinear=Bilinear(second.left, _mat_mul(second.matrix, first.matrix), first.right),
    )
    return expr


def _substitute_point(p: SymPoint, var: str, target: SymPoint) -> SymPoint:
    if p.base != var:
        return p
    return SymPoint(target.base, target.shift + p.shift)


def integrate_delta(expr: SymExpr, var: str) -> SymExpr:
    """Integrate each term over `var` against its (single) delta factor.

    Replaces var by the delta root throughout the term and removes the
    delta; raises if a term has no delta in var or more than one, which
    signals a malformed pipeline rather than a representable result.
    """
    out = SymExpr()
    for (deltas, smears, bil), coeff in expr.terms.items():
        matching = [d for d in deltas if d.involves(var)]
        if len(matching) != 1:
            raise ValueError(
                f"term needs exactly one delta factor in {var!r}, found {len(matching)}: "
                f"{_format_term(coeff, (deltas, smears, bil))}"
            )
        delta = matching[0]
        if delta.a.base == var and delta.b.base == var:
            raise ValueError(f"delta factor {delta} is degenerate in {var!r}")
        if delta.a.base == var:
            # var + shift_a = b  =>  var -> b - shift_a
            target = SymPoint(delta.b.base, delta.b.shift - delta.a.shift)
        else:
            target = SymPoint(delta.a.base, delta.a.shift - delta.b.shift)
        rest = tuple(
            DeltaFactor.of(
                _substitute_point(d.a, var, target), _substitute_point(d.b, var, target)
            )
            for d in deltas
            if d is not delta
        )
        new_smears = tuple(
            SmearFactor(_substitute_point(s.point, var, target), s.order, s.name) for s in smears
        )
        new_bil = None
        if bil is not None:
            new_bil = Bilinear(
                _substitute_point(bil.left, var, target),
                bil.matrix,
                _substitute_point(bil.right, var, target),
            )
        out.add_term(coeff, rest, new_smears, new_bil)
    return out


def shift_variable(expr: SymExpr, var: str, amount: int) -> SymExpr:
    """Translate the integration variable: every point var+s becomes var+s+amount.

    Legitimate under the formal integral over var (periodic or whole-line)."""
    out = SymExpr()
    for (deltas, smears, bil), coeff in expr.terms.items():

        def mv(p: SymPoint) -> SymPoint:
            return p.shifted(amount) if p.base == var else p

        new_deltas = tuple(DeltaFactor.of(mv(d.a), mv(d.b)) for d in deltas)
        new_smears = tuple(SmearFactor(mv(s.point), s.order, s.name) for s in smears)
        new_bil = None if bil is None else Bilinear(mv(bil.left), bil.matrix, mv(bil.right))
        out.add_term(coeff, new_deltas, new_smears, new_bil)
    return out


def formal_smeared_commutator(
    split: bool = False,
    right_matrix=None,
    record: list | None = None,
) -> SymExpr:
    """Formally evaluate the double-smeared density/current commutator integrand.

    Pipeline: build [psi'(z) psi(z), current at z'] with the CAR commutator
    rule, attach the smearing tags f(z) f'(z') and the overall -i, integrate
    out z' against the deltas, then translate z so every surviving bilinear
    has unshifted right argument.  With coincident points (split=False) the
    two terms cancel structurally and the result is the zero expression; with
    the symmetrized split current (split=True) four terms survive, weighted
    by f at shifted versus unshifted points.

    `record`, if given, collects (step label, formatted expression) pairs.
    """
    mr = MAT_SX if right_matrix is None else matrix_key(right_matrix)
    z, zp = "z", "z'"
    density = Bilinear(SymPoint(z), MAT_ID, SymPoint(z))

    def note(label: str, expr: SymExpr) -> None:
        if record is not None:
            record.append((label, format_expr(expr)))

    if split:
        comm = SymExpr()
        for gamma in (+1, -1):
            shifted = Bilinear(SymPoint(zp, gamma), mr, SymPoint(zp))
            comm = comm + commute_bilinears(density, shifted).scaled(0.5)
    else:
        comm = commute_bilinears(density, Bilinear(SymPoint(zp), mr, SymPoint(zp)))
    note("commutator", comm)

    smeared = SymExpr()
    for (deltas, smears, bil), coeff in comm.terms.items():
        assert not smears
        smeared.add_term(
            -1j * coeff,
            deltas,
            (SmearFactor(SymPoint(z), 0), SmearFactor(SymPoint(zp), 1)),
            bil,
        )
    note("smeared", smeared)

    integrated = integrate_delta(smeared, zp)
    note("integrated", integrated)

    aligned = SymExpr()
    for (deltas, smears, bil), coeff in integrated.terms.items():
        piece = SymExpr({(deltas, smears, bil): coeff})
        if bil is not None and bil.right.base == z and bil.right.shift != 0:
            piece = shift_variable(piece, z, -bil.right.shift)
        aligned = aligned + piece
    note("aligned", aligned)
    return aligned


# -- printing --------------------------------------------------------------


def _fmt_c(c: complex) -> str:
    if c.imag == 0:
        return f"{c.real:g}"
    if c.real == 0:
        return f"{c.imag:g}j"
    return f"({c.real:g}{c.imag:+g}j)"


def _format_term(coeff: complex, key: TermKey) -> str:
    deltas, smears, bil = key
    factors = [str(d) for d in deltas] + [str(s) for s in smears]
    if bil is not None:
        factors.append(str(bil))
    if not factors:
        return _fmt_c(coeff)
    return " * ".join([_fmt_c(coeff)] + factors)


def format_expr(expr: SymExpr) -> str:
    """Deterministic rendering: terms in canonical order, one per line."""
    if expr.is_zero():
        return "0"
    lines = [_format_term(c, k) for k, c in expr.sorted_terms()]
    return "\n  + ".join(lines)
