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
  * one substitution, every point var+s of a term made to+s (_substitute):
    integrating var against delta(var+s - r) sets `to` to r-s, and
    translating the integration variable var by t sets it to var+t.

Smearing functions are never evaluated, only tagged (f or f' at a point).
Expressions are kept canonical: structurally equal terms merge and zero
coefficients vanish (SymExpr._merge), so "is the result identically zero"
is a syntactic question.  The canonical order is the factor dataclasses'
field order: a point sorts by (base, shift), a delta by its two points and
a smearing tag by (order, point), and add_term sorts each factor tuple
plainly.  Matrix insertions are stored as explicit entries (exact small
integers here), making equality of insertions plain numeric equality.
"""

from __future__ import annotations

from dataclasses import dataclass

MatrixKey = tuple[complex, complex, complex, complex]

MAT_ID: MatrixKey = (1 + 0j, 0j, 0j, 1 + 0j)
MAT_SX: MatrixKey = (0j, 1 + 0j, 1 + 0j, 0j)
MAT_SZ: MatrixKey = (1 + 0j, 0j, 0j, -1 + 0j)

_MATRIX_NAMES = {MAT_ID: "1", MAT_SX: "sx", MAT_SZ: "sz"}


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

    def __str__(self) -> str:
        if self.shift == 0:
            return self.base
        mag = abs(self.shift)
        stem = "e" if mag == 1 else f"{mag}e"
        return f"{self.base}{'+' if self.shift > 0 else '-'}{stem}"


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True, order=True)
class SmearFactor:
    """Formal smearing tag: f (order 0) or its derivative f' (order 1) at a point."""

    order: int
    point: SymPoint

    def __str__(self) -> str:
        return f"f{chr(39) * self.order}({self.point})"


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


def _term_sort_key(key: TermKey):
    """Bilinear terms first, by bilinear, then by the factor tuples; complex entries do not
    order, so the matrix compares as (real, imag) pairs."""
    deltas, smears, bil = key
    bil_part = () if bil is None else (bil.left, tuple((c.real, c.imag) for c in bil.matrix), bil.right)
    return (bil is None, bil_part, deltas, smears)


class SymExpr:
    """Canonical sum of terms: structurally equal terms merged, zeros removed."""

    def __init__(self, terms: dict[TermKey, complex] | None = None):
        self.terms: dict[TermKey, complex] = {}
        for key, coeff in (terms or {}).items():
            self._merge(key, coeff)

    def _merge(self, key: TermKey, coeff: complex) -> None:
        """Add coeff to the term of this canonical key, dropping the term when the sum is exactly zero."""
        s = self.terms.get(key, 0j) + coeff
        if s == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def add_term(self, coeff: complex, deltas=(), smears=(), bilinear: Bilinear | None = None) -> None:
        self._merge((tuple(sorted(deltas)), tuple(sorted(smears)), bilinear), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))


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


def _substitute(key: TermKey, var: str, to: SymPoint) -> TermKey:
    """The factors of the term with every point var+s made to+s: its deltas, smears and bilinear."""

    def put(p: SymPoint) -> SymPoint:
        return SymPoint(to.base, to.shift + p.shift) if p.base == var else p

    deltas, smears, bil = key
    return (
        tuple(DeltaFactor.of(put(d.a), put(d.b)) for d in deltas),
        tuple(SmearFactor(s.order, put(s.point)) for s in smears),
        None if bil is None else Bilinear(put(bil.left), bil.matrix, put(bil.right)),
    )


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
        # var + s = root  =>  var -> root - s
        pinned, root = (delta.a, delta.b) if delta.a.base == var else (delta.b, delta.a)
        rest = tuple(d for d in deltas if d is not delta)
        out.add_term(coeff, *_substitute((rest, smears, bil), var, SymPoint(root.base, root.shift - pinned.shift)))
    return out


def formal_smeared_commutator(split: bool = False, record: list | None = None) -> SymExpr:
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
    z, zp = "z", "z'"
    density = Bilinear(SymPoint(z), MAT_ID, SymPoint(z))

    def note(label: str, expr: SymExpr) -> None:
        if record is not None:
            record.append((label, format_expr(expr)))

    shifts = (+1, -1) if split else (0,)
    comm = SymExpr()
    for gamma in shifts:  # the split current is the mean of its two shifted currents
        current = Bilinear(SymPoint(zp, gamma), MAT_SX, SymPoint(zp))
        for key, coeff in commute_bilinears(density, current).terms.items():
            comm._merge(key, coeff / len(shifts))
    note("commutator", comm)

    smeared = SymExpr()
    for (deltas, smears, bil), coeff in comm.terms.items():
        assert not smears
        smeared.add_term(-1j * coeff, deltas, (SmearFactor(0, SymPoint(z)), SmearFactor(1, SymPoint(zp))), bil)
    note("smeared", smeared)

    integrated = integrate_delta(smeared, zp)
    note("integrated", integrated)

    aligned = SymExpr()
    for key, coeff in integrated.terms.items():
        # translate z (legitimate under the formal integral over z) so that the bilinear ends at z
        aligned.add_term(coeff, *_substitute(key, z, SymPoint(z, -key[2].right.shift)))
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
