import pytest
from hypothesis import given, settings, strategies as st

from pointsplit.symbolic import (
    MAT_ID,
    MAT_SX,
    MAT_SZ,
    Bilinear,
    DeltaFactor,
    SmearFactor,
    SymExpr,
    SymPoint,
    commute_bilinears,
    formal_smeared_commutator,
    format_expr,
    integrate_delta,
    _substitute,
)

Z = SymPoint("z")
ZP = SymPoint("z'")
ZPP = SymPoint("z''")


def test_point_equality_and_shift():
    assert SymPoint("z", 1) == SymPoint("z", 1)
    assert SymPoint("z", 1) != SymPoint("z", -1)
    assert str(SymPoint("z'", -1)) == "z'-e"
    assert str(SymPoint("z", 2)) == "z+2e"


def test_delta_is_even():
    assert DeltaFactor.of(Z, ZP) == DeltaFactor.of(ZP, Z)


def test_commutator_reproduces_density_current_rule():
    # [psi'(z) psi(z), psi'(z') sx psi(z'')] =
    #   psi'(z) sx psi(z'') d(z-z') - psi'(z') sx psi(z) d(z-z'')
    got = commute_bilinears(Bilinear(Z, MAT_ID, Z), Bilinear(ZP, MAT_SX, ZPP))
    expected = SymExpr()
    expected.add_term(1.0, deltas=(DeltaFactor.of(Z, ZP),), bilinear=Bilinear(Z, MAT_SX, ZPP))
    expected.add_term(-1.0, deltas=(DeltaFactor.of(Z, ZPP),), bilinear=Bilinear(ZP, MAT_SX, Z))
    assert got.terms == expected.terms


def test_self_commutator_is_zero():
    rho = Bilinear(Z, MAT_ID, Z)
    assert commute_bilinears(rho, rho).is_zero()


def test_commutator_antisymmetry():
    a = Bilinear(Z, MAT_SZ, SymPoint("z", 1))
    b = Bilinear(ZP, MAT_SX, ZP)
    ab, ba = commute_bilinears(a, b), commute_bilinears(b, a)
    assert ab.terms == {key: -coeff for key, coeff in ba.terms.items()}


def test_commuting_insertions_coincident_points_cancel():
    a = Bilinear(Z, MAT_ID, Z)
    b = Bilinear(Z, MAT_SZ, Z)  # identity commutes with anything
    assert commute_bilinears(a, b).is_zero()


def test_split_commutator_two_term_structure():
    # split right argument: one delta at z - (z'+e), one at z - z'
    got = commute_bilinears(Bilinear(Z, MAT_ID, Z), Bilinear(SymPoint("z'", 1), MAT_SX, ZP))
    expected = SymExpr()
    expected.add_term(
        1.0, deltas=(DeltaFactor.of(Z, SymPoint("z'", 1)),), bilinear=Bilinear(Z, MAT_SX, ZP)
    )
    expected.add_term(
        -1.0, deltas=(DeltaFactor.of(ZP, Z),), bilinear=Bilinear(SymPoint("z'", 1), MAT_SX, Z)
    )
    assert got.terms == expected.terms


def test_integrate_delta_substitution():
    # a SymExpr's keys are (deltas, smears, bilinear), each factor tuple sorted: one factor is sorted
    expr = SymExpr({((DeltaFactor.of(Z, ZP),), (), Bilinear(Z, MAT_SX, ZP)): 1.0})
    out = integrate_delta(expr, "z'")
    assert out.terms == {((), (), Bilinear(Z, MAT_SX, Z)): 1.0}


def test_integrate_delta_shifted_root():
    # d(z - (z'+e)) pins z' = z - e
    expr = SymExpr({((DeltaFactor.of(Z, SymPoint("z'", 1)),), (), Bilinear(Z, MAT_SX, ZP)): 1.0})
    out = integrate_delta(expr, "z'")
    assert out.terms == {((), (), Bilinear(Z, MAT_SX, SymPoint("z", -1))): 1.0}


def test_integrate_delta_requires_delta():
    with pytest.raises(ValueError):
        integrate_delta(SymExpr({((), (), None): 2.0}), "z'")


def test_shift_variable():
    # translating z by +1 is the substitution z+s -> (z+1)+s; z' stays put
    key = ((DeltaFactor.of(SymPoint("z", -1), ZP),), (SmearFactor(1, SymPoint("z", -1)),), Bilinear(Z, MAT_SX, ZP))
    assert _substitute(key, "z", SymPoint("z", 1)) == (
        (DeltaFactor.of(Z, ZP),),
        (SmearFactor(1, Z),),
        Bilinear(SymPoint("z", 1), MAT_SX, ZP),
    )


def test_formal_pipeline_cancels_at_coincident_points():
    record = []
    result = formal_smeared_commutator(split=False, record=record)
    assert result.is_zero()
    assert format_expr(result) == "0"
    # the cancellation happens at the delta-integration step, not before
    labels = [name for name, _ in record]
    assert labels == ["commutator", "smeared", "integrated", "aligned"]
    assert record[1][1] != "0"
    assert record[2][1] == "0"


def test_formal_pipeline_split_survives():
    result = formal_smeared_commutator(split=True)
    assert not result.is_zero()
    assert len(result.terms) == 4
    # every surviving bilinear is psi'(z +- e) sx psi(z), weighted f(z +- e) - f(z)
    by_bilinear = {}
    for (deltas, smears, bil), coeff in result.terms.items():
        assert deltas == ()
        assert bil.matrix == MAT_SX
        assert bil.right == Z
        assert bil.left.shift in (+1, -1)
        orders = sorted(s.order for s in smears)
        assert orders == [0, 1]
        by_bilinear.setdefault(bil.left.shift, []).append((smears, coeff))
    for shift, entries in by_bilinear.items():
        assert len(entries) == 2
        coeffs = sorted(c.imag for _, c in entries)
        assert coeffs == [-0.5, 0.5]


SPLIT_GOLDEN = """\
-0.5j * f(z-e) * f'(z) * psi+(z-e).sx.psi(z)
  + 0.5j * f(z) * f'(z) * psi+(z-e).sx.psi(z)
  + 0.5j * f(z) * f'(z) * psi+(z+e).sx.psi(z)
  + -0.5j * f(z+e) * f'(z) * psi+(z+e).sx.psi(z)"""


def test_pretty_printer_golden():
    assert format_expr(formal_smeared_commutator(split=True)) == SPLIT_GOLDEN


def test_pretty_printer_deterministic_ordering():
    a = formal_smeared_commutator(split=True)
    b = formal_smeared_commutator(split=True)
    assert format_expr(a) == format_expr(b)


_points = st.builds(SymPoint, st.sampled_from(["z", "z'"]), st.integers(-2, 2))
_terms = st.lists(
    st.tuples(
        # small Gaussian integers, so that merged sums are exact in any order
        st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)),
        st.lists(st.builds(DeltaFactor.of, _points, _points), max_size=3),
        st.lists(st.builds(SmearFactor, point=_points, order=st.integers(0, 1)), max_size=3),
        st.one_of(
            st.none(),
            # sz.sx prints in the general-matrix form
            st.builds(Bilinear, _points, st.sampled_from([MAT_ID, MAT_SX, MAT_SZ, (0j, 1 + 0j, -1 + 0j, 0j)]), _points),
        ),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(terms=_terms, data=st.data())
def test_canonical_form_ignores_the_order_of_factors_and_terms(terms, data):
    def build(terms):
        expr = SymExpr()
        for coeff, deltas, smears, bil in terms:
            expr.add_term(coeff, data.draw(st.permutations(deltas)), data.draw(st.permutations(smears)), bil)
        return expr

    first, second = build(terms), build(data.draw(st.permutations(terms)))
    assert first.terms == second.terms
    assert format_expr(first) == format_expr(second)
