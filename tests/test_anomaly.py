import cmath
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsplit import anomaly, cli, fock
from pointsplit.anomaly import (
    damped_kernel_integral,
    double_commutator_direct,
    double_commutator_spectral,
    finite_difference_limit,
    kernel_asymptote,
    split_commutator_integral,
    split_vev_kernel,
)
from pointsplit.fock import ELECTRON, POSITRON, SlotIndex, inner, n_slots_for, vacuum
from pointsplit.lattice import ID2, LatticeConfig, dispersion, spinor
from pointsplit.modeops import _mode_table, _sandwich_at, _smeared_kernel, apply_operator, hamiltonian, smeared_charge
from pointsplit.symbolic import formal_smeared_commutator

from oracles import TrigPoly

CFG2 = LatticeConfig(1.0, 1.0, 2)
COS1 = TrigPoly.from_harmonics(CFG2.box_length, [(1, 0.5, 0.0)])  # cos(2 pi z / L)

# frozen from the independent spinor-overlap oracle below (test_spectral_oracle)
DOUBLE_COMMUTATOR_COS1 = 0.8944271909999154


def spectral_oracle(f: TrigPoly, cfg: LatticeConfig) -> float:
    """Independent route: explicit pair amplitudes c_{ja-jb} u_-(ja)' u_+(jb)."""
    total = 0.0
    for je in cfg.mode_indices():
        ue = spinor(+1, je, cfg)
        for jp in cfg.mode_indices():
            up = spinor(-1, jp, cfg)
            c = f.coeff(jp - je)
            if c == 0:
                continue
            amp = c * complex(np.vdot(up.u, ue.u))
            total += 2.0 * abs(amp) ** 2 * (ue.energy + up.energy)
    return total


# -- trig polynomials ----------------------------------------------------------


def test_trigpoly_evaluation_and_reality():
    f = TrigPoly.from_harmonics(2 * math.pi, [(1, 0.5, 0.0)])
    for z in (0.0, 0.7, 3.3):
        assert f(z) == pytest.approx(math.cos(z), abs=1e-14)


def test_trigpoly_conjugate_symmetry_enforced():
    with pytest.raises(ValueError):
        TrigPoly(2 * math.pi, {1: 1.0 + 0j, -1: 2.0 + 0j})
    with pytest.raises(ValueError):
        TrigPoly.from_harmonics(2 * math.pi, [(0, 1.0, 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trigpoly_rejects_non_finite_coefficients(bad):
    """A NaN passes the conjugate-symmetry test (every comparison with it is
    False), so finiteness is checked on its own, in either part, through the
    constructor and through from_harmonics, with one line naming the harmonic."""
    L = 2 * math.pi
    for coeffs in ({1: complex(bad, 0), -1: 0.5}, {1: 0.5, -1: complex(0, bad)}, {0: bad}):
        with pytest.raises(ValueError, match=r"^harmonic -?\d+ must be finite, got [^\n]*$"):
            TrigPoly(L, coeffs)
    for harmonic in ((1, bad, 0.0), (1, 0.5, bad), (0, bad, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            TrigPoly.from_harmonics(L, [harmonic])


def test_trigpoly_parseval():
    f = TrigPoly.from_harmonics(2 * math.pi, [(1, 0.3, -0.1), (3, 0.0, 0.25)])
    df = f.derivative()
    # quadrature oracle: periodic trapezoid is exact for trig polynomials
    n = 128
    zs = np.arange(n) * 2 * math.pi / n
    quad = sum(df(z) ** 2 for z in zs) * 2 * math.pi / n
    assert f.derivative_power() == pytest.approx(quad, rel=1e-12)
    assert ((df * df).integral()) == pytest.approx(f.derivative_power(), rel=1e-12)


def test_trigpoly_shift_product_integral():
    f = TrigPoly.from_harmonics(2 * math.pi, [(2, 0.5, 0.2)])
    g = f.shifted(0.4)
    for z in (0.0, 1.1):
        assert g(z) == pytest.approx(f(z + 0.4), abs=1e-12)
    n = 128
    zs = np.arange(n) * 2 * math.pi / n
    quad = sum(f(z) * g(z) for z in zs) * 2 * math.pi / n
    assert (f * g).integral() == pytest.approx(quad, rel=1e-12)


# -- exact double commutator ----------------------------------------------------


def test_constant_smearing_gives_zero():
    f = TrigPoly.constant(CFG2.box_length, 1.0)
    assert double_commutator_direct(f, CFG2) == pytest.approx(0.0, abs=1e-12)
    assert double_commutator_spectral(f, CFG2) == pytest.approx(0.0, abs=1e-12)


def test_spectral_oracle():
    assert spectral_oracle(COS1, CFG2) == pytest.approx(DOUBLE_COMMUTATOR_COS1, abs=1e-13)


def test_two_routes_agree_and_match_oracle():
    d = double_commutator_direct(COS1, CFG2)
    s = double_commutator_spectral(COS1, CFG2)
    assert d > 0
    assert abs(d - s) < 1e-10 * max(1.0, abs(d))
    assert d == pytest.approx(DOUBLE_COMMUTATOR_COS1, abs=1e-12)
    assert s == pytest.approx(spectral_oracle(COS1, CFG2), abs=1e-12)


def test_quadratic_scaling_in_f():
    base = double_commutator_direct(COS1, CFG2)
    doubled = double_commutator_direct(2.0 * COS1, CFG2)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def test_nested_commutator_operator_route():
    # fourth route: vev of the literal [F, [H, F]] via pure operator algebra
    from pointsplit.modeops import commutator, hamiltonian, smeared_charge, vev

    F = smeared_charge(COS1, CFG2)
    H = hamiltonian(CFG2)
    nested = vev(commutator(F, commutator(H, F)))
    assert abs(nested.imag) < 1e-12
    assert nested.real == pytest.approx(DOUBLE_COMMUTATOR_COS1, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),
            st.floats(-1.0, 1.0, allow_nan=False),
            st.floats(-1.0, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=25, deadline=None)
def test_routes_agree_for_random_smearings(harmonics):
    f = TrigPoly.from_harmonics(CFG2.box_length, harmonics)
    d = double_commutator_direct(f, CFG2)
    s = double_commutator_spectral(f, CFG2)
    assert s >= -1e-12
    assert abs(d - s) < 1e-10 * max(1.0, abs(d), abs(s))
    assert abs(d - spectral_oracle(f, CFG2)) < 1e-10 * max(1.0, abs(d))


def _direct_by_three_full_passes(f: TrigPoly, cfg: LatticeConfig) -> float:
    """Oracle: F, H and F each applied in full to |0>, then the whole state read against <0|."""
    F = smeared_charge(f, cfg)
    vac = vacuum(cfg)
    w = apply_operator(F, apply_operator(hamiltonian(cfg), apply_operator(F, vac)))
    return (2.0 * inner(vac, w)).real


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_direct_route_equals_the_three_full_passes(data):
    cfg = LatticeConfig(1.0, 1.0, data.draw(st.integers(1, 8)))
    amplitude = st.floats(-1.0, 1.0, allow_nan=False)
    harmonics = data.draw(
        st.lists(st.tuples(st.integers(0, 2 * cfg.n_max), amplitude, amplitude), min_size=1, max_size=3)
    )
    f = TrigPoly.from_harmonics(cfg.box_length, [(k, a, b if k else 0.0) for k, a, b in harmonics])
    assert repr(double_commutator_direct(f, cfg)) == repr(_direct_by_three_full_passes(f, cfg))


def test_direct_route_makes_one_sign_call_per_hit(monkeypatch):
    """F|0> acts once with each pair-creating word, H F|0> once with the
    number operator of each slot each pair state holds, and <0|F once with
    each pair-annihilating word, in that order: at n_max 32 with harmonics 1
    and 2, the 2 (2 n_max + 1 - n) pairs per harmonic n make 254 + 508 + 254
    sign calls, each one a hit, none repeated."""
    cfg = LatticeConfig(1.0, 1.0, 32)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0), (2, 0.3, 0.1)])
    signed, calls = fock._apply_word, []

    def counted(creators, annihilators, bits):
        hit = signed(creators, annihilators, bits)
        calls.append((creators, annihilators, bits, hit))
        return hit

    monkeypatch.setattr(fock, "_apply_word", counted)
    value = double_commutator_direct(f, cfg)
    pairs = sum(2 * (2 * cfg.n_max + 1 - n) for n in (1, 2))
    creating = [c for c in calls if c[0] and not c[1]]
    counting = [c for c in calls if c[0] and c[0] == c[1]]
    annihilating = [c for c in calls if c[1] and not c[0]]
    assert (len(creating), len(counting), len(annihilating)) == (254, 508, 254) == (pairs, 2 * pairs, pairs)
    assert calls == creating + counting + annihilating
    assert all(bits == 0 for _, _, bits, _ in creating)
    assert all(hit is not None for *_, hit in calls)
    assert len({c[:3] for c in calls}) == len(calls)
    monkeypatch.undo()
    assert repr(value) == repr(double_commutator_direct(f, cfg))


def _spectral_from_normal_form(f: TrigPoly, cfg: LatticeConfig) -> float:
    """Oracle: each pair amplitude read off the normal-ordered F as the
    coefficient of d_p b_e, each energy from dispersion(), electron mode outer."""
    F = smeared_charge(f, cfg)
    total = 0.0
    for je in cfg.mode_indices():
        for jp in cfg.mode_indices():
            pair = (SlotIndex(POSITRON, jp).linear(cfg.n_max), SlotIndex(ELECTRON, je).linear(cfg.n_max))
            amp = F.coefficient(((), pair))
            if amp == 0:
                continue
            energy = dispersion(cfg.momentum(je), cfg.mass) + dispersion(cfg.momentum(jp), cfg.mass)
            total += 2.0 * abs(amp) ** 2 * energy
    return total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_spectral_route_equals_the_normal_form_oracle(data):
    cfg = LatticeConfig(
        data.draw(st.floats(0.05, 5.0) | st.sampled_from([1, 2])),
        data.draw(st.floats(0.1, 3.0) | st.integers(1, 3)),
        data.draw(st.integers(1, 8)),
    )
    amplitude = st.floats(-1.0, 1.0, allow_nan=False)
    harmonics = data.draw(
        st.lists(st.tuples(st.integers(1, 2 * cfg.n_max), amplitude, amplitude), min_size=1, max_size=3)
    )
    f = TrigPoly.from_harmonics(cfg.box_length, [(0, data.draw(amplitude), 0.0)] + harmonics)
    # the band holds the nonzero entries, and their values, that evaluating f.coeff entry by entry gives
    j, slots = _mode_table(cfg).j, np.arange(n_slots_for(cfg.n_max))
    sandwiches = _sandwich_at(cfg, ID2, slots[:, None], slots)
    entrywise = np.vectorize(f.coeff, otypes=[complex])(j[:, None] - j[None, :]) * sandwiches
    rows, cols, values = _smeared_kernel(f, cfg)
    nonzero = np.nonzero(entrywise)
    assert rows.tolist() == nonzero[0].tolist() and cols.tolist() == nonzero[1].tolist()
    assert values.tobytes() == entrywise[nonzero].tobytes()
    assert double_commutator_spectral(f, cfg) == _spectral_from_normal_form(f, cfg)


def test_formal_rewrite_is_zero_while_exact_is_positive():
    assert formal_smeared_commutator(split=False).is_zero()
    assert double_commutator_direct(COS1, CFG2) > 0


# f = cos z + 0.6 cos 2z on the box of length 2 pi (delta_p 1).  Its continuum
# anomaly (1/pi) integral_0^{2 pi} f'(z)^2 dz is worked out by hand, with no
# package code: f' = -sin z - 1.2 sin 2z, and sin^2(nz) integrates to pi, so
# the limit is 1^2 + 1.2^2.
CONTINUUM_HARMONICS = [(1, 0.5, 0.0), (2, 0.3, 0.0)]
CONTINUUM_LIMIT = 1.0**2 + (2 * 0.6) ** 2

# limit - exact value, measured per (mass, n_max), both routes alike.  The
# lattice drops the modes beyond its cutoff, so the exact value stays below the
# limit by O(m^2 / n_max^2): deficit * n_max^2 / m^2 reads 1.24 at n_max 32 and
# 1.22 at 512 and 1024, at mass 1 and at mass 0.3.  The window is 1e-4 of the
# deficit: at the smallest deficit that is 1.2e-10, far above the rounding of
# either route (they agree to 5e-16), while scaling one smearing coefficient by
# 1 + 1e-6 moves the value by at least 2e-6, over 16 windows at the largest.
CONTINUUM_DEFICIT = {
    (1.0, 32): 1.21355e-3,
    (1.0, 128): 7.48068e-5,
    (1.0, 512): 4.65930e-6,
    (1.0, 1024): 1.16415e-6,
    (1.0, 2048): 2.90955e-7,
    (0.3, 32): 1.09293e-4,
    (0.3, 256): 1.67930e-6,
}
CONTINUUM_DEFICIT_REL = 1e-4


@pytest.mark.parametrize("mass, n_max", sorted(CONTINUUM_DEFICIT))
def test_exact_routes_stay_below_the_continuum_anomaly(mass, n_max):
    """Both exact routes approach (1/pi) integral f'^2 from below, each short of
    it by the deficit measured for this lattice: the Schwinger term the formal
    rewrite loses, pinned to its continuum value."""
    cfg = LatticeConfig(mass, 1.0, n_max)
    f = TrigPoly.from_harmonics(cfg.box_length, CONTINUUM_HARMONICS)
    assert f.derivative_power() / math.pi == pytest.approx(CONTINUUM_LIMIT, rel=1e-15)
    for value in (double_commutator_direct(f, cfg), double_commutator_spectral(f, cfg)):
        deficit = CONTINUUM_LIMIT - value
        assert deficit > 0
        assert deficit == pytest.approx(CONTINUUM_DEFICIT[(mass, n_max)], rel=CONTINUUM_DEFICIT_REL)


# The exact routes hold F's kernel as its band, O(n_max * harmonics) entries,
# and evaluate its spinor sandwiches on that band alone.  At n_max 512 the dense
# N x N sandwich matrix alone is 67 MB; the whole routes trace 7.4 MiB (direct)
# and 1.1 MiB (spectral).
EXACT_ROUTE_PEAK_BYTES = 16 * 2**20


@pytest.mark.parametrize("route", [double_commutator_direct, double_commutator_spectral])
def test_exact_routes_never_hold_a_dense_kernel(route):
    """Neither exact route allocates anything of size N x N, its spinor
    sandwiches included."""
    cfg = LatticeConfig(1.0, 1.0, 512)
    f = TrigPoly.from_harmonics(cfg.box_length, CONTINUUM_HARMONICS)
    tracemalloc.start()
    try:
        route(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= EXACT_ROUTE_PEAK_BYTES


# -- split vacuum kernel ---------------------------------------------------------


def test_kernel_zero_separation():
    assert abs(split_vev_kernel(0.0, CFG2)) < 1e-15


@pytest.mark.parametrize("g", [0.1, 0.9, 2.4])
def test_kernel_odd_and_imaginary(g):
    k = split_vev_kernel(g, CFG2)
    assert abs(k.real) < 1e-12
    assert split_vev_kernel(-g, CFG2) == pytest.approx(-k)


# -- point-split evaluation -------------------------------------------------------


def test_split_integral_zero_cases():
    assert split_commutator_integral(COS1, 0.0, CFG2) == pytest.approx(0.0, abs=1e-14)
    const = TrigPoly.constant(CFG2.box_length, 3.0)
    for eps in (0.1, 0.8):
        assert split_commutator_integral(const, eps, CFG2) == pytest.approx(0.0, abs=1e-14)


def test_split_integral_positive_in_asymptotic_regime():
    # cutoff*eps = 6 > pi while mass*eps = 0.1 << 1
    cfg = LatticeConfig(1.0, 1.0, 60)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
    value = split_commutator_integral(f, 0.1, cfg)
    assert value > 0
    exact = double_commutator_direct(f, cfg)
    assert exact > 0  # same sign as the split-current evaluation


def _trapezoid(values, cfg: LatticeConfig, n: int = 256) -> float:
    """integral over the box of a function of z, by the n-point trapezoid sum (exact for
    trigonometric integrands of harmonics below n)."""
    return sum(values(z) for z in np.arange(n) * cfg.box_length / n) * cfg.box_length / n


def _trapezoid_split_value(f: TrigPoly, eps: float, cfg: LatticeConfig) -> float:
    df = f.derivative()
    total = 0j
    for gamma in (+1, -1):
        g = gamma * eps
        weight = _trapezoid(lambda z: (f(z + g) - f(z)) * df(z), cfg)
        total += weight * split_vev_kernel(g, cfg)
    return (-0.5j * total).real


def test_split_integral_matches_quadrature_oracle():
    # independent route: dense trapezoid in z (exact for trig integrands)
    cfg = LatticeConfig(1.0, 1.0, 5)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0), (2, -0.2, 0.1)])
    assert split_commutator_integral(f, 0.37, cfg) == pytest.approx(_trapezoid_split_value(f, 0.37, cfg), abs=1e-12)


def test_large_smearing_amplitudes_match_the_quadrature_oracle(tmp_path, capsys):
    """Amplitudes near 1e3 give f' (f(z+g) - f(z)) coefficients near 1e5 whose mirrored
    pairs differ in round-off beyond any absolute symmetry tolerance; the split-current
    value and the finite difference read f's harmonics directly, so the run ends in 0 with
    both rows on the trapezoid z-sum."""
    out = tmp_path / "large.json"
    harmonics = ["1:1000:0.37", "2:1000:-0.21", "3:0.3:1000"]
    argv = ["anomaly", "--n-max", "8", "--eps", "0.05", "--out", str(out)]
    assert cli.main(argv + [x for h in harmonics for x in ("--f-harmonic", h)]) == 0
    assert capsys.readouterr().err == ""
    tables = json.loads(out.read_text())["tables"]
    cfg = LatticeConfig(1.0, 1.0, 8)
    f = TrigPoly.from_harmonics(cfg.box_length, [(1, 1000, 0.37), (2, 1000, -0.21), (3, 0.3, 1000)])
    [row] = tables["pointsplit"]
    assert row["value"] == pytest.approx(_trapezoid_split_value(f, 0.05, cfg), rel=1e-12, abs=0)
    [row] = tables["continuum"]
    df = f.derivative()
    fd = sum(2.0 * _trapezoid(lambda z: (f(z + g) - f(z)) * df(z), cfg) / g for g in (0.05, -0.05))
    assert row["finite_difference"] == pytest.approx(fd, rel=1e-12, abs=0)
    assert row["limit"] == pytest.approx(4.0 * _trapezoid(lambda z: df(z) ** 2, cfg), rel=1e-12, abs=0)


def test_shift_integral_past_the_float_range_raises():
    # harmonic 34 of a lattice at delta_p 1e307 has an infinite wavenumber
    cfg = LatticeConfig(1.0, 1e307, 17)
    f = TrigPoly.from_harmonics(cfg.box_length, [(34, 0.5, 0.0)])
    with pytest.raises(ValueError):
        split_commutator_integral(f, 0.1, cfg)
    with pytest.raises(ValueError):
        finite_difference_limit(f, 0.1)


@pytest.mark.parametrize("route", [double_commutator_direct, double_commutator_spectral])
def test_exact_routes_name_the_harmonic_where_they_leave_the_float_range(monkeypatch, capsys, route):
    # |c_1|^2 is past the float range; the other route is stubbed, so this one alone leaves it
    for other in (double_commutator_direct, double_commutator_spectral):
        if other is not route:
            monkeypatch.setattr(cli, other.__name__, lambda f, cfg: 1.0)
    argv = ["anomaly", "--n-max", "8", "--f-harmonic", "1:1e300:1e300", "--f-harmonic", "2:0.5:0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the anomaly run leaves the float range at mass=1.0, delta_p=1.0, n_max=8, eps=[0.3], "
        "f_harmonics=[(1, 1e+300, 1e+300), (2, 0.5, 0.0)]\n"
    )


@pytest.mark.parametrize("table, row", [("kernel", {"g": 0.3, "kernel_imag": math.inf}), ("continuum", {"abs_error": math.nan})])
def test_the_anomaly_report_refuses_a_non_finite_number(tmp_path, monkeypatch, capsys, table, row):
    def with_row(**fields):
        return anomaly.AnomalyReport(**{**fields, table: fields[table] + [row]})

    def exact_inf(f, cfg):
        return math.inf

    argv = ["anomaly", "--f-harmonic", "1:0.5:0"]
    err = "error: the anomaly run leaves the float range at mass=1.0, delta_p=1.0, n_max=2, eps=[0.3], "
    err += "f_harmonics=[(1, 0.5, 0.0)]\n"
    # a non-finite row in the table, then non-finite exact values in the summary
    both_routes = {"double_commutator_direct": exact_inf, "double_commutator_spectral": exact_inf}
    for patches in ({"AnomalyReport": with_row}, both_routes):
        with monkeypatch.context() as m:
            for name, stub in patches.items():
                m.setattr(cli, name, stub)
            for fmt in ("json", "csv"):
                out = tmp_path / f"anomaly.{fmt}"
                assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 2
                assert capsys.readouterr() == ("", err)
                assert not out.exists()


def _trigpoly_shift_weight(f: TrigPoly, g: float) -> float:
    """integral (f(z+g) - f(z)) f'(z) dz through TrigPoly arithmetic."""
    return ((f.shifted(g) - f) * f.derivative()).integral()


@given(
    delta_p=st.floats(0.05, 20.0),
    n_max=st.integers(1, 12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_shift_weight_is_the_trigpoly_route_to_the_bit(delta_p, n_max, data):
    """The closed form over f's harmonics gives the TrigPoly product's float, the constant
    harmonic included, at shifts of either sign, signed zeros and whole box lengths among
    them, and so do the split-current value and the finite difference built on it."""
    cfg = LatticeConfig(1.0, delta_p, n_max)
    indices = data.draw(st.lists(st.integers(0, 2 * n_max), min_size=1, max_size=6, unique=True))
    amplitude = st.floats(1e-3, 10.0)
    harmonics = []
    for n in indices:
        c = data.draw(amplitude) * cmath.exp(1j * (0.0 if n == 0 else data.draw(st.floats(-math.pi, math.pi))))
        harmonics.append((n, c.real, c.imag))
    f = TrigPoly.from_harmonics(cfg.box_length, harmonics)
    g = data.draw(
        st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.integers(-3, 3).map(lambda k: k * cfg.box_length),
            st.floats(-50.0, 50.0),
        )
    )
    try:
        expected = _trigpoly_shift_weight(f, g)
    except ValueError:
        return
    assert anomaly._shift_weight(f, g).hex() == expected.hex()
    try:
        weights = [expected, _trigpoly_shift_weight(f, -g)]
    except ValueError:
        return
    total, fd = 0j, 0.0
    for s, weight in zip((g, -g), weights):
        total += weight * split_vev_kernel(s, cfg)
        fd += 2.0 * weight / s if g else 0.0
    assert split_commutator_integral(f, g, cfg).hex() == (-0.5j * total).real.hex()
    if g:
        assert finite_difference_limit(f, g)[0].hex() == fd.hex()


# -- continuum kernel integral -----------------------------------------------------


def test_damped_integral_massless_closed_form():
    for eps, eta in [(0.05, 0.01), (0.2, 0.002)]:
        got = damped_kernel_integral(eps, eta, cutoff=1e4, m=0.0)
        assert got == pytest.approx(eps / (eps**2 + eta**2), rel=1e-7)


def test_damped_integral_validates_inputs():
    with pytest.raises(ValueError):
        damped_kernel_integral(-0.1, 0.01, 1e4, 1.0)


def _qawo(eps, eta, cutoff, m):
    """The integral by QUADPACK's QAWO (a sine weight on [0, cutoff]) plus the closed-form tail.

    Right to about 1e-15 for eps <= 0.6 at the default eta = eps^2 and cutoff; from eps of about
    0.65 up it returns almost 0 there, however large the true value.
    """
    from scipy.integrate import quad

    def radial(p):
        return 0.0 if p == 0.0 else p / math.hypot(p, m) * math.exp(-eta * p)

    value, _ = quad(radial, 0.0, cutoff, weight="sin", wvar=eps, limit=800, epsabs=1e-9, epsrel=1e-9)
    return value + (cmath.exp((1j * eps - eta) * cutoff) / (eta - 1j * eps)).imag


def _real_axis_oracle(eps, eta, cutoff, m):
    """The integral at 20 digits by mpmath on the real p axis, split at the zeros of sin(eps*p)."""
    with mpmath.workdps(20):
        eps, eta, cutoff, m = (mpmath.mpf(x) for x in (eps, eta, cutoff, m))
        end = min(cutoff, 50 / eta)  # exp(-eta*p) < 2e-22 beyond
        zeros = [k * mpmath.pi / eps for k in range(1, int(end * eps / mpmath.pi) + 1)]
        radial = lambda p: p / mpmath.sqrt(p * p + m * m) * mpmath.sin(eps * p) * mpmath.exp(-eta * p)
        tail = mpmath.im(mpmath.exp((1j * eps - eta) * cutoff) / (eta - 1j * eps))
        return float(mpmath.quad(radial, [0, *zeros, end]) + tail)


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 0.3, 0.6])
def test_damped_integral_matches_qawo_where_qawo_is_right(eps):
    eta, cutoff = eps * eps, max(1e4, 100 / eps)
    for m in (0.3, 1.0, 2.5):
        assert damped_kernel_integral(eps, eta, cutoff, m) == pytest.approx(_qawo(eps, eta, cutoff, m), rel=1e-13)


@pytest.mark.parametrize("eps", [0.7, 1.0, 2.0, 3.0])
def test_damped_integral_matches_a_real_axis_oracle_where_qawo_returned_zero(eps):
    # QAWO gave 3.9e-22 at eps 1, m 1, where the value is 0.32770
    for m in (0.3, 1.0, 2.5):
        value = damped_kernel_integral(eps, eps * eps, 1e4, m)
        assert type(value) is float  # a numpy scalar would print as np.float64(...) in a CSV report
        assert value == pytest.approx(_real_axis_oracle(eps, eps * eps, 1e4, m), rel=1e-12)


@given(
    eps=st.floats(0.01, 3.0),
    eta_over_eps=st.floats(0.1, 10.0),
    cutoff=st.floats(1.0, 1e4),
    m=st.floats(0.1, 10.0),
)
@settings(max_examples=15, deadline=None)
def test_damped_integral_matches_a_real_axis_oracle_across_inputs(eps, eta_over_eps, cutoff, m):
    eta = eps * eta_over_eps
    # the value can be a small remainder of eps/(eps^2 + eta^2), so round-off is measured against that
    expected = _real_axis_oracle(eps, eta, cutoff, m)
    elementary = eps / (eps * eps + eta * eta)
    assert damped_kernel_integral(eps, eta, cutoff, m) == pytest.approx(expected, rel=1e-12, abs=1e-14 * elementary)


def test_damped_integral_resolves_the_input_qawo_gave_up_on():
    # QAWO stopped here with "roundoff error is detected"; as eta -> 0 and cutoff -> inf the
    # integral tends to m K1(m eps)
    from scipy.special import k1

    for m in (1.0, 2.5):
        assert damped_kernel_integral(1e-3, 1e-300, 1e300, m) == pytest.approx(m * k1(m * 1e-3), rel=1e-12)


def test_damped_integral_raises_when_its_error_estimate_misses_the_tolerance(monkeypatch):
    from numpy.polynomial.legendre import leggauss

    # a check rule too coarse to agree to 1e-6; the pinned tables hold only the rules in use
    monkeypatch.setitem(anomaly._GAUSS_LEGENDRE, 2, leggauss(2))
    monkeypatch.setattr(anomaly, "_CHECK_NODES", 2)
    with pytest.raises(RuntimeError, match="quadrature tolerance not met: achieved error estimate"):
        damped_kernel_integral(0.7, 0.49, 1e4, 1.0)


@pytest.mark.parametrize("n", [anomaly._PANEL_NODES, anomaly._CHECK_NODES])
def test_pinned_quadrature_tables_are_leggauss_to_the_last_bit(n):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = anomaly._GAUSS_LEGENDRE[n]
    expected_nodes, expected_weights = leggauss(n)
    assert nodes.tobytes() == expected_nodes.tobytes()
    assert weights.tobytes() == expected_weights.tobytes()
    for table in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_kernel_asymptote_principal_value():
    scaled = 0.01 * kernel_asymptote(0.01, m=1.0)
    assert 0.95 <= scaled <= 1.05


def test_kernel_asymptote_names_a_default_that_leaves_the_float_range():
    with pytest.raises(ValueError, match=r"default eta = eps\*eps underflows to 0 at eps 1e-300; pass --eta"):
        kernel_asymptote(1e-300)
    with pytest.raises(ValueError, match=r"default cutoff = max\(1e4, 100/eps\) overflows to inf at eps 1e-307"):
        kernel_asymptote(1e-307, eta=1e-3)
    with pytest.raises(ValueError, match="kernel asymptote needs eps > 0, got 0.0"):
        kernel_asymptote(0.0)


def test_kernel_asymptote_monotone_trend():
    gaps = [abs(1.0 - eps * kernel_asymptote(eps, m=1.0)) for eps in (0.1, 0.05, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]


# -- finite-difference limit ----------------------------------------------------


def test_finite_difference_limit_formula():
    # COS1 is c*cos(kz) with amplitude c = 1, k = 2 pi / L:
    # limit is 4 * (c^2 k^2 L / 2) = 2 c^2 k^2 L
    L = CFG2.box_length
    c, k = 1.0, 2 * math.pi / L
    fd, limit = finite_difference_limit(COS1, 0.1)
    assert limit == pytest.approx(2 * c**2 * k**2 * L, rel=1e-12)
    assert fd == pytest.approx(limit * math.sin(k * 0.1) / (k * 0.1), rel=1e-12)


def test_finite_difference_quadratic_convergence():
    errors = [abs(finite_difference_limit(COS1, eps)[0] - finite_difference_limit(COS1, eps)[1])
              for eps in (0.1, 0.05, 0.025)]
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.01)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.01)


def test_finite_difference_constant_smearing():
    const = TrigPoly.constant(CFG2.box_length, 1.0)
    fd, limit = finite_difference_limit(const, 0.2)
    assert fd == 0.0
    assert limit == 0.0
    with pytest.raises(ValueError):
        finite_difference_limit(COS1, 0.0)
