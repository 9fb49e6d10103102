from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointsplit import fock
from pointsplit.checks import check_car
from pointsplit.fock import (
    ELECTRON,
    POSITRON,
    FockVector,
    SlotIndex,
    apply_annihilate,
    apply_create,
    inner,
    n_max_from_slots,
    n_slots_for,
    slot_from_linear,
    vacuum,
)
from pointsplit.lattice import LatticeConfig
from pointsplit.modeops import ModeOperator, apply_operator, creator_op, multiply

CFG1 = LatticeConfig(1.0, 1.0, 1)  # 6 slots, dim 64
N1 = n_slots_for(1)


def dense_create_matrix(k: int, n_slots: int) -> np.ndarray:
    """Independent sign oracle: build the creator matrix from the bit rule."""
    dim = 1 << n_slots
    mat = np.zeros((dim, dim), dtype=complex)
    for bits in range(dim):
        if (bits >> k) & 1:
            continue
        sign = (-1) ** bin(bits & ((1 << k) - 1)).count("1")
        mat[bits | (1 << k), bits] = sign
    return mat


def as_dense(v: FockVector) -> np.ndarray:
    out = np.zeros(1 << v.n_slots, dtype=complex)
    for bits, a in v.amp.items():
        out[bits] = a
    return out


def random_vector(rng, n_slots: int) -> FockVector:
    dim = 1 << n_slots
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    keep = rng.random(dim) < 0.3
    return FockVector(n_slots, {b: complex(amps[b]) for b in range(dim) if keep[b]})


def test_slot_linearization_roundtrip():
    n_max = 3
    seen = set()
    for species in (ELECTRON, POSITRON):
        for j in range(-n_max, n_max + 1):
            k = SlotIndex(species, j).linear(n_max)
            assert slot_from_linear(k, n_max) == SlotIndex(species, j)
            seen.add(k)
    assert seen == set(range(n_slots_for(n_max)))
    assert n_max_from_slots(n_slots_for(n_max)) == n_max


def test_slot_validation():
    with pytest.raises(ValueError):
        SlotIndex("muon", 0)
    with pytest.raises(ValueError):
        SlotIndex(ELECTRON, 2).linear(1)


def test_vacuum_definition():
    v = vacuum(CFG1)
    assert v.amp == {0: 1.0 + 0.0j}
    assert v.norm() == pytest.approx(1.0)
    for species in (ELECTRON, POSITRON):
        for j in (-1, 0, 1):
            assert apply_annihilate(SlotIndex(species, j), v).is_zero()


def test_create_on_vacuum():
    v = apply_create(SlotIndex(ELECTRON, -1), vacuum(CFG1))  # slot 0: no signs below
    assert v.amp == {1: 1.0 + 0.0j}
    assert apply_create(SlotIndex(ELECTRON, -1), v).is_zero()  # Pauli exclusion


def test_create_order_sign():
    # creating j=0 then j=1 versus the reverse differ by the overall sign -1
    v = vacuum(CFG1)
    a = apply_create(SlotIndex(ELECTRON, 1), apply_create(SlotIndex(ELECTRON, 0), v))
    b = apply_create(SlotIndex(ELECTRON, 0), apply_create(SlotIndex(ELECTRON, 1), v))
    assert a.amp.keys() == b.amp.keys()
    assert a.sub(b.scaled(-1.0)).is_zero()


def test_annihilate_inverts_create_on_vacuum():
    v = vacuum(CFG1)
    w = apply_annihilate(SlotIndex(ELECTRON, 0), apply_create(SlotIndex(ELECTRON, 0), v))
    assert w.sub(v).is_zero()
    assert apply_annihilate(SlotIndex(POSITRON, 1), v).is_zero()


def test_create_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for k in range(N1):
        mat = dense_create_matrix(k, N1)
        v = random_vector(rng, N1)
        got = as_dense(apply_create(slot_from_linear(k, 1), v))
        assert np.allclose(got, mat @ as_dense(v), atol=1e-14)
        # annihilation is the conjugate transpose of the same oracle
        got_a = as_dense(apply_annihilate(slot_from_linear(k, 1), v))
        assert np.allclose(got_a, mat.conj().T @ as_dense(v), atol=1e-14)


def test_adjointness():
    rng = np.random.default_rng(11)
    for k in range(N1):
        slot = slot_from_linear(k, 1)
        v = random_vector(rng, N1)
        w = random_vector(rng, N1)
        lhs = inner(w, apply_create(slot, v))
        rhs = inner(apply_annihilate(slot, w), v)
        assert abs(lhs - rhs) < 1e-12


def test_inner_examples():
    vac = vacuum(CFG1)
    assert inner(vac, vac) == 1.0
    one_particle = apply_create(SlotIndex(ELECTRON, 0), vac)
    assert inner(vac, one_particle) == 0.0  # orthogonal particle-number sectors


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(13)
    v = random_vector(rng, N1)
    w = random_vector(rng, N1)
    assert abs(inner(v, w) - inner(w, v).conjugate()) < 1e-12
    assert inner(v, v).imag == pytest.approx(0.0, abs=1e-14)
    assert inner(v, v).real >= 0.0


def test_inner_lattice_mismatch():
    with pytest.raises(ValueError):
        inner(vacuum(CFG1), vacuum(LatticeConfig(1.0, 1.0, 2)))


def cre(k: int, v: FockVector) -> FockVector:
    return apply_create(slot_from_linear(k, 1), v)


def ann(k: int, v: FockVector) -> FockVector:
    return apply_annihilate(slot_from_linear(k, 1), v)


@given(st.integers(0, N1 - 1), st.integers(0, N1 - 1), st.integers(0, (1 << N1) - 1))
@settings(max_examples=200, deadline=None)
def test_car_on_basis_states(s, t, bits):
    """{a_s, a'_t} = delta_st, {a_s, a_t} = 0, {a'_s, a'_t} = 0, exact signs."""
    v = FockVector.basis_state(bits, N1)
    x = ann(s, cre(t, v)).add(cre(t, ann(s, v)))
    expect = v if s == t else FockVector.zero(N1)
    assert x.sub(expect).norm() == 0.0
    assert ann(s, ann(t, v)).add(ann(t, ann(s, v))).norm() == 0.0
    assert cre(s, cre(t, v)).add(cre(t, cre(s, v))).norm() == 0.0


def test_number_operator_eigenvalues():
    for bits in range(1 << N1):
        v = FockVector.basis_state(bits, N1)
        for s in range(N1):
            n_v = cre(s, ann(s, v))
            occ = (bits >> s) & 1
            assert n_v.sub(v.scaled(float(occ))).norm() == 0.0


def test_one_sign_rule_serves_car_and_operators(monkeypatch):
    """Dropping the sign inside the one primitive breaks the exhaustive CAR
    check, operator application and the vacuum read alike: none keeps a rule
    of its own."""
    state = FockVector.basis_state(0b1, N1)
    # a_0 a_3 empties 0b1001 through an odd sign: slot 0 is occupied below slot 3
    pair = FockVector.basis_state(0b1001, N1)
    pair_read = [(((), (0, 3)), 1.0)]
    assert check_car(CFG1).passed
    assert apply_operator(creator_op(3, N1), state).amp == {0b1001: -1.0}
    assert fock._vacuum_part(pair_read, pair).amp == {0: -1.0}

    signed = fock._apply_word

    def unsigned(creators, annihilators, bits):
        hit = signed(creators, annihilators, bits)
        return hit and (hit[0], 0)

    monkeypatch.setattr(fock, "_apply_word", unsigned)
    car = check_car(CFG1)
    assert not car.passed and car.residual == 2.0
    assert apply_operator(creator_op(3, N1), state).amp == {0b1001: 1.0}
    assert cre(3, state).amp == {0b1001: 1.0}
    assert fock._vacuum_part(pair_read, pair).amp == {0: 1.0}


@given(st.integers(0, N1 - 1), st.integers(0, (1 << N1) - 1))
@settings(max_examples=60, deadline=None)
def test_car_sweep_reaches_every_state_and_slot(slot, bits):
    """Dropping the sign of one factor on one bitstring alone breaks the
    table-built CAR check, so it still visits every basis state and slot."""
    word = ((), (slot,)) if (bits >> slot) & 1 else ((slot,), ())
    signed = fock._apply_word
    assume(signed(*word, bits)[1] == 1)

    def one_sign_dropped(creators, annihilators, b):
        hit = signed(creators, annihilators, b)
        return (hit[0], 0) if (creators, annihilators, b) == (*word, bits) else hit

    with mock.patch.object(fock, "_apply_word", one_sign_dropped):
        assert not check_car(CFG1).passed


@pytest.mark.parametrize("slot", range(N1))
def test_car_sweep_reaches_every_diagonal_pair(monkeypatch, slot):
    """Negating every creator on one slot keeps {a'_s, a'_t} = 0 and every
    off-diagonal {a_s, a'_t} = 0; only {a_slot, a'_slot} = 1 can see it."""
    signed = fock._apply_word

    def negated(creators, annihilators, bits):
        hit = signed(creators, annihilators, bits)
        return (hit[0], hit[1] ^ 1) if hit and creators == (slot,) else hit

    monkeypatch.setattr(fock, "_apply_word", negated)
    car = check_car(CFG1)
    assert not car.passed and car.residual == 2.0


# -- occupancy masks and the vacuum read ---------------------------------------


def _apply_terms_unmasked(terms, v: FockVector) -> FockVector:
    """Oracle: the loop before the occupancy masks, every word tried on every bitstring."""
    out: dict[int, complex] = {}
    for (creators, annihilators), coeff in terms:
        for bits, amp in v.amp.items():
            hit = fock._apply_word(creators, annihilators, bits)
            if hit is None:
                continue
            b, odd = hit
            x = -(coeff * amp) if odd else coeff * amp
            acc = out.get(b, 0j) + x
            if acc == 0:
                out.pop(b, None)
            else:
                out[b] = acc
    return FockVector(v.n_slots, out)


def _full_mantissa(rng) -> complex:
    return complex(rng.normal(), rng.normal())


def _random_state(rng, n_slots: int, size: int, extra=()) -> FockVector:
    """Sparse state on random bitstrings of every popcount, plus the given ones."""
    keys = [int(b) for b in rng.integers(0, 1 << n_slots, size=size)]
    return FockVector(n_slots, {b: _full_mantissa(rng) for b in [*keys, *extra]})


@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_masked_application_equals_the_unmasked_loop(n_max, seed, n_words, n_states):
    """Skipping bitstrings by mask gives the same amplitudes in the same order,
    for number operators, creation into full slots, annihilation of empty ones
    and words that repeat a slot."""
    rng = np.random.default_rng(seed)
    n = n_slots_for(n_max)
    terms = []
    for _ in range(n_words):
        creators = tuple(int(s) for s in rng.integers(0, n, size=rng.integers(0, 3)))
        annihilators = tuple(int(s) for s in rng.integers(0, n, size=rng.integers(0, 3)))
        terms.append(((creators, annihilators), _full_mantissa(rng)))
        s = int(rng.integers(0, n))
        terms.append((((s,), (s,)), _full_mantissa(rng)))  # the number operator b'_s b_s
    v = _random_state(rng, n, n_states)
    assert list(fock._apply_terms(terms, v).amp.items()) == list(_apply_terms_unmasked(terms, v).amp.items())


def _random_words(rng, n: int, n_terms: int) -> ModeOperator:
    """Up to two creators and two annihilators per word, c-number included."""
    terms = {}
    for _ in range(n_terms):
        n_cre, n_ann = rng.integers(0, 3, size=2)
        creators = sorted(int(s) for s in rng.choice(n, n_cre, replace=False))
        annihilators = sorted((int(s) for s in rng.choice(n, n_ann, replace=False)), reverse=True)
        terms[(tuple(creators), tuple(annihilators))] = _full_mantissa(rng)
    return ModeOperator(n, terms)


@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 30), st.booleans())
@settings(max_examples=150, deadline=None)
def test_vacuum_read_equals_the_vacuum_entry_of_full_application(n_max, seed, n_terms, n_states, with_vacuum):
    """The vacuum read is the <0| entry of _apply_terms, down to the last bit and
    the sign of zero.  The operator is a product of random words, so it holds
    four-slot words, c-numbers and words with creators; each word's slots are
    shuffled, because in normal order a word that empties a bitstring does so
    with an even sign."""
    rng = np.random.default_rng(seed)
    n = n_slots_for(n_max)
    product = multiply(_random_words(rng, n, n_terms), _random_words(rng, n, n_terms))
    terms = []
    for (creators, annihilators), coeff in product.terms.items():
        word = (tuple(rng.permutation(creators).tolist()), tuple(rng.permutation(annihilators).tolist()))
        terms.append((word, coeff))
    emptied = [sum(1 << s for s in annihilators) for (_, annihilators), _ in terms]
    v = _random_state(rng, n, n_states, extra=emptied)
    if not with_vacuum:
        v.amp.pop(0, None)
    full = fock._apply_terms(terms, v)
    part = fock._vacuum_part(terms, v)
    vac = FockVector.basis_state(0, n)
    assert repr(part.amp) == repr({b: a for b, a in full.amp.items() if b == 0})
    assert repr(inner(vac, part)) == repr(inner(vac, full))


def test_vacuum_read_drops_an_entry_that_cancels():
    v = FockVector(N1, {0: 1.0 + 0j, 0b11: -1.0 + 0j})
    terms = [(((), ()), 0.5 + 0j), (((), (1, 0)), 0.5 + 0j)]
    assert fock._apply_terms(terms, v).amp == {0b11: -0.5}
    assert fock._vacuum_part(terms, v).amp == {}
    assert repr(inner(vacuum(CFG1), fock._vacuum_part(terms, v))) == "0"
