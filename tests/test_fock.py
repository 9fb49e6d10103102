import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pointsplit import checks, fock
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
from pointsplit.groundstate import redefined_vacuum
from pointsplit.lattice import LatticeConfig
from pointsplit.modeops import (
    ModeOperator,
    apply_operator,
    creator_op,
    hamiltonian,
    multiply,
    smeared_charge,
    split_hamiltonian,
)
from pointsplit.trigpoly import TrigPoly

from oracles import factor_table

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


def _apply_word_loop(cre, ann, bits: int):
    """Oracle: the sign rule as one loop over (occupied, slots) pairs, as it
    was written before the two flat loops."""
    odd = 0
    for occupied, slots in ((1, ann), (0, cre)):
        for s in reversed(slots):
            if (bits >> s) & 1 != occupied:
                return None
            odd ^= (bits & ((1 << s) - 1)).bit_count()
            bits ^= 1 << s
    return bits, odd & 1


_SLOT_LISTS = st.lists(st.integers(0, 11), max_size=5).map(tuple)


@given(st.integers(1, 12), _SLOT_LISTS, _SLOT_LISTS)
@example(1, (), ())
@example(12, (), ())
@example(4, (2, 2), ())
@example(4, (), (3, 3))
@example(4, (1, 1), (1, 1))
@settings(max_examples=60, deadline=None)
def test_apply_word_equals_the_loop_oracle_on_every_bitstring(n, creators, annihilators):
    """Empty words, repeated slots on either side, every bitstring of n slots."""
    creators = tuple(s % n for s in creators)
    annihilators = tuple(s % n for s in annihilators)
    for bits in range(1 << n):
        assert fock._apply_word(creators, annihilators, bits) == _apply_word_loop(creators, annihilators, bits)


@pytest.mark.parametrize("n_max", [1, 2])
def test_car_check_makes_one_sign_call_per_factor_and_bitstring(monkeypatch, n_max):
    signed = fock._apply_word
    calls = []

    def counted(creators, annihilators, bits):
        calls.append((creators, annihilators, bits))
        return signed(creators, annihilators, bits)

    monkeypatch.setattr(fock, "_apply_word", counted)
    n = n_slots_for(n_max)
    assert check_car(LatticeConfig(1.0, 1.0, n_max)).passed
    assert len(calls) == len(set(calls)) == 2 * n * (1 << n)


def test_car_sweep_runs_once_per_slot_count_and_sign_rule(monkeypatch):
    """A second check at the same slot count reads the cached sweep, so both
    calls together make one sign call per factor and bitstring."""
    signed = fock._apply_word
    calls = []

    def counted(creators, annihilators, bits):
        calls.append((creators, annihilators, bits))
        return signed(creators, annihilators, bits)

    monkeypatch.setattr(fock, "_apply_word", counted)
    first, second = check_car(CFG1), check_car(LatticeConfig(2.0, 0.5, 1))
    assert first == second and first.passed
    assert len(calls) == 2 * N1 * (1 << N1)


def test_verify_suite_builds_each_car_table_once_per_process(monkeypatch):
    """verify's ladder, n_max 1, 2, 3 and 5 plus the corrupt-sign control at
    n_max 1, builds the 6-slot and the 10-slot table once each."""
    built = []
    table = checks._factor_table

    def counted(n, *rule):
        built.append(n)
        return table(n, *rule)

    checks._car_worst.cache_clear()
    monkeypatch.setattr(checks, "_factor_table", counted)
    for n_max, corrupt in ((1, False), (2, False), (3, False), (5, False), (1, True)):
        cfg = LatticeConfig(1.0, 1.0, n_max)
        f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])
        car = checks.run_verify_suite(cfg, [0.3], f, corrupt_sign=corrupt)[2]
        assert car.name == "car_relations" and car.passed
    assert built == [6, 10]


def test_car_check_composes_per_factor_not_as_a_cube():
    # at 10 slots a (2n, 2n, 2^n) cube of int32 composed targets is 1.6 MiB, and
    # composing every pair at once needs two; the check holds the (2n, 2^n)
    # table and one factor's compositions, about 0.5 MiB.  The cache is cleared
    # first, so the sweep runs under the trace whatever ran before.
    checks._car_worst.cache_clear()
    tracemalloc.start()
    try:
        car = check_car(LatticeConfig(1.0, 1.0, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert car.passed and car.detail == "10 slots, dim 1024"
    assert peak <= 2 * 2**20


def _car_residual_per_pair(n: int) -> float:
    """Oracle: the CAR residual composed pair by pair, from one sign table per
    factor, each identity's squared norm taken over all nine amplitude pairs."""
    states = np.arange(1 << n)

    def signed_table(creators, annihilators):
        hits = [fock._apply_word(creators, annihilators, bits) for bits in range(1 << n)]
        target = np.array([hit[0] if hit else bits for bits, hit in enumerate(hits)])
        sign = np.array([(-1) ** hit[1] if hit else 0 for hit in hits])
        return target, sign

    ann = [signed_table((), (s,)) for s in range(n)]
    cre = [signed_table((s,), ()) for s in range(n)]

    def worst_norm(x, y, delta: int) -> float:
        (tx, sx), (ty, sy) = x, y
        parts = [(states, -delta), (tx[ty], sy * sx[ty]), (ty[tx], sx * sy[tx])]
        # |sum_i c_i |t_i>|^2 = sum_ij c_i c_j [t_i == t_j]
        square = sum(ci * cj * (ti == tj) for ti, ci in parts for tj, cj in parts)
        return float(np.sqrt(square).max())

    def residuals():
        for s in range(n):
            for t in range(n):
                yield worst_norm(ann[s], cre[t], 1 if s == t else 0)
                if t <= s:
                    yield worst_norm(ann[s], ann[t], 0)
                    yield worst_norm(cre[s], cre[t], 0)

    return max(residuals())


def _faults(n: int):
    """One corruption of one acting (factor, bitstring) of n slots: drop its sign,
    send its target to another bitstring or make it vanish."""
    bits = st.integers(0, (1 << n) - 1)
    return st.tuples(st.integers(0, n - 1), bits, st.sampled_from(("drop_sign", "redirect", "vanish")), bits)


def _corrupted(faults):
    """fock._apply_word with each fault applied where its factor acts on its bitstring."""
    signed = fock._apply_word
    corrupt = {}
    for slot, bits, kind, elsewhere in faults:
        word = ((), (slot,)) if (bits >> slot) & 1 else ((slot,), ())
        target, odd = signed(*word, bits)
        corrupt[(*word, bits)] = {"drop_sign": (target, 0), "redirect": (elsewhere, odd), "vanish": None}[kind]

    def corrupted(creators, annihilators, b):
        key = (creators, annihilators, b)
        return corrupt[key] if key in corrupt else signed(creators, annihilators, b)

    return corrupted


@given(st.lists(_faults(N1), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_car_residual_equals_the_per_pair_oracle_under_corruption(faults):
    """The stacked table's per-factor composition reads the same float as the
    per-pair one under every kind of fault."""
    with mock.patch.object(fock, "_apply_word", _corrupted(faults)):
        assert check_car(CFG1).residual == _car_residual_per_pair(N1)


@given(st.sampled_from([N1, 10]).flatmap(lambda n: st.tuples(st.just(n), st.lists(_faults(n), max_size=3))))
@example((10, []))
@settings(max_examples=60, deadline=None)
def test_factor_table_equals_the_per_row_scatter_entry_by_entry(case):
    """At the 6 and 10 slots verify sweeps, clean or corrupted: every sign, and
    every target where the factor acts, equals the map-and-scatter table's."""
    n, faults = case
    rule = _corrupted(faults)
    target, sign = checks._factor_table(n, rule)
    old_target, old_sign = factor_table(n, rule)
    assert target.dtype == np.intp and target.shape == sign.shape == (2 * n, 1 << n)
    assert np.array_equal(sign, old_sign)
    acts = sign != 0
    assert np.array_equal(target[acts], old_target[acts])


@pytest.mark.parametrize("word", [((), (s,)) for s in range(N1)] + [((s,), ()) for s in range(N1)])
def test_car_sweep_reaches_every_square(monkeypatch, word):
    """A factor that acts as the parity (-1)^N where it should vanish still
    anticommutes with every other slot's factors and misses {a_s, a'_s} = 1 by
    norm 1, but misses its own square, {a_s, a_s} or {a'_s, a'_s} = 0, by norm 2:
    only the factor composed with itself reads 2."""
    signed = fock._apply_word

    def leaky(creators, annihilators, bits):
        hit = signed(creators, annihilators, bits)
        return (bits, bits.bit_count() & 1) if hit is None and (creators, annihilators) == word else hit

    monkeypatch.setattr(fock, "_apply_word", leaky)
    assert check_car(CFG1).residual == _car_residual_per_pair(N1) == 2.0


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


def _same_application(terms, v: FockVector) -> bool:
    """_apply_terms equals the unmasked loop by repr, in insertion order."""
    return repr(list(fock._apply_terms(terms, v).amp.items())) == repr(list(_apply_terms_unmasked(terms, v).amp.items()))


def test_indexed_application_equals_the_unmasked_loop_on_dense_states():
    """The states the CLI applies operators to: the split Hamiltonian on the
    redefined vacuum, which holds over a hundred slots, and the direct
    anomaly route's F on |0> and H on F|0>, whose many pair states each hold
    two slots."""
    cfg = LatticeConfig(1.0, 1.0, 64)
    state = redefined_vacuum(1.3, cfg)
    assert min(bits.bit_count() for bits in state.amp) >= 100
    assert _same_application(split_hamiltonian(cfg, 1.3).terms.items(), state)
    cfg = LatticeConfig(1.0, 1.0, 8)
    f = TrigPoly.from_harmonics(cfg.box_length, [(0, 0.4, 0.0), (1, 0.5, 0.2), (3, 0.3, -0.6)])
    F = smeared_charge(f, cfg)
    assert _same_application(F.terms.items(), vacuum(cfg))
    pairs = apply_operator(F, vacuum(cfg))
    assert len(pairs.amp) > 50
    assert _same_application(hamiltonian(cfg).terms.items(), pairs)


def test_vacuum_read_equals_the_unmasked_loop_on_dense_states():
    """The vacuum entry of the unmasked loop, for the direct anomaly route's last
    pass, <0|F on H F|0>, and for the same read on F|0>, which keeps a vacuum
    component where f has a constant part."""
    cfg = LatticeConfig(1.0, 1.0, 8)
    for harmonics in ([(0, 0.4, 0.0), (1, 0.5, 0.2), (3, 0.3, -0.6)], [(1, 0.5, 0.0), (2, 0.3, 0.1)]):
        F = smeared_charge(TrigPoly.from_harmonics(cfg.box_length, harmonics), cfg)
        pairs = apply_operator(F, vacuum(cfg))
        for v in (pairs, apply_operator(hamiltonian(cfg), pairs)):
            assert len(v.amp) > 50
            full = _apply_terms_unmasked(F.terms.items(), v).amp
            assert repr(fock._vacuum_part(F.terms.items(), v).amp) == repr({b: a for b, a in full.items() if b == 0})
        assert (0 in pairs.amp) == (harmonics[0][0] == 0)


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
