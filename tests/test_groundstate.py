import dataclasses
import gc
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsplit import groundstate
from pointsplit.fock import ELECTRON, POSITRON, SlotIndex, inner, n_slots_for, vacuum
from pointsplit.groundstate import (
    EnergyReport,
    _is_zero_energy,
    _mask,
    excitation_energy,
    ground_state_bruteforce,
    redefined_vacuum,
    redefined_vacuum_energy,
    split_spectrum,
)
from pointsplit.lattice import LatticeConfig, dispersion
from pointsplit.modeops import apply_operator, split_hamiltonian

CFG3 = LatticeConfig(1.0, 1.0, 3)

# frozen: 4*(sqrt(2)cos 2 + sqrt(5)cos 4), confirmed by the enumeration below
GROUND_ENERGY_EPS2 = 4.0 * (math.sqrt(2.0) * math.cos(2.0) + math.sqrt(5.0) * math.cos(4.0))


def test_excitation_energy_reductions():
    for q in range(-3, 4):
        assert excitation_energy(q, ELECTRON, 0.0, CFG3) == pytest.approx(
            dispersion(float(q), 1.0), abs=1e-12
        )
    # p*eps = pi flips the sign exactly
    assert excitation_energy(1, ELECTRON, math.pi, CFG3) == pytest.approx(
        -dispersion(1.0, 1.0), abs=1e-12
    )


def test_excitation_energy_species_independent():
    for q in (-3, -1, 0, 2):
        for eps in (0.0, 0.5, 2.0):
            e = excitation_energy(q, ELECTRON, eps, CFG3)
            p = excitation_energy(q, POSITRON, eps, CFG3)
            expected = dispersion(float(q), 1.0) * math.cos(q * eps)
            assert e == pytest.approx(expected, abs=1e-12)
            assert p == pytest.approx(expected, abs=1e-12)


def test_excitation_energy_frozen_example():
    got = excitation_energy(2, ELECTRON, 2.0, CFG3)
    assert got == pytest.approx(math.sqrt(5.0) * math.cos(4.0), abs=1e-12)
    assert got == pytest.approx(-1.4615915693101362, abs=1e-12)


def test_excitation_energy_out_of_range(monkeypatch):
    # SlotIndex.linear rejects q for either species before H is built
    monkeypatch.setattr(groundstate, "split_hamiltonian", None)
    for species in (ELECTRON, POSITRON):
        for q in (-4, 4, 100):
            with pytest.raises(ValueError, match=f"mode index {q} out of range"):
                excitation_energy(q, species, 0.1, CFG3)


def test_split_spectrum_eps_zero_empty():
    spec = split_spectrum(0.0, CFG3)
    assert spec.negative_modes == ()
    assert spec.zero_modes == ()


def test_split_spectrum_interval_example():
    # 0.1*|j| in (pi/2, 3pi/2) <=> |j| in 16..47, intersected with the grid
    cfg = LatticeConfig(1.0, 1.0, 40)
    spec = split_spectrum(0.1, cfg)
    expected = {j for j in range(-40, 41) if 16 <= abs(j) <= 40}
    assert set(spec.negative_modes) == expected


def test_split_spectrum_eps2_example():
    spec = split_spectrum(2.0, CFG3)
    assert set(spec.negative_modes) == {-2, -1, 1, 2}  # cos2 < 0, cos4 < 0, cos6 > 0
    assert spec.zero_modes == ()


def test_split_spectrum_nonempty_beyond_threshold():
    # once cutoff*eps > pi/2 some mode has negative split energy
    for eps, n_max in [(0.6, 3), (0.2, 8), (2.0, 1)]:
        cfg = LatticeConfig(1.0, 1.0, n_max)
        assert cfg.cutoff * eps > math.pi / 2
        assert split_spectrum(eps, cfg).negative_modes


def test_redefined_vacuum_eps_zero_is_vacuum():
    v = redefined_vacuum(split_spectrum(0.0, CFG3))
    assert v == vacuum(CFG3)


def test_redefined_vacuum_energy_formula():
    assert redefined_vacuum_energy(split_spectrum(2.0, CFG3)) == pytest.approx(GROUND_ENERGY_EPS2, abs=1e-12)
    for eps in (0.0, 0.5, 1.0, 2.0, 3.7):
        assert redefined_vacuum_energy(split_spectrum(eps, CFG3)) <= 0.0


def test_redefined_vacuum_operator_energy_agrees():
    for eps in (0.5, 2.0):
        spectrum = split_spectrum(eps, CFG3)
        state = redefined_vacuum(spectrum)
        assert state.norm() == pytest.approx(1.0)
        h = split_hamiltonian(CFG3, eps)
        via_ops = inner(state, apply_operator(h, state))
        assert via_ops.imag == pytest.approx(0.0, abs=1e-14)
        assert via_ops.real == pytest.approx(redefined_vacuum_energy(spectrum), abs=1e-12)


def test_bruteforce_eps_zero():
    rep = ground_state_bruteforce(0.0, CFG3)
    assert rep.energy == 0.0
    assert rep.degeneracy == 1
    assert _mask(split_spectrum(0.0, CFG3).negative_modes, CFG3.n_max) == 0
    assert rep.matches_redefined_vacuum


def test_bruteforce_eps2_frozen_example():
    rep = ground_state_bruteforce(2.0, CFG3)
    assert rep.energy == pytest.approx(GROUND_ENERGY_EPS2, abs=1e-10)
    assert rep.energy == pytest.approx(-8.20044827797506, abs=1e-10)
    assert rep.degeneracy == 1
    assert rep.matches_redefined_vacuum
    assert rep.energy < 0.0  # strictly below the empty state
    # the minimizer is exactly the redefined vacuum bitstring
    spec = split_spectrum(2.0, CFG3)
    (bits,) = redefined_vacuum(spec).amp
    assert bits == _mask(spec.negative_modes, CFG3.n_max)


def test_bruteforce_negative_whenever_set_nonempty():
    for eps in (0.6, 1.1, 2.0):
        spec = split_spectrum(eps, CFG3)
        rep = ground_state_bruteforce(eps, CFG3)
        if spec.negative_modes:
            assert rep.energy < 0.0
        assert rep.energy == pytest.approx(redefined_vacuum_energy(spec), abs=1e-12)


def test_bruteforce_enumerates_the_energies_of_its_one_spectrum(monkeypatch):
    # the zero rule meets the same floats on both sides because they are one spectrum's
    # columns: a spectrum with every split energy halved halves the minimum, bit for bit
    minimum = ground_state_bruteforce(2.0, CFG3).energy
    spectrum = split_spectrum(2.0, CFG3)
    halved = dataclasses.replace(spectrum, entries=tuple((j, p, e, 0.5 * w) for j, p, e, w in spectrum.entries))
    calls = []
    monkeypatch.setattr(groundstate, "split_spectrum", lambda *args: calls.append(args) or halved)
    monkeypatch.setattr(groundstate, "_mode_table", None)
    monkeypatch.setattr(groundstate, "_split_hamiltonian_diagonal", None)
    rep = ground_state_bruteforce(2.0, CFG3)
    assert calls == [(2.0, CFG3)]
    assert rep.energy == 0.5 * minimum
    assert rep.matches_redefined_vacuum


def test_bruteforce_enumeration_bound():
    with pytest.raises(ValueError):
        ground_state_bruteforce(0.5, LatticeConfig(1.0, 1.0, 6))


def test_monotone_refinement():
    # enlarging the cutoff never raises the ground-state energy
    eps = 1.3
    energies = [
        redefined_vacuum_energy(split_spectrum(eps, LatticeConfig(1.0, 1.0, n_max))) for n_max in range(1, 7)
    ]
    for lo, hi in zip(energies[1:], energies[:-1]):
        assert lo <= hi + 1e-12


def test_zero_cos_boundary_reported_as_degeneracy():
    # delta_p = 1, eps = pi/2 puts the |j| = 1 modes exactly on cos = 0
    cfg = LatticeConfig(1.0, 1.0, 2)
    spec = split_spectrum(math.pi / 2.0, cfg)
    assert set(spec.zero_modes) == {-1, 1}
    assert set(spec.negative_modes) == {-2, 2}
    rep = ground_state_bruteforce(math.pi / 2.0, cfg)
    assert rep.degeneracy == 2 ** (2 * len(spec.zero_modes))
    assert rep.matches_redefined_vacuum


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 3).map(lambda k: 2 * k + 1),
    st.floats(-16.0, -6.0),
    st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=60, deadline=None)
def test_zero_boundary_bruteforce_agrees_with_spectrum(mode, k, log_delta, sign):
    # eps within delta of a zero of cos(p_j eps): both sides apply the one zero
    # rule to the same floats, so the brute force never disagrees (RuntimeError)
    n_max, j = mode
    cfg = LatticeConfig(1.0, 1.0, n_max)
    eps = k * math.pi / (2.0 * cfg.momentum(j)) + sign * 10.0**log_delta
    spec = split_spectrum(eps, cfg)
    rep = ground_state_bruteforce(eps, cfg)
    assert rep.degeneracy == 2 ** (2 * len(spec.zero_modes))
    assert rep.matches_redefined_vacuum


def _full_array_energies(eps, cfg):
    """Every state's energy in one 2^n array, summed slot by slot, and the
    unsplit energy of every slot."""
    n = n_slots_for(cfg.n_max)
    unsplit, w = np.empty(n), np.empty(n)
    for j, _, energy, split in split_spectrum(eps, cfg).entries:
        for species in (ELECTRON, POSITRON):
            slot = SlotIndex(species, j).linear(cfg.n_max)
            unsplit[slot], w[slot] = energy, split
    idx = np.arange(1 << n, dtype=np.int64)
    energies = np.zeros(len(idx))
    for s in range(n):
        energies += w[s] * ((idx >> s) & 1)
    return energies, unsplit


def _full_array_bruteforce(eps, cfg):
    """Oracle: one argmin over the full array of energies -- the enumeration
    the chunked search must reproduce."""
    n = n_slots_for(cfg.n_max)
    spectrum = split_spectrum(eps, cfg)
    energies, unsplit = _full_array_energies(eps, cfg)
    ground = int(energies.argmin())
    flips = 1 << np.arange(n)
    free = flips[_is_zero_energy(energies[flips], unsplit)]
    free_mask = int(free.sum())
    neg_mask = _mask(spectrum.negative_modes, cfg.n_max)
    if free_mask != _mask(spectrum.zero_modes, cfg.n_max) or (ground & ~free_mask) != neg_mask:
        raise RuntimeError("brute-force minimizer does not match the split spectrum")
    return EnergyReport(
        energy=float(energies[ground]),
        degeneracy=1 << len(free),
        matches_redefined_vacuum=((ground ^ neg_mask) & ~free_mask) == 0,
    )


@st.composite
def _lattice_and_eps(draw):
    n_max = draw(st.integers(1, 4))
    cfg = LatticeConfig(draw(st.sampled_from([1.0, 0.25, 3.0])), draw(st.sampled_from([1.0, 0.37, 2.5])), n_max)
    j = draw(st.integers(1, n_max))
    zero_of_cos = draw(st.integers(0, 3)) * math.pi / cfg.momentum(j) + math.pi / (2.0 * cfg.momentum(j))
    offset = draw(st.sampled_from([0.0, 1e-16, -1e-13, 1e-9, -1e-6]))
    eps = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0), st.just(zero_of_cos + offset)))
    return cfg, eps


def _assert_same_report(rep, oracle):
    assert rep.energy.hex() == oracle.energy.hex()
    assert rep.degeneracy == oracle.degeneracy
    assert rep.matches_redefined_vacuum == oracle.matches_redefined_vacuum
    assert rep == oracle


@given(_lattice_and_eps())
@settings(max_examples=60, deadline=None)
def test_blocked_bruteforce_equals_the_full_array_enumeration(case):
    # every chunk adds the same floats in the same order as the full array, so
    # the minimum has the same bits and the first minimizer the same index; at
    # chunk widths 1 and 3 nearly every slot is left to the depth-first walk
    # (up to n_max 3: at width 1 and n_max 4 the walk visits 2^17 chunks)
    cfg, eps = case
    oracle = _full_array_bruteforce(eps, cfg)
    _assert_same_report(ground_state_bruteforce(eps, cfg), oracle)
    for chunk_slots in (1, 3) if cfg.n_max <= 3 else ():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groundstate, "CHUNK_SLOTS", chunk_slots)
            _assert_same_report(ground_state_bruteforce(eps, cfg), oracle)


def test_bruteforce_at_n_max_5_equals_the_full_array_enumeration_on_exact_ties():
    # just past pi/2, cos(p_j eps) is zero by the zero rule for |j| = 1, 3, 5: those
    # 12 slots' energies are too small to move most sums they join, so many states
    # tie exactly; 2^22 states, one chunk of the low 13 slots and 2^9 chunks in all
    cfg = LatticeConfig(1.0, 1.0, 5)
    eps = math.pi / (2.0 * cfg.momentum(1)) + 1e-16
    rep = ground_state_bruteforce(eps, cfg)
    _assert_same_report(rep, _full_array_bruteforce(eps, cfg))
    assert rep.degeneracy == 2**12


@pytest.mark.parametrize("chunk_slots", [1, 3, groundstate.CHUNK_SLOTS])
def test_bruteforce_names_the_first_minimizer_in_state_order(monkeypatch, chunk_slots):
    # just past pi/2 the |j| = 1, 3 slots are free and many minimizers tie exactly;
    # the depth-first walk meets them out of state order, yet keeps argmin's first.
    # A zero set that disagrees with the free slots makes the search name it.
    cfg = LatticeConfig(1.0, 1.0, 3)
    eps = math.pi / (2.0 * cfg.momentum(1)) + 1e-16
    energies, _ = _full_array_energies(eps, cfg)
    assert np.count_nonzero(energies == energies.min()) > 1
    spectrum = split_spectrum(eps, cfg)
    monkeypatch.setattr(groundstate, "CHUNK_SLOTS", chunk_slots)
    monkeypatch.setattr(groundstate, "split_spectrum", lambda *_: dataclasses.replace(spectrum, zero_modes=()))
    n = n_slots_for(cfg.n_max)
    with pytest.raises(RuntimeError, match=f"minimizer {int(energies.argmin()):0{n}b} with free slots"):
        ground_state_bruteforce(eps, cfg)


def test_bruteforce_never_holds_every_energy_at_once():
    # 2^22 states at n_max 5: one full-length float64 array alone is 32 MiB; the
    # search holds one 64 KiB chunk per depth of its walk
    tracemalloc.start()
    try:
        rep = ground_state_bruteforce(2.0, LatticeConfig(1.0, 1.0, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.matches_redefined_vacuum
    assert peak < 2**20


def test_bruteforce_frees_its_chunks_when_it_returns():
    # with the cyclic garbage collector off, memory the search leaves behind is held
    # by a reference cycle: each search's nine 64 KiB chunk buffers at n_max 5 would
    # otherwise stay until some later collection, whose timing unrelated code sets
    cfg = LatticeConfig(1.0, 1.0, 5)
    ground_state_bruteforce(2.0, cfg)  # the lattice's cached tables, outside the trace
    gc.disable()
    tracemalloc.start()
    try:
        ground_state_bruteforce(2.0, cfg)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak > 9 * 2**16  # the buffers were there while the search ran
    assert left < 2**14


@pytest.mark.parametrize("n_max", [1, 3, 5])
def test_bruteforce_chunks_start_on_64_byte_boundaries(monkeypatch, n_max):
    # numpy's adds and argmins over a chunk 16 or 48 bytes past a boundary run 10-15% slower,
    # and where malloc places a chunk depends on what the process allocated before
    # the walk scores each chunk with one argmin, so a buffer whose argmin records its start
    # sees every chunk scored
    aligned, starts = groundstate._aligned_empty, []

    class Recorded(np.ndarray):
        def argmin(self, *args, **kwargs):
            starts.append(self.__array_interface__["data"][0] % 64)
            return super().argmin(*args, **kwargs)

    monkeypatch.setattr(groundstate, "_aligned_empty", lambda size: aligned(size).view(Recorded))
    ground_state_bruteforce(2.0, LatticeConfig(1.0, 1.0, n_max))
    n = n_slots_for(n_max)
    assert starts == [0] * 2 ** (n - min(n, groundstate.CHUNK_SLOTS))


def test_redefined_vacuum_energy_takes_linear_time():
    # one set lookup per mode: 40001 modes in well under the bound, where a set
    # rebuilt per mode takes tens of seconds
    cfg = LatticeConfig(1.0, 1.0, 20000)
    start = time.perf_counter()
    energy = redefined_vacuum_energy(split_spectrum(2.1, cfg))
    elapsed = time.perf_counter() - start
    splits = [math.hypot(j, 1.0) * math.cos(j * 2.1) for j in range(-20000, 20001)]
    assert split_spectrum(2.1, cfg).zero_modes == ()
    assert energy == sum(2.0 * w for w in splits if w < 0)
    assert elapsed < 5.0


@given(st.integers(1, 40), st.data())
@settings(max_examples=40, deadline=None)
def test_mode_mask_sets_each_mode_on_both_species_slots(n_max, data):
    modes = data.draw(st.lists(st.integers(-n_max, n_max), unique=True))
    slots = [SlotIndex(species, j).linear(n_max) for j in modes for species in (ELECTRON, POSITRON)]
    assert _mask(modes, n_max) == sum(1 << s for s in slots)

