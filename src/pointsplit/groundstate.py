"""Spectrum of the point-split Hamiltonian and the redefined vacuum.

Point-splitting turns the per-mode energy E_j into E_j * cos(p_j * eps),
which is negative on every mode whose momentum puts p_j*eps inside an odd
half-period of the cosine.  Occupying all such modes with both an electron
and a positron produces the true ground state of the split Hamiltonian;
the empty state no longer minimizes the energy.  Everything here is exact:
energies are additive over occupied slots, so brute-force enumeration over
all occupation states is available as the final arbiter at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, SlotIndex, _first_positron, _mode_slots, apply_create, inner, n_slots_for, vacuum
from .lattice import LatticeConfig
from .modeops import _mode_table, _split_hamiltonian_diagonal, apply_operator, split_hamiltonian

ENUMERATION_MAX_SLOTS = 24

# ground_state_bruteforce scores the states in chunks of 2^CHUNK_SLOTS
# float64s, 64 KiB, and holds one chunk per depth of its walk.  Each chunk
# costs two numpy calls, so narrower chunks are slower (width 11 took twice
# as long at n_max 5); widths 14 and 15 raised the vacuum-kernel benchmark's
# peak_rss_mb by about 0.3 and 1.2 MiB and gained no wall time (three runs
# of width 14 and one of 15).
CHUNK_SLOTS = 13

# The one rule for "zero": a split energy E_j cos(p_j eps) counts as zero
# when it is at most ZERO_TOL of the unsplit energy E_j.  split_spectrum
# applies it to each mode, ground_state_bruteforce to the one-particle
# energies it enumerates from that spectrum's own energy and split_energy
# columns, so both name the same zero set by construction.
ZERO_TOL = 1e-12


def _is_zero_energy(split_energy, energy):
    """The zero rule, for floats and numpy arrays alike."""
    return abs(split_energy) <= ZERO_TOL * energy


def _energies_agree(a: float, b: float) -> bool:
    """Two float routes to one energy agree to 1e-10 relative (never on NaN)."""
    return abs(a - b) <= 1e-10 * max(1.0, abs(b))


@dataclass(frozen=True)
class SplitSpectrum:
    """Classification of every mode by the sign of its split energy."""

    eps: float
    entries: tuple  # rows (j, p, energy, split_energy)
    negative_modes: tuple[int, ...]  # j with E cos(p eps) < 0
    zero_modes: tuple[int, ...]  # j whose split energy is zero by _is_zero_energy


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of the brute-force ground-state search.

    matches_redefined_vacuum is True on every report returned: the search raises
    unless its free slots are the zero-mode slots and its lowest state, off those
    slots, is the negative set's, which the zero set does not meet.
    """

    energy: float
    degeneracy: int
    matches_redefined_vacuum: bool


def excitation_energy(q: int, species: str, eps: float, cfg: LatticeConfig) -> float:
    """Energy of the one-particle state over the empty vacuum: E_q cos(p_q eps).

    Computed twice -- coefficient read-off from the split Hamiltonian and a
    full create/apply/inner round trip -- and cross-checked to 1e-12 before
    returning.  Identical for the two species.
    """
    slot = SlotIndex(species, q).linear(cfg.n_max)  # rejects a bad q before any work
    h = split_hamiltonian(cfg, eps)
    read_off = h.coefficient(((slot,), (slot,))).real
    state = apply_create(SlotIndex(species, q), vacuum(cfg))
    applied = inner(state, apply_operator(h, state))
    if abs(applied - read_off) > 1e-12 * max(1.0, abs(read_off)):
        raise RuntimeError(f"excitation energy routes disagree: {read_off} vs {applied}")
    return read_off


def split_spectrum(eps: float, cfg: LatticeConfig) -> SplitSpectrum:
    """Tabulate E_j cos(p_j eps) for every mode and collect the negative set.

    Modes whose split energy is zero by _is_zero_energy are excluded from
    the negative set (strict inequality) and reported separately; at finite
    cutoff the negative set is guaranteed nonempty once cutoff*|eps| > pi/2.
    """
    t = _mode_table(cfg)
    electrons = slice(_first_positron(cfg.n_max))
    columns = (t.j[electrons].tolist(), t.p[electrons].tolist(), t.energy[electrons].tolist())
    entries = tuple(zip(*columns, _split_hamiltonian_diagonal(cfg, eps)[electrons].tolist()))
    zero = tuple(j for j, _, energy, split in entries if _is_zero_energy(split, energy))
    negative = tuple(j for j, _, energy, split in entries if split < 0 and not _is_zero_energy(split, energy))
    return SplitSpectrum(eps=eps, entries=entries, negative_modes=negative, zero_modes=zero)


def _mask(modes, n_max: int) -> int:
    """Bitmask of the electron and positron slots of the given modes at this n_max."""
    electrons = sum(1 << _mode_slots(j, n_max)[0] for j in set(modes))
    return electrons | electrons << _first_positron(n_max)  # one shift carries each to its positron slot


def redefined_vacuum(spectrum: SplitSpectrum) -> FockVector:
    """The state with every negative-split-energy mode of the spectrum doubly occupied.

    The spectrum's entries run over j = -n_max..n_max, which sets the lattice.
    Its canonical creator string (electron then positron creators in
    ascending mode order, the slot order) fixes the global sign: acting on
    the empty state it leaves amplitude +1 on the negative-set bitstring,
    which is the state returned.
    """
    n_max = len(spectrum.entries) // 2
    return FockVector.basis_state(_mask(spectrum.negative_modes, n_max), n_slots_for(n_max))


def redefined_vacuum_energy(spectrum: SplitSpectrum) -> float:
    """Additive energy of the redefined vacuum: sum over S of 2 E_q cos(p_q eps) <= 0."""
    negative = set(spectrum.negative_modes)
    return sum((2.0 * row[3] for row in spectrum.entries if row[0] in negative), 0.0)


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialized float64 array of this size that starts on a 64-byte boundary.  The
    brute force's adds and argmins run 10-15% slower on chunks that malloc places 16 or 48
    bytes past one (16.5 against 14.1-14.6 ms for three n_max 5 searches on an x86-64 VM)."""
    raw = np.empty(size + 8)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start : start + size]


def ground_state_bruteforce(eps: float, cfg: LatticeConfig) -> EnergyReport:
    """Enumerate all occupation states and locate the energy minimum.

    Energies are additive over occupied slots, so each of the 2^n basis
    states of the n slots is scored by the recurrence E[b] = E[b without its
    top set bit] + w[top], from E[0] = +0.0.  Unrolled, that is the
    left-to-right sum, from 0.0, of the occupied slots' energies in slot
    order, the top slot added last: the same float as one full-length
    enumeration that adds w[s] * bit for every slot, where an unoccupied
    slot adds a signed zero, which leaves a sum that started at +0.0
    unchanged.

    The states are scored in chunks of 2^m, m = min(n, CHUNK_SLOTS), so the
    2^n energies are never held at once.  The base chunk, every pattern of
    the low m slots, is built by doubling in place; the chunk of a high bit pattern
    is its parent's chunk (the pattern without its top set bit) plus that
    slot's energy, one add per chunk into the buffer of its depth.  The walk
    goes depth first: from a pattern to its first child (the slot above its
    top one), or past the last slot to its parent's next sibling, so every
    parent's chunk is alive while its children are added.  The running minimum is
    replaced on a strictly lower energy, or on an equal one at a smaller
    state index, which keeps the first minimizer in state order, as argmin
    over all 2^n states would.

    Flipping slot s moves any state's energy by the energy of the state
    holding s alone, read off the enumeration; slots where that is zero by
    _is_zero_energy are free, and the minimizers are the 2^(number of free
    slots) states reached from the lowest one by flipping free slots.
    Verifies that the free slots are the zero-mode slots and that the lowest
    state occupies all negative-split-energy slots and none of the positive
    ones (unique when the zero set is empty).
    """
    n = n_slots_for(cfg.n_max)
    if n > ENUMERATION_MAX_SLOTS:
        raise ValueError(f"enumeration bound exceeded: {n} slots > {ENUMERATION_MAX_SLOTS}")
    spectrum = split_spectrum(eps, cfg)
    _, _, energy, split = zip(*spectrum.entries)
    unsplit, w = np.tile(energy, 2), np.tile(split, 2)  # per linear slot
    m = min(n, CHUNK_SLOTS)
    with np.errstate(over="raise"):  # a state's energy past the float range raises FloatingPointError
        base = _aligned_empty(1 << m)
        base[0] = 0.0
        for s in range(m):
            np.add(base[: 1 << s], w[s], out=base[1 << s : 2 << s])
        single = np.empty(n)  # single[s]: energy of the state holding slot s alone
        single[:m] = base[1 << np.arange(m)]
        w_high, buffers = w[m:], [base] + [_aligned_empty(1 << m) for _ in range(n - m)]
        high, top, depth = 0, -1, 0  # high bit pattern, its top set slot, its number of set slots
        while True:
            chunk = buffers[depth]
            if depth == 1:
                single[m + top] = chunk[0]
            i = int(chunk.argmin())
            e, state = float(chunk[i]), (high << m) | i
            if high == 0 or e < emin or (e == emin and state < ground):
                emin, ground = e, state
            if top + 1 < len(w_high):  # first child: set the slot above the top one
                top, depth = top + 1, depth + 1
            elif depth <= 1:  # the last slot alone, or no high slots: every pattern is scored
                break
            else:  # next sibling of the parent: drop the top slot, move the new top one up
                high ^= 1 << top
                top = high.bit_length() - 1
                high ^= 1 << top
                top, depth = top + 1, depth - 1
            high |= 1 << top
            np.add(buffers[depth - 1], w_high[top], out=buffers[depth])
    flips = 1 << np.arange(n)
    free = flips[_is_zero_energy(single, unsplit)]
    free_mask = int(free.sum())

    neg_mask = _mask(spectrum.negative_modes, cfg.n_max)
    zero_mask = _mask(spectrum.zero_modes, cfg.n_max)
    if free_mask != zero_mask or (ground & ~zero_mask) != neg_mask:
        raise RuntimeError(
            f"brute-force minimizer {ground:0{n}b} with free slots {free_mask:0{n}b} does not match "
            f"the split spectrum's negative set {neg_mask:0{n}b} and zero set {zero_mask:0{n}b}"
        )
    return EnergyReport(energy=emin, degeneracy=1 << len(free), matches_redefined_vacuum=True)
