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

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    ELECTRON,
    POSITRON,
    FockVector,
    SlotIndex,
    apply_create,
    inner,
    n_slots_for,
    slot_from_linear,
    vacuum,
)
from .lattice import LatticeConfig, dispersion
from .modeops import apply_operator, split_hamiltonian

ZERO_COS_TOL = 1e-12
ENUMERATION_MAX_SLOTS = 24


@dataclass(frozen=True)
class SplitSpectrum:
    """Classification of every mode by the sign of its split energy."""

    eps: float
    entries: tuple  # rows (j, p, energy, split_energy)
    negative_modes: tuple[int, ...]  # j with E cos(p eps) < 0
    zero_modes: tuple[int, ...]  # j with cos(p eps) = 0 within tolerance


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of the brute-force ground-state search."""

    label: str
    energy: float
    degeneracy: int
    state_bits: int
    matches_redefined_vacuum: bool


def excitation_energy(q: int, species: str, eps: float, cfg: LatticeConfig) -> float:
    """Energy of the one-particle state over the empty vacuum: E_q cos(p_q eps).

    Computed twice -- coefficient read-off from the split Hamiltonian and a
    full create/apply/inner round trip -- and cross-checked to 1e-12 before
    returning.  Identical for the two species.
    """
    if abs(q) > cfg.n_max:
        raise ValueError(f"mode index {q} out of range [-{cfg.n_max}, {cfg.n_max}]")
    h = split_hamiltonian(cfg, eps)
    slot = SlotIndex(species, q).linear(cfg.n_max)
    read_off = h.coefficient(((slot,), (slot,))).real
    state = apply_create(SlotIndex(species, q), vacuum(cfg))
    applied = inner(state, apply_operator(h, state))
    if abs(applied - read_off) > 1e-12 * max(1.0, abs(read_off)):
        raise RuntimeError(f"excitation energy routes disagree: {read_off} vs {applied}")
    return read_off


def split_spectrum(eps: float, cfg: LatticeConfig, zero_tol: float = ZERO_COS_TOL) -> SplitSpectrum:
    """Tabulate E_j cos(p_j eps) for every mode and collect the negative set.

    Modes with cos(p_j eps) = 0 within zero_tol are excluded from the
    negative set (strict inequality) and reported separately; at finite
    cutoff the negative set is guaranteed nonempty once cutoff*|eps| > pi/2.
    """
    entries = []
    negative = []
    zero = []
    for j in cfg.mode_indices():
        p = cfg.momentum(j)
        energy = dispersion(p, cfg.mass)
        c = math.cos(p * eps)
        entries.append((j, p, energy, energy * c))
        if abs(c) <= zero_tol:
            zero.append(j)
        elif c < 0:
            negative.append(j)
    return SplitSpectrum(
        eps=eps,
        entries=tuple(entries),
        negative_modes=tuple(negative),
        zero_modes=tuple(zero),
    )


def redefined_vacuum(eps: float, cfg: LatticeConfig) -> FockVector:
    """The state with every negative-split-energy mode doubly occupied.

    Built by applying electron then positron creators in ascending mode
    order (the canonical slot order), which fixes the global sign; the
    resulting amplitude is +1 on a single bitstring.
    """
    spectrum = split_spectrum(eps, cfg)
    slots = sorted(
        SlotIndex(species, j).linear(cfg.n_max)
        for j in spectrum.negative_modes
        for species in (ELECTRON, POSITRON)
    )
    state = vacuum(cfg)
    for k in reversed(slots):  # rightmost factor of the creator string acts first
        state = apply_create(slot_from_linear(k, cfg.n_max), state)
    return state


def redefined_vacuum_energy(eps: float, cfg: LatticeConfig) -> float:
    """Additive energy of the redefined vacuum: sum over S of 2 E_q cos(p_q eps) <= 0."""
    spectrum = split_spectrum(eps, cfg)
    return sum(2.0 * row[3] for row in spectrum.entries if row[0] in set(spectrum.negative_modes))


def _slot_weights(eps: float, cfg: LatticeConfig) -> np.ndarray:
    """Split energy carried by each linear slot (same for both species)."""
    w = np.empty(n_slots_for(cfg.n_max))
    for j in cfg.mode_indices():
        p = cfg.momentum(j)
        val = dispersion(p, cfg.mass) * math.cos(p * eps)
        for species in (ELECTRON, POSITRON):
            w[SlotIndex(species, j).linear(cfg.n_max)] = val
    return w


def ground_state_bruteforce(eps: float, cfg: LatticeConfig) -> EnergyReport:
    """Enumerate all occupation states and locate the energy minimum.

    Energies are additive over occupied slots, so each of the 2^M_tot
    basis states is scored directly.  Verifies that the minimizers are
    exactly the states occupying all negative-split-energy slots, none of
    the positive ones, and any subset of the zero ones (degeneracy
    2^(2*|zero set|); unique when the zero set is empty).
    """
    n = n_slots_for(cfg.n_max)
    if n > ENUMERATION_MAX_SLOTS:
        raise ValueError(f"enumeration bound exceeded: {n} slots > {ENUMERATION_MAX_SLOTS}")
    w = _slot_weights(eps, cfg)
    idx = np.arange(1 << n, dtype=np.int64)
    energies = np.zeros(len(idx))
    for s in range(n):
        energies += w[s] * ((idx >> s) & 1)
    emin = float(energies.min())
    tol = 1e-9 * max(1.0, abs(emin))
    minimizers = idx[np.abs(energies - emin) <= tol]

    spectrum = split_spectrum(eps, cfg)
    neg_mask = 0
    zero_mask = 0
    for j in spectrum.negative_modes:
        for species in (ELECTRON, POSITRON):
            neg_mask |= 1 << SlotIndex(species, j).linear(cfg.n_max)
    for j in spectrum.zero_modes:
        for species in (ELECTRON, POSITRON):
            zero_mask |= 1 << SlotIndex(species, j).linear(cfg.n_max)
    expected = (minimizers & ~np.int64(zero_mask)) == neg_mask
    if not bool(expected.all()):
        raise RuntimeError("brute-force minimizers are not the negative-set occupations")
    if len(minimizers) != 1 << bin(zero_mask).count("1"):
        raise RuntimeError(
            f"unexpected ground-state degeneracy {len(minimizers)} with zero mask {zero_mask:b}"
        )

    canonical = int(neg_mask)
    label = f"occupation {canonical:0{n}b} (slot 0 rightmost)"
    return EnergyReport(
        label=label,
        energy=emin,
        degeneracy=int(len(minimizers)),
        state_bits=canonical,
        matches_redefined_vacuum=bool(canonical in {int(b) for b in minimizers}),
    )
