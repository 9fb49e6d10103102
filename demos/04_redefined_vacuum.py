"""Negative-energy excitations of the split Hamiltonian and the new vacuum.

The split Hamiltonian scores mode q at E_q cos(p_q eps), which goes
negative once p_q*eps passes pi/2.  The empty state then stops being the
ground state; filling every negative mode with both species restores one.
Brute force over all 2^14 occupation states confirms it exactly.
Run:  python demos/04_redefined_vacuum.py
"""

import math

from pointsplit import (
    ELECTRON,
    LatticeConfig,
    excitation_energy,
    ground_state_bruteforce,
    redefined_vacuum,
    redefined_vacuum_energy,
    split_spectrum,
)

cfg = LatticeConfig(mass=1.0, delta_p=1.0, n_max=3)
eps = 2.0

print("=" * 70)
print(f"Split spectrum at eps = {eps} (cutoff*eps = {cfg.cutoff * eps:.1f} > pi/2)")
print("=" * 70)
spec = split_spectrum(eps, cfg)
print(f"  {'j':>3} {'p':>6} {'E':>10} {'E cos(p eps)':>14}  negative?")
for j, p, energy, split_energy in spec.entries:
    mark = "  <-- in the negative set" if j in spec.negative_modes else ""
    print(f"  {j:>3} {p:>6.1f} {energy:>10.6f} {split_energy:>14.6f}{mark}")
print("negative set:", spec.negative_modes, "| zero set:", spec.zero_modes)

print("\nOne-particle energies over the empty state (both species identical):")
for q in (0, 1, 2, 3):
    print(f"  q={q}: {excitation_energy(q, ELECTRON, eps, cfg):+.6f}")

print("\nRedefined vacuum: occupy every negative mode with an electron AND a positron.")
state = redefined_vacuum(spec)
(bits,) = state.amp
print(f"  occupation bits: {bits:014b} (slot 0 rightmost)")
additive = redefined_vacuum_energy(spec)
closed = 4.0 * (math.sqrt(2.0) * math.cos(2.0) + math.sqrt(5.0) * math.cos(4.0))
print(f"  additive energy: {additive}")
print(f"  closed form 4(sqrt2 cos2 + sqrt5 cos4): {closed}")

print("\nBrute force over all 2^14 occupation states:")
rep = ground_state_bruteforce(eps, cfg)
print(f"  minimum energy: {rep.energy}")
print(f"  degeneracy:     {rep.degeneracy}")
print(f"  equals the redefined vacuum: {rep.matches_redefined_vacuum}")
print(f"  strictly below the empty state (energy 0): {rep.energy < 0.0}")

print("\nAnd at eps = 0 nothing happens, as it must:")
rep0 = ground_state_bruteforce(0.0, cfg)
print(f"  minimum {rep0.energy} with degeneracy {rep0.degeneracy} at the empty state")
