"""The headline discrepancy: a formal zero versus an exactly positive number.

The smeared charge F = integral rho(z) f(z) dz defines the vacuum response
<0|[F,[H,F]]|0>.  Rewriting the commutator with the anticommutation rules
and integrating the delta function makes the integrand cancel identically;
expanding in energy eigenstates gives a manifestly positive sum.  This
script runs both evaluations on the same smearing function and then shows
how the symmetrized point-split current reconciles them.
Run:  python demos/02_formal_vs_exact.py
"""

from pointsplit import (
    LatticeConfig,
    TrigPoly,
    double_commutator_direct,
    double_commutator_spectral,
    smeared_kernel,
    split_commutator_integral,
    split_vev_kernel,
)
from pointsplit.symbolic import formal_smeared_commutator, format_expr

cfg = LatticeConfig(mass=1.0, delta_p=1.0, n_max=2)
f = TrigPoly.from_harmonics(cfg.box_length, [(1, 0.5, 0.0)])  # cos(2 pi z / L)

print("=" * 70)
print("Formal route: CAR rewriting + delta integration")
print("=" * 70)
steps = []
result = formal_smeared_commutator(split=False, record=steps)
for name, text in steps:
    print(f"[{name}]")
    for line in text.splitlines():
        print("   ", line)
print("formal result is identically zero:", result.is_zero())

print()
print("=" * 70)
print("Exact route: operator algebra on the finite model")
print("=" * 70)
kernel = smeared_kernel(f, cfg)  # F's band, read by both routes
direct = double_commutator_direct(kernel, cfg)
spectral = double_commutator_spectral(kernel, cfg)
print("  apply F, H, F to the vacuum:      ", direct)
print("  spectral sum over pair states:    ", spectral)
print("  relative difference:              ", abs(direct - spectral) / direct)
print("  -> strictly positive, so the two evaluations genuinely disagree.")

print()
print("=" * 70)
print("Reconciliation: evaluate through the symmetrized split current")
print("=" * 70)
print("split commutator, nonzero structure (weights f(z+-e) - f(z)):")
for line in format_expr(formal_smeared_commutator(split=True)).splitlines():
    print("   ", line)

big = LatticeConfig(mass=1.0, delta_p=1.0, n_max=60)
fb = TrigPoly.from_harmonics(big.box_length, [(1, 0.5, 0.0)])
print("\nsplit-current evaluation on a lattice with cutoff", big.cutoff, ":")
for eps in (0.4, 0.2, 0.1):
    val = split_commutator_integral(fb, eps, big)[0]
    kern = split_vev_kernel(eps, big).imag
    print(f"  eps={eps:<5} kernel Im = {kern:+.6f}   value = {val:+.6f}")
print("exact value on the same lattice:", double_commutator_direct(smeared_kernel(fb, big), big))
print("-> the split evaluation is positive too: the sign discrepancy is gone.")
