"""Exact desk-scale workbench for point-split commutators of a 1+1D fermion field.

The package builds a finite, exactly solvable model of a free fermion
field on a periodic box and uses it to check, as machine-verifiable
computations: the anticommutation algebra, the continuity identity, the
formal-versus-exact evaluation of the smeared charge/current double
commutator (zero one way, strictly positive the other), the point-split
current that reconciles the two, the point-split Hamiltonian with its
corrected current, and the redefined vacuum that restores a ground state.

Modules
-------
lattice      momentum grid, dispersion, spinors, mode functions
trigpoly     smearing functions as finite sums of box harmonics
fock         occupation-bitstring Fock space with exact fermionic signs
modeops      normal-ordered operator polynomials and all model operators
symbolic     formal continuum rewriting (CAR commutator, delta integration)
anomaly      the exact/formal juxtaposition and kernel asymptotics
groundstate  split-Hamiltonian spectrum, negative set, redefined vacuum
checks       reusable identity suites
cli          batch experiment runner (verify | anomaly | vacuum | kernel | derive)
"""

from .lattice import LatticeConfig, ModeSpinor, dispersion, mode_function, mode_overlap, spinor
from .trigpoly import TrigPoly
from .fock import (
    ELECTRON,
    POSITRON,
    FockVector,
    SlotIndex,
    apply_annihilate,
    apply_create,
    inner,
    vacuum,
)
from .modeops import (
    ModeOperator,
    apply_operator,
    boulware_current,
    charge_density,
    coeff_distance,
    commutator,
    current_density,
    expectation,
    hamiltonian,
    multiply,
    smeared_charge,
    split_current,
    split_hamiltonian,
    total_charge,
    vev,
)
from .anomaly import (
    AnomalyReport,
    double_commutator_direct,
    double_commutator_spectral,
    finite_difference_limit,
    kernel_asymptote,
    split_commutator_integral,
    split_vev_kernel,
)
from .groundstate import (
    EnergyReport,
    SplitSpectrum,
    excitation_energy,
    ground_state_bruteforce,
    redefined_vacuum,
    redefined_vacuum_energy,
    split_spectrum,
)
from .symbolic import Bilinear, SymExpr, SymPoint, commute_bilinears, formal_smeared_commutator, integrate_delta

__version__ = "0.1.0"
