"""Exact fermionic Fock space over the lattice modes.

Basis states are occupation bitstrings over M_tot = 2*(2*n_max+1) slots:
electron modes sit at slots 0..2*n_max (ascending mode index j), positron
modes at slots 2*n_max+1..4*n_max+1 (ascending j), from _first_positron on.
Bit k of the integer key is slot k; _mode_slots gives mode j's two slots.

This fixed slot order is the single source of truth for every fermionic
sign in the package: creating or annihilating in slot k multiplies the
amplitude by (-1)**(number of occupied slots with smaller index), the
standard string-of-signs realization of the anticommutation relations on
bitstrings.  The private _apply_word is the only code applying this rule;
apply_create, apply_annihilate, modeops.apply_operator, the vacuum read
_vacuum_part and the exhaustive CAR check all go through it.  Amplitudes
are double-precision complex; the signs themselves are exact integers.

Operator application indexes the state's bitstrings by occupied slot once,
so a word that annihilates slot s visits only the bitstrings holding s.
Among those, one mask test picks the ones it can act on before _apply_word
runs: of the slots the word touches (full, its annihilated slots, and its
creators' slots), a bitstring must hold exactly full, since a creator finds
its slot empty only if the slot was empty or is one the word annihilates.
The word sends every bitstring failing the test to zero (for a word
without a repeated slot, exactly those), so skipping them changes no
amplitude and no order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ELECTRON = "electron"
POSITRON = "positron"
_SPECIES = (ELECTRON, POSITRON)


@dataclass(frozen=True)
class SlotIndex:
    """A single fermionic slot: species ('electron'|'positron') and mode index j."""

    species: str
    j: int

    def __post_init__(self):
        if self.species not in _SPECIES:
            raise ValueError(f"unknown species {self.species!r}")

    def linear(self, n_max: int) -> int:
        """Position of this slot in the fixed linear order."""
        if abs(self.j) > n_max:
            raise ValueError(f"mode index {self.j} out of range for n_max={n_max}")
        electron, positron = _mode_slots(self.j, n_max)
        return electron if self.species == ELECTRON else positron


def _first_positron(n_max: int) -> int:
    """Linear slots below this one are electron slots, the rest positron slots."""
    return 2 * n_max + 1


def _mode_slots(j, n_max: int):
    """(electron slot, positron slot) of mode j, an int or an integer array, at this n_max."""
    electron = j + n_max
    return electron, electron + _first_positron(n_max)


def n_slots_for(n_max: int) -> int:
    return 2 * _first_positron(n_max)


def n_max_from_slots(n_slots: int) -> int:
    n_max = (n_slots // 2 - 1) // 2
    if n_slots_for(n_max) != n_slots:
        raise ValueError(f"slot count {n_slots} is not of the form 2*(2*n_max+1)")
    return n_max


@dataclass(frozen=True)
class FockVector:
    """Sparse state: occupation bitstring -> complex amplitude.

    Treated as immutable; all operations return new vectors.  Exact zeros
    are never stored, so the empty map is the zero vector.
    """

    n_slots: int
    amp: dict[int, complex] = field(default_factory=dict)

    @classmethod
    def basis_state(cls, bits: int, n_slots: int) -> "FockVector":
        if not 0 <= bits < (1 << n_slots):
            raise ValueError(f"bitstring {bits} out of range for {n_slots} slots")
        return cls(n_slots, {bits: 1.0 + 0.0j})

    def norm(self) -> float:
        return sum(abs(a) ** 2 for a in self.amp.values()) ** 0.5

    def is_zero(self) -> bool:
        return not self.amp


def _check_same_space(v, w) -> None:
    """Raise unless v and w, states or operators, act on the same number of slots."""
    if v.n_slots != w.n_slots:
        raise ValueError(f"lattice mismatch: {v.n_slots} vs {w.n_slots} slots")


def vacuum(cfg) -> FockVector:
    """The empty-occupation state |0>, annihilated by every mode operator."""
    return FockVector.basis_state(0, n_slots_for(cfg.n_max))


def _apply_word(cre, ann, bits: int):
    """a'_{cre[0]} ... a'_{cre[-1]} a_{ann[0]} ... a_{ann[-1]} on one bitstring.

    The rightmost factor acts first; each factor flips its slot's bit and
    counts the occupied slots below it.  Returns (bits, odd), with odd set
    when the sign is -1, or None when a factor meets its slot in the wrong
    state (annihilating an empty slot or creating in a full one).
    """
    odd = 0
    if ann:  # an empty side skips its loop: each factor of the CAR sweep, and many a word, has one
        for s in reversed(ann):
            bit = 1 << s
            if not bits & bit:
                return None
            bits ^= bit
            odd ^= (bits & (bit - 1)).bit_count()
    if cre:
        for s in reversed(cre):
            bit = 1 << s
            if bits & bit:
                return None
            odd ^= (bits & (bit - 1)).bit_count()
            bits ^= bit
    return bits, odd & 1


def _apply_terms(terms, v: FockVector) -> FockVector:
    """sum over ((cre, ann), coeff) in terms of coeff * word(cre, ann) applied to v.

    The bitstrings holding each occupied slot are listed once, in v's order,
    and a word visits only the list of its first annihilated slot (every
    bitstring when it has no annihilator).  Words run in order and each
    list in v's order, so the hits accumulate in the (term, bitstring) order
    of trying every word on every bitstring: the same amplitudes, inserted
    in the same order.
    """
    holding: dict[int, list[tuple[int, complex]]] = {}
    held_by = holding.get
    for item in v.amp.items():
        rest = item[0]
        while rest:
            s = rest.bit_length() - 1
            held = held_by(s)
            if held is None:
                holding[s] = [item]
            else:
                held.append(item)
            rest ^= 1 << s
    out: dict[int, complex] = {}
    get, pop, apply_word, everything = out.get, out.pop, _apply_word, v.amp.items()
    for (cre, ann), coeff in terms:
        candidates = held_by(ann[0]) if ann else everything
        if not candidates:
            continue
        full = 0
        for s in ann:
            full |= 1 << s
        touched = full
        for s in cre:
            touched |= 1 << s
        for bits, amp in candidates:
            if bits & touched == full:
                hit = apply_word(cre, ann, bits)
                if hit is not None:
                    b, odd = hit
                    acc = get(b, 0j) + (-(coeff * amp) if odd else coeff * amp)
                    if acc:
                        out[b] = acc
                    else:
                        pop(b, None)
    return FockVector(v.n_slots, out)


def _vacuum_part(terms, v: FockVector) -> FockVector:
    """The vacuum component of _apply_terms(terms, v), that is <0| sum coeff * word |v> times |0>.

    Only a word without creators ends in |0>, and only from the one
    bitstring that holds exactly its annihilated slots.  The hits are summed
    in _apply_terms' order, so the amplitude is the same float.  A sum
    started at 0j never holds a -0.0, so where _apply_terms drops a zero
    entry and restarts from 0j, this sum already is 0j.
    """
    total = 0j
    amps, apply_word = v.amp.get, _apply_word
    for (cre, ann), coeff in terms:
        if cre:
            continue
        bits = 0
        for s in ann:
            bits |= 1 << s
        amp = amps(bits)
        hit = None if amp is None else apply_word(cre, ann, bits)
        if hit is None:
            continue
        total += -(coeff * amp) if hit[1] else coeff * amp
    return FockVector(v.n_slots, {0: total} if total else {})


def apply_create(slot: SlotIndex, v: FockVector) -> FockVector:
    """Creation operator for the given slot; vanishing branches drop out."""
    k = slot.linear(n_max_from_slots(v.n_slots))
    return _apply_terms([(((k,), ()), 1.0)], v)


def apply_annihilate(slot: SlotIndex, v: FockVector) -> FockVector:
    """Annihilation operator; adjoint of apply_create under inner()."""
    k = slot.linear(n_max_from_slots(v.n_slots))
    return _apply_terms([(((), (k,)), 1.0)], v)


def inner(v: FockVector, w: FockVector) -> complex:
    """<v|w>, conjugate-linear in the first argument."""
    _check_same_space(v, w)
    if len(w.amp) < len(v.amp):
        return sum((v.amp[b].conjugate() * a for b, a in w.amp.items() if b in v.amp), 0j)
    return sum((a.conjugate() * w.amp[b] for b, a in v.amp.items() if b in w.amp), 0j)
