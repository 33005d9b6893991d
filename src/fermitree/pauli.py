"""Exact algebra of phase-tracked multi-qubit Pauli strings.

A :class:`PauliString` is a sparse tensor product of single-qubit Pauli
letters together with a global phase restricted to {+1, +i, -1, -i}.  The
phase is stored as an integer power of i, so products, commutation checks
and involutions are exact integer arithmetic with no floating point.

Hot loops over strings on the qubits 0..n-1 of one register use their
(x, z, power) masks instead (``to_masks``), the symplectic form of
Aaronson and Gottesman (PRA 2004).  ``fermion`` multiplies them, and
``statesim`` applies them to a state, as int64 arrays with one row per
string; the integer phase arithmetic stays exact.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from numbers import Integral

_PHASES: tuple[complex, ...] = (1, 1j, -1, -1j)
_PHASE_TOKENS = {"+": 0, "+i": 1, "-": 2, "-i": 3}
_TOKENS_BY_POWER = {v: k for k, v in _PHASE_TOKENS.items()}

# Single-qubit products: (a, b) -> (resulting letter or None, added power of i).
_LETTER_PRODUCT: dict[tuple[str, str], tuple[str | None, int]] = {
    ("X", "X"): (None, 0),
    ("Y", "Y"): (None, 0),
    ("Z", "Z"): (None, 0),
    ("X", "Y"): ("Z", 1),
    ("Y", "Z"): ("X", 1),
    ("Z", "X"): ("Y", 1),
    ("Y", "X"): ("Z", 3),
    ("Z", "Y"): ("X", 3),
    ("X", "Z"): ("Y", 3),
}

_LETTER_TOKEN = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True)
class PauliString:
    """Sparse multi-qubit Pauli operator with an exact i-power phase.

    Attributes:
        letters: sorted tuple of (qubit index, letter) pairs, each index
            an int (a numpy integer is converted; a bool, float or str
            raises ValueError); identity factors are never stored.
        phase_power: integer k with the global phase equal to i**k.
    """

    letters: tuple[tuple[int, str], ...] = ()
    phase_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_power", self.phase_power % 4)
        converted = False
        seen = set()
        for qubit, letter in self.letters:
            if type(qubit) is not int:
                # bool is Integral; a float or str label prints text parse rejects,
                # and a str one would fail the sort below with TypeError
                if isinstance(qubit, bool) or not isinstance(qubit, Integral):
                    raise ValueError(f"qubit label {qubit!r} is not an integer")
                converted = True
            if qubit < 0:
                raise ValueError(f"negative qubit index {qubit}")
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"invalid Pauli letter {letter!r}")
            if qubit in seen:
                raise ValueError(f"duplicate qubit index {qubit}")
            seen.add(qubit)
        pairs = [(int(q), a) for q, a in self.letters] if converted else self.letters
        object.__setattr__(self, "letters", tuple(sorted(pairs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, phase_power: int = 0) -> "PauliString":
        return cls((), phase_power)

    @classmethod
    def single(cls, qubit: int, letter: str, phase_power: int = 0) -> "PauliString":
        return cls(((qubit, letter),), phase_power)

    @classmethod
    def from_map(cls, letters: dict[int, str], phase_power: int = 0) -> "PauliString":
        return cls(tuple(letters.items()), phase_power)

    # -- queries -----------------------------------------------------------

    @property
    def weight(self) -> int:
        """Number of qubits acted on nontrivially."""
        return len(self.letters)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product self @ other with exact phase accumulation."""
        if not isinstance(other, PauliString):
            return NotImplemented
        product = dict(self.letters)
        power = self.phase_power + other.phase_power
        for qubit, letter in other.letters:
            mine = product.get(qubit)
            if mine is None:
                product[qubit] = letter
            else:
                merged, extra = _LETTER_PRODUCT[(mine, letter)]
                power += extra
                if merged is None:
                    del product[qubit]
                else:
                    product[qubit] = merged
        return PauliString(tuple(product.items()), power)

    def anticommutes_with(self, other: "PauliString") -> bool:
        """True iff self*other == -other*self.

        Two strings anticommute exactly when the number of shared qubits
        carrying different letters is odd.
        """
        mine = dict(self.letters)
        differing = sum(
            1 for qubit, letter in other.letters
            if qubit in mine and mine[qubit] != letter
        )
        return differing % 2 == 1

    # -- text format -------------------------------------------------------

    def __str__(self) -> str:
        phase = _TOKENS_BY_POWER[self.phase_power]
        if not self.letters:
            return f"{phase} I"
        body = " ".join(f"{letter}{qubit}" for qubit, letter in self.letters)
        return f"{phase} {body}"

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse the text format, e.g. ``"+i X0 Z3 Y7"`` or ``"+ I"``.

        The leading phase token is optional and defaults to ``+``.  Round-trips
        with :meth:`__str__`.
        """
        tokens = text.split()
        if not tokens:
            raise ValueError("empty Pauli string text")
        power = 0
        if tokens[0] in _PHASE_TOKENS:
            power = _PHASE_TOKENS[tokens[0]]
            tokens = tokens[1:]
        if tokens == ["I"]:
            return cls.identity(power)
        if not tokens:
            raise ValueError("missing letter tokens (identity is spelled 'I')")
        pairs = []
        for token in tokens:
            match = _LETTER_TOKEN.match(token)
            if match is None:
                raise ValueError(f"malformed Pauli token {token!r}")
            pairs.append((int(match.group(2)), match.group(1)))
        return cls(tuple(pairs), power)


# -- register masks ------------------------------------------------------------

# (x, z, power): the string i**power X^x Z^z, as Python ints.
Masks = tuple[int, int, int]


def to_masks(pauli: PauliString, num_qubits: int) -> Masks:
    """The (x, z, power) masks of a string on the qubits 0..num_qubits-1.

    Qubit q is bit num_qubits-1-q of x (letters X and Y) and of z (letters
    Z and Y), so qubit 0 is the most significant bit, the state-index order
    of ``statesim``.  Since Y = iXZ, power is the phase power plus the
    number of Y letters.  A label outside the register raises ValueError
    before any mask is built.
    """
    if pauli.letters and pauli.letters[-1][0] >= num_qubits:
        raise ValueError(
            f"qubit {pauli.letters[-1][0]} outside the register of {num_qubits} qubits"
        )
    x = z = 0
    power = pauli.phase_power
    for qubit, letter in pauli.letters:
        bit = 1 << (num_qubits - 1 - qubit)
        if letter != "Z":
            x |= bit
        if letter != "X":
            z |= bit
        if letter == "Y":
            power += 1
    return x, z, power % 4


@functools.cache
def _qubit_tokens(num_qubits: int) -> dict[int, tuple[str | None, ...]]:
    # each qubit's mask bit -> its tokens, indexed by x bit + 2 * z bit
    return {1 << (num_qubits - 1 - q): (None, f"X{q}", f"Z{q}", f"Y{q}") for q in range(num_qubits)}


def masks_text(masks: Masks, num_qubits: int) -> str:
    """``str`` of the PauliString of (x, z, power) on num_qubits qubits, made
    without one; masks outside 0..2**num_qubits-1 raise ValueError."""
    x, z, power = masks
    rest = x | z
    if rest >> num_qubits:
        raise ValueError(f"masks {x:#x}, {z:#x} reach outside the register of {num_qubits} qubits")
    tokens, letters = _qubit_tokens(num_qubits), []
    while rest:
        low = rest & -rest  # the highest qubit left
        rest ^= low
        letters.append(tokens[low][bool(x & low) + 2 * bool(z & low)])
    return f"{_TOKENS_BY_POWER[(power - (x & z).bit_count()) % 4]} {' '.join(reversed(letters)) or 'I'}"
