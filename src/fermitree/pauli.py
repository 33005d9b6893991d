"""Exact algebra of phase-tracked multi-qubit Pauli strings.

A :class:`PauliString` is a sparse tensor product of single-qubit Pauli
letters together with a global phase restricted to {+1, +i, -1, -i}.  The
phase is stored as an integer power of i, so products and involutions are
exact integer arithmetic with no floating point.

Every product goes through one rule on (x, z, power) masks, the
symplectic form of Aaronson and Gottesman (PRA 2004): x and z are XORed
and the power gains 2 per bit set in both the left z and the right x.
``product`` applies it to any number of strings as Python ints over their
labels, and ``PauliString.__mul__`` is its two-string call.  Hot loops
over strings on the qubits 0..n-1 of one register use the masks directly
(``to_masks``): ``fermion`` multiplies them, ``statesim`` applies them
to a state and ``masks_text`` renders their text, as int64 arrays with one
row per string, or as ints for one.

A string is checked once, where it enters: the public constructor (with
``single`` and ``from_map``) and ``parse`` reject bad labels, letters and
repeated qubits.  The table builders of ``ternary`` and ``baselines`` and
``product``'s decode make canonical strings directly, through
``_canonical``, and check nothing again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable

import numpy as np

_PHASES: tuple[complex, ...] = (1, 1j, -1, -1j)
_PHASE_TOKENS = {"+": 0, "+i": 1, "-": 2, "-i": 3}
_TOKENS_BY_POWER = {v: k for k, v in _PHASE_TOKENS.items()}


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
        # _canonical sets these two fields directly for letters already in this form

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
        return product((self, other))

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
        with :meth:`__str__`.  Each letter token is checked once: X, Y or Z
        followed by decimal digits (any Unicode decimal digit, as the regex
        ``\\d`` reads them).  A repeated qubit raises the constructor's
        ValueError, naming the first label repeated in text order.
        """
        tokens = text.split()
        if not tokens:
            raise ValueError("empty Pauli string text")
        power = 0
        if tokens[0] in _PHASE_TOKENS:
            power = _PHASE_TOKENS[tokens[0]]
            tokens = tokens[1:]
        if tokens == ["I"]:
            return _canonical((), power)
        if not tokens:
            raise ValueError("missing letter tokens (identity is spelled 'I')")
        letters = {}
        for token in tokens:
            digits = token[1:]
            if token[0] not in "XYZ" or not digits.isdecimal():
                raise ValueError(f"malformed Pauli token {token!r}")
            letters[int(digits)] = token[0]
        if len(letters) < len(tokens):  # a qubit repeats: the constructor raises, naming it
            cls(tuple((int(token[1:]), token[0]) for token in tokens))
        return _canonical(tuple(sorted(letters.items())), power)


def _canonical(letters: tuple[tuple[int, str], ...], phase_power: int) -> PauliString:
    """The PauliString of canonical letters, made without checking them.

    ``letters`` must be what ``PauliString.__post_init__`` leaves: (qubit,
    letter) pairs sorted by qubit, each qubit a distinct Python int >= 0 and
    each letter "X", "Y" or "Z".  The power is taken mod 4.
    """
    string = object.__new__(PauliString)
    state = string.__dict__
    state["letters"] = letters
    state["phase_power"] = phase_power % 4
    return string


def product(strings: Iterable[PauliString]) -> PauliString:
    """The ordered product of the strings, first factor leftmost, with its
    exact phase; the identity when there are none.

    Each string is taken to (x, z, power) masks as Python ints, one bit per
    qubit label in the order the labels first appear, so any label works,
    2**64 included.  The masks multiply as in ``to_masks``: x and z are
    XORed, and the power gains the factor's power plus 2 per bit set in both
    the z so far and the factor's x.  The result is decoded once, into letters
    sorted by qubit.
    """
    bits: dict[int, int] = {}
    x = z = power = 0
    for string in strings:
        fx = fz = 0
        power += string.phase_power
        for qubit, letter in string.letters:
            bit = bits.setdefault(qubit, 1 << len(bits))
            if letter != "Z":
                fx |= bit
            if letter != "X":
                fz |= bit
            if letter == "Y":
                power += 1
        power += 2 * (z & fx).bit_count()
        x ^= fx
        z ^= fz
    support = x | z
    letters = tuple(
        (qubit, "IXZY"[bool(x & bit) + 2 * bool(z & bit)])
        for qubit, bit in sorted(bits.items())
        if support & bit
    )
    return _canonical(letters, power - (x & z).bit_count())


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
def _qubit_tokens(num_qubits: int) -> np.ndarray:
    """Read-only (qubit, x bit + 2 * z bit) table of each letter's token,
    " X3" and the like, and "" for the identity."""
    tokens = np.array([("", f" X{q}", f" Z{q}", f" Y{q}") for q in range(num_qubits)], dtype=object)
    tokens = tokens.reshape(num_qubits, 4)
    tokens.flags.writeable = False
    return tokens


def masks_text(masks, num_qubits: int) -> list[str] | str:
    """``str`` of the PauliString of each (x, z, power) string on num_qubits
    qubits, made without one.

    The masks are int64 arrays of equal length, one entry per string, which
    give a list of texts, or ints for one string, which give its text.  The
    table is read in one pass over its x and z bit planes: a token per qubit
    column, then one join per row.  Since Y = iXZ, the phase is i to the
    power less the number of Y letters.  Masks outside 0..2**num_qubits-1
    raise ValueError.
    """
    x, z, power = (np.asarray(m, dtype=np.int64).reshape(-1) for m in masks)
    if len(x) and ((x | z).min() < 0 or (x | z).max() >> num_qubits):
        raise ValueError(f"masks reach outside the register of {num_qubits} qubits")
    shifts = np.arange(num_qubits - 1, -1, -1)[:, None]  # qubit 0 is the top bit
    xbits, zbits = x >> shifts & 1, z >> shifts & 1  # (qubit, string)
    powers = ((power - (xbits & zbits).sum(axis=0)) % 4).tolist()
    tokens = _qubit_tokens(num_qubits)
    columns = (tokens[q][codes].tolist() for q, codes in enumerate(xbits + 2 * zbits))
    texts = list(map("".join, zip(map(_TOKENS_BY_POWER.__getitem__, powers), *columns)))
    for identity in np.flatnonzero((x | z) == 0).tolist():
        texts[identity] += " I"
    return texts if np.ndim(masks[0]) else texts[0]
