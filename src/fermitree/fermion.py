"""Fermionic k-RDMs through a Majorana encoding, exact and sampled.

Majorana operators are numbered 1..2n, operators 2j-1 and 2j belonging to
mode j with gamma_{2j-1} = c_j^dag + c_j and gamma_{2j} = i(c_j^dag - c_j).
Any mapping is consumed as its Majorana table (entry u-1 holding operator
u), so the ternary-tree, Jordan-Wigner and Bravyi-Kitaev encodings are
interchangeable everywhere below; expectation values of encoded monomials
are representation independent.

A k-RDM monomial of 2k Majorana operators encodes to a single Pauli
string.  Both RDM entry points build the (x, z, power) masks of all
C(2n, 2k) monomials at once as int64 arrays.  The exact table reads them
off the state with ``statesim.expectations``, one Walsh-Hadamard transform
per distinct X mask.  The sampled table, ``estimate_fermionic_rdm``, hands
the mask arrays to ``tomography.mask_means``, which reads every string off
one qubit Bell shot stream with attenuation sqrt(3)^weight, at most
(2n+1)^k for the ternary-tree mapping, by one transform of the outcome
histogram when it has at most 256 bins per string (n = 8, k = 2: 4^8 bins,
1820 strings); each estimate's phase and weight come from its masks,
which it keeps, with no PauliString per monomial, and its text is
rendered from them only when ``pauli`` is read.  That bound is on the
attenuation, not on the per-shot variance 3^weight - <P>^2, which is
larger: at n = 8 the ternary tables reach 3^weight = 243 (k = 1) and
2187 (k = 2), against (2n+1)^k = 17 and 289.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .pauli import _PHASES, Masks, PauliString, masks_text, product, to_masks
from .statesim import (
    BellShotStream,
    DenseState,
    _parity,
    expectations,
    masks_matvec,
    sample_povm_shots,
)
from .ternary import TernaryTreeMapping
from .tomography import mask_means

MappingLike = Union[TernaryTreeMapping, Sequence[PauliString]]


def majorana_table(mapping: MappingLike) -> tuple[PauliString, ...]:
    """Majorana tables of any mapping kind, entry u-1 for operator u."""
    if isinstance(mapping, TernaryTreeMapping):
        return mapping.majorana_table
    table = tuple(mapping)
    if not table or len(table) % 2 != 0:
        raise ValueError(f"Majorana table must have even positive length, got {len(table)}")
    return table


def mode_count(mapping: MappingLike) -> int:
    return len(majorana_table(mapping)) // 2


def monomial_masks(
    mapping: MappingLike, k: int, n: int
) -> tuple[list[tuple[int, ...]], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every increasing 2k-subset of Majorana indices, and the n-qubit
    (x, z, power) masks of their products as three int64 arrays in the same
    order; k outside 1..modes or a table entry outside the register raises
    ValueError.

    The products are built level by level, each shared prefix once.  Level
    1 is the factor masks of the operators that leave room for 2k - 1 after
    them; level j + 1 repeats each level-j row once per later operator that
    still leaves room for the 2k - j - 1 after it (``np.repeat`` of the row
    numbers, the next operator a cumulative-sum offset plus ``np.arange``)
    and multiplies that factor in, in the algebra of ``pauli.to_masks``: x
    and z are XORed, and the power gains the factor's power plus 2 per bit
    set in both the z so far and the factor's x.  Each row is the integer
    sequence of multiplying its factors in one at a time, and the rows come
    out in ``itertools.combinations`` order; n = 8, k = 2 multiplies
    91 + 455 + 1820 = 2366 factors in, against 4 * 1820 = 7280 one monomial
    at a time.
    """
    table = majorana_table(mapping)
    if not 1 <= k <= len(table) // 2:
        raise ValueError(f"k must be in 1..{len(table) // 2}, got {k}")
    factors = np.array([to_masks(op, n) for op in table], dtype=np.int64).T.copy()
    # level j's operators (0-based) end at len(table) - 2k + j - 1, leaving room for the rest
    room = len(table) - 2 * k
    last = np.arange(room + 1)
    x, z, power = factors.take(last, 1)
    for j in range(1, 2 * k):
        children = room + j - last
        parents = np.repeat(np.arange(len(last)), children)
        last = np.arange(len(parents)) - np.repeat(np.cumsum(children) - children - last - 1, children)
        fx, fz, fp = factors.take(last, 1)
        x, z, power = x.take(parents), z.take(parents), power.take(parents)
        power += fp + 2 * _parity(z & fx, n)
        x ^= fx
        z ^= fz
    indices = list(itertools.combinations(range(1, len(table) + 1), 2 * k))
    return indices, (x, z, power % 4)


def encode_monomial(indices: Sequence[int], mapping: MappingLike) -> PauliString:
    """Pauli string of the Majorana product in the given order, phase included.

    The string phase comes purely from the Pauli algebra of the table
    entries.
    """
    table = majorana_table(mapping)
    for u in indices:
        if not 1 <= u <= len(table):
            raise ValueError(f"Majorana index {u} outside 1..{len(table)}")
    return product(table[u - 1] for u in indices)


def number_operator_strings(mapping: MappingLike) -> tuple[PauliString, ...]:
    """Encoded 2n_j - 1 = i gamma_{2j-1} gamma_{2j}, one string per mode."""
    table, i = majorana_table(mapping), PauliString.identity(1)
    return tuple(product((i, table[2 * j], table[2 * j + 1])) for j in range(len(table) // 2))


def encoded_vacuum(mapping: MappingLike) -> DenseState:
    """The state annihilated by every mode, i.e. N_j = -1 for all j.

    The register holds one qubit per mode.  Returns the first nonzero image
    of a computational basis state under the projector
    P = prod_j (I - N_j)/2, normalised.  No later image is
    larger: the N_j are commuting Hermitian Pauli strings, so P averages
    the stabiliser group they generate and <b|P|b> is 0 or one common value
    for every basis state b (Aaronson and Gottesman, PRA 2004).  Tables
    whose N_j are not Hermitian or do not commute are rejected, read off
    the N_j's masks: i**power X^x Z^z is Hermitian when power - |x & z| is
    even, and two strings commute when |x1 & z2| + |z1 & x2| is even.  The
    global phase is whatever the projection produces; expectations never
    see it.
    """
    num_qubits = mode_count(mapping)
    numbers = [to_masks(n_op, num_qubits) for n_op in number_operator_strings(mapping)]
    if any((p - (x & z).bit_count()) % 2 for x, z, p in numbers) or any(
        ((x1 & z2) ^ (z1 & x2)).bit_count() % 2
        for (x1, z1, _), (x2, z2, _) in itertools.combinations(numbers, 2)
    ):
        raise ValueError("number operators must be commuting Hermitian Pauli strings")
    dim = 2 ** num_qubits
    for b in range(dim):
        vec = np.zeros(dim, dtype=complex)
        vec[b] = 1.0
        for masks in numbers:
            vec = 0.5 * (vec - masks_matvec(masks, vec, num_qubits))
        norm2 = float(np.vdot(vec, vec).real)
        if norm2 > 1e-12:
            return DenseState(2, num_qubits, vec / math.sqrt(norm2))
    raise ValueError("no vacuum component found in the computational basis")


def encode_fock_state(mapping: MappingLike, occupations: Sequence[int]) -> DenseState:
    """Encoded Fock state with the given 0/1 occupation per mode.

    Creation operators (gamma_{2j-1} - i gamma_{2j})/2 are applied to the
    encoded vacuum in descending mode order, so mode 1 acts last; the
    overall sign convention is fixed but immaterial for expectations.
    """
    n = mode_count(mapping)
    if len(occupations) != n:
        raise ValueError(f"expected {n} occupations, got {len(occupations)}")
    if any(occ not in (0, 1) for occ in occupations):
        raise ValueError("occupations must be 0 or 1")
    table = majorana_table(mapping)
    vec = encoded_vacuum(mapping).amplitudes
    for j in sorted((j for j, occ in enumerate(occupations) if occ), reverse=True):
        g1, g2 = (to_masks(op, n) for op in table[2 * j : 2 * j + 2])
        vec = 0.5 * (masks_matvec(g1, vec, n) - 1j * masks_matvec(g2, vec, n))
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-8:
            raise AssertionError(f"creation on mode {j + 1} changed the norm to {norm}")
        vec = vec / norm
    return DenseState(2, n, vec)


# -- exact oracle --------------------------------------------------------------


def exact_fermionic_rdm(
    state: DenseState, mapping: MappingLike, k: int
) -> dict[tuple[int, ...], complex]:
    """<gamma_{u1} ... gamma_{u2k}> for every increasing 2k-subset of indices.

    Values carry the algebraic phase of the encoded product; multiply by
    i**(k(2k-1)) for the real-valued Hermitian convention.
    One ``expectations`` call reads the monomials' masks, one transform per
    distinct X mask; a table entry outside the register raises ValueError.
    """
    indices, masks = monomial_masks(mapping, k, state.num_sites)
    return dict(zip(indices, expectations(state, masks).tolist()))


# -- sampled pipeline ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FermionEstimate:
    """One sampled Majorana-monomial expectation with its uncertainty; the
    encoded string is kept as its (x, z, power) masks on num_qubits qubits,
    in the layout of ``pauli.to_masks``.

    The fields live in slots, and ``__init__`` stores each through its slot
    descriptor: the generated init of a frozen dataclass makes one
    ``object.__setattr__`` call per field, which cost about twice as long
    over the 1820 records of n = 8, k = 2.  Assignment still raises
    ``FrozenInstanceError``, and ``replace``, ``==``, ``hash``, ``repr`` and
    pickling work on the fields as generated.
    """

    indices: tuple[int, ...]
    value: complex
    std_error: float
    num_shots: int
    masks: Masks
    num_qubits: int
    weight: int
    attenuation: float

    def __init__(self, indices, value, std_error, num_shots, masks, num_qubits, weight, attenuation):
        (set_indices, set_value, set_std_error, set_num_shots,
         set_masks, set_num_qubits, set_weight, set_attenuation) = _SLOT_SETTERS
        set_indices(self, indices)
        set_value(self, value)
        set_std_error(self, std_error)
        set_num_shots(self, num_shots)
        set_masks(self, masks)
        set_num_qubits(self, num_qubits)
        set_weight(self, weight)
        set_attenuation(self, attenuation)

    @property
    def pauli(self) -> str:
        """``str`` of the encoded PauliString, rendered from the masks on each
        read: a one-row ``masks_text`` call."""
        return masks_text(self.masks, self.num_qubits)


_SLOT_SETTERS = tuple(FermionEstimate.__dict__[f.name].__set__ for f in fields(FermionEstimate))


def monomial_columns(stream: BellShotStream, masks) -> tuple[list, list, list, list]:
    """The estimates of the strings with (x, z, power) ``masks``, as in
    ``monomial_masks``, read off one qubit stream by ``mask_means``: four
    lists in input order.  They are each value (the X^x Z^z mean times
    sqrt(3)^weight times the phase i**(power - |x & z|), a float or a
    complex in Python arithmetic), its std error, its attenuation
    sqrt(3)^weight and its weight |x | z|."""
    x, z, power = (m.tolist() for m in masks)
    mean, scale, std_error = (c.tolist() for c in mask_means(stream, masks[0], masks[1]))
    values = [_PHASES[(p - (a & b).bit_count()) % 4] * sc * mn
              for a, b, p, sc, mn in zip(x, z, power, scale, mean)]
    return values, std_error, scale, [(a | b).bit_count() for a, b in zip(x, z)]


def _estimates(stream: BellShotStream, monomials, masks) -> list[FermionEstimate]:
    """One ``FermionEstimate`` per monomial, from ``monomial_columns``."""
    n, s = stream.num_pairs, stream.num_shots
    return [
        FermionEstimate(indices, value, std_error, s, string, n, weight, scale)
        for indices, string, value, std_error, scale, weight
        in zip(monomials, zip(*(m.tolist() for m in masks)), *monomial_columns(stream, masks))
    ]


def estimate_monomial(
    stream: BellShotStream, indices: Sequence[int], mapping: MappingLike
) -> FermionEstimate:
    """Estimate one Majorana monomial from a qubit Bell shot stream.

    The encoded Pauli string is read off the stream exactly like a qubit
    RDM element; its phase is reattached afterwards, so the returned value
    is complex with a fixed phase direction.
    """
    masks = to_masks(encode_monomial(indices, mapping), stream.num_pairs)
    return _estimates(stream, [tuple(indices)], [np.array([m]) for m in masks])[0]


def attenuation_bound(mapping: MappingLike, k: int) -> float:
    """(2n+1)^k for a table of n modes.

    For ternary-tree tables it bounds the attenuation sqrt(3)^weight of
    every degree-2k monomial; this is tested, not proven, for k = 1 up to
    n = 63 and for k = 2 up to n = 26 (at most 0.198 of the bound, at
    n = 17; 420.9 against 2809 at n = 26).  Other tables can exceed it: at
    n = 6, k = 1 the Jordan-Wigner table reaches 27 and the Bravyi-Kitaev
    table 15.6, against 13."""
    return float((2 * mode_count(mapping) + 1) ** k)


def estimate_fermionic_rdm(
    stream: BellShotStream, mapping: MappingLike, k: int
) -> list[FermionEstimate]:
    """Every degree-2k monomial, in the order of ``exact_fermionic_rdm``,
    estimated from one qubit Bell shot stream; k outside 1..modes or a
    table entry outside the stream's register raises ValueError."""
    monomials, masks = monomial_masks(mapping, k, stream.num_pairs)
    return _estimates(stream, monomials, masks)


def sampled_fermionic_rdm(
    system_state: DenseState,
    mapping: MappingLike,
    k: int,
    num_shots: int,
    seed: int,
    workers: int = 1,
) -> list[FermionEstimate]:
    """``estimate_fermionic_rdm`` on ``num_shots`` Bell shots of the state,
    drawn by ``sample_povm_shots`` with the tetrahedral ancilla; ``workers``
    must be at least 1 and has no effect on the output or the speed."""
    stream = sample_povm_shots(system_state, num_shots, seed, workers=workers)
    return estimate_fermionic_rdm(stream, mapping, k)
