"""Brute-force reference implementations that the tests check the library against.

    * ``to_dense`` builds the 2^n x 2^n matrix of a Pauli string, one
      Kronecker factor per qubit;
    * ``letter_product`` multiplies two strings one shared qubit at a time
      through the single-qubit letter table, the reference for
      ``fermitree.pauli.product``, and ``letters_anticommute`` counts the
      shared qubits whose letters differ, the reference for the commutation
      checks of ``fermitree.ternary.verify_table`` and
      ``fermitree.fermion.encoded_vacuum``;
    * ``mask_product`` multiplies two strings' (x, z, power) masks as
      Python ints, and ``reference_masks_matvec`` applies one string's
      masks to a vector with a parity XORed together one z bit at a time,
      the scalar references for ``fermitree.fermion.monomial_masks`` and
      ``batched_masks_matvec``;
    * ``batched_masks_matvec`` applies many strings' masks, given as int64
      arrays, one row per string, by one gather with a folded parity, and
      ``reference_expectations`` applies them in blocks of ``GATHER_BLOCK``
      amplitudes and takes one ``np.vdot`` per row, the reference for the
      Walsh-Hadamard transforms of ``fermitree.statesim.expectations``;
    * ``sign_means`` reads strings of (qubit, letter) pairs, each taken
      to its masks through a ``PauliString`` and ``to_masks``, with
      ``fermitree.tomography.mask_means``: the tests' way to read a few
      named strings off a stream;
    * ``from_masks`` builds the PauliString of (x, z, power) masks, the
      reference for the text of ``fermitree.pauli.masks_text``, and
      ``reference_estimate_fermionic_rdm`` reads every monomial through
      one such string (its letters through ``sign_means``, its phase,
      masks and weight from the object), the reference for the mask path
      of ``fermitree.fermion.estimate_fermionic_rdm``;
    * ``reference_generalized_bell_state`` sets the amplitudes of one
      generalized Bell state entry by entry, the reference for
      ``fermitree.statesim.generalized_bell_state`` and the Bell basis;
    * ``reference_outcome_distribution`` runs every ``_site_products`` step
      on the whole array and squares the last product, the reference for
      the block-by-block ``fermitree.statesim._outcome_distribution``;
    * ``reference_draw_codes`` looks the uniforms of each ``SHOT_BLOCK``
      up in the CDF on their own and decodes them into C-ordered codes,
      the reference for ``fermitree.statesim._draw_codes``;
    * ``bell_measure_all_pairs`` measures a register's site pairs by
      sequential collapse, one pair at a time, the reference semantics of
      the two bulk samplers in ``fermitree.statesim``;
    * ``reference_calibration`` computes a fiducial's calibration factor
      from its D x D density and displacement matrices;
    * ``reference_residue_hw`` estimates a displacement correlator from
      the shots per phase residue g*h - f*ell mod D, summed against the
      powers of w: read from a (D^2,) * w + (D,) residue table built site
      by site with one-hot exponents when the support has at most as many
      outcome rows as shots, and by ``bincount`` over the joint outcomes
      otherwise; the ulp reference for ``fermitree.qudit.estimate_hw_correlator``
      and the displacement sums of ``fermitree.statesim``;
    * ``reference_sign_hw`` estimates a qubit displacement correlator from
      the per-shot products of the +-1 eigenvalues 1 - 2e in int64, exact
      at any shot count, and ``reference_row_sum_hw`` estimates one at any
      D from the support's distinct rows counted with a ``Counter``, each
      count times the site-by-site product of its characters w^e, summed
      by numpy's pairwise ``sum``: the exact references for
      ``fermitree.qudit.estimate_hw_correlator`` on one stream, per shot
      at D = 2 and per outcome row of ``fermitree.statesim.outcome_sums``
      at any D;
    * ``FenwickTree`` holds the interval-halving tree with its parent,
      children and interval lists and its update, parity and remainder
      sets, and ``reference_bravyi_kitaev`` builds the Bravyi-Kitaev table
      from those sets, the reference for ``fermitree.baselines.bravyi_kitaev``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from fermitree.fermion import FermionEstimate, monomial_masks
from fermitree.pauli import Masks, PauliString, to_masks
from fermitree.qudit import HwEstimate, _checked_targets
from fermitree.statesim import (
    GATHER_BLOCK, SHOT_BLOCK, BellShotStream, DenseState, _paired, _parity, _site_products,
    bell_basis_matrix, bell_exponents, hw_operator, joint_outcomes,
)
from fermitree.tomography import mask_means

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DENSE_QUBIT_LIMIT = 14


def to_dense(pauli: PauliString, num_qubits: int) -> np.ndarray:
    """Dense 2**num_qubits matrix, qubit 0 as the leftmost tensor factor.

    Refuses registers beyond ``DENSE_QUBIT_LIMIT`` qubits.
    """
    if num_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(
            f"dense form limited to {DENSE_QUBIT_LIMIT} qubits, got {num_qubits}"
        )
    if pauli.letters and pauli.letters[-1][0] >= num_qubits:
        raise ValueError(
            f"qubit index {pauli.letters[-1][0]} out of range for {num_qubits} qubits"
        )
    mat = np.array([[pauli.phase]], dtype=complex)
    lookup = dict(pauli.letters)
    for qubit in range(num_qubits):
        mat = np.kron(mat, PAULI_MATRICES[lookup.get(qubit, "I")])
    return mat


# Single-qubit products: (a, b) -> (resulting letter or None, added power of i).
LETTER_PRODUCT: dict[tuple[str, str], tuple[str | None, int]] = {
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


def letter_product(a: PauliString, b: PauliString) -> PauliString:
    """a @ b, each qubit of b merged into a's letters through ``LETTER_PRODUCT``."""
    letters = dict(a.letters)
    power = a.phase_power + b.phase_power
    for qubit, letter in b.letters:
        mine = letters.get(qubit)
        if mine is None:
            letters[qubit] = letter
        else:
            merged, extra = LETTER_PRODUCT[(mine, letter)]
            power += extra
            if merged is None:
                del letters[qubit]
            else:
                letters[qubit] = merged
    return PauliString(tuple(letters.items()), power)


def letters_anticommute(a: PauliString, b: PauliString) -> bool:
    """True iff a @ b == -b @ a: an odd number of shared qubits carry
    different letters."""
    mine = dict(a.letters)
    return sum(1 for qubit, letter in b.letters if qubit in mine and mine[qubit] != letter) % 2 == 1


def mask_product(a: Masks, b: Masks) -> Masks:
    """Masks of the operator product a @ b.

    Moving Z^z1 past X^x2 costs (-1)**popcount(z1 & x2), i.e. two powers
    of i per shared bit.
    """
    x1, z1, p1 = a
    x2, z2, p2 = b
    return x1 ^ x2, z1 ^ z2, (p1 + p2 + 2 * (z1 & x2).bit_count()) % 4


def reference_masks_matvec(masks: Masks, amplitudes: np.ndarray, num_sites: int) -> np.ndarray:
    """P @ vec for P = i**power X^x Z^z given as Python ints, by one gather.

    (P vec)[b] = i**power (-1)**popcount((b ^ x) & z) vec[b ^ x], the
    parity XORed together one z bit at a time.
    """
    x, z, power = masks
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (2 ** num_sites,):
        raise ValueError(f"expected {2 ** num_sites} amplitudes, got {vec.shape[0]}")
    source = np.arange(vec.shape[0])
    source ^= x
    out = vec[source]
    if z:
        bits = [bit for bit in range(num_sites) if z >> bit & 1]
        parity = source >> bits[0]
        for bit in bits[1:]:
            parity ^= source >> bit
        flip = (parity & 1).astype(bool)
        if power & 2:
            flip = ~flip
        np.negative(out, out=out, where=flip)
    elif power & 2:
        np.negative(out, out=out)
    if power & 1:
        out *= 1j
    return out


def batched_masks_matvec(masks: Masks, amplitudes: np.ndarray, num_sites: int) -> np.ndarray:
    """P @ vec for every P = i**power X^x Z^z of three equal-length int64
    mask arrays, one row per string, shape (M, 2**num_sites).

    One gather over index ^ x for all rows at once, the sign from the
    parity of (b ^ x) & z folded by ``fermitree.statesim._parity``, bit 0
    also carrying the sign of i**power.
    """
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (2 ** num_sites,):
        raise ValueError(f"expected {2 ** num_sites} amplitudes, got {vec.shape[0]}")
    x, z, power = (np.asarray(m, dtype=np.int64).reshape(-1, 1) for m in masks)
    source = np.arange(vec.shape[0]) ^ x
    out = vec[source]
    source &= z
    source ^= power >> 1 & 1
    np.negative(out, out=out, where=_parity(source, num_sites).astype(bool))
    np.multiply(out, 1j, out=out, where=(power & 1).astype(bool))
    return out


def reference_expectations(state: DenseState, masks: Masks) -> list[complex]:
    """<state| P |state> for every string P of the (x, z, power) masks.

    The masks are three equal-length int64 arrays (or ints, for one
    string).  ``batched_masks_matvec`` applies them to blocks of rows of at most
    ``GATHER_BLOCK`` amplitudes, and each value is one ``np.vdot`` of the
    state with its row.
    """
    if state.local_dim != 2:
        raise ValueError("Pauli strings act on qubit registers only")
    n = state.num_sites
    amps = state.amplitudes
    x, z, power = (np.asarray(m, dtype=np.int64).reshape(-1) for m in masks)
    rows = max(1, GATHER_BLOCK >> n)
    values = []
    for start in range(0, x.shape[0], rows):
        block = slice(start, start + rows)
        applied = batched_masks_matvec((x[block], z[block], power[block]), amps, n)
        values += [complex(np.vdot(amps, row)) for row in applied]
    return values


def sign_means(stream: BellShotStream, strings) -> list[tuple[float, float, float]]:
    """``mask_means`` of strings of (qubit, letter) pairs, letters in either
    case, as (mean, scale, std_error) tuples; the PauliString of each string
    rejects a bad or repeated qubit or letter, ``to_masks`` one outside the
    register.  Plain int masks let ``mask_means`` check the stream first."""
    n = stream.num_pairs
    masks = [to_masks(PauliString(tuple((q, a.upper()) for q, a in string)), n) for string in strings]
    means = mask_means(stream, [m[0] for m in masks], [m[1] for m in masks])
    return list(zip(*(column.tolist() for column in means)))


_MASK_LETTERS = (None, "X", "Z", "Y")  # indexed by x-bit + 2 * z-bit


def from_masks(masks: Masks, num_qubits: int) -> PauliString:
    """The PauliString of (x, z, power) on the qubits 0..num_qubits-1."""
    x, z, power = masks
    letters = []
    rest = x | z
    while rest:
        low = rest & -rest
        rest ^= low
        letter = _MASK_LETTERS[bool(x & low) + 2 * bool(z & low)]
        letters.append((num_qubits - low.bit_length(), letter))
    return PauliString(tuple(letters), power - (x & z).bit_count())


def reference_estimate_fermionic_rdm(stream: BellShotStream, mapping, k: int) -> list[FermionEstimate]:
    """Every degree-2k monomial read through its PauliString."""
    n = stream.num_pairs
    monomials, masks = monomial_masks(mapping, k, n)
    paulis = [from_masks(product, n) for product in zip(*(m.tolist() for m in masks))]
    means = sign_means(stream, (pauli.letters for pauli in paulis))
    return [
        FermionEstimate(
            indices=tuple(indices),
            value=pauli.phase * scale * mean,
            std_error=std_error,
            num_shots=stream.num_shots,
            masks=to_masks(pauli, n),
            num_qubits=n,
            weight=pauli.weight,
            attenuation=scale,
        )
        for indices, pauli, (mean, scale, std_error) in zip(monomials, paulis, means)
    ]


def reference_generalized_bell_state(local_dim: int, h: int, ell: int) -> np.ndarray:
    """Amplitudes of the (h, ell) Bell state: w^(ell*k) / sqrt(D) on |k + h>|k>."""
    d = local_dim
    h, ell = h % d, ell % d
    omega = np.exp(2j * np.pi / d)
    amps = np.zeros(d * d, dtype=complex)
    for k in range(d):
        amps[((k + h) % d) * d + k] = omega ** (ell * k) / math.sqrt(d)
    return amps


def reference_outcome_distribution(amps: np.ndarray, rows_t: np.ndarray, steps: int) -> np.ndarray:
    """Normalized |amplitudes|^2 after ``steps`` ``_site_products`` steps,
    each on the whole array."""
    # square real and imaginary parts in place (the last product, never the
    # caller's array): a fresh 2^20-entry temporary costs page faults
    # comparable to the products above
    parts = _site_products(amps, rows_t, steps).reshape(-1).view(np.float64)
    np.square(parts, out=parts)
    probs = parts[0::2] + parts[1::2]
    probs /= probs.sum()
    return probs


def reference_draw_codes(
    cdf: np.ndarray, n_sites: int, d: int, num_shots: int, seed: int
) -> np.ndarray:
    """One sorted CDF lookup per ``SHOT_BLOCK`` shots, block b drawing its
    uniforms from SeedSequence(seed, spawn_key=(b,)), and an intp decode
    into C-ordered (shots, n_sites) uint8 codes: the reference for the
    grouped lookup and column-major decode of
    ``fermitree.statesim._draw_codes``."""
    flat = np.empty(num_shots, dtype=np.intp)
    for b, start in enumerate(range(0, num_shots, SHOT_BLOCK)):
        stop = min(start + SHOT_BLOCK, num_shots)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        uniforms = rng.random(stop - start)
        order = uniforms.argsort()
        flat[start + order] = cdf.searchsorted(uniforms[order], side="right")
    codes = np.empty((num_shots, n_sites), dtype=np.uint8)
    for j in range(n_sites - 1, -1, -1):
        flat, codes[:, j] = np.divmod(flat, d * d)
    return codes


def bell_measure_all_pairs(
    state: DenseState, rng: np.random.Generator | int | None = None
) -> BellShotStream:
    """Measure each (2p, 2p+1) pair in the Bell basis by sequential collapse.

    Returns a one-shot stream.  The input state is not modified; collapses
    happen on an internal copy.  An odd number of sites raises ValueError.
    """
    rng = np.random.default_rng(rng)
    n_pairs = _paired(state)
    d = state.local_dim
    basis = bell_basis_matrix(d)
    basis_h = basis.conj().T
    tensor = state.as_tensor().copy()
    codes = []
    for p in range(n_pairs):
        moved = np.moveaxis(tensor, (2 * p, 2 * p + 1), (0, 1))
        flat = moved.reshape(d * d, -1)
        in_bell = basis_h @ flat
        probs = np.sum(np.abs(in_bell) ** 2, axis=1)
        probs = probs / probs.sum()
        code = int(rng.choice(d * d, p=probs))
        post = np.zeros_like(in_bell)
        post[code] = in_bell[code] / math.sqrt(probs[code])
        collapsed = (basis @ post).reshape(moved.shape)
        tensor = np.moveaxis(collapsed, (0, 1), (2 * p, 2 * p + 1))
        codes.append(code)
    return BellShotStream(d, n_pairs, [codes])


def reference_calibration(fiducial, f: int, g: int) -> complex:
    """tr(X^f Z^{-g} xi) for any integers f, g, in the arithmetic of
    ``FiducialState.overlaps``, so the two agree bit for bit."""
    d = fiducial.dimension
    density = np.outer(fiducial.amplitudes, fiducial.amplitudes.conj())
    return complex(np.trace(hw_operator(d, f % d, (-g) % d) @ density))


@lru_cache(maxsize=64)
def reference_residue_counts(stream: BellShotStream, sites: tuple[int, ...]) -> np.ndarray:
    """Shots per phase residue of every displacement product on ``sites``:
    entry [f_1 D + g_1, ..., f_w D + g_w, r] counts the shots whose residue
    sum_j (g_j h_j - f_j ell_j) mod D is r.

    Axis layout (c_j, ..., c_w, fg_1, ..., fg_{j-1}, r): each step takes the
    leading outcome axis c_j to a trailing label axis fg_j before the residue
    axis, new[m, fg, r] = sum_{c, e} [E(fg, c) = e] old[c, m, (r - e) mod D],
    as one gather over the residue axis and one matrix product with the
    one-hot exponents.  Partial sums are integers of at most the shot
    count, so float64 is exact."""
    d = stream.local_dim
    base, width = d * d, len(sites)
    digits, counts = joint_outcomes(stream, sites)
    table = np.zeros((base ** width, d))
    table[digits @ base ** np.arange(width - 1, -1, -1), 0] = counts
    # row (c, e), column fg: 1 where the exponent of fg on outcome c is e
    one_hot = (bell_exponents(d).reshape(base, base).T[:, None, :] == np.arange(d)[:, None])
    one_hot = one_hot.reshape(base * d, base).astype(float)
    shifted = (np.arange(d) - np.arange(d)[:, None]) % d  # row e, column r: r - e
    for _ in range(width):
        rest = table.shape[0] // base
        gathered = table.reshape(base, rest, d)[:, :, shifted]  # (c, m, e, r)
        product = gathered.transpose(1, 3, 0, 2).reshape(rest * d, base * d) @ one_hot
        table = product.reshape(rest, d, base).transpose(0, 2, 1).reshape(-1, d)
    return table.astype(np.int64).reshape((base,) * width + (d,))


def reference_residue_hw(stream: BellShotStream, targets, fiducial) -> tuple[complex, HwEstimate]:
    """(mean, estimate) of <prod_i X^{f_i} Z^{g_i}> from the D residue counts:
    one index into ``reference_residue_counts`` when D^(2w) <= num_shots,
    else a ``bincount`` of the residues of the joint outcomes, then the sum
    of int(c_r) w^r in r order, w^r = exp(2 pi i / D) ** r as np.complex128."""
    d = fiducial.dimension
    checked = _checked_targets(targets, d, stream.num_pairs)
    s = stream.num_shots
    sites = tuple(t[0] for t in checked)
    if d ** (2 * len(sites)) <= s:
        table = reference_residue_counts(stream, sites)
        by_residue = table[tuple(f * d + g for _, f, g in checked)].tolist()
    else:
        digits, counts = joint_outcomes(stream, sites)
        exponents = bell_exponents(d)
        residues = np.zeros(len(counts), dtype=np.int64)
        for column, (_, f, g) in zip(digits.T, checked):
            residues += exponents[f, g][column]
        # float weights are exact integers below 2^53 shots
        by_residue = np.bincount(residues % d, weights=counts, minlength=d).tolist()
    omega = np.exp(2j * np.pi / d)
    mean = sum(int(c) * w for c, w in zip(by_residue, (omega ** r for r in range(d)))) / s
    calibration = math.prod(fiducial.overlaps[f, g] for _, f, g in checked)
    return mean, HwEstimate(
        targets=checked,
        value=mean / calibration,
        std_error=math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / s) / abs(calibration),
        num_shots=s,
    )



def _hw_moments(mean, targets, fiducial, s: int) -> tuple[complex, float]:
    """(value, std error) of a correlator whose mean eigenvalue is ``mean``,
    in the arithmetic of ``reference_calibration``."""
    calibration = complex(np.prod([reference_calibration(fiducial, f, g) for _, f, g in targets]))
    return mean / calibration, math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / s) / abs(calibration)


def reference_sign_hw(stream: BellShotStream, targets, fiducial) -> tuple[complex, float]:
    """(value, std error) of a qubit correlator from the int64 sum over shots
    of the product of its +-1 eigenvalues 1 - 2e, e = g h - f ell mod 2."""
    if fiducial.dimension != 2:
        raise ValueError("the sign reference reads qubit streams only")
    products = np.ones(stream.num_shots, dtype=np.int64)
    for site, f, g in targets:
        h, ell = np.divmod(stream.codes[:, site].astype(np.int64), 2)
        products *= 1 - 2 * ((g * h - f * ell) % 2)
    return _hw_moments(complex(int(products.sum())) / stream.num_shots, targets, fiducial, stream.num_shots)


def reference_row_sum_hw(stream: BellShotStream, targets, fiducial) -> tuple[complex, float]:
    """(value, std error) of a correlator from the distinct rows of its
    support, counted with a ``Counter`` and sorted: the counts times the
    site-by-site products of the characters w^e, w^e = exp(2 pi i e / D)
    (real at D = 2), times the counts and summed by numpy's pairwise ``sum``
    as ``outcome_sums`` sums."""
    d = fiducial.dimension
    rows = sorted(Counter(map(tuple, stream.codes[:, [t[0] for t in targets]].tolist())).items())
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    products = np.ones(len(rows), dtype=float if d == 2 else complex)
    for j, (_, f, g) in enumerate(targets):
        h, ell = np.divmod(np.array([row[j] for row, _ in rows]), d)
        products *= (roots.real if d == 2 else roots)[(g * h - f * ell) % d]
    total = (products * np.array([count for _, count in rows], dtype=np.int64)).sum()
    return _hw_moments(complex(total) / stream.num_shots, targets, fiducial, stream.num_shots)


class FenwickTree:
    """Binary index tree over n modes, built by recursive interval halving.

    Node j stores the cumulative structure of the interval it owns; the
    root is node n-1 and owns [0, n-1].  The update, parity and remainder
    sets drive the Bravyi-Kitaev operator construction.
    """

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError(f"need at least one mode, got {n_modes}")
        self.n_modes = n_modes
        self._parent = [-1] * n_modes
        self._children: list[list[int]] = [[] for _ in range(n_modes)]
        # _left[j] is the start of the interval owned by node j (j is its end).
        self._left = list(range(n_modes))

        def descend(left: int, right: int, parent: int) -> None:
            if left >= right:
                return
            pivot = (left + right) >> 1
            self._parent[pivot] = parent
            self._children[parent].append(pivot)
            self._left[pivot] = left
            descend(left, pivot, pivot)
            descend(pivot + 1, right, parent)

        descend(0, n_modes - 1, n_modes - 1)
        self._left[n_modes - 1] = 0

    def update_set(self, j: int) -> tuple[int, ...]:
        """Ancestors of node j (modes whose stored parity flips with j)."""
        self._check(j)
        out = []
        node = self._parent[j]
        while node != -1:
            out.append(node)
            node = self._parent[node]
        return tuple(sorted(out))

    def parity_set(self, j: int) -> tuple[int, ...]:
        """Nodes whose intervals tile [0, j-1]; their Z product reads the parity."""
        self._check(j)
        out = []
        end = j - 1
        while end >= 0:
            out.append(end)
            end = self._left[end] - 1
        return tuple(sorted(out))

    def remainder_set(self, j: int) -> tuple[int, ...]:
        """Parity set minus children of j."""
        kids = set(self._children[j])
        return tuple(q for q in self.parity_set(j) if q not in kids)

    def _check(self, j: int) -> None:
        if not 0 <= j < self.n_modes:
            raise ValueError(f"mode {j} outside 0..{self.n_modes - 1}")


def reference_bravyi_kitaev(n_modes: int) -> tuple[PauliString, ...]:
    """Fenwick-tree table with weights bounded by ceil(log2 n) + 1.

    gamma_{2j+1} acts as X on mode j and its update set with Z on the
    parity set; gamma_{2j+2} swaps the local X for Y and drops the Z's
    already covered by j's children.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    tree = FenwickTree(n_modes)
    table = []
    for j in range(n_modes):
        update = {q: "X" for q in tree.update_set(j)}
        parity = {q: "Z" for q in tree.parity_set(j)}
        remainder = {q: "Z" for q in tree.remainder_set(j)}
        table.append(PauliString.from_map({**parity, **update, j: "X"}))
        table.append(PauliString.from_map({**remainder, **update, j: "Y"}))
    return tuple(table)
