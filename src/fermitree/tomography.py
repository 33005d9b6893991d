"""Parallel estimation of qubit k-RDM elements from Bell shot streams.

Each system qubit is paired with one tetrahedral ancilla and every pair is
measured once per shot in the Bell basis.  A single stream then serves all
Pauli observables at once: the outcome of pair j assigns an eigenvalue of
+1 or -1 to each letter x, y, z, and

    <P_1 ... P_k>  ~  sqrt(3)^k * mean over shots of the eigenvalue product,

because each ancilla contributes a factor tr(sigma xi) = 1/sqrt(3); per
qubit the Bell measurement is the qubit SIC POVM
``statesim.bell_povm_elements(prepare_xi())`` (criterion 09).  The
price is a per-shot variance amplified by 3^k, so a standard error that
grows as sqrt(3)^k, uniform over all C(n,k) 3^k elements of the k-RDM
(acceptance criterion 08 checks the k=2 / k=1 standard-error ratio).

The estimators share one outcome-counting kernel,
``statesim.joint_outcomes``, and one reader, which ``qudit`` uses too: a
qubit string X^x Z^z is the D = 2 displacement with labels f = x, g = z on
each qubit, times -1 per Y letter (Y (x) Y = -XZ (x) XZ), so
``BELL_EIGENVALUES`` are the characters of ``statesim.bell_exponents(2)``
up to that sign.  ``mask_means`` reads every qubit and fermionic Pauli
string, as (x, z) mask arrays, from the ``statesim.displacement_sums`` of
the union of all supports or from ``statesim.outcome_sums`` per support.
The sums are exact integers, so estimates are bit-identical under any
shot partition and either reader.  The k-RDM's strings are built once, as
one mask table per (n, k) (``rdm_masks``), which both
``estimate_all_k_rdms`` and the exact ``exact_all_k_rdms`` read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .statesim import (
    CAPACITY_AMPLITUDES, BellShotStream, DenseState, _sum_displacements, bell_exponents, expectations,
    outcome_sums,
)

LETTERS = ("x", "y", "z")

# Eigenvalue table, rows indexed by Bell outcome code (F+, F-, P+, P-),
# columns by letter (x, y, z): (-1)^e for the D = 2 exponents e of the
# displacements (f, g) = (1, 0), (1, 1), (0, 1), with the y column negated
# because Y = iXZ makes Y (x) Y = -XZ (x) XZ.  Each row multiplies to -1.
BELL_EIGENVALUES = (1 - 2 * bell_exponents(2)[[1, 1, 0], [0, 1, 1]].T).astype(np.int8)
BELL_EIGENVALUES[:, 1] *= -1
_SCALES = np.array([math.sqrt(3.0) ** w for w in range(64)])  # by string weight


def mask_means(stream: BellShotStream, x, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 arrays of the mean eigenvalue product of each string X^x Z^z
    (masks as in ``pauli.to_masks``), its sqrt(3)^weight scale and the
    scaled plug-in std error, in input order.

    With U the union of all supports x | z, ``_transform_means`` reads every
    string off the 4^|U| <= ``CAPACITY_AMPLITUDES`` displacement sums of U
    when there are at most 256 sums per string or 14 per row that
    ``_support_means`` (which reads each support's counts once) would read;
    the results are bit-identical.  On one CPU the costs cross at about 100
    to 500 bins per string and 13 to 15 per row, reached by Jordan-Wigner
    k = 1 at n = 9, 10 (n = 3..10 qubit k-RDMs and ternary, JW and BK
    fermionic RDMs, 4096 and 24576 shots).  An empty, non-qubit or over-63-qubit stream, masks of
    unequal length or outside 0..2^num_pairs-1 raise ValueError."""
    if stream.local_dim != 2:
        raise ValueError("Pauli-string estimation needs a qubit stream")
    s, n = stream.num_shots, stream.num_pairs
    if s == 0:
        raise ValueError("empty shot stream")
    if n > 63:
        raise ValueError(f"int64 masks hold at most 63 qubits, the stream has {n}")
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    if x.ndim != 1 or x.shape != z.shape:
        raise ValueError(f"x and z must be masks of equal length, got shapes {x.shape}, {z.shape}")
    cover = x | z
    if len(cover) and (cover.min() < 0 or cover.max() >> n):
        raise ValueError(f"masks must lie in 0..2^{n}-1, got {cover.min()}..{cover.max()}")
    union = int(np.bitwise_or.reduce(cover))
    sites = [q for q in range(n) if union >> (n - 1 - q) & 1]
    bins = 4 ** len(sites)
    if bins <= min(CAPACITY_AMPLITUDES, 256 * len(x)):
        return _transform_means(stream, x, z, sites)
    if sites and bins <= CAPACITY_AMPLITUDES:  # the rows _support_means reads: min(4^width, s) per support
        local = sum((cover >> (n - 1 - q) & 1) << j for j, q in enumerate(reversed(sites)))  # support in U
        widths = sum(np.arange(2 ** len(sites)) >> j & 1 for j in range(len(sites)))
        if bins <= 14 * (np.bincount(local, minlength=2 ** len(sites)) > 0) @ np.minimum(4 ** widths, s):
            return _transform_means(stream, x, z, sites)
    return _support_means(stream, x, z)


def _means(sums: np.ndarray, codes: np.ndarray, s: int):
    """Means, sqrt(3)^weight scales and scaled plug-in std errors of the strings
    whose letter codes 2 x + z (the labels f D + g at D = 2) are the columns of
    ``codes``, from their displacement sums: each Y letter negates its string's
    sum, as Y (x) Y = -XZ (x) XZ, and adding 0.0 keeps a negated zero sum 0.0."""
    mean = (1 - 2 * (np.count_nonzero(codes == 3, axis=0) & 1)) * sums + 0.0
    mean /= s
    scale = _SCALES[np.count_nonzero(codes, axis=0)]
    return mean, scale, scale * np.sqrt(np.maximum(0.0, 1.0 - mean * mean)) / math.sqrt(s)


def _support_means(stream: BellShotStream, x: np.ndarray, z: np.ndarray):
    """``mask_means`` with one ``statesim.outcome_sums`` call per support."""
    n = stream.num_pairs
    supports, inverse = np.unique(x | z, return_inverse=True)
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    shifts = np.arange(n - 1, -1, -1)[:, None]  # row q: qubit q of every string
    codes = 2 * (x >> shifts & 1) + (z >> shifts & 1)
    sums = np.empty(len(x))
    for support, positions in zip(supports.tolist(), groups):
        qubits = [q for q in range(n) if support >> (n - 1 - q) & 1]
        sums[positions] = outcome_sums(stream, tuple(qubits), codes[qubits][:, positions])
    return _means(sums, codes, stream.num_shots)


def _transform_means(stream: BellShotStream, x: np.ndarray, z: np.ndarray, sites: list[int]):
    """``mask_means`` of strings within ``sites``, each one index into the
    ``statesim.displacement_sums`` table of ``sites``, built uncached: one
    call reads every string it serves, and 4^|U| float64 entries would
    otherwise stay on the stream."""
    shifts = (stream.num_pairs - 1 - np.array(sites, dtype=np.int64))[:, None]
    codes = 2 * (x >> shifts & 1) + (z >> shifts & 1)  # row j: site j of every string
    table = _sum_displacements(stream, tuple(sites)).reshape(-1)
    sums = table[4 ** np.arange(len(sites) - 1, -1, -1) @ codes]
    return _means(sums, codes, stream.num_shots)


@dataclass(frozen=True)
class RdmEstimate:
    """One k-RDM element estimated from a shot stream."""

    qubits: tuple[int, ...]
    letters: tuple[str, ...]
    value: float
    std_error: float
    num_shots: int


def rdm_masks(n: int, k: int) -> tuple[list[tuple], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (qubits, letters) keys of all C(n, k) 3^k k-RDM elements, letter products
    inner, and their strings' (x, z, power) masks as int64 arrays (``pauli.to_masks``):
    the qubit bits times the letters' x or z bits, one integer matrix product each,
    and the count of y letters.  k outside 1..n raises ValueError."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    supports = list(itertools.combinations(range(n), k))
    columns = np.array(list(itertools.product(range(3), repeat=k)), dtype=np.int64)  # x, y, z
    bits = 1 << (n - 1 - np.array(supports, dtype=np.int64))
    x = (bits @ (columns != 2).T).reshape(-1)
    z = (bits @ (columns != 0).T).reshape(-1)
    power = np.tile((columns == 1).sum(axis=1) % 4, len(supports))
    return list(itertools.product(supports, itertools.product(LETTERS, repeat=k))), (x, z, power)


def estimate_all_k_rdms(stream: BellShotStream, k: int) -> list[RdmEstimate]:
    """All C(n, k) * 3^k elements of the k-RDM, in the order of ``exact_all_k_rdms``."""
    keys, (x, z, _) = rdm_masks(stream.num_pairs, k)
    columns = (column.tolist() for column in mask_means(stream, x, z))
    s = stream.num_shots
    return [RdmEstimate(q, a, scale * mean, err, s) for (q, a), mean, scale, err in zip(keys, *columns)]


def exact_all_k_rdms(state: DenseState, k: int) -> dict[tuple, complex]:
    """<P> for every k-RDM element of a qubit state, keyed (qubits, letters)
    in the order of ``estimate_all_k_rdms``; real up to roundoff.  The
    strings' masks are applied by one ``statesim.expectations`` call."""
    keys, masks = rdm_masks(state.num_sites, k)
    return dict(zip(keys, expectations(state, masks).tolist()))


def merge_streams(parts: list[BellShotStream]) -> BellShotStream:
    """Concatenate shot streams over the same register, preserving order."""
    if not parts:
        raise ValueError("nothing to merge")
    d = parts[0].local_dim
    n = parts[0].num_pairs
    if any(p.local_dim != d or p.num_pairs != n for p in parts):
        raise ValueError("streams disagree on register shape")
    return BellShotStream(d, n, np.concatenate([p.codes for p in parts]))


# -- reports ------------------------------------------------------------------


def estimates_to_rows(estimates: list[RdmEstimate]) -> list[dict]:
    return [
        {
            "qubits": list(e.qubits),
            "letters": list(e.letters),
            "value": e.value,
            "std_error": e.std_error,
            "num_shots": e.num_shots,
        }
        for e in estimates
    ]
