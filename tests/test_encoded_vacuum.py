"""The first-image encoded vacuum against the best-image scan it replaced."""

import itertools
import math

import numpy as np
import pytest

from fermitree.baselines import bravyi_kitaev, jordan_wigner
from fermitree.fermion import encoded_vacuum, number_operator_strings
from fermitree.pauli import PauliString, to_masks
from fermitree.statesim import masks_matvec
from fermitree.ternary import build_mapping
from oracles import letter_product, letters_anticommute

KINDS = {
    "ternary": lambda n: build_mapping(n).majorana_table,
    "jw": jordan_wigner,
    "bk": bravyi_kitaev,
}


def best_image_vacuum(table, num_qubits):
    """Reference oracle: project every basis state and keep the largest image."""
    numbers = number_operator_strings(table)
    dim = 2 ** num_qubits
    best = None
    best_norm2 = 0.0
    for b in range(dim):
        vec = np.zeros(dim, dtype=complex)
        vec[b] = 1.0
        for n_op in numbers:
            vec = 0.5 * (vec - masks_matvec(to_masks(n_op, num_qubits), vec, num_qubits))
        norm2 = float(np.vdot(vec, vec).real)
        if norm2 > best_norm2 + 1e-12:
            best_norm2 = norm2
            best = vec
    if best is None or best_norm2 < 1e-12:
        raise ValueError("no vacuum component found in the computational basis")
    return best / math.sqrt(best_norm2)


def x_conjugated(table):
    """X P X for every entry, X acting on every qubit: each Y or Z flips the sign."""
    return tuple(
        PauliString(op.letters, op.phase_power + 2 * sum(letter != "X" for _, letter in op.letters))
        for op in table
    )


def assert_bit_identical(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("extra", [0, 1], ids=["n_qubits", "n_plus_1_qubits"])
def test_first_image_matches_best_image_scan(kind, n, extra):
    table = KINDS[kind](n)
    flipped = x_conjugated(table)
    for candidate in (table, flipped):
        want = best_image_vacuum(candidate, n + extra)
        # the vacuum holds one qubit per mode; on a register with an idle
        # last qubit (the lowest index bit) the scan keeps that qubit in |0>
        got = np.zeros(2 ** (n + extra), dtype=complex)
        got[:: 2 ** extra] = encoded_vacuum(candidate).amplitudes
        assert_bit_identical(got, want)
    # the conjugated copy's vacuum lies off |0...0>; for JW it is |1...1>
    support = np.flatnonzero(want)
    assert support[0] > 0
    if kind == "jw" and extra == 0:
        assert support.tolist() == [2 ** n - 1]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", range(1, 11))
def test_valid_tables_pass_the_guard(kind, n):
    table = KINDS[kind](n)
    vac = encoded_vacuum(table).amplitudes
    for n_op in number_operator_strings(table):
        assert np.allclose(masks_matvec(to_masks(n_op, n), vac, n), -vac, atol=1e-12)


def test_non_hermitian_number_operator_is_rejected():
    table = tuple(PauliString.parse(t) for t in ("X0", "X0", "Y0", "Z1"))
    # N_1 = i X0 X0 = i I, so the best image of the old scan is no vacuum
    stale = best_image_vacuum(table, 2)
    n_2 = number_operator_strings(table)[1]
    assert not np.allclose(masks_matvec(to_masks(n_2, 2), stale, 2), -stale)
    with pytest.raises(ValueError, match="Hermitian"):
        encoded_vacuum(table)


def test_anticommuting_number_operators_are_rejected():
    # N_1 = -Z0 and N_2 = Y0 are Hermitian but anticommute
    table = tuple(PauliString.parse(t) for t in ("X0", "Y0", "X0", "Z0"))
    with pytest.raises(ValueError, match="commuting"):
        encoded_vacuum(table)


def _random_entry(rng, n):
    letters = {q: "XYZ"[c - 1] for q, c in enumerate(rng.integers(0, 4, size=n)) if c}
    return PauliString.from_map(letters, int(rng.integers(0, 4)))


@pytest.mark.parametrize("seed", range(40))
def test_vacuum_guard_matches_the_pairwise_oracle(seed):
    # valid tables with their letters permuted per qubit, which keeps them
    # valid and puts Y letters into the N_j, then with some entries replaced
    # by random strings or given an odd phase, so the N_j are sometimes
    # non-Hermitian or anticommuting
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    relabel = [dict(zip("XYZ", rng.permutation(list("XYZ")))) for _ in range(n)]
    table = [
        PauliString(tuple((q, relabel[q][letter]) for q, letter in op.letters), op.phase_power)
        for op in KINDS[sorted(KINDS)[seed % 3]](n)
    ]
    for u in rng.choice(2 * n, size=int(rng.integers(0, 3)), replace=False):
        if rng.random() < 0.5:
            table[u] = _random_entry(rng, n)
        else:
            table[u] = PauliString(table[u].letters, table[u].phase_power + int(rng.integers(0, 4)))
    numbers = [
        letter_product(letter_product(PauliString.identity(1), table[2 * j]), table[2 * j + 1])
        for j in range(n)
    ]
    assert number_operator_strings(table) == tuple(numbers)
    rejected = any(n_op.phase_power % 2 for n_op in numbers) or any(
        letters_anticommute(a, b) for a, b in itertools.combinations(numbers, 2)
    )
    if rejected:
        with pytest.raises(ValueError, match="commuting Hermitian"):
            encoded_vacuum(table)
    else:
        try:
            vac = encoded_vacuum(table).amplitudes
        except ValueError as err:
            # commuting Hermitian N_j whose group holds -I have no common -1 eigenvector
            assert "no vacuum component" in str(err)
        else:
            for n_op in numbers:
                assert np.allclose(masks_matvec(to_masks(n_op, n), vac, n), -vac, atol=1e-12)
