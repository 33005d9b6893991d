"""Tests for the dense simulator and Bell-basis sampling."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitree import statesim
from fermitree.baselines import bravyi_kitaev, jordan_wigner
from fermitree.fermion import monomial_masks
from fermitree.pauli import PauliString, to_masks
from fermitree.qudit import qutrit_fiducial
from fermitree.statesim import (
    CAPACITY_AMPLITUDES,
    QUBIT_BELL_LABELS,
    SHOT_BLOCK,
    BellShotStream,
    CapacityError,
    GATHER_BLOCK,
    DenseState,
    attach_ancillas,
    bell_basis_matrix,
    bell_exponents,
    bell_outcome_distribution,
    bell_povm_elements,
    expectation,
    expectations,
    generalized_bell_state,
    hw_operator,
    masks_matvec,
    povm_outcome_distribution,
    prepare_xi,
    random_state,
    sample_bell_shots,
    sample_povm_shots,
)
from fermitree.statesim import _draw_codes, _integer, _parse_canonical, _parse_records
from fermitree.ternary import build_mapping
from fermitree.tomography import rdm_masks
from oracles import (
    PAULI_MATRICES,
    batched_masks_matvec,
    bell_measure_all_pairs,
    from_masks,
    reference_draw_codes,
    reference_expectations,
    reference_generalized_bell_state,
    reference_masks_matvec,
    reference_outcome_distribution,
    to_dense,
)


def test_computational_state_indexing():
    s = DenseState(2, 2, [0, 1, 0, 0])
    assert s.as_tensor()[0, 1] == 1.0
    # site 0 is the leftmost factor: qubit 0 is the top index bit
    t = DenseState(2, 2, [0, 0, 1, 0])
    assert t.as_tensor()[1, 0] == 1.0
    assert expectation(t, PauliString.single(0, "Z")) == -1.0
    assert expectation(t, PauliString.single(1, "Z")) == 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        DenseState(2, 2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DenseState(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DenseState(1, 2, np.zeros(1))
    with pytest.raises(CapacityError):
        DenseState.zero_state(21)
    assert 2 ** 20 == CAPACITY_AMPLITUDES


def test_nan_amplitudes_are_rejected():
    # a NaN norm compares False against any tolerance, so the check must
    # accept only norms within it
    with pytest.raises(ValueError):
        DenseState(2, 2, [math.nan, 0, 0, 0])
    with pytest.raises(ValueError):
        DenseState(2, 1, [math.nan + 1j, 0])
    with pytest.raises(ValueError):
        DenseState(2, 1, [math.nan, 1.0])
    with pytest.raises(ValueError):
        DenseState(2, 2, [1.0, math.nan, 0.0, 0.0])


def test_pauli_matvec_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        letters = {}
        for q in range(3):
            c = rng.choice(["I", "X", "Y", "Z"])
            if c != "I":
                letters[q] = c
        p = PauliString.from_map(letters, int(rng.integers(0, 4)))
        assert np.allclose(masks_matvec(to_masks(p, 3), vec, 3), to_dense(p, 3) @ vec, atol=1e-12)


def tensordot_matvec(pauli: PauliString, amplitudes: np.ndarray, num_sites: int) -> np.ndarray:
    """Oracle: P @ vec by one tensordot with a 2 x 2 Pauli matrix per letter."""
    vec = np.asarray(amplitudes, dtype=complex).reshape([2] * num_sites)
    for qubit, letter in pauli.letters:
        vec = np.moveaxis(
            np.tensordot(PAULI_MATRICES[letter], vec, axes=([1], [qubit])), 0, qubit
        )
    return np.ascontiguousarray(vec).reshape(-1) * pauli.phase


@st.composite
def strings_and_vectors(draw):
    n = draw(st.integers(1, 10))
    letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
    pauli = PauliString(
        tuple((q, c) for q, c in enumerate(letters) if c != "I"), draw(st.integers(0, 3))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return pauli, vec, n


@settings(max_examples=200, deadline=None)
@given(strings_and_vectors())
def test_pauli_matvec_equals_tensordot_oracle(case):
    pauli, vec, n = case
    assert np.array_equal(masks_matvec(to_masks(pauli, n), vec, n), tensordot_matvec(pauli, vec, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_masks_matvec_rows_equal_scalar_oracle(n):
    # one row per string, each equal to the per-bit scalar gather
    rng = np.random.default_rng(100 + n)
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    x, z = rng.integers(0, 2 ** n, size=(2, 24))
    power = rng.integers(0, 4, size=24)
    rows = batched_masks_matvec((x, z, power), vec, n)
    assert rows.shape == (24, 2 ** n)
    for row, masks in zip(rows, zip(x.tolist(), z.tolist(), power.tolist())):
        assert np.array_equal(row, reference_masks_matvec(masks, vec, n))


def test_pauli_matvec_bit_order_and_y_phase():
    # qubit 0 is the most significant index bit; Y = iXZ maps |0> to i|1>
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1.0
    y0, y1 = to_masks(PauliString.single(0, "Y"), 2), to_masks(PauliString.single(1, "Y", 2), 2)
    assert np.array_equal(masks_matvec(y0, vec, 2), [0, 0, 0, 1j])
    assert np.array_equal(masks_matvec(y1, vec, 2), [1j, 0, 0, 0])


class _Unreadable:
    def __array__(self, *args, **kwargs):
        raise AssertionError("amplitudes were read")


@pytest.mark.parametrize("label", [3, 4, 2 ** 63, 2 ** 64])
def test_pauli_matvec_rejects_labels_outside_register(label):
    pauli = PauliString(((0, "X"), (label, "Z")))
    with pytest.raises(ValueError, match="outside the register"):
        masks_matvec(to_masks(pauli, 3), _Unreadable(), 3)


def test_pauli_matvec_rejects_wrong_vector_length():
    with pytest.raises(ValueError):
        masks_matvec(to_masks(PauliString.single(0, "X"), 3), np.ones(6), 3)


def test_expectation_ghz():
    ghz = DenseState.ghz(3)
    assert expectation(ghz, PauliString.from_map({0: "Z", 1: "Z"})).real == pytest.approx(1.0)
    assert expectation(ghz, PauliString.from_map({0: "X", 1: "X", 2: "X"})).real == pytest.approx(1.0)
    assert expectation(ghz, PauliString.single(0, "Z")).real == pytest.approx(0.0)
    with pytest.raises(ValueError):
        expectation(DenseState(3, 1, [1, 0, 0]), PauliString.single(0, "X"))


MAPPINGS = {"ternary": build_mapping, "jw": jordan_wigner, "bk": bravyi_kitaev}


@pytest.mark.parametrize(
    "n,kind,k",
    [(n, "qubit", k) for n in range(1, 13) for k in (1, 2) if k <= n]
    + [(n, kind, 1) for n in range(1, 13) for kind in MAPPINGS]
    + [(10, "jw", 2)],
)
def test_expectations_are_within_4n_ulps_of_the_gather_oracle(n, kind, k):
    # each part within 4 n 2^-52 of one gather and np.vdot per string; at
    # n = 10 and 12 a block transforms 16 and 4 distinct x
    masks = rdm_masks(n, k)[1] if kind == "qubit" else monomial_masks(MAPPINGS[kind](n), k, n)[1]
    state = random_state(n, 2, np.random.default_rng(400 + n))
    got = np.array(expectations(state, masks))
    want = np.array(reference_expectations(state, masks))
    assert got.shape == want.shape == (len(masks[0]),)
    assert np.abs(got.real - want.real).max() <= 4 * n * 2.0 ** -52
    assert np.abs(got.imag - want.imag).max() <= 4 * n * 2.0 ** -52
    if (n, kind, k) == (10, "jw", 2):
        assert len(set(masks[0].tolist())) == 16 * (GATHER_BLOCK >> n)


@pytest.mark.parametrize("state", ["random", "ghz", "zero"])
@pytest.mark.parametrize("n,k", [(3, 2), (8, 2), (10, 2)])
def test_one_row_expectation_is_bit_for_bit_its_value_in_a_batch(state, n, k):
    # JW tables: at n = 10 the 4845 strings span 16 blocks of 16 distinct x
    system = {
        "random": lambda: random_state(n, 2, np.random.default_rng(420 + n)),
        "ghz": lambda: DenseState.ghz(n),
        "zero": lambda: DenseState.zero_state(n),
    }[state]()
    masks = monomial_masks(jordan_wigner(n), k, n)[1]
    batch = expectations(system, masks)
    for value, string in zip(batch, zip(*(m.tolist() for m in masks))):
        one = expectation(system, from_masks(string, n))
        assert (one.real.hex(), one.imag.hex()) == (value.real.hex(), value.imag.hex())


@pytest.mark.parametrize("masks", [(0, 8, 0), (-1, 0, 0), (8, 0, 0), ([0, 1], [0, -2], [0, 0])])
def test_expectations_reject_masks_outside_the_register(masks):
    # before the check, (0, 8, 0) gave 1, (-1, 0, 0) gave <XXX> and (8, 0, 0) an IndexError
    state = random_state(3, 2, np.random.default_rng(440))
    with pytest.raises(ValueError, match=r"masks must lie in 0\.\.2\^3-1"):
        expectations(state, masks)


@pytest.mark.parametrize("masks", [([1, 2], [0], [0]), ([1], [0, 2], [0]), ([1, 2], [0, 2], 0)])
def test_expectations_reject_masks_of_unequal_length(masks):
    # before the check, ([1, 2], [0], [0]) broadcast the one z and power over two strings
    state = random_state(3, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match="x, z and power must be masks of equal length"):
        expectations(state, masks)


def test_xi_state():
    xi = prepare_xi()
    for letter in "XYZ":
        val = expectation(xi, PauliString.single(0, letter))
        assert val.real == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert abs(val.imag) < 1e-12
    rho = np.outer(xi.amplitudes, xi.amplitudes.conj())
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)


def test_attach_ancillas_layout():
    system = DenseState(2, 2, [0, 1, 0, 0])
    anc = DenseState(2, 1, [0, 1])
    joint = attach_ancillas(system, anc)
    # sites read (s0, a0, s1, a1) = (0, 1, 1, 1)
    assert joint.num_sites == 4
    assert joint.amplitudes[0b0111] == 1.0
    with pytest.raises(ValueError):
        attach_ancillas(system, DenseState(2, 2, [0, 0, 1, 0]))


def reference_attach_ancillas(system, ancilla):
    """Oracle: n outer products with the ancilla, then one interleaving transpose."""
    n = system.num_sites
    tensor = system.as_tensor()
    for _ in range(n):
        tensor = np.multiply.outer(tensor, ancilla.amplitudes)
    perm = [axis for j in range(n) for axis in (j, n + j)]
    return np.ascontiguousarray(np.transpose(tensor, perm)).reshape(-1)


@pytest.mark.parametrize("n", [1, 5, 6])
def test_attach_ancillas_equals_transpose_oracle(n):
    fiducial = qutrit_fiducial().as_state()
    state = random_state(n, 3, np.random.default_rng(200 + n))
    joint = attach_ancillas(state, fiducial)
    assert (joint.local_dim, joint.num_sites) == (3, 2 * n)
    assert np.array_equal(joint.amplitudes, reference_attach_ancillas(state, fiducial))


def test_attach_ancillas_default_is_xi():
    joint = attach_ancillas(DenseState.zero_state(1))
    xi = prepare_xi()
    assert np.allclose(joint.amplitudes[:2], xi.amplitudes)
    assert np.allclose(joint.amplitudes[2:], 0)


def test_hw_operator_qubit_case():
    assert np.allclose(hw_operator(2, 1, 0), np.array([[0, 1], [1, 0]]))
    assert np.allclose(hw_operator(2, 0, 1), np.diag([1, -1]))
    assert np.allclose(hw_operator(2, 1, 1), np.array([[0, -1], [1, 0]]))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hw_weyl_relation(d):
    x = hw_operator(d, 1, 0)
    z = hw_operator(d, 0, 1)
    omega = np.exp(2j * np.pi / d)
    assert np.allclose(z @ x, omega * x @ z)
    assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
    assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d))
    # X^f Z^g equals the formula matrix
    for f in range(d):
        for g in range(d):
            direct = np.linalg.matrix_power(x, f) @ np.linalg.matrix_power(z, g)
            assert np.allclose(hw_operator(d, f, g), direct)


def test_qubit_bell_columns():
    b = bell_basis_matrix(2)
    r = 1 / math.sqrt(2)
    assert np.allclose(b[:, 0], [r, 0, 0, r])        # F+
    assert np.allclose(b[:, 1], [r, 0, 0, -r])       # F-
    assert np.allclose(b[:, 2], [0, r, r, 0])        # P+
    assert np.allclose(b[:, 3], [0, -r, r, 0])       # P- up to global sign


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_basis_orthonormal(d):
    b = bell_basis_matrix(d)
    assert np.allclose(b.conj().T @ b, np.eye(d * d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_bell_eigenrelation(d):
    for f in range(d):
        for g in range(d):
            op = np.kron(hw_operator(d, f, g), hw_operator(d, f, -g))
            for h in range(d):
                for ell in range(d):
                    vec = generalized_bell_state(d, h, ell).amplitudes
                    phase = np.exp(2j * np.pi * (g * h - f * ell) / d)
                    assert np.allclose(op @ vec, phase * vec, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_bell_states_and_basis_equal_the_entrywise_reference(d):
    # bit for bit: the rows of X^h Z^ell over sqrt(D) are the per-entry loop
    basis = bell_basis_matrix(d)
    for h in range(d):
        for ell in range(d):
            want = reference_generalized_bell_state(d, h, ell).tobytes()
            assert generalized_bell_state(d, h, ell).amplitudes.tobytes() == want
            assert generalized_bell_state(d, h - d, ell + d).amplitudes.tobytes() == want
            assert basis[:, h * d + ell].tobytes() == want


@pytest.mark.parametrize("d", [0, 1, -2])
def test_generalized_bell_state_rejects_dimension_below_two(d):
    with pytest.raises(ValueError, match="local dimension must be >= 2"):
        generalized_bell_state(d, 1, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bell_exponents_give_every_displacement_eigenvalue(d):
    exponents = bell_exponents(d)
    assert exponents.shape == (d, d, d * d)
    omega = np.exp(2j * np.pi / d)
    for f in range(d):
        for g in range(d):
            op = np.kron(hw_operator(d, f, g), hw_operator(d, f, -g))
            for code in range(d * d):
                vec = generalized_bell_state(d, *divmod(code, d)).amplitudes
                phase = omega ** exponents[f, g, code]
                assert np.allclose(op @ vec, phase * vec, atol=1e-12)


def test_bell_exponents_are_cached_read_only():
    table = bell_exponents(3)
    assert table is bell_exponents(3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1


def test_bell_measurement_on_product_of_bell_states():
    # a product of Bell pairs gives deterministic outcomes
    f_minus = generalized_bell_state(2, 0, 1).amplitudes
    p_plus = generalized_bell_state(2, 1, 0).amplitudes
    state = DenseState(2, 4, np.kron(f_minus, p_plus))
    rec = bell_measure_all_pairs(state, np.random.default_rng(0))
    assert rec.codes.tolist() == [[1, 2]]
    assert [QUBIT_BELL_LABELS[c] for c in rec.codes[0]] == ["F-", "P+"]
    assert [divmod(int(c), 2) for c in rec.codes[0]] == [(0, 1), (1, 0)]


def test_outcome_distribution_matches_collapse_chain():
    state = random_state(4, 2, np.random.default_rng(12))
    probs = bell_outcome_distribution(state)
    assert probs.shape == (16,)
    assert probs.sum() == pytest.approx(1.0)
    # empirical check of the sequential-collapse sampler against the
    # joint distribution (5 sigma guard on each cell)
    rng = np.random.default_rng(77)
    counts = np.zeros(16)
    shots = 3000
    for _ in range(shots):
        rec = bell_measure_all_pairs(state, rng)
        counts[int(rec.codes[0, 0]) * 4 + int(rec.codes[0, 1])] += 1
    for idx in range(16):
        sigma = math.sqrt(probs[idx] * (1 - probs[idx]) * shots)
        assert abs(counts[idx] - shots * probs[idx]) <= 5 * sigma + 1


def reference_bell_distribution(state):
    """Oracle: one tensordot + moveaxis per pair into the Bell basis."""
    n_pairs = state.num_sites // 2
    d = state.local_dim
    basis_h = bell_basis_matrix(d).conj().T
    tensor = state.amplitudes.reshape([d * d] * n_pairs)
    for p in range(n_pairs):
        tensor = np.moveaxis(np.tensordot(basis_h, tensor, axes=([1], [p])), 0, p)
    probs = np.abs(tensor.reshape(-1)) ** 2
    return probs / probs.sum()


@pytest.mark.parametrize("d,n_pairs", [(2, 1), (2, 4), (2, 10), (3, 1), (3, 3), (3, 6),
                                       (4, 1), (4, 3), (4, 5)])
def test_bell_distribution_matches_tensordot_oracle(d, n_pairs):
    # random registers, not system-times-ancilla products
    state = random_state(2 * n_pairs, d, np.random.default_rng(300 + 10 * d + n_pairs))
    before = state.amplitudes.copy()
    got = bell_outcome_distribution(state)
    want = reference_bell_distribution(state)
    assert got.shape == want.shape == (d ** (2 * n_pairs),)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(state.amplitudes, before)


def test_sample_bell_shots_matches_distribution():
    state = random_state(2, 2, np.random.default_rng(3))
    joint = attach_ancillas(state)
    probs = bell_outcome_distribution(joint)
    stream = sample_bell_shots(joint, 60_000, seed=4)
    flat = stream.codes[:, 0].astype(int) * 4 + stream.codes[:, 1].astype(int)
    counts = np.bincount(flat, minlength=16)
    for idx in range(16):
        sigma = math.sqrt(probs[idx] * (1 - probs[idx]) * stream.num_shots)
        assert abs(counts[idx] - stream.num_shots * probs[idx]) <= 5 * sigma + 1


def test_sampling_deterministic_across_workers():
    joint = attach_ancillas(random_state(2, 2, np.random.default_rng(9)))
    # span several RNG blocks so the partition actually differs
    a = sample_bell_shots(joint, 10_000, seed=123, workers=1)
    b = sample_bell_shots(joint, 10_000, seed=123, workers=4)
    assert np.array_equal(a.codes, b.codes)
    c = sample_bell_shots(joint, 10_000, seed=124, workers=1)
    assert not np.array_equal(a.codes, c.codes)


def test_sampling_prefix_stability():
    # extending the shot count never rewrites earlier blocks
    joint = attach_ancillas(random_state(1, 2, np.random.default_rng(2)))
    short = sample_bell_shots(joint, 5000, seed=8)
    long = sample_bell_shots(joint, 9000, seed=8)
    assert np.array_equal(short.codes[:4096], long.codes[:4096])


def test_sample_guards():
    joint = attach_ancillas(random_state(1, 2, np.random.default_rng(2)))
    with pytest.raises(ValueError):
        sample_bell_shots(joint, 0, seed=1)
    with pytest.raises(ValueError):
        sample_bell_shots(joint, 10, seed=1, workers=0)
    with pytest.raises(ValueError):
        bell_measure_all_pairs(random_state(3, 2, np.random.default_rng(1)))


# -- the ancilla-free product-POVM sampler against the register path ------


def _random_ancilla(d, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DenseState(d, 1, vec / np.linalg.norm(vec))


POVM_CASES = [
    (d, n, ancilla)
    for d, named in ((2, "xi"), (3, "fiducial"))
    for n in range(1, 6)
    for ancilla in (named, "random")
]


def _povm_case(d, n, ancilla):
    state = random_state(n, d, np.random.default_rng(10 * n + d))
    anc = {
        "xi": prepare_xi,
        "fiducial": lambda: qutrit_fiducial().as_state(),
        "random": lambda: _random_ancilla(d, 100 + n),
    }[ancilla]()
    return state, anc


@pytest.mark.parametrize("d,n,ancilla", POVM_CASES)
def test_povm_distribution_matches_register_oracle(d, n, ancilla):
    state, anc = _povm_case(d, n, ancilla)
    before = state.amplitudes.copy()
    want = bell_outcome_distribution(attach_ancillas(state, anc))
    got = povm_outcome_distribution(state, anc)
    assert got.shape == want.shape == (d ** (2 * n),)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(state.amplitudes, before)


def test_povm_distribution_defaults_to_xi():
    state = random_state(3, 2, np.random.default_rng(4))
    assert np.array_equal(
        povm_outcome_distribution(state), povm_outcome_distribution(state, prepare_xi())
    )


# -- the block-by-block outcome kernel against the whole-array loop ---------

CAPACITY_CASES = [
    (d, n) for d in (2, 3, 4, 5, 7, 16) for n in range(1, 11) if d ** (2 * n) <= CAPACITY_AMPLITUDES
]


def record_blocks(monkeypatch, block):
    """Set the outcome block to ``block`` outcomes and record, per
    ``_site_products`` call of ``_outcome_distribution``, the prefix columns
    of its block (None for the first call, on the whole flat array)."""
    monkeypatch.setattr(statesim, "_OUTCOME_BLOCK", block)
    widths, run = [], statesim._site_products

    def recorded(values, rows_t, steps):
        widths.append(values.shape[1] if values.ndim == 2 else None)
        return run(values, rows_t, steps)

    monkeypatch.setattr(statesim, "_site_products", recorded)
    return widths


def forced_layout(layout, out_dim, n):
    """(block size, prefix columns per block) that force ``layout``: the
    blocks run t >= 2 steps (or all n), so the prefixes number out_dim^(n - t)."""
    t = min(n, max(2, n - (2 if layout == "ragged" else 1)))
    prefixes = out_dim ** (n - t)
    if layout == "one block":
        return out_dim ** n, [1]
    if layout == "one prefix per block":
        return out_dim ** t, [1] * prefixes
    width = next(w for w in itertools.count(2) if prefixes % w)
    return width * out_dim ** t, [width] * (prefixes // width) + [prefixes % width]


@pytest.mark.parametrize("layout", ["default", "one block", "one prefix per block", "ragged"])
@pytest.mark.parametrize("d,n", CAPACITY_CASES)
def test_povm_distribution_is_the_whole_array_loop_bit_for_bit(monkeypatch, d, n, layout):
    state, anc = random_state(n, d, np.random.default_rng(20 * n + d)), _random_ancilla(d, 200 + n)
    rows_t = statesim._bell_povm_rows(anc).T
    want = reference_outcome_distribution(state.amplitudes, rows_t, n)
    if layout != "default":
        block, widths = forced_layout(layout, d * d, n)
        recorded = record_blocks(monkeypatch, block)
    got = povm_outcome_distribution(state, anc)
    assert np.array_equal(got, want)
    if layout != "default":
        assert recorded == [None] + widths
    if layout == "ragged" and n >= 3:
        assert 0 < widths[-1] < widths[0]


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (2, 7), (3, 4), (4, 3), (5, 3), (16, 2)])
def test_povm_blocks_run_two_steps_however_small(monkeypatch, d, n):
    # a block below D^4 outcomes still runs two steps: a block of one prefix
    # then ends in a product of D^2 rows, where one step would end in a
    # one-row product, which numpy hands to BLAS gemv and rounds otherwise
    state, anc = random_state(n, d, np.random.default_rng(60 * n + d)), _random_ancilla(d, 600 + n)
    want = reference_outcome_distribution(state.amplitudes, statesim._bell_povm_rows(anc).T, n)
    recorded = record_blocks(monkeypatch, d * d)
    assert np.array_equal(povm_outcome_distribution(state, anc), want)
    assert recorded == [None] + [1] * d ** (2 * n - 4)


@pytest.mark.parametrize("d,n", CAPACITY_CASES)
def test_bell_distribution_steps_run_whole(monkeypatch, d, n):
    # the register's D^2 x D^2 rows do not widen the array: however small
    # the block, every step runs on it whole, as one block
    register = attach_ancillas(random_state(n, d, np.random.default_rng(30 * n + d)), _random_ancilla(d, 300 + n))
    want = reference_outcome_distribution(register.amplitudes, bell_basis_matrix(d).conj(), n)
    recorded = record_blocks(monkeypatch, d * d)
    assert np.array_equal(bell_outcome_distribution(register), want)
    assert recorded == [None, d ** (2 * n)]


@pytest.mark.parametrize("d,n,num_shots", [(2, 10, 24576), (2, 7, 5000), (3, 6, 4000), (5, 4, 3000), (16, 2, 4097)])
def test_povm_shots_are_drawn_from_the_whole_array_distribution(d, n, num_shots):
    state, anc = random_state(n, d, np.random.default_rng(40 * n + d)), _random_ancilla(d, 400 + n)
    cdf = np.cumsum(reference_outcome_distribution(state.amplitudes, statesim._bell_povm_rows(anc).T, n))
    cdf /= cdf[-1]
    got = sample_povm_shots(state, num_shots, 41, ancilla=anc).codes
    assert np.array_equal(got, reference_draw_codes(cdf, n, d, num_shots, 41))


def test_povm_distribution_working_set():
    # the 8 MiB result and one block of outcomes; the whole-array loop's
    # site products and squared moduli peaked at 24 MiB
    state = random_state(10, 2, np.random.default_rng(50))
    tracemalloc.start()
    try:
        povm_outcome_distribution(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def _choice_codes(probs, n_sites, d, num_shots, seed):
    """Per-block ``Generator.choice(p=probs)``, which the shared-CDF kernel
    must reproduce draw for draw."""
    weights = (d * d) ** np.arange(n_sites - 1, -1, -1, dtype=np.int64)
    codes = np.empty((num_shots, n_sites), dtype=np.uint8)
    for b, start in enumerate(range(0, num_shots, SHOT_BLOCK)):
        stop = min(start + SHOT_BLOCK, num_shots)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        flat = rng.choice(probs.shape[0], size=stop - start, p=probs)
        for j in range(n_sites):
            codes[start:stop, j] = (flat // weights[j]) % (d * d)
    return codes


@pytest.mark.parametrize("num_shots", [1, 4095, 4096, 4097, 24576])
def test_draw_codes_matches_generator_choice(num_shots):
    for d, n, seed in [(2, 4, 31), (3, 3, 32)]:
        ancilla = prepare_xi() if d == 2 else qutrit_fiducial().as_state()
        state = random_state(n, d, np.random.default_rng(seed))
        want = _choice_codes(povm_outcome_distribution(state, ancilla), n, d, num_shots, seed)
        # the sampler's cached CDF, inverted by _draw_codes
        assert np.array_equal(sample_povm_shots(state, num_shots, seed, ancilla=ancilla).codes, want)


@pytest.mark.parametrize("num_shots", [1, 4095, 4096, 4097, 6 * 4096 + 5])
@pytest.mark.parametrize("d,n", [(2, 2), (2, 7), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_draw_codes_equal_the_per_block_lookup(d, n, num_shots):
    # CDFs of 16 to 65536 outcomes, whose lookup groups hold 1 block (16,
    # 6561 and 4096 outcomes), 4 (16384), 14 (59049) and 16 (65536): the
    # 7 blocks of 6 * 4096 + 5 shots take 7, 2 or 1 lookups
    rng = np.random.default_rng(1000 * d + n)
    for seed in (0, 1, 2 ** 40 + 7):
        probs = rng.random(d ** (2 * n)) ** 4
        probs[rng.random(probs.size) < 0.3] = 0.0  # runs of equal CDF values
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        got = _draw_codes(cdf, n, d, num_shots, seed)
        assert got.dtype == np.uint8 and got.shape == (num_shots, n) and got.flags.f_contiguous
        assert np.array_equal(got, reference_draw_codes(cdf, n, d, num_shots, seed))


def test_samplers_keep_their_column_major_codes():
    # both samplers hand the stream an owned column-major array, kept as is
    state = random_state(3, 2, np.random.default_rng(33))
    for stream in (sample_povm_shots(state, 5000, 1), sample_bell_shots(attach_ancillas(state), 5000, 1)):
        codes = stream.codes
        assert codes.flags.f_contiguous and not codes.flags.c_contiguous and codes.flags.owndata
        assert not codes.flags.writeable


@pytest.mark.parametrize("d,n,ancilla", [(2, 1, "xi"), (2, 5, "xi"), (2, 4, "random"),
                                         (3, 3, "fiducial"), (3, 2, "random"), (3, 6, "fiducial")])
def test_povm_shots_equal_register_shots(d, n, ancilla):
    state, anc = _povm_case(d, n, ancilla)
    # 6 qutrits is the qutrit-hw benchmark pass: two 2000-shot streams on consecutive seeds
    runs = [(2000, 7), (2000, 8)] if (d, n) == (3, 6) else [(1, 3), (5000, 7), (9000, 8)]
    for num_shots, seed in runs:
        got = sample_povm_shots(state, num_shots, seed, ancilla=anc)
        want = sample_bell_shots(attach_ancillas(state, anc), num_shots, seed)
        assert (got.local_dim, got.num_pairs, got.seed) == (d, n, seed)
        assert np.array_equal(got.codes, want.codes)


def test_povm_shots_on_ghz_equal_register_shots():
    state = DenseState.ghz(8)
    got = sample_povm_shots(state, 10_000, seed=2)
    want = sample_bell_shots(attach_ancillas(state), 10_000, seed=2)
    assert np.array_equal(got.codes, want.codes)


def test_povm_shots_workers_and_prefix():
    state = random_state(3, 2, np.random.default_rng(9))
    a = sample_povm_shots(state, 10_000, seed=123, workers=1)
    b = sample_povm_shots(state, 10_000, seed=123, workers=4)
    assert np.array_equal(a.codes, b.codes)
    short = sample_povm_shots(state, 5000, seed=123)
    assert np.array_equal(short.codes, a.codes[:5000])
    with pytest.raises(ValueError):
        sample_povm_shots(state, 0, seed=1)
    with pytest.raises(ValueError):
        sample_povm_shots(state, 10, seed=1, workers=0)
    with pytest.raises(ValueError):
        sample_povm_shots(state, 10, seed=1, ancilla=DenseState.zero_state(2))
    with pytest.raises(ValueError):
        sample_povm_shots(state, 10, seed=1, ancilla=qutrit_fiducial().as_state())


@pytest.mark.parametrize("ancilla", [2, qutrit_fiducial()], ids=["int", "fiducial"])
@pytest.mark.parametrize("call", [
    # workers passed by position lands in the ancilla slot
    lambda state, ancilla: sample_povm_shots(state, 10, 1, ancilla),
    lambda state, ancilla: povm_outcome_distribution(state, ancilla),
    lambda state, ancilla: attach_ancillas(state, ancilla),
    lambda state, ancilla: bell_povm_elements(ancilla),
], ids=["sample_povm_shots", "povm_outcome_distribution", "attach_ancillas", "bell_povm_elements"])
def test_ancilla_that_is_no_state_raises_value_error(call, ancilla):
    state = random_state(2, 3, np.random.default_rng(4))
    with pytest.raises(ValueError, match="ancilla"):
        call(state, ancilla)


def _sample(sampler, state, *args, **kwargs):
    if sampler == "register":
        return sample_bell_shots(attach_ancillas(state), *args, **kwargs)
    return sample_povm_shots(state, *args, **kwargs)


@pytest.mark.parametrize("sampler", ["povm", "register"])
@pytest.mark.parametrize(
    "args,message",
    [
        ((10.0, 1), "num_shots must be an integer, got 10.0"),
        ((True, 1), "num_shots must be an integer, got True"),
        (("10", 1), "num_shots must be an integer, got '10'"),
        ((10, True), "seed must be an integer, got True"),
        ((10, 1.0), "seed must be an integer, got 1.0"),
        ((10, None), "seed must be an integer, got None"),
        ((10, -1), "seed must be non-negative, got -1"),
        ((10, 1, 1.5), "workers must be an integer, got 1.5"),
        ((10, 1, True), "workers must be an integer, got True"),
    ],
)
def test_samplers_name_a_bad_argument(sampler, args, message):
    # each sampler refuses a float, a bool or a negative seed by name, not
    # through numpy's TypeError or seed check, and draws nothing
    state = random_state(2, 2, np.random.default_rng(3))
    num_shots, seed, *workers = args
    with pytest.raises(ValueError) as err:
        _sample(sampler, state, num_shots, seed, workers=workers[0] if workers else 1)
    assert str(err.value) == message


@pytest.mark.parametrize("sampler", ["povm", "register"])
def test_samplers_take_numpy_integers_as_python_ints(sampler):
    # numpy integer arguments draw the same codes as Python ints, and the
    # stream keeps its seed as a Python int
    state = random_state(3, 2, np.random.default_rng(4))
    want = _sample(sampler, state, 5000, 17)
    got = _sample(sampler, state, np.int64(5000), np.uint32(17), workers=np.int16(2))
    assert np.array_equal(got.codes, want.codes)
    assert type(got.seed) is int and got.seed == 17


@pytest.mark.parametrize("d,n", [(2, 4), (3, 4)])
def test_streams_from_a_cached_state_equal_streams_from_fresh_copies(d, n):
    # one state object sampled as a register and as a system, under two
    # ancillas (each given as a new but equal object per call), on
    # consecutive seeds: every stream equals the one a fresh copy draws
    state = random_state(n, d, np.random.default_rng(40 + d))
    ancillas = {
        "a": (lambda: qutrit_fiducial().as_state()) if d == 3 else prepare_xi,
        "b": lambda: _random_ancilla(d, 41),
    }

    def draw(target, kind, num_shots, seed):
        if kind == "bell":
            return sample_bell_shots(target, num_shots, seed)
        return sample_povm_shots(target, num_shots, seed, ancilla=ancillas[kind]())

    calls = [("a", 3000, 5), ("b", 3000, 5), ("bell", 3000, 5), ("a", 5000, 6),
             ("bell", 2000, 6), ("b", 4500, 6), ("b", 100, 5), ("a", 3000, 5)]
    for kind, num_shots, seed in calls:
        fresh = DenseState(d, n, state.amplitudes.copy())
        got, want = draw(state, kind, num_shots, seed), draw(fresh, kind, num_shots, seed)
        assert (got.local_dim, got.num_pairs, got.seed) == (want.local_dim, want.num_pairs, seed)
        assert np.array_equal(got.codes, want.codes), (kind, num_shots, seed)


def test_a_state_caches_one_outcome_cdf():
    state = random_state(3, 3, np.random.default_rng(50))
    a, b = qutrit_fiducial().as_state(), _random_ancilla(3, 51)
    sample_povm_shots(state, 100, 1, ancilla=a)
    [(key_a, cdf_a)] = state._cdf.items()
    assert cdf_a.shape == (3 ** 6,) and not cdf_a.flags.writeable and cdf_a[-1] == 1.0
    # an equal ancilla object reads the same entry
    sample_povm_shots(state, 100, 2, ancilla=qutrit_fiducial().as_state())
    assert state._cdf[key_a] is cdf_a
    sample_povm_shots(state, 100, 1, ancilla=b)
    [key_b] = state._cdf
    assert key_b != key_a
    register = attach_ancillas(random_state(2, 2, np.random.default_rng(52)))
    sample_bell_shots(register, 100, 1)
    sample_povm_shots(register, 100, 1)
    assert len(register._cdf) == 1


def test_dense_state_is_read_only():
    state = random_state(3, 2, np.random.default_rng(60))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        state.as_tensor()[0, 0, 0] = 1.0
    for name, value in [("amplitudes", state.amplitudes.copy()), ("local_dim", 2),
                        ("num_sites", 3), ("_cdf", {})]:
        with pytest.raises(AttributeError):
            setattr(state, name, value)


def test_dense_state_freezes_only_an_owned_complex_array():
    # an owned C-contiguous complex array is frozen in place and kept (so
    # attach_ancillas copies no register); a view, another dtype or a list
    # is copied once, and the caller's array stays writable
    owned = np.zeros((2, 2), dtype=complex)
    owned[0, 1] = 1.0
    state = DenseState(2, 2, owned)
    assert not owned.flags.writeable and state.amplitudes.base is owned
    flat = np.eye(4, dtype=complex)[1].copy()
    assert DenseState(2, 2, flat).amplitudes is flat
    base = np.zeros((4, 2), dtype=complex)
    base[1, 0] = 1.0
    wide = np.zeros(8, dtype=complex)
    wide[2] = 1.0
    for view in (base[:, 0], base.T[0], wide[::2], base.reshape(-1)[:4], base[:2],
                 np.asfortranarray(base[:2])):
        got = DenseState(2, 2, view)
        assert not got.amplitudes.flags.writeable
        assert np.array_equal(got.amplitudes, view.reshape(-1)) and view.flags.writeable
    assert base.flags.writeable and wide.flags.writeable
    real = np.array([0.0, 1.0, 0.0, 0.0])
    got = DenseState(2, 2, real)
    assert real.flags.writeable and got.amplitudes.dtype == complex
    # a state that fails validation leaves the caller's array as it was
    unnormalized = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        DenseState(2, 2, unnormalized)
    assert unnormalized.flags.writeable
    register = attach_ancillas(random_state(5, 2, np.random.default_rng(61)))
    assert register.amplitudes.base is not None and register.amplitudes.base.flags.owndata


@pytest.mark.parametrize("n,d", [(11, 2), (7, 3)])
def test_povm_capacity_error_before_allocation(n, d):
    state = DenseState(d, n, np.eye(d ** n, 1))
    ancilla = prepare_xi() if d == 2 else qutrit_fiducial().as_state()
    assert d ** (2 * n) > CAPACITY_AMPLITUDES >= d ** (2 * n - 2)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            sample_povm_shots(state, 10, seed=1, ancilla=ancilla)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the D^(2n) float64 distribution alone would take 8 * d^(2n) bytes
    assert peak < 64 * 1024


def test_bell_basis_capacity_error_before_allocation():
    assert 33 ** 4 > CAPACITY_AMPLITUDES >= 32 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            bell_basis_matrix(33)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the D^2 x D^2 complex matrix alone would take 16 * 33^4 bytes
    assert peak < 64 * 1024


def test_shot_stream_jsonl_round_trip(tmp_path):
    joint = attach_ancillas(random_state(2, 2, np.random.default_rng(6)))
    stream = sample_bell_shots(joint, 50, seed=10)
    path = tmp_path / "shots.jsonl"
    stream.to_jsonl(str(path))
    again = BellShotStream.from_jsonl(str(path))
    assert again.local_dim == 2
    assert np.array_equal(again.codes, stream.codes)
    first = path.read_text().splitlines()[0]
    assert '"shot_index": 0' in first


def test_shot_stream_jsonl_qudit(tmp_path):
    stream = BellShotStream(3, 2, np.array([[8, 4], [0, 5], [2, 7]], dtype=np.uint8))
    path = tmp_path / "shots3.jsonl"
    stream.to_jsonl(str(path))
    again = BellShotStream.from_jsonl(str(path), local_dim=3)
    assert again.local_dim == 3
    assert np.array_equal(again.codes, stream.codes)
    # (h, ell) pairs up to 2 cannot come from a qubit stream
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path), local_dim=2)


def test_from_jsonl_needs_local_dim_for_pair_records(tmp_path):
    # codes 4 and 3 are (1, 1) and (1, 0) at D = 3, all within 0..1: a qubit
    # reading would be silently wrong, so the dimension is never guessed
    stream = BellShotStream(3, 2, np.array([[4, 1], [3, 0]]))
    path = tmp_path / "shots3.jsonl"
    stream.to_jsonl(str(path))
    with pytest.raises(ValueError, match="local_dim"):
        BellShotStream.from_jsonl(str(path))
    again = BellShotStream.from_jsonl(str(path), local_dim=3)
    assert again.codes.tolist() == [[4, 1], [3, 0]]


@pytest.mark.parametrize(
    "stream,text",
    [
        (
            BellShotStream(2, 3, np.array([[0, 1, 2], [3, 3, 0], [2, 0, 1]])),
            '{"shot_index": 0, "outcomes": ["F+", "F-", "P+"]}\n'
            '{"shot_index": 1, "outcomes": ["P-", "P-", "F+"]}\n'
            '{"shot_index": 2, "outcomes": ["P+", "F+", "F-"]}\n',
        ),
        (
            BellShotStream(3, 2, np.array([[8, 4], [0, 5], [2, 7], [6, 3]])),
            '{"shot_index": 0, "outcomes": [[2, 2], [1, 1]]}\n'
            '{"shot_index": 1, "outcomes": [[0, 0], [1, 2]]}\n'
            '{"shot_index": 2, "outcomes": [[0, 2], [2, 1]]}\n'
            '{"shot_index": 3, "outcomes": [[2, 0], [1, 0]]}\n',
        ),
    ],
    ids=["qubit", "qutrit"],
)
def test_shot_stream_jsonl_bytes(tmp_path, stream, text):
    path = tmp_path / "shots.jsonl"
    stream.to_jsonl(str(path))
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "stream",
    [
        BellShotStream(2, 5, np.random.default_rng(3).integers(0, 4, size=(300, 5))),
        BellShotStream(3, 6, np.random.default_rng(4).integers(0, 9, size=(300, 6))),
        BellShotStream(16, 2, np.array([[15, 15], [255, 0], [16, 17]])),
        BellShotStream(3, 2, np.empty((0, 2), dtype=np.uint8)),
        # [h, ell] texts of 6, 7 and 8 bytes in one row
        BellShotStream(11, 3, np.random.default_rng(5).integers(0, 121, size=(200, 3))),
        BellShotStream(16, 4, np.random.default_rng(6).integers(0, 256, size=(200, 4))),
        # last indices 9, 99 and 9999, all digits wide, and 10000, one digit wider than 9999
        BellShotStream(2, 2, np.random.default_rng(7).integers(0, 4, size=(10, 2))),
        BellShotStream(5, 1, np.random.default_rng(8).integers(0, 25, size=(100, 1))),
        BellShotStream(3, 2, np.random.default_rng(9).integers(0, 9, size=(10000, 2))),
        BellShotStream(4, 1, np.random.default_rng(10).integers(0, 16, size=(10001, 1))),
        # more rows than one block of the writer
        BellShotStream(13, 2, np.random.default_rng(11).integers(0, 169, size=(SHOT_BLOCK + 3, 2))),
    ],
    ids=["qubit", "qutrit", "d16", "empty", "d11-mixed", "d16-mixed", "10-shots",
         "100-shots", "10000-shots", "10001-shots", "past-a-block"],
)
def test_to_jsonl_writes_what_json_dumps_writes(tmp_path, stream):
    d = stream.local_dim
    outcome_of = QUBIT_BELL_LABELS if d == 2 else [list(divmod(c, d)) for c in range(d * d)]
    want = "".join(
        json.dumps({"shot_index": i, "outcomes": [outcome_of[c] for c in row]}) + "\n"
        for i, row in enumerate(stream.codes.tolist())
    )
    path = tmp_path / "shots.jsonl"
    stream.to_jsonl(str(path))
    assert path.read_bytes() == want.encode()
    if stream.num_shots:
        again = BellShotStream.from_jsonl(str(path), local_dim=d)
        assert (again.local_dim, again.num_pairs) == (d, stream.num_pairs)
        assert np.array_equal(again.codes, stream.codes)


def _read_both(path, local_dim):
    """What ``from_jsonl`` and the JSON path alone read from ``path``: each
    (D, pairs, codes) or the message of the ValueError raised.  The JSON
    path gets ``local_dim`` as ``from_jsonl`` checks it, an integer or None."""
    def outcome(read):
        try:
            stream = read()
        except ValueError as err:
            return str(err)
        return stream.local_dim, stream.num_pairs, stream.codes.tolist()

    def records():
        checked = None if local_dim is None else _integer(local_dim, "local_dim")
        with open(path, encoding="utf-8") as fh:
            d, codes = _parse_records(fh.read(), path, checked)
        return BellShotStream(d, codes.shape[1], codes)

    return outcome(lambda: BellShotStream.from_jsonl(path, local_dim)), outcome(records)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4, 5, 10, 11, 16]),
    num_pairs=st.integers(1, 8),
    num_shots=st.one_of(st.integers(1, 12), st.integers(95, 105), st.integers(990, 1200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_jsonl_takes_every_written_stream_in_one_parse(tmp_path_factory, d, num_pairs,
                                                              num_shots, seed):
    # indices of 1 to 4 digits; at D >= 11 the [h, ell] texts differ in width
    codes = np.random.default_rng(seed).integers(0, d * d, size=(num_shots, num_pairs))
    path = str(tmp_path_factory.mktemp("canonical") / "shots.jsonl")
    BellShotStream(d, num_pairs, codes).to_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        assert _parse_canonical(fh.read(), d) is not None
    fast, reference = _read_both(path, d)
    assert fast == reference == (d, num_pairs, codes.tolist())


def _variants(text):
    """Every one-byte substitution and insertion of ``text`` by a byte of the
    layout, a label letter or sign, a digit, CR, a tab or a key letter, every
    one-byte deletion, its first two lines swapped, its CRLF copy and its
    records with the keys reordered."""
    alphabet = '{}[]":, \n\r\tFP+-0129x'
    for i in range(len(text) + 1):
        for c in alphabet:
            yield text[:i] + c + text[i:]
            if i < len(text) and c != text[i]:
                yield text[:i] + c + text[i + 1:]
        if i < len(text):
            yield text[:i] + text[i + 1:]
    lines = text.splitlines(keepends=True)
    yield "".join([lines[1], lines[0]] + lines[2:])
    yield text.replace("\n", "\r\n")
    yield "".join(
        json.dumps({"outcomes": r["outcomes"], "shot_index": r["shot_index"]}) + "\n"
        for r in map(json.loads, lines)
    )


@pytest.mark.parametrize(
    "stream",
    [
        BellShotStream(2, 2, np.array([[0, 3], [2, 1]])),
        BellShotStream(3, 2, np.array([[8, 4], [0, 5]])),
        BellShotStream(11, 1, np.array([[120], [3]])),
    ],
    ids=["qubit", "qutrit", "d11"],
)
def test_from_jsonl_reads_every_near_canonical_file_as_the_json_path(tmp_path, stream):
    d = stream.local_dim
    path = tmp_path / "shots.jsonl"
    stream.to_jsonl(str(path))
    text = path.read_text()
    for variant in _variants(text):
        path.write_bytes(variant.encode())
        for local_dim in [None, 2, 3, 3.0] + [v for v in (d, d + 1) if v not in (2, 3)]:
            fast, reference = _read_both(str(path), local_dim)
            assert fast == reference, (variant, local_dim)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DenseState(3.0, 2, np.eye(9, dtype=complex)[0]),
        lambda: DenseState(2, True, np.eye(2, dtype=complex)[0]),
        lambda: DenseState(2, 1.0, np.eye(2, dtype=complex)[0]),
        lambda: BellShotStream(2.5, 1, [[3]]),
        lambda: BellShotStream(3.0, 1, [[3]]),
        lambda: BellShotStream(True, 1, [[0]]),
        lambda: BellShotStream(2, True, [[3]]),
        lambda: BellShotStream(2, np.float64(1), [[3]]),
    ],
    ids=["dense-float-d", "dense-bool-n", "dense-float-n", "stream-2.5", "stream-3.0",
         "stream-bool-d", "stream-bool-pairs", "stream-float-pairs"],
)
def test_dimensions_and_counts_must_be_integers(make):
    # a float D broke to_jsonl in range(d * d), and True passed for one site
    with pytest.raises(ValueError, match="integer"):
        make()


def test_numpy_integer_dimensions_become_python_ints(tmp_path):
    state = DenseState(np.int64(3), np.int32(2), np.eye(9, dtype=complex)[0])
    assert type(state.local_dim) is int and type(state.num_sites) is int
    stream = BellShotStream(np.int64(3), np.uint8(1), [[5], [7]])
    assert type(stream.local_dim) is int and type(stream.num_pairs) is int
    # json.dumps refused the np.int64 h and ell that a numpy D gave
    path = tmp_path / "shots.jsonl"
    stream.to_jsonl(str(path))
    assert path.read_text() == (
        '{"shot_index": 0, "outcomes": [[1, 2]]}\n{"shot_index": 1, "outcomes": [[2, 1]]}\n'
    )
    again = BellShotStream.from_jsonl(str(path), local_dim=np.int64(3))
    assert type(again.local_dim) is int and again.codes.tolist() == [[5], [7]]


@pytest.mark.parametrize(
    "outcomes",
    [
        [[0, 5]], [[1, 4]], [[3, 0]], [[-1, 0]], [[0, -2]], [[-85, 0]], [[2**63, 0]],
        [[0, 1, 2]], [0, 1], [[0, 1], [2]], [[1.5, 0]], [["1", 0]], [[True, 0]], [[0, False]],
    ],
)
def test_from_jsonl_rejects_unrepresentable_pairs(tmp_path, outcomes):
    path = tmp_path / "shots.jsonl"
    path.write_text(json.dumps({"shot_index": 0, "outcomes": outcomes}) + "\n")
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path), local_dim=3)


def test_from_jsonl_rejects_qubit_row_holding_a_list(tmp_path):
    path = tmp_path / "shots.jsonl"
    path.write_text('{"shot_index": 0, "outcomes": ["F+", ["P-"]]}\n')
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path))


def test_from_jsonl_rejects_row_without_shot_index(tmp_path):
    path = tmp_path / "shots.jsonl"
    path.write_text(
        '{"shot_index": 0, "outcomes": ["F+"]}\n'
        '{"outcomes": ["P-"]}\n'
    )
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path))


@pytest.mark.parametrize("index", [None, True, False, 0.5, 1.0, "1", [1]])
def test_from_jsonl_rejects_non_integer_shot_index(tmp_path, index):
    path = tmp_path / "shots.jsonl"
    # a single record is never compared, so it must be checked on its own
    path.write_text(json.dumps({"shot_index": index, "outcomes": ["F+"]}) + "\n")
    with pytest.raises(ValueError, match="shot_index"):
        BellShotStream.from_jsonl(str(path))
    path.write_text(
        '{"shot_index": 0, "outcomes": ["F+"]}\n'
        + json.dumps({"shot_index": index, "outcomes": ["P-"]}) + "\n"
    )
    with pytest.raises(ValueError, match="shot_index"):
        BellShotStream.from_jsonl(str(path))


def test_from_jsonl_rejects_repeated_shot_index(tmp_path):
    # two files joined with cat both count from 0; sorting would interleave them
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    BellShotStream(2, 1, [[0], [1]]).to_jsonl(str(first))
    BellShotStream(2, 1, [[2], [3]]).to_jsonl(str(second))
    joined = tmp_path / "ab.jsonl"
    joined.write_text(first.read_text() + second.read_text())
    with pytest.raises(ValueError, match="shot_index"):
        BellShotStream.from_jsonl(str(joined))
    # the indices need not start at 0 or be consecutive, only distinct
    joined.write_text(
        '{"shot_index": 7, "outcomes": ["P-"]}\n'
        '{"shot_index": -2, "outcomes": ["F-"]}\n'
    )
    assert BellShotStream.from_jsonl(str(joined)).codes.tolist() == [[1], [3]]


@pytest.mark.parametrize("separator", ["", ", "])
def test_from_jsonl_rejects_two_records_on_one_line(tmp_path, separator):
    # the format holds one record per line; a reader that joins the lines
    # into one JSON array would take the ", " form as two records
    path = tmp_path / "shots.jsonl"
    first = '{"shot_index": 0, "outcomes": ["F+"]}'
    second = '{"shot_index": 1, "outcomes": ["P-"]}'
    path.write_text(first + separator + second + "\n")
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path))
    path.write_text(first + "\n" + second + separator + first.replace("0", "2", 1) + "\n")
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path))


def test_from_jsonl_infers_dimension_but_rejects_negatives(tmp_path):
    path = tmp_path / "shots.jsonl"
    path.write_text('{"shot_index": 0, "outcomes": [[0, 5]]}\n')
    with pytest.raises(ValueError, match="local_dim"):
        BellShotStream.from_jsonl(str(path))
    # -128 * 2 + 0 would wrap to the valid uint8 code 0
    path.write_text('{"shot_index": 0, "outcomes": [[-128, 0]]}\n')
    with pytest.raises(ValueError, match="outside"):
        BellShotStream.from_jsonl(str(path), local_dim=2)


@pytest.mark.parametrize("local_dim", [1, 0, -3])
def test_from_jsonl_rejects_local_dim_below_two(tmp_path, local_dim):
    path = tmp_path / "shots.jsonl"
    path.write_text('{"shot_index": 0, "outcomes": [[1, 1]]}\n')
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path), local_dim=local_dim)
    with pytest.raises(ValueError):
        BellShotStream(local_dim, 1, np.zeros((1, 1), dtype=np.uint8))
    path.write_text('{"shot_index": 0, "outcomes": [[0, 0], [0, 0]]}\n')
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path), local_dim=local_dim)
    # with no local_dim, an all-zero file fixes no dimension
    with pytest.raises(ValueError, match="local_dim"):
        BellShotStream.from_jsonl(str(path))


@pytest.mark.parametrize("local_dim", ["3", 3.0, True, False, 1, 0])
@pytest.mark.parametrize("reordered", [False, True], ids=["canonical", "reordered_keys"])
def test_from_jsonl_checks_local_dim_before_reading(tmp_path, local_dim, reordered):
    # "3" reached numpy's UFuncTypeError, and True, 1 and 0 a range message
    # naming 0..0, on the JSON path
    path = tmp_path / "shots.jsonl"
    BellShotStream(3, 2, [[0, 8], [4, 5]]).to_jsonl(str(path))
    if reordered:
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps({"outcomes": r["outcomes"], "shot_index": r["shot_index"]}) + "\n"
            for r in rows
        ))
    with pytest.raises(ValueError, match="local_dim must be"):
        BellShotStream.from_jsonl(str(path), local_dim=local_dim)
    assert BellShotStream.from_jsonl(str(path), local_dim=3).codes.tolist() == [[0, 8], [4, 5]]


@pytest.mark.parametrize(
    "args,name", [((2.5,), "num_sites"), ((3, 2.0), "local_dim"), ((True,), "num_sites")]
)
def test_random_state_rejects_non_integer_arguments(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        random_state(*args)
    assert random_state(np.int64(3), np.int32(2), 1).local_dim == 2


@pytest.mark.parametrize(
    "args,name", [((3, 1.5, 0), "f"), ((3, 0, 1.5), "g"), ((2.0, 1, 0), "local_dim"),
                  ((3, True, 0), "f")]
)
def test_hw_operator_rejects_non_integer_arguments(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        hw_operator(*args)
    assert np.array_equal(hw_operator(np.int64(3), np.int8(1), np.int16(-1)), hw_operator(3, 1, -1))


@pytest.mark.parametrize(
    "args,name", [((3, 1.5, 0), "h"), ((3, 0, 1.5), "ell"), ((3.0, 1, 0), "local_dim")]
)
def test_generalized_bell_state_rejects_non_integer_arguments(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        generalized_bell_state(*args)


@pytest.mark.parametrize(
    "d,codes",
    [
        (2, np.array([[256]])),
        (2, np.array([[-256]])),
        (2, np.array([[259]])),
        (2, np.array([[1.7]])),
        (2, np.array([[True, False]])),
        (2, np.array([[4]], dtype=np.uint16)),
        (2, [[0, 2**64]]),
        (16, np.array([[256]])),
    ],
    ids=["256", "-256", "259", "1.7", "bool", "uint16", "2**64", "256-at-D16"],
)
def test_shot_stream_rejects_codes_that_would_wrap(d, codes):
    # a uint8 cast would load 256 and -256 as 0, 259 as 3 and 1.7 as 1
    with pytest.raises(ValueError):
        BellShotStream(d, np.shape(codes)[1], codes)


def test_shot_stream_keeps_uint8_codes_and_casts_integers():
    codes = np.array([[0, 3], [2, 1]], dtype=np.uint8)
    assert BellShotStream(2, 2, codes).codes is codes
    wide = BellShotStream(16, 2, np.array([[255, 0], [17, 9]], dtype=np.int64))
    assert wide.codes.dtype == np.uint8
    assert wide.codes.tolist() == [[255, 0], [17, 9]]


def test_shot_stream_codes_are_read_only():
    # an owned uint8 array is frozen in place; a view or a wider dtype is
    # copied, and the caller's array stays writable
    owned = np.array([[0, 3], [2, 1], [1, 1]], dtype=np.uint8)
    stream = BellShotStream(2, 2, owned)
    assert stream.codes is owned and not owned.flags.writeable
    with pytest.raises(ValueError):
        stream.codes[0, 0] = 1
    base = np.array([[0, 3, 1], [2, 1, 0]], dtype=np.uint8)
    for view in (base[:, 1:], base[::2], base.T.copy().T[:, :2]):
        got = BellShotStream(4, view.shape[1], view)
        assert got.codes is not view and not got.codes.flags.writeable
        assert np.array_equal(got.codes, view) and view.flags.writeable
    assert base.flags.writeable
    wide = np.array([[3, 0]], dtype=np.int64)
    got = BellShotStream(2, 2, wide)
    assert not got.codes.flags.writeable and wide.flags.writeable
    with pytest.raises(AttributeError):
        stream.codes = owned.copy()


@pytest.mark.parametrize(
    "text",
    [
        '{"shot_index": 0, "outcomes": ["F+"]}\n{"shot_index": 1, "outcomes": ["P-"]',
        '{"shot_index": 0,\n"outcomes": ["F+"]}\n',
        '[{"shot_index": 0, "outcomes": ["F+"]}\n]\n',
        '{"shot_index": 0, "outcomes": ["F+"]}\n,\n',
    ],
    ids=["truncated", "record-over-two-lines", "array-over-two-lines", "comma-line"],
)
def test_from_jsonl_rejects_records_that_are_not_one_per_line(tmp_path, text):
    path = tmp_path / "shots.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError):
        BellShotStream.from_jsonl(str(path))


def test_from_jsonl_rejects_unknown_qubit_label(tmp_path):
    path = tmp_path / "shots.jsonl"
    path.write_text(
        '{"shot_index": 0, "outcomes": ["F+", "P-"]}\n'
        '{"shot_index": 1, "outcomes": ["F+", "Q?"]}\n'
    )
    with pytest.raises(ValueError, match="Q\\?"):
        BellShotStream.from_jsonl(str(path))


def test_random_state_seeded():
    a = random_state(3, 2, 42)
    b = random_state(3, 2, 42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.dim == 8
