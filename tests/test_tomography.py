"""Tests for qubit k-RDM estimation from Bell shot streams."""

import itertools
import math

import numpy as np
import pytest

from fermitree.pauli import PauliString, to_masks
from fermitree.statesim import (
    BellShotStream,
    DenseState,
    attach_ancillas,
    bell_outcome_distribution,
    bell_povm_elements,
    expectation,
    generalized_bell_state,
    prepare_xi,
    random_state,
    sample_bell_shots,
    sample_povm_shots,
)
from fermitree.tomography import (
    BELL_EIGENVALUES,
    rdm_masks,
    estimate_all_k_rdms,
    estimates_to_rows,
    exact_all_k_rdms,
    merge_streams,
)
from oracles import bell_measure_all_pairs, sign_means


def test_eigenvalue_table_against_simulator():
    # each Bell state is an eigenstate of sigma^a (x) sigma^a; the table
    # rows must be the exact eigenvalue triples
    for code in range(4):
        state = generalized_bell_state(2, *divmod(code, 2))
        for col, letter in enumerate("XYZ"):
            op = PauliString.from_map({0: letter, 1: letter})
            val = expectation(state, op).real
            assert val == pytest.approx(BELL_EIGENVALUES[code, col], abs=1e-12)


def test_eigenvalue_table_is_the_qubit_slice_of_the_exponents():
    literal = np.array([[+1, -1, +1], [-1, +1, +1], [+1, +1, -1], [-1, -1, -1]], dtype=np.int8)
    assert BELL_EIGENVALUES.dtype == np.int8
    assert (BELL_EIGENVALUES == literal).all()
    # XX YY ZZ = (XYZ) (x) (XYZ) = (iI) (x) (iI) = -I on every Bell state
    assert BELL_EIGENVALUES.prod(axis=1).tolist() == [-1] * 4


def _stream(codes):
    arr = np.asarray(codes, dtype=np.uint8)
    return BellShotStream(2, arr.shape[1], arr)


def test_estimate_on_crafted_stream():
    # all F+ outcomes: x eigenvalue +1 every shot
    stream = _stream([[0], [0], [0], [0]])
    [(mean, scale, std_error)] = sign_means(stream, [((0, "x"),)])
    assert scale * mean == pytest.approx(math.sqrt(3))
    assert std_error == 0.0
    # alternating F+ / F- gives zero mean and maximal spread
    stream = _stream([[0], [1], [0], [1]])
    [(mean, scale, std_error)] = sign_means(stream, [((0, "x"),)])
    assert scale * mean == 0.0
    assert std_error == pytest.approx(math.sqrt(3) / 2)
    # k=2 product on one crafted shot: F- x-eig -1, P- x-eig -1
    [(mean, scale, _)] = sign_means(_stream([[1, 3]]), [((0, "x"), (1, "x"))])
    assert scale * mean == pytest.approx(3.0)


def test_estimate_validation():
    stream = _stream([[0, 1]])
    with pytest.raises(ValueError):
        sign_means(stream, [((0, "x"), (0, "y"))])
    with pytest.raises(ValueError):
        sign_means(stream, [((2, "x"),)])
    with pytest.raises(ValueError):
        sign_means(stream, [((0, "q"),)])
    empty = BellShotStream(2, 2, np.empty((0, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        sign_means(empty, [((0, "x"),)])
    with pytest.raises(ValueError):
        estimate_all_k_rdms(stream, 3)


def test_estimates_against_oracle():
    state = random_state(2, 2, np.random.default_rng(14))
    stream = sample_bell_shots(attach_ancillas(state), 80_000, seed=15)
    for k in (1, 2):
        for est in estimate_all_k_rdms(stream, k):
            op = PauliString.from_map(
                {q: l.upper() for q, l in zip(est.qubits, est.letters)}
            )
            oracle = expectation(state, op).real
            assert abs(est.value - oracle) <= 5 * max(est.std_error, 1e-3)


def test_estimate_count():
    stream = _stream([[0, 1, 2]])
    assert len(estimate_all_k_rdms(stream, 1)) == 9
    assert len(estimate_all_k_rdms(stream, 2)) == 27
    assert len(estimate_all_k_rdms(stream, 3)) == 27


@pytest.mark.parametrize("n", range(1, 9))
def test_rdm_masks_are_the_masks_of_each_key(n):
    # qubit combinations outer, letter products inner, k = n included
    for k in range(1, n + 1):
        keys, masks = rdm_masks(n, k)
        assert keys == [
            (q, a)
            for q in itertools.combinations(range(n), k)
            for a in itertools.product("xyz", repeat=k)
        ]
        assert [m.dtype for m in masks] == [np.int64] * 3
        want = [
            to_masks(PauliString.from_map({q: a.upper() for q, a in zip(*key)}), n) for key in keys
        ]
        assert list(zip(*(m.tolist() for m in masks))) == want
    for k in (0, n + 1, -1):
        with pytest.raises(ValueError, match=f"k must be in 1..{n}"):
            rdm_masks(n, k)


@pytest.mark.parametrize("state", ["random", "ghz", "zero"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_exact_rdms_equal_per_element_expectations(state, n):
    system = {
        "random": lambda: random_state(n, 2, np.random.default_rng(30 + n)),
        "ghz": lambda: DenseState.ghz(n),
        "zero": lambda: DenseState.zero_state(n),
    }[state]()
    for k in range(1, n + 1):
        exact = exact_all_k_rdms(system, k)
        assert list(exact) == rdm_masks(n, k)[0]
        for (qubits, letters), value in exact.items():
            pauli = PauliString.from_map({q: a.upper() for q, a in zip(qubits, letters)})
            assert value == expectation(system, pauli)


def test_merge_invariance_is_exact():
    # integer accumulation makes any shot partition bit-identical
    state = random_state(2, 2, np.random.default_rng(20))
    stream = sample_bell_shots(attach_ancillas(state), 9999, seed=21)
    parts = [
        BellShotStream(2, 2, stream.codes[:1234]),
        BellShotStream(2, 2, stream.codes[1234:7777]),
        BellShotStream(2, 2, stream.codes[7777:]),
    ]
    merged = merge_streams(parts)
    assert np.array_equal(merged.codes, stream.codes)
    strings = [((0, "y"),), ((0, "z"), (1, "x"))]
    assert sign_means(stream, strings) == sign_means(merged, strings)


def test_merge_guards():
    with pytest.raises(ValueError):
        merge_streams([])
    with pytest.raises(ValueError):
        merge_streams([_stream([[0]]), _stream([[0, 1]])])


def test_merged_collapse_shots_feed_the_estimators():
    # one-shot streams of the sequential-collapse oracle merge into a
    # stream the estimators read like a sampled one
    state = random_state(2, 2, np.random.default_rng(16))
    joint = attach_ancillas(state)
    rng = np.random.default_rng(17)
    shots = 3000
    stream = merge_streams([bell_measure_all_pairs(joint, rng) for _ in range(shots)])
    assert stream.codes.shape == (shots, 2)
    for est in estimate_all_k_rdms(stream, 1):
        oracle = expectation(state, PauliString.single(est.qubits[0], est.letters[0].upper())).real
        # each shot is +-1 with mean oracle / sqrt(3)
        sigma = math.sqrt(3.0 - oracle ** 2) / math.sqrt(shots)
        assert abs(est.value - oracle) <= 5 * sigma


def test_variance_grows_with_k():
    # std over repeated streams scales like sqrt(3)^k
    state = random_state(2, 2, np.random.default_rng(7))
    joint = attach_ancillas(state)
    v1, v2 = [], []
    for s in range(120):
        stream = sample_bell_shots(joint, 1500, seed=5000 + s)
        (mean1, scale1, _), (mean2, scale2, _) = sign_means(stream, [((0, "z"),), ((0, "z"), (1, "z"))])
        v1.append(scale1 * mean1)
        v2.append(scale2 * mean2)
    ratio = np.std(v2, ddof=1) / np.std(v1, ddof=1)
    assert 1.2 < ratio < 2.4


def test_error_bars_are_calibrated():
    # each element's 2-sigma interval holds the exact value on 95.45% of
    # 400 streams, within 4 binomial sigma (0.042); bars off by a factor of
    # 2 either way give about 68% or 99.99%
    state = random_state(3, 2, np.random.default_rng(2025))
    seeds = range(400)
    streams = [sample_povm_shots(state, 2000, seed) for seed in seeds]
    band = 4 * math.sqrt(0.9545 * 0.0455 / len(seeds))
    for k in (1, 2):
        exact = np.array(list(exact_all_k_rdms(state, k).values())).real
        inside = np.zeros(len(exact))
        for stream in streams:
            estimates = estimate_all_k_rdms(stream, k)
            value = np.array([est.value for est in estimates])
            error = np.array([est.std_error for est in estimates])
            inside += np.abs(value - exact) < 2 * error
        fraction = inside / len(seeds)
        assert np.all(np.abs(fraction - 0.9545) <= band), (k, fraction.min(), fraction.max())


def test_sic_povm_completeness_and_overlaps():
    elements = bell_povm_elements(prepare_xi())
    assert len(elements) == 4
    assert np.allclose(sum(elements), np.eye(2), atol=1e-12)
    # projector overlaps tr(Pi_a Pi_b) = (2 delta + 1)/3
    projectors = [2 * e for e in elements]
    for a, b in itertools.product(range(4), repeat=2):
        want = 1.0 if a == b else 1 / 3
        got = np.trace(projectors[a] @ projectors[b]).real
        assert got == pytest.approx(want, abs=1e-12)
    for e in elements:
        assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_sic_povm_reproduces_bell_probabilities():
    # p(c) = tr(rho E_c) must equal the Bell outcome distribution of the
    # state paired with the tetrahedral ancilla; |+y> tells the POVM from
    # its complex conjugate, which swaps the (F+, P-) and (F-, P+) weights
    plus_y = DenseState(2, 1, np.array([1, 1j]) / math.sqrt(2))
    states = [plus_y] + [random_state(1, 2, np.random.default_rng(s)) for s in range(5)]
    elements = bell_povm_elements(prepare_xi())
    for state in states:
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        got = np.array([np.trace(rho @ e).real for e in elements])
        want = bell_outcome_distribution(attach_ancillas(state))
        assert np.max(np.abs(got - want)) < 1e-12


def test_report_writers():
    stream = _stream([[0, 1], [2, 3], [0, 0]])
    ests = estimate_all_k_rdms(stream, 1)
    rows = estimates_to_rows(ests)
    assert rows[0]["qubits"] == [0]
    assert len(rows) == 6
