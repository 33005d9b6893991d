"""Tests for qudit Heisenberg-Weyl correlators and SIC POVMs."""

import itertools
import json
import math

import numpy as np
import pytest

from fermitree import qudit, statesim
from fermitree.qudit import (
    FiducialState,
    HwEstimate,
    estimate_hw_correlator,
    exact_hw_correlator,
    load_fiducial,
    qubit_fiducial,
    qutrit_fiducial,
    save_fiducial,
    validate_fiducial,
)
from fermitree.statesim import (
    BellShotStream,
    DenseState,
    attach_ancillas,
    bell_outcome_distribution,
    bell_povm_elements,
    displacement_table,
    hw_operator,
    prepare_xi,
    random_state,
    sample_bell_shots,
    sample_povm_shots,
)
from fermitree.tomography import exact_all_k_rdms, merge_streams
from oracles import reference_calibration, sign_means


def test_fiducial_state_validation():
    with pytest.raises(ValueError):
        FiducialState(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FiducialState(3, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        FiducialState(1, np.array([1.0]))
    # a NaN norm compares False against any tolerance
    for amplitudes in ([math.nan, 0, 0], [math.inf, 0, 0], [0, 0, 0]):
        with pytest.raises(ValueError):
            FiducialState(3, np.array(amplitudes))


def test_fiducial_state_owns_its_amplitudes():
    # the calibration table is cached, so a later write to the source array
    # must not reach the fiducial
    amps = np.array([0.0, 1.0, -1.0], dtype=complex) / math.sqrt(2)
    fid = FiducialState(3, amps)
    before = dict(fid.overlaps)
    amps[:] = [1, 0, 0]
    assert np.array_equal(fid.amplitudes, qutrit_fiducial().amplitudes)
    assert fid.overlaps == before
    with pytest.raises(ValueError):
        fid.amplitudes[0] = 1.0
    with pytest.raises(TypeError):
        fid.overlaps[1, 0] = 0j
    labels = [(f, g) for f in range(3) for g in range(3) if (f, g) != (0, 0)]
    assert fid.overlaps == {(f, g): reference_calibration(fid, f, g) for f, g in labels}


def test_qubit_fiducial_is_sic():
    report = validate_fiducial(qubit_fiducial())
    assert report.exact_sic
    assert report.target_magnitude == pytest.approx(1 / math.sqrt(3))
    # the tetrahedral ancilla is the D = 2 fiducial: one POVM, bit for bit
    tetrahedral = bell_povm_elements(prepare_xi())
    assert np.array_equal(tetrahedral, bell_povm_elements(qubit_fiducial().as_state()))


def test_qubit_calibration_factors():
    fid = qubit_fiducial()
    r = 1 / math.sqrt(3)
    assert fid.overlaps[1, 0] == pytest.approx(r)
    assert fid.overlaps[0, 1] == pytest.approx(r)
    # XZ^{-1} = XZ = -iY, so the (1,1) factor is -i/sqrt(3)
    assert fid.overlaps[1, 1] == pytest.approx(-1j * r)


def test_qutrit_fiducial_overlaps():
    fid = qutrit_fiducial()
    overlaps = fid.overlaps
    assert len(overlaps) == 8
    for value in overlaps.values():
        assert abs(value) == pytest.approx(0.5, abs=1e-12)
    report = validate_fiducial(fid)
    assert report.exact_sic
    assert report.informationally_complete
    assert report.target_magnitude == 0.5


def test_basis_state_is_not_informationally_complete():
    fid = FiducialState(3, np.array([1.0, 0.0, 0.0]))
    report = validate_fiducial(fid)
    assert not report.exact_sic
    assert not report.informationally_complete


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sic_elements_sum_to_identity(d):
    # completeness holds for any normalized fiducial, SIC or not
    rng = np.random.default_rng(d)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    fid = FiducialState(d, vec / np.linalg.norm(vec))
    elements = bell_povm_elements(fid.as_state())
    total = sum(elements)
    assert np.allclose(total, np.eye(d), atol=1e-12)
    # element h*D + ell is (1/D) X^h Z^ell xi* Z^{-ell} X^{-h}
    xi_conj = np.outer(fid.amplitudes, fid.amplitudes.conj()).conj()
    for h, ell in itertools.product(range(d), repeat=2):
        w = hw_operator(d, h, ell)
        assert np.allclose(elements[h * d + ell], w @ xi_conj @ w.conj().T / d, atol=1e-12)


@pytest.mark.parametrize("fid", [qubit_fiducial(), qutrit_fiducial()])
def test_sic_projector_overlaps(fid):
    d = fid.dimension
    projectors = [d * e for e in bell_povm_elements(fid.as_state())]
    for a, b in itertools.product(range(d * d), repeat=2):
        want = 1.0 if a == b else 1 / (d + 1)
        got = np.trace(projectors[a] @ projectors[b]).real
        assert got == pytest.approx(want, abs=1e-10)


def _complex_fiducial(d, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return FiducialState(d, vec / np.linalg.norm(vec))


# How far a qudit mean may lie from the same mean summed per phase residue:
# the displacement sums multiply and add roots of unity in another order.
ULPS = 4 * 2.0 ** -52


def assert_within_ulps(est: HwEstimate, want: tuple, fiducial: FiducialState) -> None:
    """The estimate's value and std error within ULPS / |calibration| of the
    (value, std_error) pair ``want``, and its value a Python complex."""
    value, std_error = want
    calibration = abs(math.prod(fiducial.overlaps[f, g] for _, f, g in est.targets))
    assert type(est.value) is complex
    assert abs(est.value - value) <= ULPS / calibration, (est, want)
    assert abs(est.std_error - std_error) <= ULPS / calibration, (est, want)


@pytest.mark.parametrize("fid", [qubit_fiducial(), _complex_fiducial(3, 11)])
def test_sic_elements_reproduce_bell_probabilities(fid):
    # p(h, ell) = tr(rho E_(h, ell)) for complex states and complex
    # fiducials, against the Bell outcome distribution of (system, ancilla)
    d = fid.dimension
    elements = bell_povm_elements(fid.as_state())
    for seed in range(5):
        state = random_state(1, d, np.random.default_rng(seed))
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        got = np.array([np.trace(rho @ e).real for e in elements])
        want = bell_outcome_distribution(attach_ancillas(state, fid.as_state()))
        assert np.max(np.abs(got - want)) < 1e-12


def test_estimate_on_crafted_stream():
    # one pair, outcomes (0,0), (1,1), (2,2): residues of target Z are
    # h = 0, 1, 2, so the phases average to zero exactly
    stream = BellShotStream(3, 1, np.array([[0], [4], [8]], dtype=np.uint8))
    est = estimate_hw_correlator(stream, [(0, 0, 1)], qutrit_fiducial())
    assert abs(est.value) < 1e-12
    assert est.num_shots == 3


def test_estimator_validation():
    fid = qutrit_fiducial()
    stream = BellShotStream(3, 2, np.zeros((4, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [], fid)
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [(0, 0, 0)], fid)
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [(0, 1, 0), (0, 0, 1)], fid)
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [(2, 1, 0)], fid)
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [(0, 1, 0)], qubit_fiducial())
    empty = BellShotStream(3, 1, np.empty((0, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        estimate_hw_correlator(empty, [(0, 1, 0)], fid)
    # a fiducial blind to the targeted displacement is rejected
    blind = FiducialState(3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        estimate_hw_correlator(stream, [(0, 1, 0)], blind)
    # non-integer and bool labels are rejected before any array is read
    for bad in (1.5, 1.0, "1", True):
        for target in [(bad, 1, 0), (0, bad, 0), (0, 1, bad)]:
            with pytest.raises(ValueError):
                estimate_hw_correlator(stream, [target], fid)
    with pytest.raises(ValueError):
        exact_hw_correlator(random_state(2, 3, np.random.default_rng(0)), [(True, 1, 0)])


@pytest.mark.parametrize("target", [(0, 1), 5, (0, 1, 2, 0), None, ()])
def test_malformed_target_is_named(target):
    # a target that is not a (site, f, g) triple raises a ValueError that
    # names it, not Python's unpacking or iteration errors
    stream = BellShotStream(3, 2, np.zeros((4, 2), dtype=np.uint8))
    state = random_state(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"is not a \(site, f, g\) triple") as err:
        estimate_hw_correlator(stream, [(1, 1, 0), target], qutrit_fiducial())
    assert repr(target) in str(err.value)
    with pytest.raises(ValueError, match="triple"):
        exact_hw_correlator(state, [target])


def test_targets_come_back_as_python_ints():
    stream = BellShotStream(3, 3, np.random.default_rng(1).integers(0, 9, size=(200, 3)))
    targets = [(np.int64(2), np.int32(4), np.uint8(2)), (np.int8(0), -1, np.int64(1))]
    est = estimate_hw_correlator(stream, targets, qutrit_fiducial())
    assert est.targets == ((2, 1, 2), (0, 2, 1))
    assert all(type(v) is int for target in est.targets for v in target)
    assert est == estimate_hw_correlator(stream, [(2, 1, 2), (0, 2, 1)], qutrit_fiducial())


@pytest.mark.parametrize("d,fid", [(2, qubit_fiducial()), (3, qutrit_fiducial())])
@pytest.mark.parametrize("shots", [16, 15])
def test_hw_values_are_python_complex(d, fid, shots):
    # a qubit pair (16 possible rows) is read from the displacement sums on
    # 16 shots and from the outcome rows on 15, a qutrit pair (81) from the
    # rows and one qutrit (9) from the sums; the value is a Python complex
    # on both paths, like the exact correlator's
    stream = BellShotStream(d, 2, np.random.default_rng(shots).integers(0, d * d, size=(shots, 2)))
    state = random_state(2, d, np.random.default_rng(2))
    for targets in ([(0, 1, 1)], [(1, 0, 1), (0, 1, 0)]):
        est = estimate_hw_correlator(stream, targets, fid)
        assert type(est.value) is complex and type(est.std_error) is float
        assert type(exact_hw_correlator(state, targets)) is complex


def apply_single_site(state: DenseState, matrix: np.ndarray, site: int) -> DenseState:
    """Oracle: the state with a local_dim x local_dim matrix applied at ``site``."""
    if not 0 <= site < state.num_sites:
        raise ValueError(f"site {site} outside 0..{state.num_sites - 1}")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (state.local_dim, state.local_dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match site")
    tensor = np.tensordot(matrix, state.as_tensor(), axes=([1], [site]))
    tensor = np.moveaxis(tensor, 0, site)
    return DenseState(state.local_dim, state.num_sites, np.ascontiguousarray(tensor))


def reference_exact_hw(state: DenseState, targets) -> complex:
    """Oracle <prod_i X^{f_i} Z^{g_i}>: one D x D matrix and tensordot per target."""
    applied = state
    for site, f, g in targets:
        applied = apply_single_site(applied, hw_operator(state.local_dim, f, g), site)
    return complex(np.vdot(state.amplitudes, applied.amplitudes))


def test_apply_single_site():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = apply_single_site(DenseState(2, 2, [0, 1, 0, 0]), x, 0)
    assert s.amplitudes[3] == 1.0
    with pytest.raises(ValueError):
        apply_single_site(DenseState.zero_state(2), x, 2)
    with pytest.raises(ValueError):
        apply_single_site(DenseState(3, 2, np.eye(9, 1)), x, 0)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_correlator_matches_reference(d, n, k):
    # unsorted sites, and labels f, g outside 0..D-1 that the oracle's
    # matrices take as they are
    rng = np.random.default_rng(10 * d + k)
    labels = [(f, g) for f in range(-d, 2 * d) for g in range(-d, 2 * d) if (f % d, g % d) != (0, 0)]
    for _ in range(4):
        state = random_state(n, d, rng)
        for _ in range(15):
            sites = rng.permutation(n)[:k].tolist()
            choice = rng.choice(len(labels), size=k)
            targets = [(site, *labels[c]) for site, c in zip(sites, choice)]
            got = exact_hw_correlator(state, targets)
            assert abs(got - reference_exact_hw(state, targets)) <= 1e-13


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_displacement_table_matches_reference(d, k):
    # n = 3k sites, so the support has a table (D = 5, k = 3 would need
    # 5^9 amplitudes, past capacity); k = 1 and the narrower registers of
    # test_exact_correlator_matches_reference cover the rest
    rng = np.random.default_rng(50 + 10 * d + k)
    n = 3 * k
    state = random_state(n, d, rng)
    labels = [(f, g) for f in range(-d, 2 * d) for g in range(-d, 2 * d) if (f % d, g % d) != (0, 0)]
    for _ in range(15):
        sites = rng.permutation(n)[:k].tolist()
        targets = [(site, *labels[c]) for site, c in zip(sites, rng.choice(len(labels), size=k))]
        table = displacement_table(state, tuple(sites))
        assert table.shape == (d * d,) * k and not table.flags.writeable
        got = exact_hw_correlator(state, targets)
        assert got == table[tuple((f % d) * d + g % d for _, f, g in targets)]
        assert abs(got - reference_exact_hw(state, targets)) <= 1e-13
    # one site wider and the support has no table
    assert displacement_table(random_state(n - 1, d, rng), tuple(range(k))) is None


def test_displacement_tables_are_cached_within_a_budget(monkeypatch):
    state = random_state(6, 3, np.random.default_rng(51))
    first = displacement_table(state, (4, 1))
    assert displacement_table(state, [4, 1]) is first
    assert displacement_table(state, (1, 4)) is not first
    with pytest.raises(ValueError):
        first[0, 0] = 0
    # past the budget, a new table drops the others, and an equal one is rebuilt
    monkeypatch.setattr(statesim, "CAPACITY_AMPLITUDES", 3 * 81)
    for sites in [(0, 1), (2, 3)]:
        displacement_table(state, sites)
    assert len(state._tables) == 1
    again = displacement_table(state, (4, 1))
    assert again is not first and np.array_equal(again, first)


def test_exact_correlator_tables_keep_the_per_call_arithmetic():
    # on a support too wide for a displacement table, the cached (source,
    # phases) per (D, f, g, site depth) give values == to building them
    # inside each call, on a first and on a repeated call; a support with a
    # table reads a value within 1e-14 of that same per-call gather
    def per_call(state, targets):
        d, n = state.local_dim, state.num_sites
        applied = state.as_tensor()
        for site, f, g in targets:
            source = (np.arange(d) - f % d) % d
            phases = np.exp(2j * np.pi * (g % d) * source / d).reshape((d,) + (1,) * (n - 1 - site))
            applied = np.take(applied, source, axis=site) * phases
        return complex(np.vdot(state.amplitudes, applied))

    rng = np.random.default_rng(14)
    for d, n in [(2, 4), (3, 4), (5, 3)]:
        state = random_state(n, d, rng)
        labels = [(f, g) for f in range(-1, d) for g in range(d + 1) if (f % d, g % d) != (0, 0)]
        for _ in range(40):
            k = int(rng.integers(1, n + 1))
            sites = rng.permutation(n)[:k].tolist()
            targets = [(site, *labels[c]) for site, c in zip(sites, rng.choice(len(labels), size=k))]
            want = per_call(state, targets)
            if displacement_table(state, tuple(sites)) is None:
                assert exact_hw_correlator(state, targets) == want
                assert exact_hw_correlator(state, targets) == want
            else:
                assert abs(exact_hw_correlator(state, targets) - want) <= 1e-14
                assert abs(exact_hw_correlator(state, targets) - want) <= 1e-14


def test_correlators_build_no_matrix_per_call(monkeypatch):
    fid = qutrit_fiducial()
    state = random_state(3, 3, np.random.default_rng(12))
    stream = BellShotStream(3, 3, np.random.default_rng(13).integers(0, 9, size=(500, 3)))
    want = [fid.overlaps[1, 2] * fid.overlaps[2, 0], exact_hw_correlator(state, [(2, 1, 2), (0, 2, 0)])]

    def refuse(*args, **kwargs):
        raise AssertionError("a D x D matrix was built per call")

    for owner, name in [(qudit, "hw_operator"), (np, "tensordot")]:
        monkeypatch.setattr(owner, name, refuse)
    est = estimate_hw_correlator(stream, [(1, 1, 2), (0, 2, 0)], fid)
    # the shots' residue g*h - f*ell over both sites, divided by the product
    # of the two calibration factors
    h, ell = np.divmod(stream.codes.astype(np.int64), 3)
    counts = np.bincount((2 * h[:, 1] - ell[:, 1] - 2 * ell[:, 0]) % 3, minlength=3)
    mean = sum(int(c) * np.exp(2j * np.pi / 3) ** r for r, c in enumerate(counts)) / 500
    std_error = math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / 500) / abs(want[0])
    assert_within_ulps(est, (mean / want[0], std_error), fid)
    assert exact_hw_correlator(state, [(2, 1, 2), (0, 2, 0)]) == want[1]


def test_exact_correlator_matches_kron_oracle():
    state = random_state(2, 3, np.random.default_rng(40))
    targets = [(0, 1, 2), (1, 2, 1)]
    direct = exact_hw_correlator(state, targets)
    op = np.kron(hw_operator(3, 1, 2), hw_operator(3, 2, 1))
    oracle = np.vdot(state.amplitudes, op @ state.amplitudes)
    assert direct == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_qubit_displacements_equal_the_pauli_table(k):
    # two independent exact kernels: displacement tables against the
    # Walsh-Hadamard transforms of exact_all_k_rdms, with X, Z and XZ = -iY
    state = random_state(10, 2, np.random.default_rng(54))
    label = {"x": (1, 0), "z": (0, 1), "y": (1, 1)}
    for (qubits, letters), value in exact_all_k_rdms(state, k).items():
        hw = exact_hw_correlator(state, [(q, *label[a]) for q, a in zip(qubits, letters)])
        assert abs(1j ** letters.count("y") * hw - value) <= 1e-12, (qubits, letters)


def test_qutrit_estimates_against_oracle():
    fid = qutrit_fiducial()
    state = random_state(2, 3, np.random.default_rng(41))
    joint = attach_ancillas(state, fid.as_state())
    stream = sample_bell_shots(joint, 120_000, seed=42)
    for targets in [[(0, 1, 0)], [(1, 0, 1)], [(0, 2, 2)], [(0, 1, 1), (1, 2, 0)]]:
        est = estimate_hw_correlator(stream, targets, fid)
        oracle = exact_hw_correlator(state, targets)
        assert abs(est.value - oracle) <= 5 * max(est.std_error, 1e-3)


def test_qubit_case_reduces_to_rdm_estimator():
    # on qubits the displacement estimator reproduces the Pauli estimator
    fid = qubit_fiducial()
    state = random_state(2, 2, np.random.default_rng(43))
    stream = sample_bell_shots(attach_ancillas(state), 30_000, seed=44)
    for (f, g), letter in [((1, 0), "x"), ((0, 1), "z")]:
        hw = estimate_hw_correlator(stream, [(0, f, g)], fid)
        [(mean, scale, std_error)] = sign_means(stream, [((0, letter),)])
        assert hw.value.real == pytest.approx(scale * mean, abs=1e-12)
        assert abs(hw.value.imag) < 1e-12
        assert hw.std_error == pytest.approx(std_error, abs=1e-12)
    # XZ = -iY makes the (1,1) estimate -i times the y estimate
    hw = estimate_hw_correlator(stream, [(0, 1, 1)], fid)
    [(mean, scale, _)] = sign_means(stream, [((0, "y"),)])
    assert hw.value == pytest.approx(-1j * scale * mean, abs=1e-12)


def test_variance_grows_with_dimension_factor():
    # the shot cost of a degree-k correlator scales like (D+1)^k, so the
    # std ratio between k=2 and k=1 should sit near sqrt(D+1) = 2
    fid = qutrit_fiducial()
    state = random_state(2, 3, np.random.default_rng(45))
    joint = attach_ancillas(state, fid.as_state())
    v1, v2 = [], []
    for s in range(100):
        stream = sample_bell_shots(joint, 1200, seed=7000 + s)
        v1.append(estimate_hw_correlator(stream, [(0, 1, 0)], fid).value)
        v2.append(estimate_hw_correlator(stream, [(0, 1, 0), (1, 1, 0)], fid).value)
    std1 = np.std(np.abs(np.array(v1) - np.mean(v1)), ddof=1)
    std2 = np.std(np.abs(np.array(v2) - np.mean(v2)), ddof=1)
    assert 1.4 < std2 / std1 < 2.8


def reference_hw_estimate(stream: BellShotStream, targets, fid: FiducialState) -> HwEstimate:
    """Oracle HwEstimate of (site, f, g) targets in 0..D-1: every shot's residue
    sum_i g_i h_i - f_i ell_i mod D, then the sum of int(c_r) w^r in r order."""
    d, s = stream.local_dim, stream.num_shots
    h, ell = np.divmod(stream.codes.astype(np.int64), d)
    counts = np.bincount(sum(g * h[:, q] - f * ell[:, q] for q, f, g in targets) % d, minlength=d)
    omega = np.exp(2j * np.pi / d)
    mean = sum(int(c) * omega ** r for r, c in enumerate(counts)) / s
    calibration = math.prod(fid.overlaps[f, g] for _, f, g in targets)
    std_error = math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / s) / abs(calibration)
    return HwEstimate(tuple(targets), mean / calibration, std_error, s)


@pytest.mark.parametrize("shots", [2000, 30])
def test_qutrit_hw_estimates_equal_the_per_shot_oracle(monkeypatch, shots):
    # all 960 two-site correlators of two merged 6-qutrit runs: 4000 shots
    # read the displacement sums of each pair, 60 shots (fewer than the 81
    # outcome rows of a pair) sum over joint outcomes; both lie within ULPS
    # of the oracle
    fid = qutrit_fiducial()
    state = random_state(6, 3, np.random.default_rng(52))
    merged = merge_streams([sample_povm_shots(state, shots, 53 + r, ancilla=fid.as_state()) for r in range(2)])
    read = []
    monkeypatch.setattr(qudit, "outcome_sums", lambda *args: (read.append(args[1]), statesim.outcome_sums(*args))[1])
    labels = [(f, g) for f in range(3) for g in range(3) if (f, g) != (0, 0)]
    for a, b in itertools.combinations(range(6), 2):
        for p in labels:
            for q in labels:
                targets = [(a, *p), (b, *q)]
                want = reference_hw_estimate(merged, targets, fid)
                assert_within_ulps(estimate_hw_correlator(merged, targets, fid), (want.value, want.std_error), fid)
    assert len(read) == (960 if merged.num_shots < 81 else 0)


def test_qutrit_error_bars_are_calibrated():
    # over 300 seeds, |est - exact|^2 / std_error^2 averages to 1 within
    # 4 standard deviations of a one-degree-of-freedom chi-square mean,
    # 4 sqrt(2 / 300); every run draws from the CDF cached on the state
    fid = qutrit_fiducial()
    state = random_state(3, 3, np.random.default_rng(2031))
    targets = [
        [(0, 1, 0)],
        [(2, 1, 2)],
        [(0, 2, 1), (1, 1, 1)],
        [(0, 1, 2), (1, 2, 0), (2, 1, 1)],
    ]
    exact = [exact_hw_correlator(state, t) for t in targets]
    seeds = range(8000, 8300)
    ratios = np.zeros((len(seeds), len(targets)))
    for i, seed in enumerate(seeds):
        stream = sample_povm_shots(state, 2000, seed, ancilla=fid.as_state())
        for j, t in enumerate(targets):
            est = estimate_hw_correlator(stream, t, fid)
            ratios[i, j] = abs(est.value - exact[j]) ** 2 / est.std_error ** 2
    band = 4 * math.sqrt(2 / len(seeds))
    assert np.all(np.abs(ratios.mean(axis=0) - 1) <= band), ratios.mean(axis=0)


@pytest.mark.parametrize("amplitudes", [[[True, 0.0], [0.0, 0.0]], [[1, 0], [0, False]]])
def test_load_fiducial_rejects_booleans(amplitudes, tmp_path):
    # numpy would read true as 1, so the first file used to load as |0>
    path = tmp_path / "fiducial.json"
    path.write_text(json.dumps({"dimension": 2, "amplitudes": amplitudes}))
    with pytest.raises(ValueError):
        load_fiducial(str(path))


def test_fiducial_file_round_trip(tmp_path):
    fid = qutrit_fiducial()
    path = tmp_path / "fiducial.json"
    save_fiducial(fid, str(path))
    again = load_fiducial(str(path))
    assert again.dimension == 3
    assert np.allclose(again.amplitudes, fid.amplitudes)
