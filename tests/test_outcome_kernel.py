"""The shared outcome-counting kernel against per-shot reference loops.

Each reference below gathers one eigenvalue (or phase residue) per shot
and per site, the direct reading of the estimator formulas.  The kernel
sums the same integers grouped by joint outcome, so qubit and fermionic
values and standard errors must agree exactly, not within a tolerance.
Qudit means multiply and add roots of unity in another order than the
per-residue sums, so they agree within ``ULPS``; a correlator read per
outcome row agrees exactly with ``reference_row_sum_hw``, which sums the
same characters over rows counted apart, and a qubit one with the integer
sign sums of ``reference_sign_hw``.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from fermitree import fermion, qudit, statesim, tomography
from fermitree.baselines import bravyi_kitaev, jordan_wigner
from fermitree.fermion import (
    monomial_masks,
    encode_monomial,
    estimate_fermionic_rdm,
    estimate_monomial,
    sampled_fermionic_rdm,
)
from fermitree.pauli import PauliString
from fermitree.qudit import (
    estimate_hw_correlator,
    qubit_fiducial,
    qutrit_fiducial,
)
from fermitree.statesim import (
    BellShotStream,
    CapacityError,
    attach_ancillas,
    bell_exponents,
    displacement_sums,
    joint_outcomes,
    outcome_sums,
    random_state,
    sample_bell_shots,
    sample_povm_shots,
)
from fermitree.ternary import build_mapping
from fermitree.tomography import (
    BELL_EIGENVALUES,
    LETTERS,
    RdmEstimate,
    estimate_all_k_rdms,
    mask_means,
    merge_streams,
)
from oracles import (
    from_masks, reference_calibration, reference_estimate_fermionic_rdm, reference_residue_hw, reference_row_sum_hw,
    reference_sign_hw, sign_means,
)
from test_qudit import ULPS, _complex_fiducial, assert_within_ulps


def random_stream(d, num_pairs, num_shots, seed, distinct=None):
    """Uniform random codes; with ``distinct``, shots repeat that many rows."""
    rng = np.random.default_rng(seed)
    if distinct is None:
        codes = rng.integers(0, d * d, size=(num_shots, num_pairs))
    else:
        rows = rng.integers(0, d * d, size=(distinct, num_pairs))
        codes = rows[rng.integers(0, distinct, size=num_shots)]
    return BellShotStream(d, num_pairs, codes.astype(np.uint8))


def reference_sign_mean(stream, qubits, columns):
    products = np.ones(stream.num_shots, dtype=np.int8)
    for qubit, col in zip(qubits, columns):
        products *= BELL_EIGENVALUES[stream.codes[:, qubit], col]
    return int(np.sum(products, dtype=np.int64)) / stream.num_shots


def reference_rdm(stream, qubits, letters):
    s = stream.num_shots
    mean = reference_sign_mean(stream, qubits, [LETTERS.index(a) for a in letters])
    scale = math.sqrt(3.0) ** len(qubits)
    return scale * mean, scale * math.sqrt(max(0.0, 1.0 - mean * mean)) / math.sqrt(s)


def reference_monomial(stream, indices, mapping):
    s = stream.num_shots
    pauli = encode_monomial(indices, mapping)
    qubits = [q for q, _ in pauli.letters]
    mean = reference_sign_mean(stream, qubits, [LETTERS.index(a.lower()) for _, a in pauli.letters])
    scale = math.sqrt(3.0) ** pauli.weight
    return pauli.phase * scale * mean, scale * math.sqrt(max(0.0, 1.0 - mean * mean)) / math.sqrt(s)


def reference_hw(stream, targets, fiducial):
    d = fiducial.dimension
    s = stream.num_shots
    residues = np.zeros(s, dtype=np.int64)
    for site, f, g in targets:
        h = stream.codes[:, site].astype(np.int64) // d
        ell = stream.codes[:, site].astype(np.int64) % d
        residues += g * h - f * ell
    counts = np.bincount(residues % d, minlength=d)
    omega = np.exp(2j * np.pi / d)
    mean = sum(int(c) * omega ** r for r, c in enumerate(counts)) / s
    calibration = complex(np.prod([reference_calibration(fiducial, f, g) for _, f, g in targets]))
    return mean / calibration, math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / s) / abs(calibration)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sites", [(), (1,), (3, 0), (0, 2, 4), (4, 3, 2, 1, 0)])
def test_joint_outcomes_counts_every_row(d, sites):
    stream = random_stream(d, 5, 3000, seed=d)
    digits, counts = joint_outcomes(stream, sites)
    want = Counter(tuple(int(c) for c in row) for row in stream.codes[:, list(sites)])
    assert digits.dtype == np.uint8
    assert digits.shape == (len(want), len(sites))
    rows = [tuple(int(c) for c in row) for row in digits]
    assert rows == sorted(want)
    assert dict(zip(rows, counts.tolist())) == dict(want)


@pytest.mark.parametrize(
    "d,sites,num_shots",
    [
        (2, (3, 1), 3000),  # bincount on uint8 keys
        (2, (4, 0, 2, 1, 3), 5000),  # bincount on uint16 keys
        (3, (4, 0, 2, 1, 3), 2000),  # bincount on uint32 keys
        (2, (4, 0, 2, 1, 3), 20),  # 1024 possible rows on 20 shots: sorted
        (3, (2, 0, 1, 3), 40),  # 6561 possible rows on 40 shots: sorted
    ],
)
def test_count_outcomes_read_either_code_layout(d, sites, num_shots):
    codes = random_stream(d, 5, num_shots, seed=80 + d).codes
    by_column, by_row = (BellShotStream(d, 5, np.array(codes, order=o)) for o in "FC")
    assert by_column.codes.flags.f_contiguous and by_row.codes.flags.c_contiguous
    got, want = statesim._count_outcomes(by_column, sites), statesim._count_outcomes(by_row, sites)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    counted = Counter(tuple(int(c) for c in row) for row in codes[:, list(sites)])
    assert dict(zip(map(tuple, got[0].tolist()), got[1].tolist())) == dict(counted)


@pytest.mark.parametrize("d,fiducial", [(2, qubit_fiducial()), (3, qutrit_fiducial())])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_counting_branches_at_key_range_threshold(monkeypatch, d, fiducial, extra):
    # D^(2w) possible keys on w sites against ceil(D^(2w) / 32) + extra
    # shots: counted with bincount when extra >= 0 and by sorting byte rows
    # when extra = -1 (4^5 keys on 31, 32, 33 shots; 9^3 on 22, 23, 24)
    sites = (4, 0, 2, 1, 3) if d == 2 else (2, 0, 1)
    keys = d ** (2 * len(sites))
    stream = random_stream(d, len(sites), -(-keys // 32) + extra, seed=70 + 3 * d + extra)
    sorted_kinds = []
    unique = np.unique

    def recorded(values, **kwargs):
        sorted_kinds.append(values.dtype.kind)
        return unique(values, **kwargs)

    monkeypatch.setattr(np, "unique", recorded)
    digits, counts = joint_outcomes(stream, sites)
    monkeypatch.undo()
    assert sorted_kinds == (["V"] if extra < 0 else [])
    want = Counter(tuple(int(c) for c in row) for row in stream.codes[:, list(sites)])
    rows = [tuple(int(c) for c in row) for row in digits]
    assert rows == sorted(want)
    assert dict(zip(rows, counts.tolist())) == dict(want)
    assert counts.dtype == np.int64

    labels = [(f, g) for f in range(d) for g in range(d) if (f, g) != (0, 0)]
    for choice in itertools.product(labels, repeat=len(sites)):
        targets = [(site, f, g) for site, (f, g) in zip(sites, choice)]
        est = estimate_hw_correlator(stream, targets, fiducial)
        reference = reference_sign_hw if d == 2 else reference_row_sum_hw
        assert (est.value, est.std_error) == reference(stream, targets, fiducial)
    if d == 2:
        for letters in itertools.product(LETTERS, repeat=len(sites)):
            [(mean, scale, std_error)] = sign_means(stream, [tuple(zip(sites, letters))])
            assert (scale * mean, std_error) == reference_rdm(stream, sites, letters)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_qubit_estimator_is_bit_identical(k):
    stream = random_stream(2, 5, 4000, seed=10 + k, distinct=300)
    for qubits in itertools.combinations(range(5), k):
        for letters in itertools.product(LETTERS, repeat=k):
            [(mean, scale, std_error)] = sign_means(stream, [tuple(zip(qubits, letters))])
            assert (scale * mean, std_error) == reference_rdm(stream, qubits, letters)


HW_FIDUCIALS = [
    (2, qubit_fiducial()),
    (3, qutrit_fiducial()),
    (4, _complex_fiducial(4, 4)),
    (5, _complex_fiducial(5, 5)),
]


# D = 4 (a power of two) and D = 5 (a prime) stop at k = 2: k = 3 would be
# 13500 and 55296 estimator calls
@pytest.mark.parametrize(
    "d,fiducial,k",
    [
        pytest.param(d, fiducial, k, id=f"{k}-{d}-fiducial{j}")
        for j, (d, fiducial) in enumerate(HW_FIDUCIALS)
        for k in ((1, 2, 3) if d <= 3 else (1, 2))
    ],
)
def test_hw_estimator_is_bit_identical(d, fiducial, k):
    stream = random_stream(d, 4, 3000, seed=20 + k, distinct=200)
    labels = [(f, g) for f in range(d) for g in range(d) if (f, g) != (0, 0)]
    assert (1, 1) in labels
    for sites in itertools.combinations(range(4), k):
        for choice in itertools.product(labels, repeat=k):
            targets = [(site, f, g) for site, (f, g) in zip(sites, choice)]
            est = estimate_hw_correlator(stream, targets, fiducial)
            assert_within_ulps(est, reference_hw(stream, targets, fiducial), fiducial)


@pytest.mark.parametrize("j", range(len(HW_FIDUCIALS)))
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("table_fits", [False, True])
def test_residue_table_matches_per_shot_residues(monkeypatch, j, width, table_fits):
    # D^(2w) - 1 shots read each target from the joint outcomes (outcome_sums),
    # D^(2w) shots from the support's displacement sums; both lie within ULPS
    # of the per-shot reference, whatever order the sites come in
    d, fiducial = HW_FIDUCIALS[j]
    rng = np.random.default_rng(200 + 10 * d + width)
    num_shots = d ** (2 * width) - (0 if table_fits else 1)
    stream = random_stream(d, 4, num_shots, seed=210 + 10 * d + width)
    read = []
    monkeypatch.setattr(qudit, "outcome_sums", lambda *args: (read.append(args[1]), outcome_sums(*args))[1])
    labels = [(f, g) for f in range(d) for g in range(d) if (f, g) != (0, 0)]
    omega = np.exp(2j * np.pi / d)
    for _ in range(3):
        sites = tuple(rng.permutation(4)[:width].tolist())
        for choice in rng.choice(len(labels), size=(12, width)):
            targets = [(site, *labels[c]) for site, c in zip(sites, choice)]
            est = estimate_hw_correlator(stream, targets, fiducial)
            assert_within_ulps(est, reference_hw(stream, targets, fiducial), fiducial)
            if table_fits:
                h, ell = np.divmod(stream.codes.astype(np.int64), d)
                residues = sum(g * h[:, site] - f * ell[:, site] for site, f, g in targets)
                want = sum(int(c) * omega ** r for r, c in enumerate(np.bincount(residues % d, minlength=d)))
                got = displacement_sums(stream, sites)[tuple(f * d + g for _, f, g in targets)]
                assert abs(got - want) <= ULPS * num_shots
    assert len(read) == (0 if table_fits else 36)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("table_fits", [False, True])
def test_hw_estimates_lie_within_ulps_of_the_residue_reader(d, width, table_fits):
    # the means of both paths, displacement_sums and outcome_sums, each
    # within ULPS of the residue reader's, and the estimate, which reads the
    # sums when D^(2w) <= shots and the outcome rows otherwise, within
    # ULPS / |calibration| in value and std error
    fiducial = qubit_fiducial() if d == 2 else _complex_fiducial(d, d)
    num_shots = d ** (2 * width) - (0 if table_fits else 1)
    stream = random_stream(d, 4, num_shots, seed=240 + 10 * d + width)
    rng = np.random.default_rng(250 + 10 * d + width)
    labels = [(f, g) for f in range(d) for g in range(d) if (f, g) != (0, 0)]
    for _ in range(3):
        sites = tuple(rng.permutation(4)[:width].tolist())
        for choice in rng.choice(len(labels), size=(8, width)):
            targets = [(site, *labels[c]) for site, c in zip(sites, choice)]
            mean, want = reference_residue_hw(stream, targets, fiducial)
            column = [f * d + g for _, f, g in targets]
            by_table = complex(displacement_sums(stream, sites)[tuple(column)]) / num_shots
            [by_rows] = outcome_sums(stream, sites, [[c] for c in column]).tolist()
            by_rows /= num_shots
            assert abs(by_table - mean) <= ULPS and abs(by_rows - mean) <= ULPS
            est = estimate_hw_correlator(stream, targets, fiducial)
            calibration = math.prod(fiducial.overlaps[f, g] for _, f, g in targets)
            assert est.value == (by_table if table_fits else by_rows) / calibration
            assert_within_ulps(est, (want.value, want.std_error), fiducial)


def test_displacement_sums_are_cached_read_only(monkeypatch):
    built = sum_building_calls(monkeypatch)
    stream = random_stream(3, 4, 100, seed=230)
    table = displacement_sums(stream, (3, 1))
    assert table.shape == (9, 9) and table.dtype == np.complex128
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    # the identity label sums every shot's eigenvalue 1
    assert table[0, 0] == 100
    assert displacement_sums(stream, [3, 1]) is table
    assert displacement_sums(stream, (np.int64(3), np.int64(1))) is table
    assert built == [(3, 1)]
    displacement_sums(stream, (1, 3))
    assert built == [(3, 1), (1, 3)]
    # 729 rows on three sites exceed the 100 shots: the estimate reads the
    # outcome rows and builds no table
    estimate_hw_correlator(stream, [(0, 1, 0), (1, 0, 1), (2, 1, 1)], qutrit_fiducial())
    assert len(built) == 2
    # a fresh stream over the same codes builds again
    displacement_sums(BellShotStream(3, 4, stream.codes), (3, 1))
    assert len(built) == 3


def test_displacement_sums_refuse_supports_beyond_capacity(monkeypatch):
    # 9^7 and 4^11 sums exceed CAPACITY_AMPLITUDES: refused before counting
    counted = counting_calls(monkeypatch)
    for d, width in ((3, 7), (2, 11)):
        stream = random_stream(d, width, 50, seed=235 + d)
        with pytest.raises(CapacityError, match="displacement sums exceed budget"):
            displacement_sums(stream, tuple(range(width)))
        assert counted == [] and stream._tables == {}
        assert displacement_sums(stream, tuple(range(width - 1))).shape == (d * d,) * (width - 1)
        counted.clear()
    # with a budget below a qutrit pair's 81 sums, the estimate reads the
    # outcome rows although the stream has more shots than sums
    monkeypatch.setattr(qudit, "CAPACITY_AMPLITUDES", 80)
    monkeypatch.setattr(statesim, "CAPACITY_AMPLITUDES", 80)
    stream = random_stream(3, 2, 100, seed=238)
    targets = [(0, 1, 2), (1, 2, 0)]
    est = estimate_hw_correlator(stream, targets, qutrit_fiducial())
    assert (est.value, est.std_error) == reference_row_sum_hw(stream, targets, qutrit_fiducial())
    assert list(stream._tables) == [("outcomes", (0, 1))]


@pytest.mark.parametrize("width,num_shots", [(1, 500), (2, 500), (3, 500), (3, 40)])
def test_qubit_displacement_sums_are_exact_integers(width, num_shots):
    # at D = 2 every entry of both readers is an integer-valued float64, ==
    # to the sum over shots of the product of +-1 eigenvalues (-1)^e
    stream = random_stream(2, 5, num_shots, seed=260 + width + num_shots)
    signs = 1 - 2 * bell_exponents(2).reshape(4, 4).astype(np.int64)  # row f * 2 + g, column code
    rng = np.random.default_rng(270 + width)
    for _ in range(3):
        sites = tuple(rng.permutation(5)[:width].tolist())
        per_shot = [signs[:, stream.codes[:, site]] for site in sites]  # (label, shot) per site
        want = np.einsum(",".join("as bs cs".split()[:width]) + "->" + "abc"[:width], *per_shot)
        table = displacement_sums(stream, sites)
        assert table.dtype == np.float64 and table.shape == (4,) * width
        assert np.array_equal(table, want) and np.array_equal(table, np.round(table))
        columns = np.array(list(itertools.product(range(4), repeat=width))).T
        rows = outcome_sums(stream, sites, columns)
        assert rows.dtype == np.float64 and np.array_equal(rows, want.reshape(-1))


@pytest.mark.parametrize("table", [build_mapping(5).majorana_table, jordan_wigner(5), bravyi_kitaev(5)])
@pytest.mark.parametrize("degree", [2, 4])
def test_fermion_estimator_is_bit_identical(table, degree):
    stream = random_stream(2, 5, 3000, seed=30 + degree, distinct=250)
    for indices in itertools.combinations(range(1, 11), degree):
        est = estimate_monomial(stream, indices, table)
        assert (est.value, est.std_error) == reference_monomial(stream, indices, table)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_all_k_rdms_equals_per_element(k):
    stream = random_stream(2, 5, 4000, seed=40 + k, distinct=300)
    want = []
    for qubits in itertools.combinations(range(5), k):
        for letters in itertools.product(LETTERS, repeat=k):
            [(mean, scale, std_error)] = sign_means(stream, [tuple(zip(qubits, letters))])
            want.append(RdmEstimate(qubits, letters, scale * mean, std_error, stream.num_shots))
    assert estimate_all_k_rdms(stream, k) == want


def test_sampled_fermionic_rdm_equals_per_monomial():
    table = jordan_wigner(6)
    state = random_state(6, 2, np.random.default_rng(50))
    got = sampled_fermionic_rdm(state, table, 2, 5000, seed=51)
    stream = sample_bell_shots(attach_ancillas(state), 5000, seed=51)
    want = [
        estimate_monomial(stream, indices, table)
        for indices in itertools.combinations(range(1, 13), 4)
    ]
    assert got == want


@pytest.mark.parametrize("table", [jordan_wigner(4), bravyi_kitaev(4), build_mapping(4)])
def test_sampled_fermionic_rdm_is_the_estimate_on_one_stream(table):
    state = random_state(4, 2, np.random.default_rng(53))
    stream = sample_povm_shots(state, 3000, 54)
    want = sampled_fermionic_rdm(state, table, 2, 3000, 54)
    assert estimate_fermionic_rdm(stream, table, 2) == want


def test_sampled_fermionic_rdm_rejects_mapping_beyond_register():
    # the second table is 2 modes long, but its X2 acts outside 2 qubits
    state = random_state(2, 2, np.random.default_rng(52))
    for table in (jordan_wigner(3), [PauliString.from_map({2: "X"})] * 4):
        with pytest.raises(ValueError, match="outside the register"):
            sampled_fermionic_rdm(state, table, 1, 100, seed=1)


def test_keys_beyond_int64_are_compacted():
    # 4^40 and 9^24 joint outcomes exceed the int64 key range, so counting
    # all pairs sorts whole byte rows; repeated rows keep counts above 1
    stream = random_stream(2, 40, 3000, seed=60, distinct=150)
    qutrits = random_stream(3, 24, 3000, seed=62, distinct=150)
    for each in (stream, qutrits):
        digits, counts = joint_outcomes(each, tuple(range(each.num_pairs)))
        want = Counter(tuple(int(c) for c in row) for row in each.codes)
        rows = [tuple(int(c) for c in row) for row in digits]
        assert rows == sorted(want)
        assert dict(zip(rows, counts.tolist())) == dict(want)

    sites = tuple(range(40))
    rng = np.random.default_rng(61)
    letters = tuple(rng.choice(LETTERS, size=40))
    [(mean, scale, std_error)] = sign_means(stream, [tuple(zip(sites, letters))])
    assert (scale * mean, std_error) == reference_rdm(stream, sites, letters)

    table = jordan_wigner(40)
    assert encode_monomial((1, 80), table).weight == 40
    est = estimate_monomial(stream, (1, 80), table)
    assert (est.value, est.std_error) == reference_monomial(stream, (1, 80), table)

    targets = [(site, 1, 1) for site in range(24)]
    est = estimate_hw_correlator(qutrits, targets, qutrit_fiducial())
    assert (est.value, est.std_error) == reference_row_sum_hw(qutrits, targets, qutrit_fiducial())


def test_sign_means_follow_input_order():
    # supports come shuffled, repeated and overlapping, qubits unsorted and
    # letters in both cases, as no estimator passes them
    stream = random_stream(2, 5, 3000, seed=80, distinct=200)
    rng = np.random.default_rng(81)
    strings = []
    for _ in range(60):
        qubits = rng.choice(5, size=int(rng.integers(1, 4)), replace=False).tolist()
        strings.append(tuple(zip(qubits, rng.choice(list("xyzXYZ"), size=len(qubits)).tolist())))
    strings += strings[:7]
    got = sign_means(stream, strings)
    assert len(got) == len(strings)
    for string, (mean, scale, std_error) in zip(strings, got):
        columns = [LETTERS.index(a.lower()) for _, a in string]
        want = reference_sign_mean(stream, [q for q, _ in string], columns)
        assert (mean, scale) == (want, math.sqrt(3.0) ** len(string))
        assert std_error == scale * math.sqrt(max(0.0, 1.0 - want * want)) / math.sqrt(3000)
    assert sign_means(stream, strings[::-1]) == got[::-1]


ESTIMATORS = {
    "rdm_element": lambda stream: sign_means(stream, [((0, "x"),)]),
    "all_k_rdms": lambda stream: estimate_all_k_rdms(stream, 1),
    "monomial": lambda stream: estimate_monomial(stream, (1, 2), jordan_wigner(2)),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@pytest.mark.parametrize("kind", ["empty", "qutrit"])
def test_estimators_reject_bad_streams(name, kind):
    if kind == "empty":
        stream = BellShotStream(2, 2, np.empty((0, 2), dtype=np.uint8))
    else:
        stream = random_stream(3, 2, 100, seed=83)
    with pytest.raises(ValueError):
        ESTIMATORS[name](stream)


def test_estimators_reject_qubits_beyond_register():
    stream = random_stream(2, 2, 100, seed=84)
    # gamma_6 of three Jordan-Wigner modes is Z0 Z1 Y2
    with pytest.raises(ValueError):
        estimate_monomial(stream, (1, 6), jordan_wigner(3))
    with pytest.raises(ValueError):
        sign_means(stream, [((3, "x"), (0, "y"))])
    with pytest.raises(ValueError):
        sign_means(stream, [((-1, "z"),)])


def reference_sign_means(stream, strings):
    s = stream.num_shots
    out = []
    for string in strings:
        columns = [LETTERS.index(a.lower()) for _, a in string]
        mean = reference_sign_mean(stream, [q for q, _ in string], columns)
        scale = math.sqrt(3.0) ** len(string)
        out.append((mean, scale, scale * math.sqrt(max(0.0, 1.0 - mean * mean)) / math.sqrt(s)))
    return out


def test_sign_means_read_identity_strings():
    # an empty string is the identity: mean 1, scale 1, no error
    stream = random_stream(2, 4, 500, seed=85)
    strings = [(), ((2, "x"),), (), ((0, "Z"), (3, "y")), ()]
    got = sign_means(stream, strings)
    assert got == reference_sign_means(stream, strings)
    assert [got[i] for i in (0, 2, 4)] == [(1.0, 1.0, 0.0)] * 3
    assert sign_means(stream, [()]) == [(1.0, 1.0, 0.0)]
    assert sign_means(stream, []) == []


@pytest.mark.parametrize("width", [7, 9])
def test_sign_means_on_wide_support_sorts_byte_rows(width):
    # 4^width possible rows against 300 shots: joint_outcomes sorts byte rows
    stream = random_stream(2, 10, 300, seed=86 + width, distinct=120)
    rng = np.random.default_rng(88 + width)
    support = rng.choice(10, size=width, replace=False).tolist()
    assert 4 ** width > stream.num_shots
    strings = [tuple(zip(support, rng.choice(list("xyzXYZ"), size=width).tolist())) for _ in range(40)]
    strings += [tuple(zip(support[::-1], "xyz" * 3)), ((support[0], "y"),)]
    assert sign_means(stream, strings) == reference_sign_means(stream, strings)


def test_sign_means_read_generators_like_lists():
    stream = random_stream(2, 5, 2000, seed=89, distinct=150)
    letters = list(itertools.product("xyz", repeat=3))
    keys = [(q, a) for q in itertools.combinations(range(5), 3) for a in letters]
    strings = [tuple(zip(q, a)) for q, a in keys]
    got = sign_means(stream, (tuple(zip(q, a)) for q, a in keys))
    assert got == sign_means(stream, strings)
    assert got == reference_sign_means(stream, strings)
    assert all(type(value) is float for triple in got for value in triple)


@pytest.mark.parametrize("n", range(1, 11))
def test_mask_means_match_the_per_shot_reference(n):
    # random masks with repeats and identity strings; 60 shots count the
    # supports of up to 2 qubits with bincount and sort byte rows beyond,
    # 3000 shots switch at 6 qubits
    rng = np.random.default_rng(100 + n)
    x, z = rng.integers(0, 2 ** n, size=(2, 80))
    x[:3] = z[:3] = 0
    x[70:], z[70:] = x[10:20], z[10:20]
    strings = [from_masks((a, b, 0), n).letters for a, b in zip(x.tolist(), z.tolist())]
    widths = {len(string) for string in strings}
    for shots in (60, 3000):
        stream = random_stream(2, n, shots, seed=110 + n, distinct=40)
        got = mask_means(stream, x, z)
        assert [(a.dtype, a.shape) for a in got] == [(np.float64, (80,))] * 3
        assert list(zip(*(a.tolist() for a in got))) == reference_sign_means(stream, strings)
        assert got[0][0] == got[1][0] == 1.0 and got[2][0] == 0.0
        order = rng.permutation(80)
        for shuffled, column in zip(mask_means(stream, x[order], z[order]), got):
            assert np.array_equal(shuffled, column[order])
    if n >= 6:
        assert min(widths) <= 5 and max(widths) >= 6
    assert min(widths) == 0


def test_mask_means_reject_bad_streams_and_masks():
    stream = random_stream(2, 3, 100, seed=120)
    for x, z in [([1, 2], [1]), ([[1]], [[1]]), ([-1], [0]), ([0], [-4]), ([8], [0]), ([1], [16])]:
        with pytest.raises(ValueError):
            mask_means(stream, x, z)
    assert [a.tolist() for a in mask_means(stream, [], [])] == [[], [], []]
    for bad in (
        random_stream(3, 3, 100, seed=121),
        BellShotStream(2, 3, np.empty((0, 3), dtype=np.uint8)),
        random_stream(2, 64, 10, seed=122),
    ):
        with pytest.raises(ValueError):
            mask_means(bad, [1], [0])
    with pytest.raises(ValueError, match="63 qubits"):
        sign_means(random_stream(2, 64, 10, seed=122), [((0, "x"),)])


def reader_cases():
    """(stream, x, z) cases for both mask readers, each at 40 shots (more
    possible rows than shots on any 3 sites: byte rows sorted) and at 3000
    (bincount on up to 5 sites)."""
    rng = np.random.default_rng(130)
    x, z = rng.integers(0, 2 ** 5, size=(2, 30))
    narrow = np.array([0b010010000, 0b010000000, 0b000010000, 0, 0b010010000])  # qubits 1, 4 of 9
    masks = {
        "identity": (5, [0, 0, 0], [0, 0, 0]),
        "one-string": (5, [0b10110], [0b00111]),
        "repeated": (5, [0b00001, 0b10000, 0b00001, 0b10000], [0b00001, 0b10001, 0b00001, 0b10001]),
        "random": (5, x, z),
        "narrow-union": (9, narrow, narrow[::-1] & 0b010000000),
    }
    return [
        pytest.param(random_stream(2, n, shots, seed=131 + shots, distinct=25), x, z, id=f"{name}-{shots}")
        for name, (n, x, z) in masks.items()
        for shots in (40, 3000)
    ]


@pytest.mark.parametrize("stream,x,z", reader_cases())
def test_mask_readers_agree_with_each_other_and_the_reference(stream, x, z):
    n = stream.num_pairs
    x, z = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
    union = int(np.bitwise_or.reduce(x | z))
    sites = [q for q in range(n) if union >> (n - 1 - q) & 1]
    transformed = tomography._transform_means(stream, x, z, sites)
    per_support = tomography._support_means(stream, x, z)
    strings = [from_masks((a, b, 0), n).letters for a, b in zip(x.tolist(), z.tolist())]
    want = [np.array(column) for column in zip(*reference_sign_means(stream, strings))]
    for got in (transformed, per_support):
        assert [a.dtype for a in got] == [np.float64] * 3
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in zip(transformed, per_support))


def test_mask_means_reads_the_benchmark_shapes_on_opposite_paths(monkeypatch):
    # fermion-rdm (ternary, n = 8, k = 2: 1820 strings over 4^8 bins) takes
    # the transform, qubit-tomography (n = 10, k = 2: 405 strings over 4^10
    # bins) the per-support reader
    taken = []

    def recorded(name):
        reader = getattr(tomography, name)

        def read(*args):
            taken.append(name)
            return reader(*args)

        return read

    for name in ("_transform_means", "_support_means"):
        monkeypatch.setattr(tomography, name, recorded(name))
    assert len(estimate_fermionic_rdm(random_stream(2, 8, 200, seed=140), build_mapping(8), 2)) == 1820
    assert len(estimate_all_k_rdms(random_stream(2, 10, 200, seed=141), 2)) == 405
    assert taken == ["_transform_means", "_support_means"]


def test_mask_means_takes_the_transform_for_few_wide_supports(monkeypatch):
    # Jordan-Wigner k = 1 at n = 9 and 10 has over 256 bins per string, but
    # at 24576 shots at most 14 bins per row of the per-support reader (1.8
    # and 4.3); ternary k = 1 at n = 10 has 94 and stays per support
    support_means = tomography._support_means
    taken = []
    for name in ("_transform_means", "_support_means"):
        reader = getattr(tomography, name)
        monkeypatch.setattr(tomography, name, lambda *args, name=name, reader=reader: (
            taken.append(name), reader(*args))[1])
    for n, table, path in (
        (9, jordan_wigner(9), "_transform_means"),
        (10, jordan_wigner(10), "_transform_means"),
        (10, build_mapping(10), "_support_means"),
    ):
        x, z, _ = monomial_masks(table, 1, n)[1]
        stream = random_stream(2, n, 24576, seed=150 + n)
        got = mask_means(stream, x, z)
        assert taken == [path]
        taken.clear()
        # the transform keeps the union's counts, not its 4^n sums
        assert [kind for kind, _ in stream._tables] == ["outcomes"] * len(stream._tables)
        assert all(np.array_equal(a, b) for a, b in zip(got, support_means(stream, x, z)))


def test_qubit_characters_are_the_eigenvalue_table():
    # column 2 x + z, as the qubit readers code a letter: identity, z, x and
    # XZ, whose sign a Y letter flips (Y (x) Y = -XZ (x) XZ)
    characters = statesim._characters(2)
    assert characters.dtype == np.float64 and not characters.flags.writeable
    letters = {1: "z", 2: "x", 3: "y"}
    for code in range(4):
        assert characters[code, 0] == 1
        for column, letter in letters.items():
            sign = -1 if letter == "y" else 1
            assert sign * characters[code, column] == BELL_EIGENVALUES[code, LETTERS.index(letter)]
            assert from_masks((column >> 1, column & 1, 0), 1).letters == ((0, letter.upper()),)


@pytest.mark.parametrize("kind", ["ternary", "jw", "bk"])
@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (5, 3)])
def test_fermionic_rdm_from_masks_matches_the_pauli_string_path(kind, n, k):
    # every field, float against complex and signed zeros included
    table = {"ternary": build_mapping, "jw": jordan_wigner, "bk": bravyi_kitaev}[kind](n)
    stream = sample_povm_shots(random_state(n, 2, np.random.default_rng(123 + n)), 2000, 124 + k)
    got = estimate_fermionic_rdm(stream, table, k)
    assert repr(got) == repr(reference_estimate_fermionic_rdm(stream, table, k))
    assert len(got) == math.comb(2 * n, 2 * k)
    masks = monomial_masks(table, k, n)[1]
    paulis = [from_masks(product, n) for product in zip(*(m.tolist() for m in masks))]
    assert [e.pauli for e in got] == [str(p) for p in paulis]


@pytest.mark.parametrize("kind", ["ternary", "jw", "bk"])
@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (5, 3)])
def test_fermionic_estimates_render_their_text_only_on_read(monkeypatch, kind, n, k):
    rendered = []
    render = fermion.masks_text

    def recorded(masks, num_qubits):
        rendered.append(masks)
        return render(masks, num_qubits)

    monkeypatch.setattr(fermion, "masks_text", recorded)
    table = {"ternary": build_mapping, "jw": jordan_wigner, "bk": bravyi_kitaev}[kind](n)
    state = random_state(n, 2, np.random.default_rng(125 + n))
    stream = sample_povm_shots(state, 2000, 126 + k)
    got = estimate_fermionic_rdm(stream, table, k)
    assert sampled_fermionic_rdm(state, table, k, 2000, 126 + k) == got
    assert rendered == []
    for est in got:
        assert est.pauli == str(encode_monomial(est.indices, table))
    assert len(rendered) == math.comb(2 * n, 2 * k)


def counting_calls(monkeypatch):
    """Record the supports that ``joint_outcomes`` counts rather than reads from its cache."""
    counted = []
    count = statesim._count_outcomes

    def recorded(stream, sites):
        counted.append(sites)
        return count(stream, sites)

    monkeypatch.setattr(statesim, "_count_outcomes", recorded)
    return counted


def sum_building_calls(monkeypatch):
    """Record the supports whose table ``displacement_sums`` builds rather than reads."""
    built = []
    build = statesim._sum_displacements

    def recorded(stream, sites):
        built.append(sites)
        return build(stream, sites)

    monkeypatch.setattr(statesim, "_sum_displacements", recorded)
    return built


@pytest.mark.parametrize("d,num_shots", [(2, 3000), (3, 40)])
def test_joint_outcomes_counts_each_support_once(monkeypatch, d, num_shots):
    # two qubit sites on 3000 shots and two qutrit sites on 40 shots, both
    # keyed with bincount (16 and 81 possible rows, at most 32 per shot)
    counted = counting_calls(monkeypatch)
    stream = random_stream(d, 4, num_shots, seed=90 + d)
    digits, counts = joint_outcomes(stream, (3, 1))
    assert not digits.flags.writeable and not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0] = 0
    again = joint_outcomes(stream, [3, 1])
    assert again[0] is digits and again[1] is counts
    assert joint_outcomes(stream, (np.int64(3), np.int64(1)))[1] is counts
    assert counted == [(3, 1)]
    joint_outcomes(stream, (1, 3))
    assert counted == [(3, 1), (1, 3)]
    # a fresh stream over the same codes counts again
    joint_outcomes(BellShotStream(d, 4, stream.codes), (3, 1))
    assert len(counted) == 3


def test_qutrit_hw_sized_stream_counts_fifteen_tables(monkeypatch):
    # two 2000-shot runs on 6 qutrits, merged, read for every two-site
    # correlator: 960 targets over C(6, 2) = 15 supports
    fid = qutrit_fiducial()
    state = random_state(6, 3, np.random.default_rng(95))
    parts = [sample_povm_shots(state, 2000, 96 + r, ancilla=fid.as_state()) for r in range(2)]
    joint_outcomes(parts[0], (0, 1))
    counted = counting_calls(monkeypatch)
    tabled = sum_building_calls(monkeypatch)
    merged = merge_streams(parts)
    labels = [(f, g) for f in range(3) for g in range(3) if (f, g) != (0, 0)]
    targets = [
        ((a, *fa), (b, *fb))
        for a, b in itertools.combinations(range(6), 2)
        for fa in labels
        for fb in labels
    ]
    assert len(targets) == 960
    for pair in targets:
        estimate_hw_correlator(merged, pair, fid)
    # 81 possible rows per pair against 4000 shots: one table of displacement sums each
    assert sorted(counted) == list(itertools.combinations(range(6), 2))
    assert sorted(tabled) == list(itertools.combinations(range(6), 2))


def test_cached_tables_leave_every_estimate_unchanged():
    # each result equals the one read from a fresh stream over copied codes
    # (an empty cache), whatever order the targets come in
    rng = np.random.default_rng(97)
    fid = qutrit_fiducial()
    qutrits = random_stream(3, 4, 2000, seed=98, distinct=300)
    labels = [(f, g) for f in range(3) for g in range(3) if (f, g) != (0, 0)]
    hw_targets = [
        [(site, *labels[c]) for site, c in zip(rng.permutation(4)[:k].tolist(), rng.choice(8, size=k))]
        for k in (1, 2, 2, 3) * 30
    ]
    warm = [estimate_hw_correlator(qutrits, t, fid) for t in hw_targets]
    order = rng.permutation(len(hw_targets))
    fresh = BellShotStream(3, 4, qutrits.codes.copy())
    for i in order:
        assert estimate_hw_correlator(fresh, hw_targets[i], fid) == warm[i]

    qubits = random_stream(2, 5, 3000, seed=99, distinct=250)
    strings = [
        tuple(zip(rng.permutation(5)[:k].tolist(), rng.choice(list("xyz"), size=k).tolist()))
        for k in (1, 2, 3) * 40
    ]
    warm = sign_means(qubits, strings)
    order = rng.permutation(len(strings))
    fresh = BellShotStream(2, 5, qubits.codes.copy())
    assert sign_means(fresh, [strings[i] for i in order]) == [warm[i] for i in order]
    fresh = BellShotStream(2, 5, qubits.codes.copy())
    for i in order:
        assert sign_means(fresh, [strings[i]]) == [warm[i]]
