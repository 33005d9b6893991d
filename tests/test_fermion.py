"""Tests for the fermionic RDM pipeline."""

import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest

from fermitree.baselines import bravyi_kitaev, jordan_wigner
from fermitree.fermion import (
    FermionEstimate,
    monomial_masks,
    attenuation_bound,
    encode_fock_state,
    encode_monomial,
    encoded_vacuum,
    estimate_fermionic_rdm,
    estimate_monomial,
    exact_fermionic_rdm,
    majorana_table,
    number_operator_strings,
    sampled_fermionic_rdm,
)
from fermitree.pauli import PauliString, to_masks
from fermitree.statesim import (
    BellShotStream,
    attach_ancillas,
    expectation,
    random_state,
    sample_bell_shots,
    sample_povm_shots,
)
from fermitree.ternary import build_mapping
from oracles import from_masks, mask_product, reference_masks_matvec, to_dense

ALL_MAPPINGS = [
    ("ternary", lambda n: build_mapping(n)),
    ("jw", jordan_wigner),
    ("bk", bravyi_kitaev),
]


def test_encode_monomial_jw():
    table = jordan_wigner(2)
    assert str(encode_monomial((1, 2), table)) == "+i Z0"
    assert str(encode_monomial((1, 3), table)) == "-i Y0 X1"
    assert encode_monomial((), table) == PauliString.identity()
    with pytest.raises(ValueError):
        encode_monomial((5,), table)


@pytest.mark.parametrize("kind,build", ALL_MAPPINGS)
def test_register_mask_products_match_string_products(kind, build):
    # every degree-2k monomial, k <= 2, of every table up to n = 10, k = 3 up
    # to n = 7 (C(14, 6) = 3003 monomials), and the one monomial of all 2n
    # operators (k = n)
    for n in range(1, 11):
        table = majorana_table(build(n))
        masks = [to_masks(op, n) for op in table]
        for k in sorted({1, 2, n, *([3] if n <= 7 else [])}):
            # k past the mode count has no monomials, and monomial_masks rejects it
            listed, arrays = monomial_masks(table, k, n) if k <= n else ([], ([], [], []))
            rows = iter(zip(listed, *(list(a) for a in arrays)))
            for indices in itertools.combinations(range(1, 2 * n + 1), 2 * k):
                expected = functools.reduce(operator.mul, (table[u - 1] for u in indices))
                product = functools.reduce(mask_product, (masks[u - 1] for u in indices))
                encoded = from_masks(product, n)
                assert (encoded.letters, encoded.phase_power) == (expected.letters, expected.phase_power)
                # the vectorised products, row for row in the same order
                assert next(rows) == (indices, *product)
            assert next(rows, None) is None


# sha256 of repr(indices) and the little-endian bytes of x, z and power from
# monomial_masks(table, k, n), as the one-factor-per-column build printed
# them: sizes past the row-for-row check above
MONOMIAL_MASKS_SHA256 = {
    ("ternary", 13, 2): "ba7918914c03f244713528bc3880bc934bdeaccb724ae1f0ab4701bf845d5211",
    ("ternary", 10, 3): "223ce588f6d9e765d0fc40b62a4115a58fa474ff7a0e8874309f20ee4c337952",
    ("ternary", 63, 1): "f158ad83a78771cfa2da8aac191682b78adedd59cd7ff485311f3fe92150436b",
    ("jw", 10, 2): "8b74e69c4068f9d0b4ed6934d612c8b930f31ba06f558fb857d59f5d05b4056b",
    ("bk", 10, 2): "a1fdfee9171147a8633ed9d5c6039a8790f0b9b6e00ebde7d52f8f7a119f7fd2",
}


@pytest.mark.parametrize("kind,n,k", sorted(MONOMIAL_MASKS_SHA256))
def test_monomial_masks_digests_are_unchanged(kind, n, k):
    indices, masks = monomial_masks(dict(ALL_MAPPINGS)[kind](n), k, n)
    digest = hashlib.sha256(repr(indices).encode())
    for array in masks:
        assert array.dtype == np.int64 and array.shape == (math.comb(2 * n, 2 * k),)
        digest.update(array.astype("<i8").tobytes())
    assert digest.hexdigest() == MONOMIAL_MASKS_SHA256[kind, n, k]


def test_encode_monomial_matches_dense_oracle():
    # the encoded product must equal the matrix product of encoded factors
    mapping = build_mapping(2)
    for indices in [(1, 2), (2, 3), (1, 4), (1, 2, 3, 4)]:
        lhs = to_dense(encode_monomial(indices, mapping), 2)
        rhs = np.eye(4, dtype=complex)
        for u in indices:
            rhs = rhs @ to_dense(mapping.majorana_table[u - 1], 2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_number_operator_strings_jw():
    assert [str(op) for op in number_operator_strings(jordan_wigner(2))] == [
        "- Z0",
        "- Z1",
    ]


def test_encoded_vacuum_jw_is_all_zeros():
    vac = encoded_vacuum(jordan_wigner(3))
    want = np.zeros(8)
    want[0] = 1.0
    assert np.allclose(vac.amplitudes, want)


@pytest.mark.parametrize("kind,factory", ALL_MAPPINGS)
def test_vacuum_and_fock_occupations(kind, factory):
    mapping = factory(3)
    vac = encoded_vacuum(mapping)
    fock = encode_fock_state(mapping, (1, 0, 1))
    for j, n_op in enumerate(number_operator_strings(mapping)):
        occ_vac = (1 + expectation(vac, n_op).real) / 2
        occ_fock = (1 + expectation(fock, n_op).real) / 2
        assert occ_vac == pytest.approx(0.0, abs=1e-10)
        assert occ_fock == pytest.approx((1, 0, 1)[j], abs=1e-10)


def test_double_occupation_is_forbidden():
    mapping = jordan_wigner(2)
    fock = encode_fock_state(mapping, (1, 1))
    table = mapping
    # applying a creation operator to an occupied mode annihilates the state
    vec = fock.amplitudes
    from fermitree.statesim import masks_matvec

    raised = masks_matvec(to_masks(table[0], 2), vec, 2)
    raised = raised - 1j * masks_matvec(to_masks(table[1], 2), vec, 2)
    assert np.linalg.norm(raised) == pytest.approx(0.0, abs=1e-10)


def test_encode_fock_state_guards():
    mapping = jordan_wigner(2)
    with pytest.raises(ValueError):
        encode_fock_state(mapping, (1,))
    with pytest.raises(ValueError):
        encode_fock_state(mapping, (2, 0))


def test_exact_rdm_jw_fock_values():
    mapping = jordan_wigner(2)
    fock = encode_fock_state(mapping, (1, 0))
    table = exact_fermionic_rdm(fock, mapping, 1)
    assert len(table) == 6
    # <gamma_1 gamma_2> = -i(2 n_1 - 1) = -i on an occupied mode
    assert table[(1, 2)] == pytest.approx(-1j, abs=1e-12)
    assert table[(3, 4)] == pytest.approx(1j, abs=1e-12)
    for indices in [(1, 3), (1, 4), (2, 3), (2, 4)]:
        assert abs(table[indices]) < 1e-12


def test_exact_rdm_validation():
    mapping = jordan_wigner(2)
    fock = encode_fock_state(mapping, (1, 0))
    with pytest.raises(ValueError):
        exact_fermionic_rdm(fock, mapping, 0)
    with pytest.raises(ValueError):
        exact_fermionic_rdm(fock, mapping, 3)
    with pytest.raises(ValueError, match="outside the register"):
        exact_fermionic_rdm(random_state(1, 2, np.random.default_rng(0)), mapping, 1)


@pytest.mark.parametrize("kind,build", ALL_MAPPINGS)
def test_exact_rdm_equals_expectation_of_encoded_strings(kind, build):
    # the mask products feed the same kernel as the encoded strings, bit for bit
    mapping = build(5)
    state = random_state(5, 2, np.random.default_rng(8))
    for indices, value in exact_fermionic_rdm(state, mapping, 2).items():
        oracle = expectation(state, encode_monomial(indices, mapping))
        assert (value.real, value.imag) == (oracle.real, oracle.imag)


@pytest.mark.parametrize("kind,build", ALL_MAPPINGS)
def test_exact_rdm_equals_per_monomial_oracle_gathers(kind, build):
    # the blocked Walsh-Hadamard transforms give every value of one scalar
    # gather and np.vdot per monomial to within 4 n ulps of 1, the real and
    # imaginary parts apart; at n = 10, k = 2 the 4845 strings span 16 blocks
    rng = np.random.default_rng(64)
    for n in range(1, 11):
        table = majorana_table(build(n))
        masks = [to_masks(op, n) for op in table]
        state = random_state(n, 2, rng)
        amps = state.amplitudes
        for k in (1, 2) if n > 1 else (1,):
            exact = exact_fermionic_rdm(state, table, k)
            assert len(exact) == math.comb(2 * n, 2 * k)
            for indices, value in exact.items():
                product = functools.reduce(mask_product, (masks[u - 1] for u in indices))
                oracle = complex(np.vdot(amps, reference_masks_matvec(product, amps, n)))
                assert abs(value.real - oracle.real) <= 4 * n * 2.0 ** -52
                assert abs(value.imag - oracle.imag) <= 4 * n * 2.0 ** -52


def test_exact_rdm_memory_is_bounded_by_the_gather_block():
    # one gather over all 4845 rows at once would hold at least 4845 * 1024
    # complex amplitudes (79 MB); blocks of GATHER_BLOCK amplitudes keep the
    # whole table to a few MB
    mapping = build_mapping(10)
    state = random_state(10, 2, np.random.default_rng(65))
    tracemalloc.start()
    try:
        exact_fermionic_rdm(state, mapping, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("k", [1, 2])
def test_mapping_equivalence_exact_rdms(k):
    # the same Fock state must give identical RDM tables in all encodings
    tables = {}
    for kind, factory in ALL_MAPPINGS:
        mapping = factory(3)
        state = encode_fock_state(mapping, (1, 1, 0))
        tables[kind] = exact_fermionic_rdm(state, mapping, k)
    for indices in tables["ternary"]:
        vals = [tables[kind][indices] for kind, _ in ALL_MAPPINGS]
        assert abs(vals[0] - vals[1]) < 1e-10
        assert abs(vals[0] - vals[2]) < 1e-10


def test_majorana_expectation_norm_bound():
    # sum_u <gamma_u>^2 <= 1 for any state and any valid encoding
    for kind, factory in ALL_MAPPINGS:
        mapping = factory(2)
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_state(2, 2, rng)
            total = 0.0
            for u in range(1, 5):
                total += expectation(state, encode_monomial((u,), mapping)).real ** 2
            assert total <= 1 + 1e-9


def test_estimate_monomial_fields():
    mapping = build_mapping(2)
    state = random_state(2, 2, np.random.default_rng(50))
    stream = sample_bell_shots(attach_ancillas(state), 20_000, seed=51)
    est = estimate_monomial(stream, (1, 2), mapping)
    pauli = encode_monomial((1, 2), mapping)
    assert est.weight == pauli.weight
    assert est.attenuation == pytest.approx(math.sqrt(3.0) ** pauli.weight)
    assert est.pauli == str(pauli)
    oracle = expectation(state, pauli)
    assert abs(est.value - oracle) <= 5 * max(est.std_error, 1e-3)


def test_estimate_monomial_merge_exactness():
    mapping = build_mapping(2)
    state = random_state(2, 2, np.random.default_rng(52))
    stream = sample_bell_shots(attach_ancillas(state), 5000, seed=53)
    full = estimate_monomial(stream, (2, 4), mapping)
    # exact integer accumulation: recomputing on a reordered partition of
    # the same shots gives bit-identical values
    reordered = BellShotStream(2, 2, np.concatenate([stream.codes[2500:], stream.codes[:2500]]))
    again = estimate_monomial(reordered, (2, 4), mapping)
    assert full.value == again.value


def test_sampled_rdm_against_oracle():
    mapping = build_mapping(2)
    state = random_state(2, 2, np.random.default_rng(54))
    estimates = sampled_fermionic_rdm(state, mapping, 1, 50_000, seed=55)
    exact = exact_fermionic_rdm(state, mapping, 1)
    assert len(estimates) == 6
    for est in estimates:
        assert abs(est.value - exact[est.indices]) <= 5 * max(est.std_error, 1e-3)
        assert est.attenuation <= attenuation_bound(mapping, 1)


def test_sampled_rdm_validation():
    mapping = build_mapping(2)
    state = random_state(2, 2, np.random.default_rng(56))
    with pytest.raises(ValueError):
        sampled_fermionic_rdm(state, mapping, 0, 100, seed=1)
    with pytest.raises(ValueError):
        sampled_fermionic_rdm(state, mapping, 3, 100, seed=1)


def test_attenuation_bound_values():
    assert attenuation_bound(build_mapping(3), 1) == 7.0
    assert attenuation_bound(jordan_wigner(2), 2) == 25.0


@pytest.mark.parametrize("k", [1, 2])
def test_ternary_attenuation_stays_below_the_bound_at_every_size(k):
    # the largest sqrt(3)^weight over every degree-2k monomial's string, up
    # to 63 modes for k = 1, where the ratio peaks (0.995 at n = 23), and to
    # 26 modes for k = 2 (C(52, 4) = 270725 strings; the ratio peaks at
    # 0.198, n = 17)
    for n in range(k, 64 if k == 1 else 27):
        mapping = build_mapping(n)
        _, (x, z, _) = monomial_masks(mapping, k, n)
        weight = int(sum(((x | z) >> bit) & 1 for bit in range(n)).max())
        assert math.sqrt(3.0) ** weight <= attenuation_bound(mapping, k), (n, weight)


@pytest.mark.parametrize("kind,table,weight", [("jw", jordan_wigner, 6), ("bk", bravyi_kitaev, 5)])
def test_other_tables_exceed_the_attenuation_bound(kind, table, weight):
    # the bound is a claim about ternary tables only: at n = 6, k = 1 the
    # JW and BK tables reach sqrt(3)^6 = 27 and sqrt(3)^5 = 15.6, against
    # (2n+1)^k = 13 (the max_attenuation and attenuation_bound of
    # `fermitree tomograph --fermionic --modes 6 --k 1 --kind jw|bk`)
    mapping = table(6)
    _, (x, z, _) = monomial_masks(mapping, 1, 6)
    assert max(bin(support).count("1") for support in (x | z).tolist()) == weight
    assert attenuation_bound(mapping, 1) == 13.0 < math.sqrt(3.0) ** weight


# sha256 of repr(estimate_fermionic_rdm(stream, table, k)) for each table
# kind at n = 8 and k = 1, 2, 3, on one 4096-shot stream
# (sample_povm_shots(random_state(8, 2, np.random.default_rng(801)), 4096, 802)),
# as the generated-init FermionEstimate printed them
ESTIMATE_REPR_SHA256 = {
    ("ternary", 1): "07c34a8867428e45c0f0ea87a02f09c378ee3afa34ef8d965a64d9186ef79a5a",
    ("ternary", 2): "fbfcf9f75b502e4d87f65a79d13bea7871a4f061cf9fde9e853317e5df3e0fe4",
    ("ternary", 3): "632bc075ba9a66e1e29e7aae7622d11f3317ca79e2ff41f3c37d25727704563f",
    ("jw", 1): "107da1154bd6bcecdeaf0ff90a8ad123e6f187386a84203adcf2cf1307a4cbf1",
    ("jw", 2): "792c6f0859186834aeba640d68eb5e86aeab1c36092cb09c8d282d813dc33cac",
    ("jw", 3): "2e5dde8933b58ed21da0eaec6f2c9949b8a5b112b1ecb0e61bf94148a145a941",
    ("bk", 1): "b4c37b41e44c1fa5d7dafd97044d8d323b08d523d75a3747f96464ccaa79106d",
    ("bk", 2): "ecbe0984f08038378db1fa870636c770486e1628cd5be41bcb8eee9a271d8bf7",
    ("bk", 3): "48df93ca53fe59e74959a2354be4031cfac92d595a80ceca8240045a21473e6a",
}


@functools.lru_cache(maxsize=None)
def _record_stream() -> BellShotStream:
    return sample_povm_shots(random_state(8, 2, np.random.default_rng(801)), 4096, 802)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind,build", ALL_MAPPINGS)
def test_fermionic_estimate_reprs_are_unchanged(kind, build, k):
    estimates = estimate_fermionic_rdm(_record_stream(), build(8), k)
    assert len(estimates) == math.comb(16, 2 * k)
    digest = hashlib.sha256(repr(estimates).encode()).hexdigest()
    assert digest == ESTIMATE_REPR_SHA256[kind, k]


def test_fermionic_estimates_are_frozen_value_records():
    estimates = estimate_fermionic_rdm(_record_stream(), build_mapping(8), 1)
    est = estimates[5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.value = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del est.weight
    assert not hasattr(est, "__dict__")
    # replace builds a new record through __init__ by keyword
    flipped = dataclasses.replace(est, value=-est.value)
    assert flipped.value == -est.value and flipped != est
    assert dataclasses.replace(flipped, value=est.value) == est
    assert dataclasses.astuple(flipped)[2:] == dataclasses.astuple(est)[2:]
    copies = pickle.loads(pickle.dumps(estimates))
    assert copies == estimates and repr(copies) == repr(estimates)
    assert [hash(e) for e in copies] == [hash(e) for e in estimates]
    assert copies[5].pauli == est.pauli


def test_fermionic_estimate_init_takes_the_fields_in_order():
    # the hand-written __init__ stores every field, under the field's name
    names = [f.name for f in dataclasses.fields(FermionEstimate)]
    assert list(inspect.signature(FermionEstimate).parameters) == names
    est = FermionEstimate(*range(len(names)))
    assert dataclasses.astuple(est) == tuple(range(len(names)))
    assert FermionEstimate(**dict(zip(names, range(len(names))))) == est


def test_fermionic_estimates_take_no_more_memory_than_generated_init_records():
    # the same records built by a frozen dataclass with a generated init,
    # with and without slots
    estimates = estimate_fermionic_rdm(_record_stream(), build_mapping(8), 2)
    rows = [dataclasses.astuple(e) for e in estimates]
    spec = [(f.name, f.type) for f in dataclasses.fields(FermionEstimate)]
    twins = [dataclasses.make_dataclass("Twin", spec, frozen=True, slots=slots) for slots in (False, True)]

    def traced(cls):
        tracemalloc.start()
        try:
            records = [cls(*row) for row in rows]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == len(rows)
        return size

    assert traced(FermionEstimate) <= min(traced(twin) for twin in twins)
