"""Acceptance checks for the whole pipeline.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with the measured quantity, and then asserts. Tolerances are part of the
contract; do not loosen them.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from fermitree.baselines import (
    bravyi_kitaev,
    bravyi_kitaev_max_weight_bound,
    jordan_wigner,
    weight_stats,
)
from fermitree.cli import main as cli_main
from fermitree.fermion import (
    encode_fock_state,
    exact_fermionic_rdm,
    sampled_fermionic_rdm,
)
from fermitree.pauli import PauliString
from fermitree.qudit import qutrit_fiducial
from fermitree.statesim import (
    attach_ancillas,
    bell_basis_matrix,
    bell_povm_elements,
    expectation,
    generalized_bell_state,
    hw_operator,
    prepare_xi,
    random_state,
    sample_bell_shots,
)
from fermitree.ternary import (
    build_mapping,
    max_weight_bound,
    verify_mapping,
    weight_lower_bound,
)
from fermitree.tomography import (
    BELL_EIGENVALUES,
    LETTERS,
    estimate_all_k_rdms,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_mapping_correctness_exhaustive():
    start = time.monotonic()
    worst = ""
    ok = True
    for n in range(1, 65):
        mapping = build_mapping(n)
        result = verify_mapping(mapping)
        want_max = max_weight_bound(n)
        if not (result.passed and result.max_weight == want_max):
            ok = False
            worst = f"n={n} failed ({result.max_weight} vs {want_max})"
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert report(
        1, ok, worst or f"n=1..64 algebra exact, max weight matches, {elapsed:.2f}s"
    )


def test_criterion_02_mean_weight_lower_bound():
    worst_margin = math.inf
    worst_at = ""
    for n in range(1, 65):
        tables = {
            "ternary": build_mapping(n).majorana_table,
            "jw": jordan_wigner(n),
            "bk": bravyi_kitaev(n),
        }
        bound = weight_lower_bound(n)
        for kind, table in tables.items():
            margin = weight_stats(table).mean_weight - bound
            if margin < worst_margin:
                worst_margin = margin
                worst_at = f"{kind} n={n}"
    ok = worst_margin >= -1e-12
    assert report(
        2, ok, f"min(mean weight - log3(2n)) = {worst_margin:.3e} at {worst_at}"
    )


def test_criterion_03_asymptotic_ratio():
    n = (3 ** 8 - 1) // 2
    assert n == 3280
    ternary_max = max_weight_bound(n)
    binary_max = bravyi_kitaev_max_weight_bound(n)
    ratio = binary_max / ternary_max
    rel = abs(ratio - math.log2(3)) / math.log2(3)
    built = verify_mapping(build_mapping(n)).max_weight
    ok = ternary_max == 8 == built and binary_max == 13 and rel < 0.10
    assert report(
        3, ok, f"max weights 8 vs 13, ratio {ratio} vs log2(3), off by {rel:.3%}"
    )


def test_criterion_04_identity_product_complete_trees():
    results = {}
    for n in (1, 4, 13, 40):
        outcome = verify_mapping(build_mapping(n))
        results[n] = outcome.identity_product_ok
    ok = all(results.values())
    assert report(4, ok, f"all-path product is scalar for n in {sorted(results)}")


def test_criterion_05_bell_eigenvalue_table():
    worst = 0.0
    for code in range(4):
        h, ell = divmod(code, 2)
        state = generalized_bell_state(2, h, ell)
        for col, letter in enumerate(LETTERS):
            pauli = PauliString.from_map({0: letter.upper(), 1: letter.upper()})
            got = expectation(state, pauli)
            want = BELL_EIGENVALUES[code, col]
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    assert report(5, ok, f"4x3 table entrywise, worst deviation {worst:.2e}")


def test_criterion_06_xi_preparation():
    xi = prepare_xi()
    target = 1 / math.sqrt(3)
    worst = max(
        abs(expectation(xi, PauliString.single(0, letter.upper())) - target)
        for letter in LETTERS
    )
    ok = worst <= 1e-10
    assert report(6, ok, f"<x>=<y>=<z>=1/sqrt(3), worst deviation {worst:.2e}")


def test_criterion_07_tomography_accuracy():
    start = time.monotonic()
    shots = 100_000
    state = random_state(3, 2, np.random.default_rng(202))
    stream = sample_bell_shots(attach_ancillas(state), shots, seed=1)
    estimates = estimate_all_k_rdms(stream, 2)
    assert len(estimates) == 27
    sigma = math.sqrt(9 / shots)
    devs = []
    for est in estimates:
        pauli = PauliString.from_map(
            {q: l.upper() for q, l in zip(est.qubits, est.letters)}
        )
        devs.append(abs(est.value - expectation(state, pauli).real))
    within_two = sum(d <= 2 * sigma for d in devs)
    elapsed = time.monotonic() - start
    ok = max(devs) <= 4 * sigma and within_two >= 26 and elapsed < 120.0
    assert report(
        7,
        ok,
        f"worst |err| {max(devs):.4f} vs {4 * sigma:.4f}, "
        f"{within_two}/27 within 2 sigma, {elapsed:.1f}s",
    )


def test_criterion_08_variance_scaling():
    state = random_state(2, 2, np.random.default_rng(7))
    joint = attach_ancillas(state)
    k1_values: dict[tuple, list] = {}
    k2_values: dict[tuple, list] = {}
    for s in range(200):
        stream = sample_bell_shots(joint, 2000, seed=1000 + s)
        for est in estimate_all_k_rdms(stream, 1):
            k1_values.setdefault((est.qubits, est.letters), []).append(est.value)
        for est in estimate_all_k_rdms(stream, 2):
            k2_values.setdefault((est.qubits, est.letters), []).append(est.value)
    std1 = np.mean([np.std(v, ddof=1) for v in k1_values.values()])
    std2 = np.mean([np.std(v, ddof=1) for v in k2_values.values()])
    ratio = std2 / std1
    ok = 1.39 <= ratio <= 2.08
    assert report(8, ok, f"std ratio k=2/k=1 over 200 streams: {ratio:.3f}")


def test_criterion_09_qubit_sic_povm():
    elements = bell_povm_elements(prepare_xi())
    residual_sum = float(np.max(np.abs(sum(elements) - np.eye(2))))
    projectors = [2 * e for e in elements]
    worst_overlap = 0.0
    worst_cross = 0.0
    for a, b in itertools.product(range(4), repeat=2):
        got = np.trace(projectors[a] @ projectors[b]).real
        want = (2 * (a == b) + 1) / 3
        worst_overlap = max(worst_overlap, abs(got - want))
        if a != b:
            worst_cross = max(worst_cross, abs(got - 1 / 3))
    ok = residual_sum <= 1e-12 and worst_overlap <= 1e-12 and worst_cross <= 1e-12
    assert report(
        9,
        ok,
        f"sum residual {residual_sum:.2e}, overlap dev {worst_overlap:.2e}, "
        f"cross dev {worst_cross:.2e}",
    )


def test_criterion_10_fermionic_pipeline():
    start = time.monotonic()
    mapping = build_mapping(3)
    system = encode_fock_state(mapping, (1, 0, 1))
    estimates = sampled_fermionic_rdm(system, mapping, 1, 100_000, seed=2)
    exact = exact_fermionic_rdm(system, mapping, 1)
    assert len(estimates) == 15
    worst = 0.0
    max_att = 0.0
    for est in estimates:
        dev = abs(est.value - exact[est.indices])
        if est.std_error > 0:
            worst = max(worst, dev / est.std_error)
        else:
            worst = max(worst, math.inf if dev > 1e-12 else 0.0)
        max_att = max(max_att, est.attenuation)
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and max_att <= 7.0 and elapsed < 300.0
    assert report(
        10,
        ok,
        f"15 pairs, worst {worst:.2f} std_errors, attenuation {max_att:.3f} <= 7, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_mapping_equivalence():
    occupations = (1, 1, 0)
    mappings = {
        "ternary": build_mapping(3),
        "jw": jordan_wigner(3),
        "bk": bravyi_kitaev(3),
    }
    tables = {}
    for kind, mapping in mappings.items():
        state = encode_fock_state(mapping, occupations)
        tables[kind] = {
            k: exact_fermionic_rdm(state, mapping, k) for k in (1, 2)
        }
    worst = 0.0
    reference = tables["ternary"]
    for kind in ("jw", "bk"):
        for k in (1, 2):
            for indices, value in reference[k].items():
                worst = max(worst, abs(value - tables[kind][k][indices]))
    ok = worst <= 1e-9
    assert report(11, ok, f"1- and 2-RDMs across mappings, worst gap {worst:.2e}")


def test_criterion_12_qutrit_checks():
    basis = bell_basis_matrix(3)
    ortho = float(np.max(np.abs(basis.conj().T @ basis - np.eye(9))))

    worst_phase = 0.0
    for f, g, h, ell in itertools.product(range(3), repeat=4):
        op = np.kron(hw_operator(3, f, g), hw_operator(3, f, (-g) % 3))
        amps = generalized_bell_state(3, h, ell).amplitudes
        phase = np.exp(2j * np.pi * (g * h - f * ell) / 3)
        worst_phase = max(worst_phase, float(np.max(np.abs(op @ amps - phase * amps))))

    fid = qutrit_fiducial()
    overlap_dev = max(abs(abs(v) - 0.5) for v in fid.overlaps.values())

    projectors = [3 * e for e in bell_povm_elements(fid.as_state())]
    sic_dev = 0.0
    for a, b in itertools.product(range(9), repeat=2):
        got = np.trace(projectors[a] @ projectors[b]).real
        want = 1.0 if a == b else 0.25
        sic_dev = max(sic_dev, abs(got - want))

    ok = max(ortho, worst_phase, overlap_dev, sic_dev) <= 1e-10
    assert report(
        12,
        ok,
        f"orthonormality {ortho:.2e}, eigenphases {worst_phase:.2e}, "
        f"fiducial overlaps {overlap_dev:.2e}, SIC overlaps {sic_dev:.2e}",
    )


def test_criterion_13_majorana_norm_bound():
    worst = -math.inf
    for n in (2, 4):
        table = build_mapping(n).majorana_table
        for s in range(100):
            state = random_state(n, 2, np.random.default_rng(10_000 * n + s))
            total = sum(expectation(state, op).real ** 2 for op in table)
            worst = max(worst, total)
    ok = worst <= 1.0 + 1e-9
    assert report(13, ok, f"max sum of squared Majorana expectations {worst:.9f}")


def test_criterion_14_worker_determinism(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        path = tmp_path / f"payload-{workers}.json"
        code = cli_main(
            [
                "tomograph",
                "--qubits",
                "3",
                "--k",
                "2",
                "--shots",
                "20000",
                "--seed",
                "5",
                "--workers",
                workers,
                "--output",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    qubit_ok = outputs[0] == outputs[1]

    outputs = []
    for workers in ("1", "4"):
        path = tmp_path / f"fermi-{workers}.json"
        code = cli_main(
            [
                "tomograph",
                "--fermionic",
                "--modes",
                "2",
                "--shots",
                "20000",
                "--seed",
                "5",
                "--workers",
                workers,
                "--output",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    fermionic_ok = outputs[0] == outputs[1]

    ok = qubit_ok and fermionic_ok
    assert report(
        14, ok, "payloads byte-identical for --workers 1 and 4 (qubit and fermionic)"
    )
