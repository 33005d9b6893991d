"""Estimate every k-qubit reduced density matrix from one shot stream.

Each system qubit is measured in the Bell basis together with its own
tetrahedral ancilla; on the system that is a four-outcome product POVM,
so the shots are drawn from the system state alone. A single stream of
such shots determines all Pauli expectations at once: the Bell outcome of
a pair fixes an eigenvalue for x, y and z simultaneously, at the price of
a 3^(k/2) attenuation that the estimator undoes.
"""

import numpy as np

from fermitree import (
    BellShotStream,
    estimate_all_k_rdms,
    exact_all_k_rdms,
    merge_streams,
    random_state,
    sample_povm_shots,
)

SHOTS = 100_000


def main():
    state = random_state(3, 2, np.random.default_rng(9))
    stream = sample_povm_shots(state, SHOTS, seed=17)
    print(f"3-qubit random state, {SHOTS} Bell shots\n")

    for k in (1, 2):
        estimates = estimate_all_k_rdms(stream, k)
        # the exact table lists the same elements in the same order
        exact = exact_all_k_rdms(state, k).values()
        worst = max(abs(est.value - ex.real) for est, ex in zip(estimates, exact))
        sigma = np.sqrt(3.0 ** k / SHOTS)
        print(
            f"k={k}: {len(estimates):3d} elements, worst |error| {worst:.4f},"
            f" shot-noise scale sqrt(3^k/S) = {sigma:.4f}"
        )

    print("\nSample of k=2 estimates (qubits, letters, value, std_error):")
    for est in estimate_all_k_rdms(stream, 2)[:6]:
        print(
            f"  {est.qubits} {''.join(est.letters):2s}"
            f"  {est.value:+.4f}  ({est.std_error:.4f})"
        )

    # shot blocks are seeded independently, so a shorter run is a prefix of
    # a longer one
    half = sample_povm_shots(state, SHOTS // 2, seed=17)
    assert np.array_equal(half.codes, stream.codes[: SHOTS // 2])
    print(f"\na {SHOTS // 2}-shot run prefixes the {SHOTS}-shot run exactly")

    # estimates are integer tallies underneath: concatenating the two halves
    # of a stream reproduces the full-stream estimates bit for bit
    tail = BellShotStream(2, 3, stream.codes[SHOTS // 2 :])
    rejoined = merge_streams([half, tail])
    for a, b in zip(estimate_all_k_rdms(rejoined, 2), estimate_all_k_rdms(stream, 2)):
        assert a.value == b.value and a.std_error == b.std_error
    print("estimates from merged halves match the full stream bit for bit")


if __name__ == "__main__":
    main()
