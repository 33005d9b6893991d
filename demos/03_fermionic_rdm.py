"""Sample the 1-RDM of an encoded Fock state and compare with the oracle.

The full pipeline: build a ternary-tree Majorana encoding for n modes,
prepare the encoded Fock state, measure every qubit in the Bell basis with
its own tetrahedral ancilla (``sampled_fermionic_rdm`` draws these shots
from the system state alone with ``sample_povm_shots``), and read every
Majorana-pair expectation off the same shot stream. Each estimate carries
the attenuation factor sqrt(3)^weight its Pauli string incurred; Majorana
pairs stay below the (2n+1)^k ceiling no matter how large the register
is.
"""

from fermitree import (
    attenuation_bound,
    build_mapping,
    encode_fock_state,
    encoded_vacuum,
    exact_fermionic_rdm,
    number_operator_strings,
    expectation,
    sampled_fermionic_rdm,
)

MODES = 3
OCCUPATIONS = (1, 0, 1)
SHOTS = 100_000


def main():
    mapping = build_mapping(MODES)
    print(f"ternary encoding for n={MODES} modes on {mapping.n_modes} qubits")

    vacuum = encoded_vacuum(mapping)
    occ = [
        0.5 * (1 + expectation(vacuum, op).real)
        for op in number_operator_strings(mapping)
    ]
    print(f"vacuum occupations: {[round(x, 12) for x in occ]}")

    state = encode_fock_state(mapping, OCCUPATIONS)
    print(f"encoded Fock state with occupations {OCCUPATIONS}\n")

    exact = exact_fermionic_rdm(state, mapping, 1)
    estimates = sampled_fermionic_rdm(state, mapping, 1, SHOTS, seed=5)

    print("  pair   estimate            exact              sigma  atten  string")
    for est in estimates:
        oracle = exact[est.indices]
        dev = abs(est.value - oracle)
        sigmas = dev / est.std_error if est.std_error else 0.0
        print(
            f"  {est.indices}  {est.value.real:+.4f}{est.value.imag:+.4f}i"
            f"  {oracle.real:+.4f}{oracle.imag:+.4f}i"
            f"   {sigmas:4.1f}  {est.attenuation:5.2f}  {est.pauli}"
        )

    bound = attenuation_bound(mapping, 1)
    worst = max(est.attenuation for est in estimates)
    print(f"\nworst attenuation {worst:.3f} <= bound (2n+1)^k = {bound:.0f}")


if __name__ == "__main__":
    main()
