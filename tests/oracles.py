"""Brute-force reference implementations that the tests check the library against.

    * ``to_dense`` builds the 2^n x 2^n matrix of a Pauli string, one
      Kronecker factor per qubit;
    * ``bell_measure_all_pairs`` measures a register's site pairs by
      sequential collapse, one pair at a time, the reference semantics of
      the two bulk samplers in ``fermitree.statesim``;
    * ``reference_calibration`` computes a fiducial's calibration factor
      from its D x D density and displacement matrices.
"""

from __future__ import annotations

import math

import numpy as np

from fermitree.pauli import PauliString
from fermitree.statesim import BellShotStream, DenseState, _paired, bell_basis_matrix, hw_operator

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DENSE_QUBIT_LIMIT = 14


def to_dense(pauli: PauliString, num_qubits: int) -> np.ndarray:
    """Dense 2**num_qubits matrix, qubit 0 as the leftmost tensor factor.

    Refuses registers beyond ``DENSE_QUBIT_LIMIT`` qubits.
    """
    if num_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(
            f"dense form limited to {DENSE_QUBIT_LIMIT} qubits, got {num_qubits}"
        )
    if pauli.letters and pauli.letters[-1][0] >= num_qubits:
        raise ValueError(
            f"qubit index {pauli.letters[-1][0]} out of range for {num_qubits} qubits"
        )
    mat = np.array([[pauli.phase]], dtype=complex)
    lookup = dict(pauli.letters)
    for qubit in range(num_qubits):
        mat = np.kron(mat, PAULI_MATRICES[lookup.get(qubit, "I")])
    return mat


def bell_measure_all_pairs(
    state: DenseState, rng: np.random.Generator | int | None = None
) -> BellShotStream:
    """Measure each (2p, 2p+1) pair in the Bell basis by sequential collapse.

    Returns a one-shot stream.  The input state is not modified; collapses
    happen on an internal copy.  An odd number of sites raises ValueError.
    """
    rng = np.random.default_rng(rng)
    n_pairs = _paired(state)
    d = state.local_dim
    basis = bell_basis_matrix(d)
    basis_h = basis.conj().T
    tensor = state.as_tensor().copy()
    codes = []
    for p in range(n_pairs):
        moved = np.moveaxis(tensor, (2 * p, 2 * p + 1), (0, 1))
        flat = moved.reshape(d * d, -1)
        in_bell = basis_h @ flat
        probs = np.sum(np.abs(in_bell) ** 2, axis=1)
        probs = probs / probs.sum()
        code = int(rng.choice(d * d, p=probs))
        post = np.zeros_like(in_bell)
        post[code] = in_bell[code] / math.sqrt(probs[code])
        collapsed = (basis @ post).reshape(moved.shape)
        tensor = np.moveaxis(collapsed, (0, 1), (2 * p, 2 * p + 1))
        codes.append(code)
    return BellShotStream(d, n_pairs, [codes])


def reference_calibration(fiducial, f: int, g: int) -> complex:
    """tr(X^f Z^{-g} xi) for any integers f, g, in the arithmetic of
    ``FiducialState.overlaps``, so the two agree bit for bit."""
    d = fiducial.dimension
    density = np.outer(fiducial.amplitudes, fiducial.amplitudes.conj())
    return complex(np.trace(hw_operator(d, f % d, (-g) % d) @ density))
