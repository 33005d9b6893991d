"""Qudit generalization: clock-shift correlators from generalized Bell shots.

For local dimension D the ancilla is a fiducial state whose orbit under
the D^2 clock-shift displacements forms a SIC POVM. Measuring each
system-ancilla pair in the generalized Bell basis yields eigenvalue
e^(2 pi i (g h - f l)/D) for the displacement X^f Z^g, and dividing by the
fiducial calibration factor recovers any correlator, exactly as the
tetrahedral ancilla does for qubits at D = 2.
"""

import numpy as np

from fermitree import (
    bell_povm_elements,
    estimate_hw_correlator,
    exact_hw_correlator,
    qutrit_fiducial,
    random_state,
    sample_povm_shots,
    validate_fiducial,
)

SHOTS = 60_000


def main():
    fid = qutrit_fiducial()
    report = validate_fiducial(fid)
    print("qutrit fiducial (0, 1, -1)/sqrt(2)")
    print(f"  displacement overlaps: {report.min_magnitude:.6f}"
          f" .. {report.max_magnitude:.6f} (target {report.target_magnitude})")
    print(f"  exact SIC: {report.exact_sic}")

    total = sum(bell_povm_elements(fid.as_state()))
    print(f"  POVM sum residual: {np.max(np.abs(total - np.eye(3))):.2e}")

    print("\ncalibration factors tr(X^f Z^-g xi):")
    for (f, g), value in sorted(fid.overlaps.items()):
        print(f"  ({f},{g}): {value.real:+.4f}{value.imag:+.4f}i")

    state = random_state(2, 3, np.random.default_rng(12))
    stream = sample_povm_shots(state, SHOTS, seed=3, ancilla=fid.as_state())
    print(f"\nrandom 2-qutrit state, {SHOTS} generalized Bell shots")
    print("  target                 estimate            exact")
    for targets in [[(0, 1, 0)], [(1, 0, 1)], [(0, 1, 2), (1, 2, 1)]]:
        est = estimate_hw_correlator(stream, targets, fid)
        oracle = exact_hw_correlator(state, targets)
        label = " ".join(f"site{s}:X^{f}Z^{g}" for s, f, g in targets)
        print(
            f"  {label:22s} {est.value.real:+.3f}{est.value.imag:+.3f}i"
            f"  {oracle.real:+.3f}{oracle.imag:+.3f}i"
            f"   ({est.std_error:.3f})"
        )


if __name__ == "__main__":
    main()
