"""Heisenberg-Weyl correlator estimation and fiducial states for qudits.

The qubit scheme generalizes verbatim: pair every system qudit with an
ancilla in a fiducial state xi, measure pairs in the generalized Bell
basis, and read off displacement-operator correlators.  The (h, ell)
outcome on a pair contributes the exact eigenvalue exp(2*pi*i*(g*h -
f*ell)/D) of X^f Z^g (x) X^f Z^{-g}, and each ancilla attenuates the
signal by its calibration factor tr(X^f Z^{-g} xi), computed once per
fiducial (``FiducialState.overlaps``).  The shots' eigenvalues are summed
once per stream and support for every label product
(``statesim.displacement_sums``), so a correlator is one index into its
support's table, or, on a support with more possible outcome rows than
shots, one ``statesim.outcome_sums`` column over its joint outcomes; the
qubit Pauli strings of ``tomography`` are read by the same two kernels.
The exact correlator is read the same way: one index into the state's
``statesim.displacement_table`` of its support, built once from the
support's reduced density matrix, or, on a support of more than n/3 of
the n sites, one gather per target.

A fiducial whose calibration factors all have magnitude 1/sqrt(D+1) makes
the POVM that the Bell measurement realizes on a system site
(``statesim.bell_povm_elements(fiducial.as_state())``) symmetric
informationally complete (Renes et al., J. Math. Phys. 2004); the
attenuation is then uniform and the shot cost grows as (D+1)^k for
degree-k correlators.  The tetrahedral qubit ancilla is the D = 2 case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .statesim import (
    CAPACITY_AMPLITUDES, BellShotStream, DenseState, displacement_sums, displacement_table, hw_operator,
    outcome_sums, prepare_xi,
)


@dataclass(frozen=True, eq=False)
class FiducialState:
    """Single-qudit ancilla state used for every pair; the amplitudes are a read-only copy."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # copied before DenseState freezes it in place, so the caller's array stays writable
        amps = DenseState(self.dimension, 1, np.array(self.amplitudes, dtype=complex)).amplitudes
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def overlaps(self) -> Mapping[tuple[int, int], complex]:
        """Calibration factors tr(X^f Z^{-g} xi), the per-ancilla attenuation when
        targeting X^f Z^g, for every (f, g) != (0, 0) in 0..D-1; computed once,
        the read-only amplitudes keep them fresh."""
        d = self.dimension
        density = np.outer(self.amplitudes, self.amplitudes.conj())
        return MappingProxyType({
            (f, g): complex(np.trace(hw_operator(d, f, (-g) % d) @ density))
            for f in range(d)
            for g in range(d)
            if (f, g) != (0, 0)
        })

    def as_state(self) -> DenseState:
        """A new state on the fiducial's read-only amplitudes, which it shares."""
        return DenseState(self.dimension, 1, self.amplitudes)


def qubit_fiducial() -> FiducialState:
    """The tetrahedral state; its HW orbit is the qubit SIC POVM."""
    return FiducialState(2, prepare_xi().amplitudes)


def qutrit_fiducial() -> FiducialState:
    """(|1> - |2>)/sqrt(2), an exact SIC fiducial for D = 3."""
    amps = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
    return FiducialState(3, amps)


@dataclass(frozen=True)
class FiducialReport:
    """Summary of how close a fiducial is to the SIC condition."""

    dimension: int
    target_magnitude: float
    min_magnitude: float
    max_magnitude: float
    exact_sic: bool
    informationally_complete: bool


def validate_fiducial(fiducial: FiducialState) -> FiducialReport:
    """Check |tr(X^f Z^{-g} xi)| = 1/sqrt(D+1) for all (f, g) != (0, 0).

    ``exact_sic`` requires every magnitude within 1e-9 of the target;
    ``informationally_complete`` only requires them all nonzero, which is
    what correlator estimation needs direction by direction.
    """
    d = fiducial.dimension
    target = 1 / math.sqrt(d + 1)
    mags = [abs(v) for v in fiducial.overlaps.values()]
    return FiducialReport(
        dimension=d,
        target_magnitude=target,
        min_magnitude=min(mags),
        max_magnitude=max(mags),
        exact_sic=all(abs(m - target) <= 1e-9 for m in mags),
        informationally_complete=all(m > 1e-12 for m in mags),
    )


# -- correlator estimation -----------------------------------------------------


@dataclass(frozen=True)
class HwEstimate:
    """Sampled displacement correlator <prod_i X^{f_i} Z^{g_i} at site q_i>."""

    targets: tuple[tuple[int, int, int], ...]
    value: complex
    std_error: float
    num_shots: int


def _checked_targets(
    targets: Sequence[tuple[int, int, int]], d: int, num_pairs: int
) -> tuple[tuple[int, int, int], ...]:
    """The targets as (site, f mod D, g mod D) triples of Python ints; ValueError
    names a target that is not an integer triple, or that repeats a site."""
    seen = set()
    out = []
    for target in targets:
        try:
            site, f, g = target
        except (TypeError, ValueError):
            raise ValueError(f"target {target!r} is not a (site, f, g) triple") from None
        # plain ints pass at once; bool is an int, and 1.0 or "1" would fail
        # inside numpy later
        if not type(site) is type(f) is type(g) is int:
            if not all(type(v) is int or isinstance(v, np.integer) for v in (site, f, g)):
                raise ValueError(f"target {(site, f, g)!r} needs integer site, f and g")
            site, f, g = int(site), int(f), int(g)
        if not 0 <= site < num_pairs:
            raise ValueError(f"site {site} outside 0..{num_pairs - 1}")
        if site in seen:
            raise ValueError(f"repeated site {site}")
        seen.add(site)
        f, g = f % d, g % d
        if not (f or g):
            raise ValueError(f"site {site} targets the identity displacement")
        out.append((site, f, g))
    if not out:
        raise ValueError("need at least one target")
    return tuple(out)


def estimate_hw_correlator(
    stream: BellShotStream,
    targets: Sequence[tuple[int, int, int]],
    fiducial: FiducialState,
) -> HwEstimate:
    """Estimate <prod_i X^{f_i} Z^{g_i}> from a generalized Bell shot stream.

    Args:
        stream: Bell outcomes over system-ancilla pairs, ancillas in
            ``fiducial``.
        targets: (site, f, g) triples on distinct sites.
        fiducial: the ancilla state, needed for calibration.

    Per shot the product of pair eigenvalues is the root of unity
    w^(sum_i g_i h_i - f_i ell_i); their sum is one index into the support's
    ``statesim.displacement_sums`` table when it has at most as many entries
    as the stream has shots and at most ``CAPACITY_AMPLITUDES``, and one
    ``statesim.outcome_sums`` column over its joint outcomes otherwise.  The
    value is a Python complex.  A target that is not a (site, f, g) triple of
    integers raises ValueError.
    """
    d = fiducial.dimension
    if stream.local_dim != d:
        raise ValueError(
            f"stream dimension {stream.local_dim} != fiducial dimension {d}"
        )
    checked = _checked_targets(targets, d, stream.num_pairs)
    s = stream.num_shots
    if s == 0:
        raise ValueError("empty shot stream")

    sites = tuple(t[0] for t in checked)
    labels = [f * d + g for _, f, g in checked]
    if d ** (2 * len(sites)) <= min(s, CAPACITY_AMPLITUDES):
        total = displacement_sums(stream, sites)[tuple(labels)]
    else:
        [total] = outcome_sums(stream, sites, [[label] for label in labels])
    mean = complex(total) / s

    calibration = math.prod(fiducial.overlaps[f, g] for _, f, g in checked)
    if abs(calibration) < 1e-12:
        raise ValueError("fiducial is blind to a targeted displacement")
    return HwEstimate(
        targets=checked,
        value=mean / calibration,
        std_error=math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / s) / abs(calibration),
        num_shots=s,
    )


@lru_cache(maxsize=None)
def _hw_gather(d: int, f: int, g: int, trailing: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, phases) of X^f Z^g on a site followed by ``trailing`` axes:
    digit x comes from x - f with phase w^(g*(x - f)); both read-only."""
    source = (np.arange(d) - f) % d
    phases = np.exp(2j * np.pi * g * source / d).reshape((d,) + (1,) * trailing)
    source.flags.writeable = False
    phases.flags.writeable = False
    return source, phases


def exact_hw_correlator(
    state: DenseState, targets: Sequence[tuple[int, int, int]]
) -> complex:
    """Oracle <prod_i X^{f_i} Z^{g_i}> on a bare system register.

    One index into the support's ``statesim.displacement_table``, built
    once per state and support; on a support too wide for a table, X^f Z^g
    sends digit x to x + f with phase w^(g*x): one gather per target, its
    indices and phases taken from one table per (D, f, g, site depth).
    """
    d, n = state.local_dim, state.num_sites
    checked = _checked_targets(targets, d, n)
    table = displacement_table(state, tuple(t[0] for t in checked))
    if table is not None:
        return complex(table[tuple(f * d + g for _, f, g in checked)])
    applied = state.as_tensor()
    for site, f, g in checked:
        source, phases = _hw_gather(d, f, g, n - 1 - site)
        applied = applied.take(source, axis=site)
        applied *= phases
    return complex(np.vdot(state.amplitudes, applied))


# -- fiducial file format ------------------------------------------------------


def save_fiducial(fiducial: FiducialState, path: str) -> None:
    payload = {
        "dimension": fiducial.dimension,
        "amplitudes": [[float(a.real), float(a.imag)] for a in fiducial.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_fiducial(path: str) -> FiducialState:
    """Read a fiducial file; ValueError if it is malformed."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or type(payload.get("dimension")) is not int:
        raise ValueError(f"fiducial file {path} needs an integer dimension")
    pairs = np.array(payload.get("amplitudes", []))
    # numpy reads a JSON true or false among numbers as 1 or 0
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 2 or pairs.shape[1] != 2 or any(
        type(v) is bool for pair in payload["amplitudes"] for v in pair
    ):
        raise ValueError("fiducial amplitudes must be a list of [re, im] number pairs")
    amps = np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(-1)
    return FiducialState(payload["dimension"], amps)
