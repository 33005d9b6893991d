"""Exact dense simulation of qubit/qudit registers and Bell-basis sampling.

States are flat complex vectors over sites of a common local dimension D,
site 0 being the leftmost (most significant) tensor factor; on qubits,
qubit 0 is the top bit of the state index.  A ``DenseState`` is read-only,
amplitudes included, so it keeps two caches.  The first holds the
normalized CDF of the last outcome distribution it was sampled under: one
entry per state, at most one float64 array of D^(2n) entries (8 MiB at
capacity), built in that array and one block of outcomes beside it, and
every later run of shots on that state and measurement only draws.  The
second holds ``displacement_table``s, the exact expectation of every
displacement product on a support, one per support read with 3w <= n
sites, at most ``CAPACITY_AMPLITUDES`` complex entries (16 MiB) in all.
A Pauli string acts through its (x, z, power) masks: one gather over
index ^ x, a sign per index from a folded parity and one factor i**power
(``masks_matvec``).  ``expectations`` reads any number of strings from
one Walsh-Hadamard transform per distinct x, in blocks of
``GATHER_BLOCK`` amplitudes.  The module also provides the tetrahedral
ancilla state and the displacements X^f Z^g, and owns
everything about a Bell outcome code h * D + ell: the Bell states and
basis, built from the displacements; the one eigenvalue table,
``bell_exponents``; and the one counting kernel, ``joint_outcomes``,
which caches each support's counts on the read-only ``BellShotStream``
that the two bulk samplers return:

    * ``sample_bell_shots`` samples the exact joint outcome distribution
      of a register whose ancillas are attached (``attach_ancillas``);
    * ``sample_povm_shots`` draws the same stream from the system state
      alone: the Bell measurement of a system site with its ancilla is the
      rank-one product POVM E_c = a_c^dag a_c on that site, so the D^(2n)
      outcome amplitudes come from applying the D^2 x D rows a_c site by
      site to the D^n system amplitudes, with no D^(2n)-amplitude register.

The two bulk samplers share one outcome kernel (``_outcome_distribution``,
the squared moduli after ``_site_products``, the one site-by-site product
loop, whose steps that widen the array, as the POVM rows do, run one
block of ``_OUTCOME_BLOCK`` outcomes at a time), one CDF cache on the
sampled state (``_outcome_cdf``) and one blocked RNG layout
(``_draw_codes``) that makes a stream depend only on the distribution and
the seed; the capacity budget bounds the D^(2n)
outcome distribution in both.  The collapse reference, which measures
one site pair at a time, lives in ``tests/oracles.py``.

One reader turns the counts into estimates at every D, through the
characters w^e of ``bell_exponents``: ``displacement_sums``, the sampled
twin of ``displacement_table``, cached on the stream beside the counts,
or ``outcome_sums`` over the distinct outcomes.  Qubit Pauli strings are
the D = 2 case, whose characters are exactly +-1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import _PHASES, Masks, PauliString, to_masks

CAPACITY_AMPLITUDES = 2 ** 20
NORM_TOL = 1e-10

# Shots are generated in fixed blocks; block b always uses the RNG stream
# spawned with key (b,), so a longer run extends a shorter one unchanged.
SHOT_BLOCK = 4096

# Pauli strings are read in blocks of rows of at most this many amplitudes,
# so the temporaries stay small however many strings.
GATHER_BLOCK = 2 ** 14
# The product-POVM outcome distribution is built in blocks of at most this
# many outcomes (``_outcome_distribution``): (16^2)^2, two sites' outcomes
# at every D <= 16.
_OUTCOME_BLOCK = 2 ** 16
_WALSH = np.array([[1.0, 1.0], [1.0, -1.0]])  # row: bit of c, column: bit of z

QUBIT_BELL_LABELS = ("F+", "F-", "P+", "P-")


class CapacityError(ValueError):
    """Requested register exceeds the dense-simulation budget."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int: a numpy integer converts, and a float or a
    bool, which would pass for a dimension or a count, raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class DenseState:
    """Normalized pure state of ``num_sites`` qudits of dimension ``local_dim``.

    The state is read-only, and so are its flat complex amplitudes: a
    C-contiguous complex array that owns its memory is frozen in place and
    kept, and any other input (a view, another dtype, a list) is copied
    once, so the caller's array stays writable.  Writing through a view of
    the amplitudes made before construction is unsupported: the bulk
    samplers cache on the state the normalized CDF of the last outcome
    distribution it was sampled under, which such a write would leave
    stale.  The cache holds one entry, keyed by the measurement (the
    register's Bell pairs, or the ancilla of the product POVM); sampling
    under another key replaces it, so a state holds at most one float64
    array of D^(2n) entries (8 MiB at capacity) beside its amplitudes, and
    building it takes that array and one block of outcomes.  The
    exact correlators cache beside it one ``displacement_table`` per
    support, at most ``CAPACITY_AMPLITUDES`` complex entries (16 MiB) in
    all, which such a write would leave stale too.
    """

    local_dim: int
    num_sites: int
    amplitudes: np.ndarray
    _cdf: dict = field(default_factory=dict, init=False, repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "local_dim", _integer(self.local_dim, "local dimension"))
        object.__setattr__(self, "num_sites", _integer(self.num_sites, "site count"))
        if self.local_dim < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.local_dim}")
        if self.num_sites < 1:
            raise ValueError(f"need at least one site, got {self.num_sites}")
        dim = self.local_dim ** self.num_sites
        if dim > CAPACITY_AMPLITUDES:
            raise CapacityError(
                f"{self.num_sites} sites of dimension {self.local_dim} need "
                f"{dim} amplitudes, budget is {CAPACITY_AMPLITUDES}"
            )
        amps = self.amplitudes
        owned = type(amps) is np.ndarray and amps.dtype == complex and amps.flags.owndata
        if not (owned and amps.flags.c_contiguous):
            amps = np.array(amps, dtype=complex, order="C")
        flat = amps.reshape(-1)
        if flat.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {flat.shape[0]}")
        norm = np.linalg.norm(flat)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1")
        # frozen only once valid, and before a flat view is taken, which
        # inherits the flag
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps if amps.ndim == 1 else amps.reshape(-1))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_state(cls, num_sites: int) -> "DenseState":
        amps = np.zeros(2 ** num_sites, dtype=complex)
        amps[0] = 1.0
        return cls(2, num_sites, amps)

    @classmethod
    def ghz(cls, num_sites: int) -> "DenseState":
        amps = np.zeros(2 ** num_sites, dtype=complex)
        amps[0] = 1 / math.sqrt(2)
        amps[-1] = 1 / math.sqrt(2)
        return cls(2, num_sites, amps)

    # -- basic operations --------------------------------------------------

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape([self.local_dim] * self.num_sites)


def random_state(
    num_sites: int, local_dim: int = 2, rng: np.random.Generator | int | None = None
) -> DenseState:
    """Haar-random pure state via a normalized complex Gaussian vector; a
    site count or local dimension that is not an integer raises ValueError."""
    num_sites, local_dim = _integer(num_sites, "num_sites"), _integer(local_dim, "local_dim")
    rng = np.random.default_rng(rng)
    dim = local_dim ** num_sites
    if dim > CAPACITY_AMPLITUDES:
        raise CapacityError(f"{dim} amplitudes exceed budget {CAPACITY_AMPLITUDES}")
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return DenseState(local_dim, num_sites, vec / np.linalg.norm(vec))


# -- Pauli action on qubit registers ----------------------------------------


def _parity(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Parity of the low ``num_bits`` bits of each int64 value, as 0 or 1.

    The bits are folded onto bit 0 with ``v ^= v >> s`` for s = 1, 2, 4,
    ... < num_bits; ``values`` is overwritten.
    """
    shift = 1
    while shift < num_bits:
        values ^= values >> shift
        shift <<= 1
    return values & 1


def masks_matvec(masks: Masks, amplitudes: np.ndarray, num_sites: int) -> np.ndarray:
    """P @ vec for P = i**power X^x Z^z, the three ints of ``pauli.to_masks``.

    One gather: (P vec)[b] = i**power (-1)**popcount((b ^ x) & z) vec[b ^ x],
    qubit 0 being the most significant bit of the index b.  The parity is
    folded (``_parity``).  Multiplying by +-1 and +-i is exact, so every
    value equals that of one 2 x 2 contraction per letter; only a zero may
    come out with the other sign.
    """
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (2 ** num_sites,):
        raise ValueError(f"expected {2 ** num_sites} amplitudes, got {vec.shape[0]}")
    x, z, power = masks
    source = np.arange(vec.shape[0]) ^ x
    out = vec[source]
    # bit 0 also carries the sign of i**power, so the parity is the flip
    source &= z
    source ^= power >> 1 & 1
    np.negative(out, out=out, where=_parity(source, num_sites).astype(bool))
    if power & 1:
        out *= 1j
    return out


def expectations(state: DenseState, masks: Masks) -> np.ndarray:
    """<state| P |state> for every string P of the (x, z, power) masks (int64
    arrays of equal length, or ints for one string; unequal lengths, or x or
    z outside 0..2^n-1, raise ValueError).
    As <P> = i**power sum_c conj(psi[c ^ x]) psi[c] (-1)^|c & z|, one n-step
    Walsh-Hadamard transform (``_site_products``) per distinct x, in blocks
    of ``GATHER_BLOCK`` amplitudes, holds every string with that x in bin z;
    each part is within 4n 2^-52 of one gather and ``np.vdot`` per string.
    Returns a complex128 array, one entry per string in input order."""
    if state.local_dim != 2:
        raise ValueError("Pauli strings act on qubit registers only")
    n, amps = state.num_sites, state.amplitudes
    x, z, power = (np.asarray(m, dtype=np.int64).reshape(-1) for m in masks)
    if not len(x) == len(z) == len(power):
        raise ValueError(
            f"x, z and power must be masks of equal length, got {len(x)}, {len(z)}, {len(power)}")
    if len(x) and ((x | z).min() < 0 or (x | z).max() >> n):
        raise ValueError(f"masks must lie in 0..2^{n}-1, got {(x | z).min()}..{(x | z).max()}")
    present = np.bincount(x, minlength=2 ** n) > 0  # the strings grouped by x, unsorted
    distinct, rows = np.flatnonzero(present), max(1, GATHER_BLOCK >> n)
    block_of, row = np.divmod(np.cumsum(present)[x] - 1, rows)
    place = (row << n + 1) + z  # a transformed block reads (row, real or imaginary part, z)
    parts = np.empty((len(x), 2))
    for b, start in enumerate(range(0, len(distinct), rows)):
        # no name holds the product, so the transform frees it after its first step
        table = _site_products(
            (amps[np.arange(2 ** n)[:, None] ^ distinct[start:start + rows]].conj() * amps[:, None])
            .view(np.float64), _WALSH, n).reshape(-1)
        mine = np.flatnonzero(block_of == b)
        parts[mine] = table[place[mine, None] + [0, 2 ** n]]
        del table  # so the next block's product and transform do not coexist with it
    return parts.view(complex)[:, 0] * np.take(_PHASES, power & 3)


def expectation(state: DenseState, pauli: PauliString) -> complex:
    """<state| P |state>; real up to roundoff when P is Hermitian (phase +-1)."""
    [value] = expectations(state, to_masks(pauli, state.num_sites)).tolist()
    return value


# -- the tetrahedral ancilla state ------------------------------------------


def prepare_xi() -> DenseState:
    """Single-qubit state with <X> = <Y> = <Z> = 1/sqrt(3).

    Produced by the two-rotation circuit Rz(3*pi/4) Rx(arccos(1/sqrt(3)))
    acting on |0>, with Rx(t) = exp(-i t X / 2) and Rz(t) = exp(-i t Z / 2).
    """
    theta = math.acos(1 / math.sqrt(3))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    phi = 3 * math.pi / 4
    rz = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
    amps = rz @ rx @ np.array([1.0, 0.0])
    return DenseState(2, 1, amps)


def _single_site(ancilla: DenseState) -> DenseState:
    """``ancilla`` itself; ValueError unless it is a one-site ``DenseState``."""
    if not isinstance(ancilla, DenseState):
        raise ValueError(f"ancilla must be a single-site DenseState, got {type(ancilla).__name__}")
    if ancilla.num_sites != 1:
        raise ValueError("ancilla must be a single-site state")
    return ancilla


def _ancilla_for(system: DenseState, ancilla: DenseState | None) -> DenseState:
    """The ancilla paired with each site of ``system``, xi by default.

    Raises CapacityError when the D^(2n) amplitudes of the register with
    ancillas, or of its Bell outcome distribution, exceed the budget.
    """
    ancilla = _single_site(prepare_xi() if ancilla is None else ancilla)
    if ancilla.local_dim != system.local_dim:
        raise ValueError("ancilla local dimension differs from system")
    n, d = system.num_sites, system.local_dim
    if d ** (2 * n) > CAPACITY_AMPLITUDES:
        raise CapacityError(
            f"{n} sites of dimension {d} with one ancilla each have {d ** (2 * n)} "
            f"Bell outcomes, budget is {CAPACITY_AMPLITUDES}"
        )
    return ancilla


def attach_ancillas(system: DenseState, ancilla: DenseState | None = None) -> DenseState:
    """Interleave one ancilla per system site: system site j lands on site 2j.

    The ancilla defaults to the tetrahedral state; any single-site state of
    the same local dimension is accepted.
    """
    ancilla = _ancilla_for(system, ancilla)
    n, d = system.num_sites, system.local_dim
    amps = system.amplitudes
    for j in range(n):
        # a_j goes right after s_j, so no transpose or contiguous copy follows
        amps = amps.reshape(d ** (2 * j + 1), 1, -1) * ancilla.amplitudes.reshape(1, d, 1)
    # the product itself, which owns its memory, so the constructor keeps it
    return DenseState(d, 2 * n, amps)


# -- Heisenberg-Weyl operators and generalized Bell states -------------------


def hw_operator(local_dim: int, f: int, g: int) -> np.ndarray:
    """Displacement operator X^f Z^g with X|d> = |d+1 mod D>, Z|d> = w^d |d>;
    an argument that is not an integer raises ValueError."""
    local_dim, f, g = _integer(local_dim, "local_dim"), _integer(f, "f"), _integer(g, "g")
    if local_dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {local_dim}")
    omega = np.exp(2j * np.pi / local_dim)
    mat = np.zeros((local_dim, local_dim), dtype=complex)
    for d in range(local_dim):
        mat[(d + f) % local_dim, d] = omega ** (g * d)
    return mat


def generalized_bell_state(local_dim: int, h: int, ell: int) -> DenseState:
    """Two-site state (X^h Z^ell on the first site) applied to the diagonal pair.

    Since (M (x) I) sum_k |k>|k> = sum_jk M[j, k] |j>|k>, its amplitudes are
    the entries of X^h Z^ell over sqrt(D).  Its eigenvalues under every
    X^f Z^g (x) X^f Z^{-g} are in ``bell_exponents(D)[:, :, h*D + ell]``.
    An argument that is not an integer raises ValueError.
    """
    d, h, ell = _integer(local_dim, "local_dim"), _integer(h, "h"), _integer(ell, "ell")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return DenseState(d, 2, hw_operator(d, h % d, ell % d).reshape(-1) / math.sqrt(d))


def bell_basis_matrix(local_dim: int) -> np.ndarray:
    """Unitary whose column h*D+ell is the (h, ell) generalized Bell state.

    Raises CapacityError before allocating when its D^4 entries exceed the
    budget, i.e. for D >= 33.
    """
    d = local_dim
    if d ** 4 > CAPACITY_AMPLITUDES:
        raise CapacityError(
            f"the Bell basis of dimension {d} has {d ** 4} entries, "
            f"budget is {CAPACITY_AMPLITUDES}"
        )
    ops = [hw_operator(d, h, ell).reshape(-1) for h in range(d) for ell in range(d)]
    return np.stack(ops, axis=1) / math.sqrt(d)


@lru_cache(maxsize=None)
def bell_exponents(local_dim: int) -> np.ndarray:
    """Read-only (f, g, code) -> e table: X^f Z^g (x) X^f Z^{-g} has eigenvalue
    w^e, e = (g*h - f*ell) mod D, on the Bell state of code h*D + ell."""
    d = local_dim
    f, g, h, ell = np.ix_(*[np.arange(d)] * 4)
    table = ((g * h - f * ell) % d).reshape(d, d, d * d)
    table.flags.writeable = False
    return table


def _bell_povm_rows(ancilla: DenseState) -> np.ndarray:
    """Rows a_c = <B_c|(. (x) ancilla) on a system site, shaped (D^2, D)."""
    d = _single_site(ancilla).local_dim
    return bell_basis_matrix(d).conj().T.reshape(d * d, d, d) @ ancilla.amplitudes


def bell_povm_elements(ancilla: DenseState) -> list[np.ndarray]:
    """POVM that the Bell measurement with ``ancilla`` realizes on a system site.

    Outcome code c has probability tr(rho E_c), E_c = a_c^dag a_c, where
    a_c = <B_c|(. (x) ancilla) is a row vector on the system site.  Element
    h*D + ell is (1/D) X^h Z^ell xi* Z^{-ell} X^{-h}, xi* being the conjugate
    ancilla density, so the elements sum to the identity for any ancilla.
    With the tetrahedral ancilla (``prepare_xi``) they are the qubit SIC
    POVM in code order (F+, F-, P+, P-); with an exact SIC fiducial of
    dimension D the projector overlaps are (D*delta + 1)/(D + 1).
    """
    return [np.outer(a.conj(), a) for a in _bell_povm_rows(ancilla)]


# -- Bell-basis measurement on site pairs ------------------------------------


def _paired(state: DenseState) -> int:
    if state.num_sites % 2 != 0:
        raise ValueError(f"need an even number of sites, got {state.num_sites}")
    return state.num_sites // 2


def _site_products(values: np.ndarray, rows_t: np.ndarray, steps: int) -> np.ndarray:
    """``values`` after ``steps`` contiguous matrix products with ``rows_t``,
    each turning the leading ``rows_t.shape[0]`` axis into a trailing
    ``rows_t.shape[1]`` axis: the new axes end in the order of the old."""
    in_dim = rows_t.shape[0]
    for _ in range(steps):
        values = values.reshape(in_dim, -1).T @ rows_t
    return values


def _outcome_distribution(amps: np.ndarray, rows_t: np.ndarray, steps: int) -> np.ndarray:
    """Normalized |amplitudes|^2 after ``steps`` ``_site_products`` steps,
    built one block of outcome prefixes at a time.

    After j steps the values form a (remaining system index, prefix) table,
    and the outcomes that begin with prefix p depend on column p alone and
    fill one contiguous run of the result.  So the first j steps run on the
    whole array, j the fewest after which one prefix's outcomes fit
    ``_OUTCOME_BLOCK``, and the rest run on a copy of each block of
    consecutive prefix columns, whose squared moduli go straight into their
    slice of the result.  Each entry is the same sequence of products as on
    the whole array, so the result is too, bit for bit, provided no block
    makes a product of one row, which numpy hands to BLAS gemv, whose
    rounding may differ from gemm's: so at least two steps run per block.
    The working set is the result and one block.  Rows that do not widen
    the array (the register's D^2 x D^2 Bell rows) gain nothing from
    blocks: all their steps run whole.
    """
    in_dim, out_dim = rows_t.shape
    tail = 0  # the steps run per block
    while out_dim > in_dim and tail < steps and (tail < 2 or out_dim ** (tail + 1) <= _OUTCOME_BLOCK):
        tail += 1
    table = _site_products(amps, rows_t, steps - tail).reshape(in_dim ** tail, -1)
    outcomes = out_dim ** tail  # per prefix
    width = max(1, _OUTCOME_BLOCK // outcomes) if tail else table.shape[1]
    for start in range(0, table.shape[1], width):
        block = np.ascontiguousarray(table[:, start:start + width])
        # squared in place: a product of at least one step, never the caller's array
        parts = _site_products(block, rows_t, tail).reshape(-1).view(np.float64)
        np.square(parts, out=parts)
        if not start:
            # allocated only now, so that it can take the pages of the freed
            # products, which a fresh array would fault in: at 2^16 outcomes
            # that cost about as much as all the products
            probs = np.empty(table.shape[1] * outcomes)
        np.add(parts[0::2], parts[1::2], out=probs[start * outcomes:start * outcomes + parts.size // 2])
        del block, parts  # so the next block's products do not coexist with these
    probs /= probs.sum()
    return probs


def bell_outcome_distribution(state: DenseState) -> np.ndarray:
    """Exact joint outcome probabilities, flat index base D^2, pair 0 first.

    Equals the joint distribution of the sequential pairwise collapses,
    because the pair projectors commute.  The adjacent axes (s_j, a_j) of a
    pair form one D^2 axis, which ``_outcome_distribution`` takes to the
    Bell basis by the product with conj(B) = (B^dag)^T, pair 0 first.
    """
    n_pairs, d = _paired(state), state.local_dim
    return _outcome_distribution(state.amplitudes, bell_basis_matrix(d).conj(), n_pairs)


def povm_outcome_distribution(
    system: DenseState, ancilla: DenseState | None = None
) -> np.ndarray:
    """``bell_outcome_distribution(attach_ancillas(system, ancilla))`` without
    the register: p(c_0 ... c_{n-1}) = |(a_{c_0} (x) ... (x) a_{c_{n-1}}) psi|^2.

    ``_outcome_distribution`` turns each system site, site 0 first, into a
    D^2 outcome axis with the rows a_c.  CapacityError is raised before any
    allocation when the D^(2n) outcomes exceed the budget.
    """
    ancilla = _ancilla_for(system, ancilla)
    return _outcome_distribution(system.amplitudes, _bell_povm_rows(ancilla).T, system.num_sites)


@dataclass(frozen=True, eq=False)
class BellShotStream:
    """Bell outcome codes 0..D^2-1 (D >= 2) as read-only uint8, shaped (num_shots, num_pairs).

    The samplers return the codes column-major (``order="F"``), so each
    site's outcomes are one contiguous column, the layout ``joint_outcomes``
    reads; every other layout gives the same results.  A uint8 array that
    owns its memory, in any layout, is frozen in place and kept; a view or
    any other integer dtype is copied, so the caller's array stays
    writable.  Writing through a view of the codes made before construction
    is unsupported: ``joint_outcomes`` and ``displacement_sums`` cache each
    support's counts and sums on the stream, and such a write would leave
    them stale.  A merged or reloaded stream starts with an empty cache.
    """

    local_dim: int
    num_pairs: int
    codes: np.ndarray
    seed: int | None = None
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "local_dim", _integer(self.local_dim, "local_dim"))
        object.__setattr__(self, "num_pairs", _integer(self.num_pairs, "num_pairs"))
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be at least 2, got {self.local_dim}")
        # checked before the uint8 cast, which would wrap 256 to 0 and 1.7 to 1
        codes = np.asarray(self.codes)
        if codes.dtype.kind not in "iu":
            raise ValueError(f"outcome codes must be integers, not {codes.dtype}")
        if codes.ndim != 2 or codes.shape[1] != self.num_pairs:
            raise ValueError(f"codes shape {codes.shape} does not match pairs")
        if self.local_dim ** 2 > 256:
            raise ValueError("outcome codes exceed uint8 range")
        negative = codes.dtype.kind == "i" and codes.size and int(codes.min()) < 0
        if negative or codes.size and int(codes.max()) >= self.local_dim ** 2:
            raise ValueError("outcome code outside the Bell basis")
        if codes.dtype != np.uint8 or not codes.flags.owndata:
            codes = codes.astype(np.uint8)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def num_shots(self) -> int:
        return self.codes.shape[0]

    def to_jsonl(self, path: str) -> None:
        """Write one JSON record per shot, ``{"shot_index": i, "outcomes":
        [...]}``, each outcome a ``QUBIT_BELL_LABELS`` label when D = 2 and
        an ``[h, ell]`` pair otherwise, in the bytes ``json.dumps`` writes;
        ``_jsonl_bytes`` renders them with numpy."""
        with open(path, "wb") as fh:
            fh.write(_jsonl_bytes(self.codes, self.local_dim))

    @classmethod
    def from_jsonl(cls, path: str, local_dim: int | None = None) -> "BellShotStream":
        """Read a shot stream in ``shot_index`` order.  Labeled records are a
        qubit stream; (h, ell) records do not store the dimension, so they
        need ``local_dim``, and without it raise ValueError.  A record
        without ``shot_index`` or ``outcomes``, a ``shot_index`` that is not
        an integer (a JSON boolean included) or repeats one of another
        record (as in two files joined with ``cat``), an unknown label, an h
        or ell that is not an integer in 0..D-1, or a ``local_dim`` that is
        not None or an integer of at least 2 raises ValueError; it is checked
        before the file is read.

        A file exactly as ``to_jsonl`` writes it is read in one canonical
        parse (``_parse_canonical``); any other file, and any file that
        parse does not take, goes to ``_parse_records``, which parses the
        non-blank lines as one JSON array, so text that is not a list of
        JSON values, or a record count that differs from the line count
        (two records on one line), raises ValueError too.  Both return the
        same stream for every file the canonical parse takes."""
        if local_dim is not None:
            local_dim = _integer(local_dim, "local_dim")
            if local_dim < 2:
                raise ValueError(f"local_dim must be at least 2, got {local_dim}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parsed = _parse_canonical(text, local_dim)
        d, codes = _parse_records(text, path, local_dim) if parsed is None else parsed
        return cls(d, codes.shape[1], codes)


_JSONL_HEAD = b'{"shot_index": '
_JSONL_MID = b', "outcomes": ['
_JSONL_TAIL = b"]}\n"
_JSONL_PREFIX = (_JSONL_HEAD + b"0" + _JSONL_MID).decode()


@lru_cache(maxsize=None)
def _jsonl_tokens(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (D^2, width) uint8 tables, NUL-padded: row c of the first is
    the ``json.dumps`` text of code c's label or [h, ell] pair and ", ", and
    of the second, that text alone."""
    outcome_of = QUBIT_BELL_LABELS if d == 2 else [list(divmod(c, d)) for c in range(d * d)]
    texts = [json.dumps(outcome).encode() for outcome in outcome_of]
    tokens = np.zeros((2, d * d, max(map(len, texts)) + 2), np.uint8)
    for c, t in enumerate(texts):
        tokens[0, c, : len(t) + 2] = np.frombuffer(t + b", ", np.uint8)
        tokens[1, c, : len(t)] = np.frombuffer(t, np.uint8)
    tokens.flags.writeable = False
    return tokens[0], tokens[1]


def _jsonl_bytes(codes: np.ndarray, d: int) -> bytes:
    """The JSONL text of ``to_jsonl`` for uint8 ``codes`` at dimension ``d``.

    Every row of a block of ``SHOT_BLOCK`` shots is laid out at one width:
    the head, the shot index right-aligned in the digits of the widest
    index, the middle, each code's text from ``_jsonl_tokens(d)`` followed
    by ", " (none after the last) and padded to the widest, and the tail.
    Padding is NUL, which JSON text never holds, so one mask drops it."""
    num_shots, num_pairs = codes.shape
    tokens, alone = _jsonl_tokens(d)
    slot = tokens.shape[1]
    digits = len(str(max(num_shots - 1, 0)))
    powers = 10 ** np.arange(digits - 1, -1, -1)
    begin = len(_JSONL_HEAD) + digits + len(_JSONL_MID)
    end = begin + num_pairs * slot
    blocks = []
    for first in range(0, num_shots, SHOT_BLOCK):
        block = codes[first : first + SHOT_BLOCK]
        rows = np.empty((block.shape[0], end + len(_JSONL_TAIL)), np.uint8)
        rows[:, : len(_JSONL_HEAD)] = np.frombuffer(_JSONL_HEAD, np.uint8)
        index = np.arange(first, first + block.shape[0])[:, None]
        number = index // powers % 10 + ord("0")
        number[(index < powers) & (powers > 1)] = 0  # leading zeros
        rows[:, len(_JSONL_HEAD) : begin - len(_JSONL_MID)] = number
        rows[:, begin - len(_JSONL_MID) : begin] = np.frombuffer(_JSONL_MID, np.uint8)
        rows[:, begin:end] = np.take(tokens, block, axis=0).reshape(block.shape[0], -1)
        if num_pairs:
            rows[:, end - slot : end] = np.take(alone, block[:, -1], axis=0)
        rows[:, end:] = np.frombuffer(_JSONL_TAIL, np.uint8)
        blocks.append(rows[rows != 0].tobytes())
    return b"".join(blocks)


def _parse_canonical(text: str, local_dim) -> tuple[int, np.ndarray] | None:
    """(D, codes) of a file that is byte for byte what ``_jsonl_bytes``
    writes for them, else None; it never raises.

    The first line gives the pair count and the form: labels are D = 2 when
    ``local_dim`` is None or 2, and pairs are D = ``local_dim``.  The codes
    come from the runs of label letters or of digits, and the file is taken
    only if writing them again gives its bytes.  The writer is injective, so
    such a file is one that ``_parse_records`` reads as the same (D, codes).
    """
    if not text.startswith(_JSONL_PREFIX) or not text.endswith("\n"):
        return None
    data = text.encode()
    line = data[: data.index(b"\n")]
    num_shots = data.count(b"\n")
    raw = np.frombuffer(data, np.uint8)
    if data[len(_JSONL_PREFIX)] == ord('"'):
        if local_dim not in (None, 2):
            return None
        d, num_pairs = 2, line.count(b'"F') + line.count(b'"P')
        # F and P appear nowhere else in the layout; the text ends in "\n",
        # so every letter has a next byte
        letters = np.flatnonzero((raw == ord("F")) | (raw == ord("P")))
        if letters.size != num_shots * num_pairs:
            return None
        codes = 2 * (raw[letters] == ord("P")) + (raw[letters + 1] == ord("-"))
    else:
        if local_dim is None:
            return None
        d, num_pairs = local_dim, line.count(b"[") - 1
        if not (3 <= d <= 16 and num_pairs):
            return None
        # the runs of digits, none at either end: each row's index, then h
        # and ell of each pair
        digit = np.subtract(raw, ord("0"), dtype=np.uint8) < 10
        starts = np.flatnonzero(digit[1:] & ~digit[:-1]) + 1
        if starts.size != num_shots * (1 + 2 * num_pairs):
            return None
        starts = starts.reshape(num_shots, -1)[:, 1:]
        # h and ell have one or two digits; a longer run fails the comparison
        tens, ones = raw[starts] - ord("0"), raw[starts + 1] - ord("0")
        values = np.where(digit[starts + 1], 10 * tens + ones, tens)
        h, ell = values[:, 0::2], values[:, 1::2]
        if h.max() >= d or ell.max() >= d:
            return None
        codes = h * d + ell
    codes = codes.astype(np.uint8).reshape(num_shots, num_pairs)
    return (d, codes) if _jsonl_bytes(codes, d) == data else None


def _parse_records(text: str, path: str, local_dim) -> tuple[int, np.ndarray]:
    """(D, codes) of any shot stream file, through ``json.loads``; the
    rejections are those ``BellShotStream.from_jsonl`` lists."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise ValueError(f"no shot records in {path}")
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except ValueError as err:
        raise ValueError(f"malformed shot records in {path}: {err}") from None
    if len(rows) != len(lines):
        raise ValueError(f"{len(rows)} shot records on {len(lines)} lines of {path}")
    try:
        # bool is an int; a null, 0.5 or repeated index would be sorted in silently
        by_index = {
            r["shot_index"]: r["outcomes"] for r in rows if type(r["shot_index"]) is int
        }
    except (KeyError, TypeError):
        raise ValueError("shot records need a shot_index and outcomes") from None
    if len(by_index) < len(rows):
        raise ValueError("shot_index values must be distinct integers")
    outcomes = [by_index[i] for i in sorted(by_index)]
    first = outcomes[0]
    if isinstance(first, list) and first and isinstance(first[0], str):
        if local_dim not in (None, 2):
            raise ValueError("labeled Bell outcomes imply qubit records")
        label_code = {lab: c for c, lab in enumerate(QUBIT_BELL_LABELS)}
        d = 2
        try:
            codes = np.array([[label_code[lab] for lab in row] for row in outcomes])
        except KeyError as err:
            raise ValueError(f"unknown qubit Bell label {err.args[0]!r}") from None
        except TypeError:
            raise ValueError("qubit Bell outcomes must be labels") from None
    else:
        pairs = np.array(outcomes)
        if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("qudit Bell outcomes must be [h, ell] integer pairs")
        # numpy reads true and false among integers as 1 and 0; the text
        # test spares the per-value scan on files that hold neither
        if ("true" in text or "false" in text) and any(
            type(v) is bool for row in outcomes for pair in row for v in pair
        ):
            raise ValueError("qudit Bell outcomes must be [h, ell] integer pairs")
        if local_dim is None:
            raise ValueError("[h, ell] records do not store D: pass local_dim")
        d = local_dim
        if pairs.min() < 0 or pairs.max() >= d:
            raise ValueError(f"Bell outcome (h, ell) outside 0..{d - 1}")
        codes = pairs[..., 0] * d + pairs[..., 1]
    return d, codes


def _cached(owner: BellShotStream | DenseState, kind: str, sites: tuple[int, ...], build):
    """``build(owner, sites)``, made read-only and cached on the stream or
    state under (kind, sites): its codes or amplitudes are read-only, so the
    entry never goes stale."""
    key = (kind, tuple(sites))
    table = owner._tables.get(key)
    if table is None:
        table = build(owner, key[1])
        for array in table if isinstance(table, tuple) else (table,):
            array.flags.writeable = False
        owner._tables[key] = table
    return table


def joint_outcomes(stream: BellShotStream, sites: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct joint Bell codes on ``sites`` and the number of shots of each.

    Returns the distinct rows of ``stream.codes`` on ``sites`` in
    lexicographic order and their int64 counts.  Each support, keyed by
    ``tuple(sites)``, is counted once per stream: the two arrays are cached
    on the stream and returned read-only.
    """
    return _cached(stream, "outcomes", sites, _count_outcomes)


def displacement_sums(stream: BellShotStream, sites: tuple[int, ...]) -> np.ndarray:
    """Sum over the shots of the eigenvalue of every displacement product on ``sites``.

    Entry [f_1 D + g_1, ..., f_w D + g_w] of the read-only table, shaped
    (D^2,) * w, is the sum over shots of w^e, e = sum_j (g_j h_j - f_j ell_j)
    mod D the exponent of X^f Z^g (x) X^f Z^{-g} on the outcome (h_j, ell_j) of
    ``sites[j]`` (``bell_exponents``), so every product on the support is one
    index: the sampled twin of ``displacement_table``.  The support's
    ``joint_outcomes`` histogram of D^(2w) bins takes one ``_site_products``
    step per site with the D^2 x D^2 ``_characters`` table.  The table is
    float64 at D = 2, whose characters are exactly +-1: partial sums are then
    integers of at most the shot count, so every entry is exact.  At D >= 3 it
    is complex.  It is built once per stream and support.  A support of
    more than ``CAPACITY_AMPLITUDES`` entries raises ``CapacityError``.
    """
    return _cached(stream, "sums", sites, _sum_displacements)


def _sum_displacements(stream: BellShotStream, sites: tuple[int, ...]) -> np.ndarray:
    """The table of ``displacement_sums``, uncached, from the support's histogram."""
    base, width = stream.local_dim ** 2, len(sites)
    if base ** width > CAPACITY_AMPLITUDES:
        raise CapacityError(f"{base ** width} displacement sums exceed budget {CAPACITY_AMPLITUDES}")
    digits, counts = joint_outcomes(stream, sites)
    hist = np.zeros(base ** width)
    hist[digits @ base ** np.arange(width - 1, -1, -1)] = counts
    return _site_products(hist, _characters(stream.local_dim), width).reshape((base,) * width)


def outcome_sums(stream: BellShotStream, sites: tuple[int, ...], labels) -> np.ndarray:
    """The ``displacement_sums`` entries of the label columns, read per outcome.

    Row j of the (w, m) integer ``labels`` holds the labels f D + g on
    ``sites[j]``, one column per product; entry i of the result is the sum
    over the support's distinct ``joint_outcomes`` rows of their count times
    the product of the characters of column i.  It reads at most min(D^(2w),
    num_shots) rows, so it serves supports too wide for a table.  The dtype
    is that of ``displacement_sums``, and at D = 2 the sums are exact too.

    The products are laid out one product per row, one outcome per column,
    and each row is multiplied by the counts and summed by numpy's pairwise
    ``sum`` along it.  That order is fixed by the row's length alone, so the
    BLAS thread count, which reorders a dot product's sum, changes no bit
    of the result.
    """
    digits, counts = joint_outcomes(stream, sites)
    characters = _characters(stream.local_dim)
    products = np.ones((np.shape(labels)[1], len(counts)), dtype=characters.dtype)
    for column, row in zip(digits.T, labels):
        products *= characters.T.take(row, 0).take(column, 1)
    products *= counts
    return products.sum(axis=1)


@lru_cache(maxsize=None)
def _characters(d: int) -> np.ndarray:
    """Read-only (code, f D + g) table of w^e, e from ``bell_exponents(d)``:
    float64 +-1 at D = 2, complex otherwise."""
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    table = (roots.real if d == 2 else roots)[bell_exponents(d).reshape(d * d, d * d).T]
    table.flags.writeable = False
    return table


def displacement_table(state: DenseState, sites: tuple[int, ...]) -> np.ndarray | None:
    """Exact <prod_j X^{f_j} Z^{g_j} on sites[j]> of every label product on ``sites``.

    Entry [f_1 D + g_1, ..., f_w D + g_w] of the read-only complex table,
    shaped (D^2,) * w, is the expectation of that product on the state, so
    every displacement product on the support is one index.  The table is
    built once per state and support (``_displacements``), and only when
    3w <= n: it then has at most D^(2n/3) entries, and building it took
    0.5 to 4.1 times as long as one gather over the state does (D = 2..5,
    n up to capacity, one CPU), so it pays once a few of its D^(2w) - 1
    products are read.  A wider support gives None and the caller gathers.
    The tables of one state hold at most ``CAPACITY_AMPLITUDES`` complex
    entries (16 MiB): a table that would pass that drops the others first.
    """
    if 3 * len(sites) > state.num_sites:
        return None
    return _cached(state, "displacements", sites, _displacements)


@lru_cache(maxsize=None)
def _displacement_indices(d: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(shifted, phases) on w digits of base D, both read-only: shifted[f, x]
    is the flat index x * D^w + (x + f), digit by digit mod D, of the
    (D^w, D^w) reduced density matrix, and phases[x, g] = w^(g . x)."""
    size = d ** w
    digits = np.indices((d,) * w).reshape(w, size)  # digits[j, x]: digit j of x
    sums = (digits[:, :, None] + digits[:, None, :]) % d  # [j, f, x]
    shifted = (d ** np.arange(w - 1, -1, -1) @ sums.reshape(w, -1)).reshape(size, size)
    shifted += np.arange(size) * size
    phases = np.exp(2j * np.pi * np.arange(d) / d)[(digits.T @ digits) % d]
    shifted.flags.writeable = False
    phases.flags.writeable = False
    return shifted, phases


def _displacements(state: DenseState, sites: tuple[int, ...]) -> np.ndarray:
    """The table of ``displacement_table``, from the support's reduced density
    matrix rho = M M^dag, M being the state tensor with the support's axes
    moved first and flattened to D^w rows: entry (f, g) is
    sum_x w^(g . x) rho[x, x + f], one matrix product of the D^w shifted
    diagonals with the phases, its (f, g) digits then interleaved."""
    d, w = state.local_dim, len(sites)
    # run only on a miss, so the entries it drops are rebuilt when next read
    if d ** (2 * w) + sum(t.size for t in state._tables.values()) > CAPACITY_AMPLITUDES:
        state._tables.clear()
    rows = np.moveaxis(state.as_tensor(), sites, range(w)).reshape(d ** w, -1)
    density = (rows @ rows.conj().T).reshape(-1)
    shifted, phases = _displacement_indices(d, w)
    table = (density[shifted] @ phases).reshape((d,) * (2 * w))
    order = [axis for j in range(w) for axis in (j, w + j)]
    return np.ascontiguousarray(table.transpose(order)).reshape((d * d,) * w)


def _count_outcomes(stream: BellShotStream, sites: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``joint_outcomes`` uncached: rows keyed as key * D^2 + code site by
    site and counted with ``bincount`` when there are at most 32 possible
    rows per shot, D^(2w) <= 32 * num_shots, and sorted as byte strings past
    that.  Both give the same arrays; their costs cross between about 32 and
    64 possible rows per shot (D = 2, 3, 4 and 500 to 100000 shots, on one
    CPU), as the sort grows with the shots and ``bincount`` with the rows.
    The keys are built in the narrowest unsigned dtype that holds D^(2w)
    (uint8 for a qubit pair), one site's column at a time: the samplers'
    codes are column-major, so each column is contiguous, and any other
    layout gives the same arrays."""
    base = stream.local_dim ** 2
    width = len(sites)
    if base ** width > 32 * stream.num_shots:
        rows = np.ascontiguousarray(stream.codes[:, list(sites)]).view(np.dtype((np.void, width)))
        distinct, counts = np.unique(rows, return_counts=True)
        return distinct.view(np.uint8).reshape(len(distinct), width), counts
    # bincount takes no uint64, so keys past uint32 (2^27 shots and more) stay int64
    dtype = np.min_scalar_type(base ** width) if base ** width >> 32 == 0 else np.int64
    keys = np.zeros(stream.num_shots, dtype=dtype)
    for site in sites:
        keys *= base
        keys += stream.codes[:, site]
    counts = np.bincount(keys, minlength=base ** width)
    keys = np.flatnonzero(counts)
    counts = counts[keys]
    digits = np.empty((len(keys), width), dtype=np.uint8)
    for j in reversed(range(width)):
        keys, digits[:, j] = np.divmod(keys, base)
    return digits, counts


def _check_sampling(num_shots, seed, workers) -> tuple[int, int, int]:
    """The samplers' counts and seed as Python ints (``_integer``); a
    float, a bool, fewer than one shot or worker, or a negative seed raises
    ValueError naming the argument."""
    num_shots, seed, workers = (_integer(v, name) for v, name in
                                ((num_shots, "num_shots"), (seed, "seed"), (workers, "workers")))
    if num_shots < 1:
        raise ValueError(f"need at least one shot, got {num_shots}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return num_shots, seed, workers


def _outcome_cdf(state: DenseState, key: tuple, distribution) -> np.ndarray:
    """The normalized CDF of ``distribution()``, a fresh float64 outcome
    distribution of ``state``, cached read-only on the state under ``key``.

    The cumulative sum is taken in place in the distribution's own array,
    which ``_outcome_distribution`` fills one block of outcomes at a time,
    so building the CDF holds one D^(2n)-entry array and one block.  The
    state's amplitudes are read-only, so the entry never goes stale.  A state holds
    one entry: another key drops it before the new distribution is
    computed, so at most one D^(2n)-entry CDF lives per state.
    """
    cdf = state._cdf.get(key)
    if cdf is None:
        state._cdf.clear()
        cdf = distribution()
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        state._cdf[key] = cdf
    return cdf


def _draw_codes(
    cdf: np.ndarray, n_sites: int, d: int, num_shots: int, seed: int
) -> np.ndarray:
    """Draw ``num_shots`` flat outcomes from the normalized ``cdf`` of an
    outcome distribution (``_outcome_cdf``) as (shots, n_sites) codes.

    Shots come in blocks of ``SHOT_BLOCK``; block b draws its uniforms from
    SeedSequence(seed, spawn_key=(b,)), and each uniform u becomes the
    outcome ``cdf.searchsorted(u, side="right")``.  Per block this draws
    exactly what ``Generator.choice(p=probs)`` draws, without rebuilding
    the CDF and re-validating ``probs`` per call.  The lookup maps every
    uniform on its own, so the uniforms of several blocks are grouped and
    looked up together: as many whole blocks as hold at most
    max(``SHOT_BLOCK``, cdf.size) uniforms, so no group's temporaries
    outgrow the CDF itself.  Each group is looked up in sorted order, which
    walks the CDF once front to back instead of jumping through it, and
    each outcome is stored at its uniform's place.

    The codes are uint8 in column-major (``order="F"``) layout, so each
    site's outcomes are one contiguous column; a flat outcome is below
    ``CAPACITY_AMPLITUDES``, so its base-D^2 digits come from uint32
    ``divmod``, last site first.
    """
    group = max(SHOT_BLOCK, cdf.size) // SHOT_BLOCK * SHOT_BLOCK
    flat = np.empty(num_shots, dtype=np.uint32)
    uniforms = np.empty(min(group, num_shots))
    for start in range(0, num_shots, group):
        stop = min(start + group, num_shots)
        part = uniforms[: stop - start]
        for first in range(start, stop, SHOT_BLOCK):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first // SHOT_BLOCK,)))
            rng.random(out=part[first - start : min(first + SHOT_BLOCK, stop) - start])
        order = part.argsort()
        flat[start + order] = cdf.searchsorted(part[order], side="right")
    codes = np.empty((num_shots, n_sites), dtype=np.uint8, order="F")
    base = np.uint32(d * d)
    for j in range(n_sites - 1, -1, -1):
        np.divmod(flat, base, out=(flat, codes[:, j]))
    return codes


def sample_bell_shots(
    state: DenseState,
    num_shots: int,
    seed: int,
    workers: int = 1,
) -> BellShotStream:
    """Draw ``num_shots`` joint Bell outcomes of a register's site pairs from
    the exact distribution.

    Shots are produced in blocks of ``SHOT_BLOCK``; block b derives its RNG
    from SeedSequence(seed, spawn_key=(b,)), so the result is a pure
    function of (state, num_shots, seed).  The distribution's CDF is cached
    on the state, so a later run on the same state only draws.  ``workers``
    must be at least 1 and has no effect on the output or the speed: shots
    are drawn in one thread.
    """
    num_shots, seed, workers = _check_sampling(num_shots, seed, workers)
    n_pairs = _paired(state)
    d = state.local_dim
    cdf = _outcome_cdf(state, ("bell",), lambda: bell_outcome_distribution(state))
    codes = _draw_codes(cdf, n_pairs, d, num_shots, seed)
    return BellShotStream(local_dim=d, num_pairs=n_pairs, codes=codes, seed=seed)


def sample_povm_shots(
    system: DenseState,
    num_shots: int,
    seed: int,
    ancilla: DenseState | None = None,
    workers: int = 1,
) -> BellShotStream:
    """The stream of ``sample_bell_shots(attach_ancillas(system, ancilla), ...)``
    drawn from the system state alone (``povm_outcome_distribution``).

    The ancilla defaults to the tetrahedral state.  The stream is a pure
    function of (system, ancilla, num_shots, seed).  The distribution's CDF
    is cached on ``system`` under the ancilla's amplitude bytes, so a later
    run with an equal ancilla, even another ``DenseState`` object, only
    draws.  ``workers`` must be at least 1 and has no effect on the output
    or the speed: shots are drawn in one thread.
    """
    num_shots, seed, workers = _check_sampling(num_shots, seed, workers)
    ancilla = _ancilla_for(system, ancilla)
    n, d = system.num_sites, system.local_dim
    cdf = _outcome_cdf(system, ("povm", ancilla.amplitudes.tobytes()),
                       lambda: povm_outcome_distribution(system, ancilla))
    codes = _draw_codes(cdf, n, d, num_shots, seed)
    return BellShotStream(local_dim=d, num_pairs=n, codes=codes, seed=seed)
