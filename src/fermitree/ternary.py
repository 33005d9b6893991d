"""Ternary-tree encoding of Majorana operators into Pauli strings.

The 2n+1 root-to-leaf paths of a ternary tree with n internal nodes give
2n+1 mutually anticommuting Pauli strings; dropping one yields a mapping
for the 2n Majorana operators of n fermionic modes.  Every string has
weight at most ceil(log3(2n+1)), which saturates the log3(2n) lower bound
on the mean weight up to rounding.

Conventions fixed here:
    * nodes are numbered level by level, left to right, with the root 0;
    * the three child branches carry X, Y, Z in that order;
    * incomplete trees extend the leftmost leaves of the last complete
      level, so leaf qubit labels match their complete-tree node numbers;
    * the dropped path is the all-Z path (rightmost leaf of the base
      tree), which is never extended;
    * Majorana index u runs from 1 to 2n over the kept paths in
      lexicographic order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

from .baselines import weight_stats
from .pauli import PauliString, product

BRANCH_LETTERS = ("X", "Y", "Z")

TreePath = tuple[int, ...]


def path_operator(path: TreePath) -> PauliString:
    """Pauli string of a root-to-leaf path: branch letter at each visited node.

    Nodes are numbered level by level, so branch b of node k is node 3k + 1 + b.
    """
    letters = {}
    node = 0
    for step in path:
        if step not in (0, 1, 2):
            raise ValueError(f"invalid branch {step}")
        letters[node] = BRANCH_LETTERS[step]
        node = 3 * node + 1 + step
    return PauliString.from_map(letters)


def _tree_shape(n_modes: int) -> tuple[int, tuple[TreePath, ...], TreePath]:
    """Base height h, extended leaves and dropped path of the n-mode tree.

    The base tree is the largest complete ternary tree with at most 2n+1
    leaves; its leftmost m = n - (3**h - 1)/2 leaves are extended by one
    level, and its all-Z leaf is dropped.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    h = 0
    while 3 ** (h + 1) <= 2 * n_modes + 1:
        h += 1
    m = n_modes - (3 ** h - 1) // 2
    extended = tuple(itertools.islice(itertools.product((0, 1, 2), repeat=h), m))
    return h, extended, (2,) * h


@dataclass(frozen=True)
class TernaryTreeMapping:
    """Majorana-to-Pauli table for n fermionic modes on n qubits.

    The tree is fixed by ``n_modes`` alone, so its shape is derived, not
    stored.

    Attributes:
        n_modes: number of fermionic modes n.
        majorana_table: kept path operators in lexicographic path order;
            entry u-1 represents Majorana operator u, u = 1..2n.
    """

    n_modes: int
    majorana_table: tuple[PauliString, ...] = field(repr=False)

    @property
    def dropped_path(self) -> TreePath:
        """The all-Z path excluded from the table."""
        return _tree_shape(self.n_modes)[2]


def build_mapping(n_modes: int) -> TernaryTreeMapping:
    """Construct the ternary-tree mapping for ``n_modes`` fermionic modes.

    Extending a leaf replaces its path operator by three new ones acting
    additionally on the new node's qubit, and the new node receives the
    qubit label the leaf had, so labels stay contiguous in 0..n-1.
    """
    h, extended, dropped = _tree_shape(n_modes)
    grown = set(extended)
    kept: list[TreePath] = []
    for leaf in itertools.product((0, 1, 2), repeat=h):
        if leaf in grown:
            kept.extend(leaf + (c,) for c in (0, 1, 2))
        elif leaf != dropped:
            kept.append(leaf)
    if len(kept) != 2 * n_modes:
        raise AssertionError("mapping must contain exactly 2n operators")
    return TernaryTreeMapping(n_modes, tuple(path_operator(p) for p in kept))


def weight_lower_bound(n_modes: int) -> float:
    """Information-theoretic lower bound log3(2n) on the mean Pauli weight.

    Holds for every encoding of 2n anticommuting Majorana operators on any
    number of qubits, hence for Jordan-Wigner and Bravyi-Kitaev too.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return math.log(2 * n_modes) / math.log(3)


@dataclass(frozen=True)
class MappingVerification:
    """Outcome of the exhaustive algebraic checks on a Majorana table."""

    n_operators: int
    anticommutation_failures: tuple[tuple[int, int], ...]
    square_failures: tuple[int, ...]
    identity_product_ok: bool | None
    identity_product_phase_power: int | None
    mean_weight: float
    max_weight: int

    @property
    def passed(self) -> bool:
        return (
            not self.anticommutation_failures
            and not self.square_failures
            and self.identity_product_ok is not False
        )


def _anticommutation_failures(table: tuple[PauliString, ...]) -> tuple[tuple[int, int], ...]:
    """1-based pairs (a, b), a < b, of table entries that commute.

    A letter has an x part (X, Y) and a z part (Y, Z); entries a and b
    anticommute when the symplectic form sum_q (x_a z_b + z_a x_b) is odd
    (Aaronson and Gottesman).  One pass gives each qubit label two Python
    ints over entry indices: the entries whose letter there has an x part,
    and those with a z part.  Entry a's row XORs the z set for each x part
    of its letters and the x set for each z part, so bit b of the row is set
    exactly when a and b anticommute.  The cost is one XOR of an m-bit int
    per letter plus one scan per entry for the zero bits above a.  Labels
    of any size are dict keys.  Pairs come out in
    ``itertools.combinations`` order.
    """
    x_sets: dict[int, int] = {}
    z_sets: dict[int, int] = {}
    for u, op in enumerate(table):
        bit = 1 << u
        for q, letter in op.letters:
            if letter != "Z":
                x_sets[q] = x_sets.get(q, 0) | bit
            if letter != "X":
                z_sets[q] = z_sets.get(q, 0) | bit
    full = (1 << len(table)) - 1
    failures: list[tuple[int, int]] = []
    for a, op in enumerate(table):
        row = 0
        for q, letter in op.letters:
            if letter != "Z":
                row ^= z_sets.get(q, 0)
            if letter != "X":
                row ^= x_sets.get(q, 0)
        # bit i of ``commuting`` is entry a + 1 + i, read lowest bit first
        commuting = (full ^ row) >> (a + 1)
        if commuting:
            bits = bin(commuting)[:1:-1]
            failures.extend((a + 1, a + 2 + i) for i, c in enumerate(bits) if c == "1")
    return tuple(failures)


def verify_table(table: tuple[PauliString, ...]) -> MappingVerification:
    """Exhaustive anticommutation and involution checks on a Majorana table.

    Applies to any encoding (failures are reported as 1-based index
    pairs, from the bitset rows of ``_anticommutation_failures``); the
    tree identity-product fields stay None.  An entry i^k P squares to
    (-1)^k I, so it fails the involution check exactly when k is odd.
    """
    stats = weight_stats(table)
    return MappingVerification(
        n_operators=len(table),
        anticommutation_failures=_anticommutation_failures(table),
        square_failures=tuple(u + 1 for u, op in enumerate(table) if op.phase_power % 2),
        identity_product_ok=None,
        identity_product_phase_power=None,
        mean_weight=stats.mean_weight,
        max_weight=stats.max_weight,
    )


def verify_mapping(mapping: TernaryTreeMapping) -> MappingVerification:
    """Check the defining Majorana algebra plus the tree identity.

    Verifies that all table entries pairwise anticommute, that each squares
    to +identity, and that the ordered product of the 2n table entries times
    the dropped path's operator is a pure phase times the identity.  For a
    built table that is the product of all 2n+1 path operators in
    lexicographic order, the all-Z path coming last: every node letter
    appears exactly three times, once per branch.
    """
    base = verify_table(mapping.majorana_table)
    total = product((*mapping.majorana_table, path_operator(mapping.dropped_path)))
    identity_ok = not total.letters
    return replace(
        base,
        identity_product_ok=identity_ok,
        identity_product_phase_power=total.phase_power if identity_ok else None,
    )


def max_weight_bound(n_modes: int) -> int:
    """ceil(log3(2n+1)): no path is longer than the extended tree height."""
    h = _tree_shape(n_modes)[0]
    return h if 3 ** h == 2 * n_modes + 1 else h + 1


# -- serialization ---------------------------------------------------------


def _tree_fields(n_modes: int) -> dict:
    h, extended, dropped = _tree_shape(n_modes)
    return {
        "num_qubits": n_modes,
        "base_height": h,
        "extended_leaves": [list(p) for p in extended],
        "dropped_path": list(dropped),
    }


def mapping_to_dict(mapping: TernaryTreeMapping) -> dict:
    return {
        "kind": "ternary",
        "n_modes": mapping.n_modes,
        **_tree_fields(mapping.n_modes),
        "majorana_table": [str(op) for op in mapping.majorana_table],
    }


def mapping_from_dict(data: dict) -> TernaryTreeMapping:
    """Rebuild a mapping from its JSON payload; ValueError if it is malformed.

    The tree fields must equal the ones ``n_modes`` determines.  They are
    compared as JSON texts, so ``true`` does not pass for ``1``.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != "ternary":
        raise ValueError(f"not a ternary mapping payload: kind={kind!r}")
    n_modes, table = data.get("n_modes"), data.get("majorana_table")
    if type(n_modes) is not int:
        raise ValueError("n_modes must be an integer")
    if not isinstance(table, list) or any(not isinstance(s, str) for s in table):
        raise ValueError("majorana_table must be a list of Pauli string texts")
    if len(table) != 2 * n_modes:
        raise ValueError(f"majorana_table has {len(table)} entries, not 2 * n_modes = {2 * n_modes}")
    for key, value in _tree_fields(n_modes).items():
        if json.dumps(data.get(key)) != json.dumps(value):
            raise ValueError(f"{key} does not match the tree of n_modes = {n_modes}")
    return TernaryTreeMapping(n_modes, tuple(PauliString.parse(s) for s in table))


def load_mapping(path: str) -> TernaryTreeMapping:
    with open(path, encoding="utf-8") as fh:
        return mapping_from_dict(json.load(fh))
