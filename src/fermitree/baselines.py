"""Jordan-Wigner and Bravyi-Kitaev Majorana tables for weight comparisons.

Both return the same shape of table as the ternary-tree construction: a
tuple of 2n PauliStrings, entry u-1 holding Majorana operator u.  Modes
are 1-indexed in the Majorana numbering (operators 2j-1 and 2j belong to
mode j) and live on qubits 0..n-1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .pauli import PauliString


def jordan_wigner(n_modes: int) -> tuple[PauliString, ...]:
    """Z-chain table: gamma_{2j-1} = Z...Z X_{j-1}, gamma_{2j} = Z...Z Y_{j-1}."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    table = []
    for j in range(n_modes):
        chain = {q: "Z" for q in range(j)}
        table.append(PauliString.from_map({**chain, j: "X"}))
        table.append(PauliString.from_map({**chain, j: "Y"}))
    return tuple(table)


class FenwickTree:
    """Binary index tree over n modes, built by recursive interval halving.

    Node j stores the cumulative structure of the interval it owns; the
    root is node n-1 and owns [0, n-1].  The update, parity and remainder
    sets drive the Bravyi-Kitaev operator construction.
    """

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError(f"need at least one mode, got {n_modes}")
        self.n_modes = n_modes
        self._parent = [-1] * n_modes
        self._children: list[list[int]] = [[] for _ in range(n_modes)]
        # _left[j] is the start of the interval owned by node j (j is its end).
        self._left = list(range(n_modes))

        def descend(left: int, right: int, parent: int) -> None:
            if left >= right:
                return
            pivot = (left + right) >> 1
            self._parent[pivot] = parent
            self._children[parent].append(pivot)
            self._left[pivot] = left
            descend(left, pivot, pivot)
            descend(pivot + 1, right, parent)

        descend(0, n_modes - 1, n_modes - 1)
        self._left[n_modes - 1] = 0

    def update_set(self, j: int) -> tuple[int, ...]:
        """Ancestors of node j (modes whose stored parity flips with j)."""
        self._check(j)
        out = []
        node = self._parent[j]
        while node != -1:
            out.append(node)
            node = self._parent[node]
        return tuple(sorted(out))

    def parity_set(self, j: int) -> tuple[int, ...]:
        """Nodes whose intervals tile [0, j-1]; their Z product reads the parity."""
        self._check(j)
        out = []
        end = j - 1
        while end >= 0:
            out.append(end)
            end = self._left[end] - 1
        return tuple(sorted(out))

    def remainder_set(self, j: int) -> tuple[int, ...]:
        """Parity set minus children of j."""
        kids = set(self._children[j])
        return tuple(q for q in self.parity_set(j) if q not in kids)

    def _check(self, j: int) -> None:
        if not 0 <= j < self.n_modes:
            raise ValueError(f"mode {j} outside 0..{self.n_modes - 1}")


def bravyi_kitaev(n_modes: int) -> tuple[PauliString, ...]:
    """Fenwick-tree table with weights bounded by ceil(log2 n) + 1.

    gamma_{2j+1} acts as X on mode j and its update set with Z on the
    parity set; gamma_{2j+2} swaps the local X for Y and drops the Z's
    already covered by j's children.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    tree = FenwickTree(n_modes)
    table = []
    for j in range(n_modes):
        update = {q: "X" for q in tree.update_set(j)}
        parity = {q: "Z" for q in tree.parity_set(j)}
        remainder = {q: "Z" for q in tree.remainder_set(j)}
        table.append(PauliString.from_map({**parity, **update, j: "X"}))
        table.append(PauliString.from_map({**remainder, **update, j: "Y"}))
    return tuple(table)


def bravyi_kitaev_max_weight_bound(n_modes: int) -> int:
    """ceil(log2 n) + 1, computed in exact integer arithmetic."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return (n_modes - 1).bit_length() + 1


@dataclass(frozen=True)
class WeightStats:
    """Weight summary of a Majorana table."""

    n_operators: int
    mean_weight: float
    max_weight: int
    histogram: dict[int, int]


def weight_stats(table: tuple[PauliString, ...]) -> WeightStats:
    if not table:
        raise ValueError("empty operator table")
    weights = [op.weight for op in table]
    return WeightStats(
        n_operators=len(table),
        mean_weight=sum(weights) / len(weights),
        max_weight=max(weights),
        histogram=dict(sorted(Counter(weights).items())),
    )
