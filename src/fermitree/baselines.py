"""Jordan-Wigner and Bravyi-Kitaev Majorana tables for weight comparisons.

Both return the same shape of table as the ternary-tree construction: a
tuple of 2n PauliStrings, entry u-1 holding Majorana operator u.  Modes
are 1-indexed in the Majorana numbering (operators 2j-1 and 2j belong to
mode j) and live on qubits 0..n-1.  The Bravyi-Kitaev table is read off
two index lists of the interval-halving tree, each node's parent and the
first mode it owns; no tree object is built or exported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliString, _canonical


def jordan_wigner(n_modes: int) -> tuple[PauliString, ...]:
    """Z-chain table: gamma_{2j-1} = Z...Z X_{j-1}, gamma_{2j} = Z...Z Y_{j-1}."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    table = []
    chain: tuple[tuple[int, str], ...] = ()  # Z on qubits 0..j-1
    for j in range(n_modes):
        table.append(_canonical((*chain, (j, "X")), 0))
        table.append(_canonical((*chain, (j, "Y")), 0))
        chain += ((j, "Z"),)
    return tuple(table)


def bravyi_kitaev(n_modes: int) -> tuple[PauliString, ...]:
    """Fenwick-tree table with weights bounded by ceil(log2 n) + 1.

    Recursive interval halving makes node j own modes left[j]..j, the root
    n-1 owning them all.  gamma_{2j+1} acts as X on mode j and on its
    ancestors (the update set) and as Z on the nodes whose intervals tile
    0..j-1 (the parity set).  gamma_{2j+2} swaps the local X for Y and
    drops the Z's of j's children, which tile left[j]..j-1; the rest tile
    0..left[j]-1 (the remainder set).  Each tiling lies below j and every
    ancestor above it, so the letters are made in qubit order: the tiling
    of 0..end extends that of 0..left[end]-1 by end, and j's update set
    prepends j's parent to its parent's.
    """
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    parent = [-1] * n_modes
    left = list(range(n_modes))

    def descend(lo: int, hi: int, up: int) -> None:
        if lo >= hi:
            return
        pivot = (lo + hi) >> 1
        parent[pivot] = up  # up == hi > pivot: a parent lies above its children
        left[pivot] = lo
        descend(lo, pivot, pivot)
        descend(pivot + 1, hi, up)

    descend(0, n_modes - 1, n_modes - 1)
    left[n_modes - 1] = 0

    # tiling[end + 1]: Z on the nodes tiling 0..end, so tiling[0] is empty
    tiling: list[tuple[tuple[int, str], ...]] = [()]
    for end in range(n_modes):
        tiling.append((*tiling[left[end]], (end, "Z")))
    update: list[tuple[tuple[int, str], ...]] = [()] * n_modes
    for j in range(n_modes - 2, -1, -1):
        update[j] = ((parent[j], "X"), *update[parent[j]])

    table = []
    for j in range(n_modes):
        table.append(_canonical((*tiling[j], (j, "X"), *update[j]), 0))
        table.append(_canonical((*tiling[left[j]], (j, "Y"), *update[j]), 0))
    return tuple(table)


def bravyi_kitaev_max_weight_bound(n_modes: int) -> int:
    """ceil(log2 n) + 1, computed in exact integer arithmetic."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return (n_modes - 1).bit_length() + 1


@dataclass(frozen=True)
class WeightStats:
    """Weight summary of a Majorana table."""

    mean_weight: float
    max_weight: int


def weight_stats(table: tuple[PauliString, ...]) -> WeightStats:
    if not table:
        raise ValueError("empty operator table")
    weights = [op.weight for op in table]
    return WeightStats(
        mean_weight=sum(weights) / len(weights),
        max_weight=max(weights),
    )
