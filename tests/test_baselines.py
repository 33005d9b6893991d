"""Tests for the Jordan-Wigner and Bravyi-Kitaev reference mappings."""

import pytest

from fermitree.baselines import (
    bravyi_kitaev,
    bravyi_kitaev_max_weight_bound,
    jordan_wigner,
    weight_stats,
)
from fermitree.ternary import verify_table
from oracles import FenwickTree, reference_bravyi_kitaev


def children(tree, j):
    """Sorted children of node j of a FenwickTree."""
    return tuple(sorted(tree._children[j]))


def test_jordan_wigner_table():
    assert [str(op) for op in jordan_wigner(3)] == [
        "+ X0",
        "+ Y0",
        "+ Z0 X1",
        "+ Z0 Y1",
        "+ Z0 Z1 X2",
        "+ Z0 Z1 Y2",
    ]


def test_jordan_wigner_mean_weight():
    # mode j contributes two weight-j operators, so the mean is (n+1)/2
    for n in (1, 2, 5, 16):
        stats = weight_stats(jordan_wigner(n))
        assert stats.mean_weight == pytest.approx((n + 1) / 2)
        assert stats.max_weight == n


def test_fenwick_sets_n4():
    tree = FenwickTree(4)
    assert [tree.update_set(j) for j in range(4)] == [(1, 3), (3,), (3,), ()]
    assert [children(tree, j) for j in range(4)] == [(), (0,), (), (1, 2)]
    assert [tree.parity_set(j) for j in range(4)] == [(), (0,), (1,), (1, 2)]
    assert [tree.remainder_set(j) for j in range(4)] == [(), (), (1,), ()]


def test_fenwick_parity_partitions_prefix():
    # the parity set of j tiles exactly the interval [0, j-1]
    for n in (3, 7, 8, 16, 21):
        tree = FenwickTree(n)
        for j in range(n):
            covered = []
            for node in tree.parity_set(j):
                covered.extend(range(tree._left[node], node + 1))
            assert sorted(covered) == list(range(j))


def test_fenwick_remainder_matches_ancestor_route():
    # independent construction: children of ancestors of j with index < j
    for n in (2, 5, 8, 13, 16):
        tree = FenwickTree(n)
        for j in range(n):
            via_ancestors = sorted(
                c
                for a in tree.update_set(j)
                for c in children(tree, a)
                if c < j
            )
            assert list(tree.remainder_set(j)) == via_ancestors
            # and the parity set is its disjoint union with j's children
            merged = sorted(set(via_ancestors) | set(children(tree, j)))
            assert list(tree.parity_set(j)) == merged


def test_fenwick_guards():
    with pytest.raises(ValueError):
        FenwickTree(0)
    with pytest.raises(ValueError):
        FenwickTree(3).update_set(3)


def test_bravyi_kitaev_n2():
    assert [str(op) for op in bravyi_kitaev(2)] == [
        "+ X0 X1",
        "+ Y0 X1",
        "+ Z0 X1",
        "+ Y1",
    ]


def test_bravyi_kitaev_matches_reference_tree():
    # the two-index-list builder against the tree object it replaced
    for n in range(1, 257):
        assert bravyi_kitaev(n) == reference_bravyi_kitaev(n), n


def test_bravyi_kitaev_n1_matches_jw():
    assert bravyi_kitaev(1) == jordan_wigner(1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 32])
def test_bravyi_kitaev_algebra(n):
    report = verify_table(bravyi_kitaev(n))
    assert report.passed
    assert not report.anticommutation_failures
    assert not report.square_failures
    assert report.identity_product_ok is None


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_bravyi_kitaev_weight_bound(n):
    stats = weight_stats(bravyi_kitaev(n))
    assert stats.max_weight <= bravyi_kitaev_max_weight_bound(n)


def test_jordan_wigner_algebra():
    for n in (1, 3, 8):
        assert verify_table(jordan_wigner(n)).passed


def test_weight_stats():
    stats = weight_stats(jordan_wigner(2))
    assert (stats.mean_weight, stats.max_weight) == (1.5, 2)
    with pytest.raises(ValueError):
        weight_stats(())


def test_guards():
    with pytest.raises(ValueError):
        jordan_wigner(0)
    with pytest.raises(ValueError):
        bravyi_kitaev(-1)
    with pytest.raises(ValueError):
        bravyi_kitaev_max_weight_bound(0)
