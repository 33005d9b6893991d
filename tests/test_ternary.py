"""Tests for the ternary-tree Majorana mapping."""

import json
import math

import pytest

from fermitree import ternary
from fermitree.pauli import PauliString
from fermitree.ternary import (
    build_mapping,
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    max_weight_bound,
    path_operator,
    verify_mapping,
    verify_table,
    weight_lower_bound,
)
from test_verify_table import all_paths

# level-order node numbers worked out by hand on the first three levels
NODE_INDEX_CASES = [
    ((), 0, 0),
    ((0,), 1, 1),
    ((1,), 1, 2),
    ((2,), 1, 3),
    ((0, 0), 2, 4),
    ((0, 2), 2, 6),
    ((1, 0), 2, 7),
    ((2, 2), 2, 12),
    ((1, 0, 2), 3, 24),
]


@pytest.mark.parametrize("path,level,expected", NODE_INDEX_CASES)
def test_node_index(path, level, expected):
    # the letter of the step after the first ``level`` sits on node ``expected``
    for step, letter in enumerate("XYZ"):
        assert dict(path_operator(path[:level] + (step,)).letters)[expected] == letter


def test_node_index_prefix_consistency():
    # the node after l steps only depends on the first l branches
    assert path_operator((1, 0, 2)).letters[:2] == path_operator((1, 0)).letters


def test_node_index_guards():
    # a branch outside 0..2 at any level names no node
    for bad in [(3,), (0, -1), (1, 2, 5)]:
        with pytest.raises(ValueError, match="invalid branch"):
            path_operator(bad)


def test_path_operator_examples():
    assert str(path_operator((1, 0))) == "+ Y0 X2"
    assert str(path_operator((2, 2))) == "+ Z0 Z3"
    assert path_operator(()) == PauliString.identity()


def test_mapping_n1():
    m = build_mapping(1)
    assert [str(op) for op in m.majorana_table] == ["+ X0", "+ Y0"]
    assert m.dropped_path == (2,)
    assert ternary._tree_shape(1)[1] == ()


def test_mapping_n2():
    m = build_mapping(2)
    assert [str(op) for op in m.majorana_table] == [
        "+ X0 X1",
        "+ X0 Y1",
        "+ X0 Z1",
        "+ Y0",
    ]
    assert ternary._tree_shape(2)[1] == ((0,),)
    assert m.dropped_path == (2,)


def test_mapping_n3():
    m = build_mapping(3)
    assert [str(op) for op in m.majorana_table] == [
        "+ X0 X1",
        "+ X0 Y1",
        "+ X0 Z1",
        "+ Y0 X2",
        "+ Y0 Y2",
        "+ Y0 Z2",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 13, 14, 27, 40])
def test_structure_bookkeeping(n):
    m = build_mapping(n)
    assert len(m.majorana_table) == 2 * n
    assert len(all_paths(m)) == 2 * n + 1
    assert m.dropped_path == (2,) * ternary._tree_shape(n)[0]
    assert m.dropped_path not in ternary._tree_shape(n)[1]
    # qubit labels are exactly 0..n-1
    used = set()
    for op in m.majorana_table:
        used.update(q for q, _ in op.letters)
    assert used == set(range(n))
    # extension count matches the incomplete-tree arithmetic
    internal = (3 ** ternary._tree_shape(n)[0] - 1) // 2
    assert len(ternary._tree_shape(n)[1]) == n - internal


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 20, 40])
def test_verification_and_weights(n):
    m = build_mapping(n)
    report = verify_mapping(m)
    assert report.passed
    assert not report.anticommutation_failures
    assert not report.square_failures
    assert report.max_weight == max_weight_bound(n)
    assert report.mean_weight >= weight_lower_bound(n) - 1e-12
    assert report.n_operators == 2 * n


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_identity_product_phase(n):
    # product over all 2n+1 paths in lexicographic order is i^n times identity
    report = verify_mapping(build_mapping(n))
    assert report.identity_product_ok
    assert report.identity_product_phase_power == n % 4


def test_verification_catches_corruption():
    m = build_mapping(2)
    broken = m.majorana_table[:3] + (PauliString.single(0, "X"),)
    report = verify_table(broken)
    assert report.anticommutation_failures
    assert not report.passed
    phased = m.majorana_table[:3] + (PauliString.single(0, "Y", 1),)
    report = verify_table(phased)
    assert 4 in report.square_failures


def test_max_weight_bound_formula():
    for n in range(1, 200):
        assert max_weight_bound(n) == math.ceil(math.log(2 * n + 1, 3) - 1e-12)


def test_weight_lower_bound_values():
    assert weight_lower_bound(1) == pytest.approx(math.log(2) / math.log(3))
    assert weight_lower_bound(13) == pytest.approx(math.log(26) / math.log(3))
    with pytest.raises(ValueError):
        weight_lower_bound(0)


def test_build_mapping_guards():
    with pytest.raises(ValueError):
        build_mapping(0)


def test_json_round_trip(tmp_path):
    m = build_mapping(5)
    again = mapping_from_dict(mapping_to_dict(m))
    assert again == m
    path = tmp_path / "mapping.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mapping_to_dict(m), fh)
    assert load_mapping(str(path)) == m
    with pytest.raises(ValueError):
        mapping_from_dict({"kind": "jw"})
