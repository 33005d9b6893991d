"""Unit tests for the phase-tracked Pauli string algebra."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitree.pauli import PauliString, masks_text, product, to_masks
from oracles import from_masks, letter_product, letters_anticommute, mask_product, to_dense


def test_single_qubit_product_table():
    x = PauliString.single(0, "X")
    y = PauliString.single(0, "Y")
    z = PauliString.single(0, "Z")
    assert x * y == PauliString.single(0, "Z", 1)
    assert y * z == PauliString.single(0, "X", 1)
    assert z * x == PauliString.single(0, "Y", 1)
    assert y * x == PauliString.single(0, "Z", 3)
    assert z * y == PauliString.single(0, "X", 3)
    assert x * z == PauliString.single(0, "Y", 3)
    for p in (x, y, z):
        assert p * p == PauliString.identity()


def test_phase_accumulation():
    i = PauliString.identity(1)
    assert (i * i).phase == -1
    assert (i * i * i).phase == -1j
    assert (i * i * i * i) == PauliString.identity()
    assert PauliString.identity(7).phase_power == 3


def test_disjoint_supports_merge():
    a = PauliString.from_map({0: "X", 2: "Z"})
    b = PauliString.from_map({1: "Y", 3: "X"})
    ab = a * b
    assert ab.letters == ((0, "X"), (1, "Y"), (2, "Z"), (3, "X"))
    assert ab.phase_power == 0
    assert ab.weight == 4


def test_weight_and_support():
    p = PauliString.from_map({5: "X", 1: "Y"})
    assert p.weight == 2
    assert p.letters == ((1, "Y"), (5, "X"))
    assert PauliString.identity().weight == 0


def test_known_anticommutation():
    assert letters_anticommute(PauliString.single(0, "X"), PauliString.single(0, "Y"))
    assert not letters_anticommute(PauliString.single(0, "X"), PauliString.single(1, "Y"))
    # XX vs YZ: differs on both shared sites, even count, commutes
    a = PauliString.from_map({0: "X", 1: "X"})
    b = PauliString.from_map({0: "Y", 1: "Z"})
    assert not letters_anticommute(a, b)
    # XX vs XY: one differing site
    c = PauliString.from_map({0: "X", 1: "Y"})
    assert letters_anticommute(a, c)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliString(((0, "X"), (0, "Y")))
    with pytest.raises(ValueError):
        PauliString(((-1, "X"),))
    with pytest.raises(ValueError):
        PauliString(((0, "Q"),))


def _random_string(rng, num_qubits=3):
    letters = {}
    for q in range(num_qubits):
        c = rng.choice(["I", "X", "Y", "Z"])
        if c != "I":
            letters[q] = c
    return PauliString.from_map(letters, int(rng.integers(0, 4)))


def test_qubit_labels_must_be_integers():
    # bool is an int, and a float or str label would print text parse rejects
    for label in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            PauliString(((label, "X"),))
    with pytest.raises(ValueError, match="not an integer"):
        PauliString(((0, "Z"), ("1", "X")))
    p = PauliString(((np.int64(3), "X"),))
    assert type(p.letters[0][0]) is int
    assert str(p) == "+ X3"
    assert PauliString.parse(str(p)) == p


def test_product_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = _random_string(rng)
        b = _random_string(rng)
        lhs = to_dense(a * b, 3)
        rhs = to_dense(a, 3) @ to_dense(b, 3)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_anticommutation_matches_dense_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = _random_string(rng)
        b = _random_string(rng)
        ab = to_dense(a, 3) @ to_dense(b, 3)
        ba = to_dense(b, 3) @ to_dense(a, 3)
        if letters_anticommute(a, b):
            assert np.allclose(ab + ba, 0, atol=1e-12)
        else:
            assert np.allclose(ab - ba, 0, atol=1e-12)


def test_dense_identity_and_phase():
    ident = to_dense(PauliString.identity(2), 2)
    assert np.allclose(ident, -np.eye(4))
    x0 = to_dense(PauliString.single(0, "X"), 2)
    # qubit 0 is the leftmost factor
    assert np.allclose(x0, np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))


def test_dense_guards():
    with pytest.raises(ValueError):
        to_dense(PauliString.single(3, "X"), 2)
    with pytest.raises(ValueError):
        to_dense(PauliString.identity(), 15)


def test_text_format_examples():
    p = PauliString.parse("+i X0 Z3 Y7")
    assert str(p) == "+i X0 Z3 Y7"
    assert p.letters == ((0, "X"), (3, "Z"), (7, "Y"))
    assert p.phase_power == 1
    assert str(PauliString.identity()) == "+ I"
    assert PauliString.parse("- I") == PauliString.identity(2)
    # phase prefix optional, defaults to +
    assert PauliString.parse("X1 Y2") == PauliString.from_map({1: "X", 2: "Y"})


def test_parse_rejects_malformed_text():
    for bad in ("", "+", "X0 X0", "Q3", "X-1", "+i", "X0 I"):
        with pytest.raises(ValueError):
            PauliString.parse(bad)


letter_maps = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.sampled_from(["X", "Y", "Z"]),
    max_size=6,
)
strings = st.builds(
    PauliString.from_map, letter_maps, st.integers(min_value=0, max_value=3)
)


@given(strings)
def test_text_round_trip(p):
    assert PauliString.parse(str(p)) == p


@given(strings, strings, strings)
@settings(max_examples=60)
def test_product_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(strings, strings)
@settings(max_examples=60)
def test_anticommutation_symmetry(a, b):
    assert letters_anticommute(a, b) == letters_anticommute(b, a)


@given(strings)
def test_square_is_scalar(p):
    sq = p * p
    assert sq.letters == ()
    assert sq.phase_power == (2 * p.phase_power) % 4


# dense small labels beside ones past int64, so the masks cannot be int64 arrays
product_strings = st.builds(
    PauliString.from_map,
    st.dictionaries(
        st.sampled_from([0, 1, 2, 3, 4, 5, 2 ** 63, 2 ** 64, 10 ** 20 - 1]),
        st.sampled_from("XYZ"),
        max_size=6,
    ),
    st.integers(0, 3),
)


@given(st.lists(product_strings, max_size=5))
@settings(max_examples=500)
def test_product_equals_the_letter_table_fold(strings):
    want = functools.reduce(letter_product, strings, PauliString.identity())
    assert product(strings) == want
    assert product(iter(strings)) == want
    if len(strings) == 2:
        assert strings[0] * strings[1] == want


@given(st.lists(st.builds(
    PauliString.from_map,
    st.dictionaries(st.integers(0, 3), st.sampled_from("XYZ"), max_size=4),
    st.integers(0, 3),
), max_size=5))
@settings(max_examples=200)
def test_product_matches_dense_matrix_product(strings):
    want = np.eye(16, dtype=complex)
    for p in strings:
        want = want @ to_dense(p, 4)
    assert np.allclose(to_dense(product(strings), 4), want, atol=1e-12)


def test_product_edge_cases():
    assert product([]) == PauliString.identity()
    assert product([PauliString.identity(3)]) == PauliString.identity(3)
    big = PauliString.from_map({2 ** 64: "X", 10 ** 20 - 1: "Y"}, 1)
    assert product([big, big]) == PauliString.identity(2)
    # X Y Z = i I on one qubit, past int64 too
    xyz = [PauliString.single(2 ** 64, letter) for letter in "XYZ"]
    assert product(xyz) == PauliString.identity(1)
    assert PauliString.identity().__mul__("X0") is NotImplemented


register_strings = st.builds(
    PauliString.from_map,
    st.dictionaries(st.integers(0, 11), st.sampled_from(["X", "Y", "Z"]), max_size=12),
    st.integers(min_value=0, max_value=3),
)


@given(register_strings, register_strings)
@settings(max_examples=200)
def test_mask_product_matches_string_product(a, b):
    assert from_masks(to_masks(a, 12), 12) == a
    assert from_masks(mask_product(to_masks(a, 12), to_masks(b, 12)), 12) == a * b


@st.composite
def register_masks(draw):
    n = draw(st.integers(1, 12))
    return draw(st.tuples(*[st.integers(0, 2 ** n - 1)] * 2, st.integers(0, 3))), n


@given(register_masks())
@settings(max_examples=300)
def test_masks_text_matches_the_string(case):
    masks, n = case
    assert masks_text(masks, n) == str(from_masks(masks, n))


@st.composite
def register_tables(draw):
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2 ** n - 1)] * 2, st.integers(0, 3)), max_size=40))
    return [np.array(column, dtype=np.int64) for column in zip(*rows)] or [np.zeros(0, np.int64)] * 3, n


@given(register_tables())
@settings(max_examples=300)
def test_masks_text_renders_a_table_row_by_row(case):
    # one pass over the table's bit planes gives each row's text, which is
    # also the one-row call on that row's ints
    table, n = case
    rows = list(zip(*(column.tolist() for column in table)))
    texts = masks_text(table, n)
    assert texts == [str(from_masks(row, n)) for row in rows]
    assert texts == [masks_text(row, n) for row in rows]


def test_masks_text_phases_and_range():
    # Y = iXZ: each Y letter takes one power of i from the masks' power
    assert [masks_text((0, 0, p), 3) for p in range(4)] == ["+ I", "+i I", "- I", "-i I"]
    assert [masks_text((0b101, 0b001, p), 3) for p in range(4)] == [
        "-i X0 Y2", "+ X0 Y2", "+i X0 Y2", "- X0 Y2"
    ]
    assert masks_text((0, 0b1, 0), 12) == "+ Z11"
    for masks in [(8, 0, 0), (0, 8, 0), (-1, 0, 0), (0, -2, 0)]:
        with pytest.raises(ValueError, match="outside the register"):
            masks_text(masks, 3)
        with pytest.raises(ValueError, match="outside the register"):
            masks_text([np.array([0, m]) for m in masks], 3)


def test_masks_layout():
    # qubit 0 is the top bit; Y sets both masks and adds one power of i
    assert to_masks(PauliString.parse("-i X0 Y1 Z2"), 3) == (0b110, 0b011, 0)
    for label in (2, 2 ** 64):
        with pytest.raises(ValueError, match="outside the register"):
            to_masks(PauliString(((0, "Z"), (label, "X"))), 2)
