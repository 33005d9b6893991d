"""The bitset-row verifier against the pairwise reference loop.

``reference_verify_table`` is the direct reading of the Majorana algebra:
every pair of entries is checked with ``letters_anticommute`` and every
entry is squared with ``letter_product``, the letter-table rules of
``tests/oracles.py``.  The fast verifier must return an equal
``MappingVerification``, failures and their order included.
``all_paths`` enumerates the tree, so the identity product over every path
is the reference for ``verify_mapping``'s product over the table.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitree import ternary
from fermitree.baselines import bravyi_kitaev, jordan_wigner, weight_stats
from fermitree.pauli import PauliString
from fermitree.ternary import (
    MappingVerification,
    build_mapping,
    path_operator,
    verify_mapping,
    verify_table,
)
from oracles import letter_product, letters_anticommute


def reference_verify_table(table):
    anti_failures = tuple(
        (a + 1, b + 1)
        for a, b in itertools.combinations(range(len(table)), 2)
        if not letters_anticommute(table[a], table[b])
    )
    square_failures = tuple(
        u + 1 for u, op in enumerate(table) if letter_product(op, op) != PauliString.identity()
    )
    stats = weight_stats(table)
    return MappingVerification(
        n_operators=len(table),
        anticommutation_failures=anti_failures,
        square_failures=square_failures,
        identity_product_ok=None,
        identity_product_phase_power=None,
        mean_weight=stats.mean_weight,
        max_weight=stats.max_weight,
    )


def all_paths(mapping):
    """All 2n+1 tree paths in lexicographic order, the dropped one included."""
    h, extended, _ = ternary._tree_shape(mapping.n_modes)
    grown = set(extended)
    paths = []
    for leaf in itertools.product((0, 1, 2), repeat=h):
        if leaf in grown:
            paths.extend(leaf + (c,) for c in (0, 1, 2))
        else:
            paths.append(leaf)
    return paths


def reference_verify_mapping(mapping):
    # the product over the tree's paths, not over the table it verifies
    product = PauliString.identity()
    for path in all_paths(mapping):
        product = letter_product(product, path_operator(path))
    identity_ok = not product.letters
    return replace(
        reference_verify_table(mapping.majorana_table),
        identity_product_ok=identity_ok,
        identity_product_phase_power=product.phase_power if identity_ok else None,
    )


# a few dense labels plus sparse large ones, so qubits are keyed by label
LABELS = st.sampled_from([0, 1, 2, 3, 4, 17, 1000000, 2 ** 40, 2 ** 64, 10 ** 20 - 1])

OPERATORS = st.builds(
    PauliString.from_map,
    st.dictionaries(LABELS, st.sampled_from("XYZ"), max_size=6),
    st.integers(0, 3),
)


@st.composite
def tables(draw):
    table = draw(st.lists(OPERATORS, min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 4))):
        entry = draw(st.sampled_from(table))
        table.insert(draw(st.integers(0, len(table))), entry)
    if draw(st.booleans()):
        table.insert(draw(st.integers(0, len(table))), PauliString.identity(draw(st.integers(0, 3))))
    return tuple(table)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_verify_table_matches_pairwise_oracle(table):
    assert verify_table(table) == reference_verify_table(table)


@given(OPERATORS)
def test_square_closed_form_matches_product(op):
    # (i^k P)^2 = (-1)^k I
    assert (op.phase_power % 2 == 1) == (op * op != PauliString.identity())


def test_all_identity_table_fails_every_pair():
    table = (PauliString.identity(),) * 5
    assert verify_table(table) == reference_verify_table(table)
    assert len(verify_table(table).anticommutation_failures) == 10


def test_empty_table_raises():
    with pytest.raises(ValueError, match="empty operator table"):
        verify_table(())


# 121 and 364 are complete trees, (3^5 - 1)/2 and (3^6 - 1)/2 modes
@pytest.mark.parametrize("n", [*range(1, 65), 121, 364])
def test_verify_mapping_matches_oracle(n):
    mapping = build_mapping(n)
    assert verify_mapping(mapping) == reference_verify_mapping(mapping)


@pytest.mark.parametrize("n", range(1, 33))
def test_baseline_tables_match_oracle(n):
    for table in (bravyi_kitaev(n), jordan_wigner(n)):
        assert verify_table(table) == reference_verify_table(table)


def test_corrupted_table_beyond_one_block_matches_oracle():
    # 1200 operators: each row is an int of 1200 bits, beyond one 64-bit word
    table = list(build_mapping(600).majorana_table)
    table[3] = table[700]
    table[1100] = PauliString.identity()
    table[1150] = PauliString.from_map(dict(table[1150].letters), 1)
    table = tuple(table)
    report = verify_table(table)
    assert report == reference_verify_table(table)
    assert report.anticommutation_failures and report.square_failures == (1151,)


def _corrupted(table, how):
    """``table`` with its last entry, the one at the top bit of each row,
    replaced by a duplicate, an identity, or a copy with one qubit relabelled."""
    table = list(table)
    last = table[-1]
    if how == "duplicate":
        table[-1] = table[len(table) // 2]
    elif how == "identity":
        table[-1] = PauliString.identity()
    else:
        # a qubit where the first entry has another letter, so the pair
        # (1, last) loses one differing qubit and commutes
        first = dict(table[0].letters)
        q = next(q for q, a in last.letters if first.get(q, a) != a)
        letters = dict(last.letters)
        letters[2 ** 64] = letters.pop(q)
        table[-1] = PauliString.from_map(letters, last.phase_power)
    return tuple(table)


# rows of 63 to 129 bits: either side of one and two 64-bit words
@pytest.mark.parametrize("size", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("how", ["duplicate", "identity", "relabelled"])
@pytest.mark.parametrize("build", [lambda n: build_mapping(n).majorana_table, bravyi_kitaev, jordan_wigner],
                         ids=["ternary", "bk", "jw"])
def test_tables_at_word_edges_match_oracle(size, how, build):
    table = _corrupted(build(65)[:size], how)
    report = verify_table(table)
    assert report == reference_verify_table(table)
    assert report.anticommutation_failures
    if how == "relabelled":
        assert (1, size) in report.anticommutation_failures


def test_jw_table_with_broken_z_chain_matches_oracle():
    table = list(jordan_wigner(48))
    # mode 30's X-type Majorana loses the Z on qubit 10 of its 30-long chain
    table[60] = PauliString.from_map({q: a for q, a in table[60].letters if q != 10})
    table = tuple(table)
    report = verify_table(table)
    assert report == reference_verify_table(table)
    assert report.anticommutation_failures


@pytest.mark.parametrize("op", [PauliString.single(5, "Y"), PauliString.identity(1)])
def test_single_entry_table_matches_oracle(op):
    assert verify_table((op,)) == reference_verify_table((op,))
    assert verify_table((op,)).anticommutation_failures == ()
