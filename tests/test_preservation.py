"""Relations, preservation, the twelve built-ins, and the unary catalogue."""

import itertools

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SEED, make_rng
from magari4.algebra import ELEMENTS, HIGH, Element, delta
from magari4 import preservation, selftest
from magari4.formula import parse, truth_table
from magari4.preservation import (
    RelationMatrix,
    ViolationWitness,
    builtin_relation,
    classify,
    count_delta_preserving,
    delta_pairing_relation,
    delta_preserving_tables,
    find_violation,
    i_op,
    lookup_relation,
    preserves,
    preserves_delta_pairing,
    random_delta_preserving_table,
)
from magari4.tables import FuncTable, linear_index, points, projection

Z, R, S, O = ELEMENTS

DELTA = FuncTable.from_text("1:ss11")
NOT = FuncTable.from_text("1:1sr0")
IDENT = FuncTable.from_text("1:0rs1")


def _binary(fn):
    from magari4.algebra import Element

    return FuncTable(2, tuple(Element(fn(int(a), int(b))) for a, b in points(2)))


AND = _binary(lambda a, b: a & b)
OR = _binary(lambda a, b: a | b)
IMP = _binary(lambda a, b: (a ^ 3) | b)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def test_matrix_text_round_trip():
    m11 = builtin_relation(11)
    assert m11.to_text() == "0rs1;r01s"
    assert RelationMatrix.from_text("0rs1;r01s").columns == m11.columns


def test_matrix_validation():
    with pytest.raises(ValueError):
        RelationMatrix(1, ((Z,), (Z,)))  # duplicate columns
    with pytest.raises(ValueError):
        RelationMatrix(2, ((Z,),))  # wrong column length
    with pytest.raises(ValueError):
        RelationMatrix.from_text("0r;0")  # ragged rows
    # from_columns dedupes, preserving first-seen order
    m = RelationMatrix.from_columns([(Z,), (R,), (Z,)])
    assert m.columns == ((Z,), (R,))


def test_builtin_matrices_exact():
    unary_sets = {
        1: {Z, R},
        2: {S, O},
        3: {Z, S},
        4: {Z, O},
        5: {R, S},
        6: {R, O},
        7: {Z, R, S},
        8: {Z, R, O},
        9: {Z, S, O},
        10: {R, S, O},
    }
    for i, wanted in unary_sets.items():
        m = builtin_relation(i)
        assert m.arity == 1
        assert {col[0] for col in m.columns} == wanted
    assert set(builtin_relation(11).columns) == {(Z, R), (R, Z), (S, O), (O, S)}
    assert set(builtin_relation(12).columns) == {
        (Z, S), (Z, O), (R, S), (R, O), (S, Z), (S, R), (O, Z), (O, R)
    }
    with pytest.raises(ValueError):
        builtin_relation(0)
    with pytest.raises(ValueError):
        builtin_relation(13)


def test_lookup_relation():
    assert lookup_relation("R11") is builtin_relation(11)
    assert lookup_relation("0rs1;r01s").columns == builtin_relation(11).columns


# ---------------------------------------------------------------------------
# Preservation and witnesses
# ---------------------------------------------------------------------------


def test_delta_violates_first_relation():
    witness = find_violation(DELTA, builtin_relation(1))
    assert witness is not None
    assert witness.selected_columns == ((Z,),)
    assert witness.image == (S,)
    assert not preserves(DELTA, builtin_relation(1))


def test_not_violates_second_relation():
    witness = find_violation(NOT, builtin_relation(2))
    assert witness is not None
    assert witness.selected_columns == ((S,),)
    assert witness.image == (R,)


def test_projections_preserve_everything():
    for arity in (1, 2):
        for idx in range(arity):
            p = projection(arity, idx)
            for i in range(1, 13):
                assert preserves(p, builtin_relation(i))
                assert find_violation(p, builtin_relation(i)) is None


def test_find_violation_iff_not_preserves():
    relations = [builtin_relation(i) for i in range(1, 13)]
    for table in delta_preserving_tables(1):
        for relation in relations:
            assert (find_violation(table, relation) is None) == preserves(
                table, relation
            )


def test_binary_violation_shape_for_distinct_class_relation():
    table = truth_table(parse("# p & # q"), ("p", "q"))
    witness = find_violation(table, builtin_relation(12))
    assert witness is not None
    (g1, d1), (g2, d2) = witness.selected_columns
    assert delta(g1) is not delta(d1) and delta(g2) is not delta(d2)
    out_g, out_d = witness.image
    assert delta(out_g) is delta(out_d)


def product_search(f, relation):
    """Reference: every selection in lexicographic order, image by image."""
    colset = set(relation.columns)
    for sel in itertools.product(relation.columns, repeat=f.arity):
        image = tuple(
            f.entries[linear_index([col[i] for col in sel])] for i in range(relation.arity)
        )
        if image not in colset:
            return ViolationWitness(sel, image)
    return None


@st.composite
def violation_cases(draw):
    # few values per table and per relation, so that some tables preserve
    values = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(1, 5))
    cell = st.sampled_from(values) if draw(st.booleans()) else st.sampled_from(ELEMENTS)
    columns = draw(st.lists(st.tuples(*[cell] * rows), min_size=1, max_size=6, unique=True))
    arity = draw(st.integers(0, 5))
    if arity and draw(st.booleans()):
        # a projection changed where some selection reads: a late witness
        entries = list(projection(arity, draw(st.integers(0, arity - 1))).entries)
        for _ in range(draw(st.integers(1, 3))):
            row = draw(st.integers(0, rows - 1))
            reads = [draw(st.sampled_from(columns))[row] for _ in range(arity)]
            entries[linear_index(reads)] = draw(st.sampled_from(ELEMENTS))
    else:
        raw = draw(st.binary(min_size=4**arity, max_size=4**arity))
        entries = [values[b % len(values)] for b in raw]
    f = FuncTable(arity, tuple(entries))
    return f, RelationMatrix(rows, tuple(columns)), draw(st.sampled_from((1, 8, 2**16)))


def _reads_once_in_row_two():
    # f(1, s, s, s, s) changed from s to 0: R12's first selection reading it
    # is ((0,1), (0,s), (0,s), (0,s), (0,s)), in row two, after the lead
    # (0,s) whose row-one block is the same
    entries = list(projection(5, 1).entries)
    entries[linear_index((O, S, S, S, S))] = Z
    return FuncTable(5, tuple(entries)), builtin_relation(12), 2**16


@settings(derandomize=True, deadline=None, max_examples=300)
@given(violation_cases())
@example(_reads_once_in_row_two())
def test_find_violation_matches_the_product_search(case):
    # a lane cap under c**4 moves selections from the lanes to the loop
    f, relation, max_lanes = case
    with mock.patch.object(preservation, "_MAX_LANES", max_lanes):
        assert find_violation(f, relation) == product_search(f, relation)
        assert preserves(f, relation) == (product_search(f, relation) is None)


def test_a_cached_plan_honours_a_patched_lane_cap(monkeypatch):
    # the plan is cached per (relation, arity, lane cap), so a cap patched
    # after a search over the same relation and arity still moves the
    # selections from the lanes to the loop: R12's 8**2 selections of a
    # binary table are one leaf of 16 entries under the real cap, and
    # leaves of four entries, one argument each, under a cap of 8
    table = truth_table(parse("# p & # q"), ("p", "q"))
    relation = builtin_relation(12)
    want = product_search(table, relation)
    real, sizes = preservation._leaf, []

    def recording(blocks, cols, plan):
        sizes.append(len(blocks[0]))
        return real(blocks, cols, plan)

    monkeypatch.setattr(preservation, "_leaf", recording)
    assert find_violation(table, relation) == want
    assert sizes == [16]
    sizes.clear()
    monkeypatch.setattr(preservation, "_MAX_LANES", 8)
    assert find_violation(table, relation) == want
    assert sizes and set(sizes) == {4}


# ---------------------------------------------------------------------------
# The unary catalogue
# ---------------------------------------------------------------------------


def test_named_unary_operations():
    assert i_op(7, 3) == NOT
    assert i_op(5, 8) == DELTA
    assert i_op(2, 6) == IDENT  # the identity sits at (2, 6) in the scheme
    assert i_op(1, 1).entries == (Z, Z, Z, Z)
    assert i_op(8, 8).entries == (O, O, O, O)


def test_unary_catalogue_is_the_64_class_respecting_tables():
    catalogue = {i_op(i, j) for i in range(1, 9) for j in range(1, 9)}
    assert len(catalogue) == 64
    assert all(preserves_delta_pairing(t) for t in catalogue)
    assert catalogue == set(delta_preserving_tables(1))


def test_i_op_index_validation():
    with pytest.raises(ValueError):
        i_op(0, 5)
    with pytest.raises(ValueError):
        i_op(3, 9)


def test_fixed_point_sets_match_builtin_relations():
    triples = [(1, 5, 3), (1, 8, 4), (4, 5, 5), (4, 8, 6),
               (2, 5, 7), (2, 8, 8), (1, 6, 9), (4, 6, 10)]
    for i, j, k in triples:
        op = i_op(i, j)
        fixed = {x for x in ELEMENTS if op[(x,)] is x}
        assert fixed == {col[0] for col in builtin_relation(k).columns}, (i, j, k)


def test_swap_graph_is_eleventh_matrix():
    op = i_op(3, 7)
    graph = {(x, op[(x,)]) for x in ELEMENTS}
    assert graph == set(builtin_relation(11).columns)


# ---------------------------------------------------------------------------
# Delta-pairing preservation and classification
# ---------------------------------------------------------------------------


def test_connectives_preserve_delta_pairing():
    for table in (AND, OR, IMP, NOT, DELTA):
        assert preserves_delta_pairing(table)


def test_class_breaker_detected():
    assert not preserves_delta_pairing(FuncTable.from_text("1:0s00"))


def test_exactly_64_unary_tables_preserve_pairing():
    count = 0
    for entries in itertools.product(ELEMENTS, repeat=4):
        if preserves_delta_pairing(FuncTable(1, entries)):
            count += 1
    assert count == 64
    assert count_delta_preserving(1) == 64
    assert count_delta_preserving(2) == 1_048_576


def test_classify_examples():
    delta_classes = classify(DELTA)
    assert 1 not in delta_classes
    assert 2 in delta_classes
    assert delta_classes == frozenset({2, 9, 10})
    assert classify(IDENT) == frozenset(range(1, 13))
    not_classes = classify(NOT)
    assert 2 not in not_classes
    assert not_classes == frozenset({4, 5, 11, 12})


def test_every_builtin_relation_has_a_small_violator():
    # documentation property: for each class some connective formula of
    # depth <= 3 violates the defining relation
    from magari4.formula import free_vars

    candidates = [parse(t) for t in (
        "# p", "~ p", "~ # p", "# ~ p", "# # p",
        "p & q", "p | q", "p -> q", "# p & # q", "# p <-> # q",
    )]
    tables = [truth_table(f, tuple(sorted(free_vars(f)))) for f in candidates]
    missing = [
        i
        for i in range(1, 13)
        if all(find_violation(t, builtin_relation(i)) is None for t in tables)
    ]
    assert not missing, f"no small violator found for relations {missing}"


def test_class_vector_check_matches_relation_search():
    # the one-pass class-vector check against the 8**arity search over the
    # delta-pairing relation, which stays the reference
    relation = delta_pairing_relation()
    for entries in itertools.product(ELEMENTS, repeat=4):
        table = FuncTable(1, entries)
        searched = find_violation(table, relation) is None
        assert preserves_delta_pairing(table) is searched
    rng = make_rng(23)
    for arity in (2, 3):
        for k in range(60):
            table = random_delta_preserving_table(arity, rng)
            broken = k % 2 == 1
            if broken:  # move one entry to the other delta class
                entries = list(table.entries)
                pos = rng.randrange(len(entries))
                entries[pos] = rng.choice((Z, R) if entries[pos] in (S, O) else (S, O))
                table = FuncTable(arity, tuple(entries))
            assert preserves_delta_pairing(table) is not broken
            assert (find_violation(table, relation) is None) is not broken


def block_scan(table):
    """Reference: the former kernel, one pass over the argument tuples
    grouped by their vector of delta classes."""
    e = table.entries
    return all(len({e[k] in HIGH for k in blk}) == 1 for blk in preservation._blocks(table.arity))


def _class_flipped(table, positions):
    # each entry at a position moved to the other delta class
    entries = list(table.entries)
    for k in positions:
        entries[k] = Element(entries[k] ^ 2)
    return FuncTable(table.arity, tuple(entries))


@pytest.mark.parametrize("arity", [0, 4, 5, 8])
def test_class_vector_check_matches_the_search_and_the_block_scan_at_more_arities(arity):
    # the shift-and-mask kernel against the search over the delta-pairing
    # relation and the former block scan.  A flip of the entry with one
    # argument at rho and the rest at 0 sits at that argument's stride; a
    # flip of every entry whose argument i is rho or 1 breaks the classes
    # along argument i alone, so a wrong mask or shift at any one argument
    # lets it through
    relation, rng = delta_pairing_relation(), make_rng(83 + arity)
    strides = [4 ** (arity - 1 - i) for i in range(arity)]
    cases = []
    for _ in range(2):
        table = random_delta_preserving_table(arity, rng)
        cases.append((table, True))
        for i, stride in enumerate(strides):
            cases.append((_class_flipped(table, [stride]), False))
            upper = [k for k in range(4**arity) if k // stride % 2]
            cases.append((_class_flipped(table, upper), False))
            k = rng.randrange(4**arity)  # and one entry anywhere
            cases.append((_class_flipped(table, [k]), False))
    for table, holds in cases:
        assert preserves_delta_pairing(table) is holds
        assert block_scan(table) is holds
        assert (find_violation(table, relation) is None) is holds


def test_the_selftest_class_check_refuses_a_wrong_kernel(monkeypatch):
    # the selftest compares the kernel with the delta-pairing search; a
    # kernel that passes everything, or that errs on one arity only, fails it
    tables = selftest._class_check_tables(SEED)
    assert len(tables) == 256 + 2 * sum(selftest._CLASS_CHECKS.values())
    assert selftest._class_check_agrees(tables)
    real = preservation.preserves_delta_pairing
    for wrong in (lambda t: True, lambda t: real(t) if t.arity < 3 else True):
        monkeypatch.setattr(selftest, "preserves_delta_pairing", wrong)
        assert not selftest._class_check_agrees(tables)


def test_delta_pairing_relation_columns():
    m = delta_pairing_relation()
    assert set(m.columns) == {
        (x, y) for x in ELEMENTS for y in ELEMENTS if delta(x) is delta(y)
    }
    assert len(m.columns) == 8


def test_random_sampler_respects_classes():
    rng = make_rng(7)
    for _ in range(200):
        for arity in (1, 2):
            assert preserves_delta_pairing(random_delta_preserving_table(arity, rng))


def test_delta_preserving_enumeration_is_deterministic_and_exact():
    first = list(delta_preserving_tables(1))
    second = list(delta_preserving_tables(1))
    assert first == second
    assert len(first) == 64
    brute = {
        FuncTable(1, entries)
        for entries in itertools.product(ELEMENTS, repeat=4)
        if preserves_delta_pairing(FuncTable(1, entries))
    }
    assert set(first) == brute
