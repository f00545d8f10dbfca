"""Selector construction and table synthesis round-trips."""

import hashlib
import itertools
import random

import pytest

from conftest import distinct_nodes, make_rng
from magari4.algebra import ELEMENTS, Connective, delta, join, meet
from magari4.formula import (
    Binary,
    Const,
    Unary,
    Var,
    box_formula,
    evaluate,
    format_formula,
    free_vars,
    iff_formula,
    parse,
    tree_size,
    truth_table,
)
from magari4.preservation import (
    delta_preserving_tables,
    find_violation,
    delta_pairing_relation,
    random_delta_preserving_table,
)
from magari4.synthesis import NotRepresentable, _selector, synthesize
from magari4.tables import FuncTable, points

Z, R, S, O = ELEMENTS


# ---------------------------------------------------------------------------
# The selector conjunction
# ---------------------------------------------------------------------------


def test_selector_one_variable_cases():
    f = _selector((Z,), S, ("p",), {})
    assert evaluate(f, {"p": Z}) is S  # exact hit
    assert evaluate(f, {"p": R}) is S  # same class, different value
    assert evaluate(f, {"p": O}) is Z  # class broken
    assert evaluate(f, {"p": S}) is Z


def test_selector_case_law_exhaustive():
    # value delta on the hit, s & delta on same-class misses, 0 otherwise
    for alpha in points(2):
        for d in ELEMENTS:
            f = _selector(alpha, d, ("p1", "p2"), {})
            for pt in points(2):
                got = evaluate(f, dict(zip(("p1", "p2"), pt)))
                if pt == alpha:
                    assert got is d
                elif all(delta(x) is delta(a) for x, a in zip(pt, alpha)):
                    assert got is meet(S, d)
                else:
                    assert got is Z


def test_final_collapse_identity():
    # d | 0 | (s & d') = d for every same-class pair (d, d')
    pairs = [
        (d, d2)
        for d in ELEMENTS
        for d2 in ELEMENTS
        if delta(d) is delta(d2)
    ]
    assert len(pairs) == 8
    for d, d2 in pairs:
        assert join(join(d, Z), meet(S, d2)) is d


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_synthesize_delta_and_identity():
    delta_table = FuncTable.from_text("1:ss11")
    f = synthesize(delta_table)
    assert truth_table(f, ("p1",)) == delta_table
    ident = FuncTable.from_text("1:0rs1")
    assert truth_table(synthesize(ident), ("p1",)) == ident


def test_synthesize_all_unary_tables_round_trip():
    for table in delta_preserving_tables(1):
        for simplify in (False, True):
            f = synthesize(table, simplify=simplify)
            assert truth_table(f, ("p1",)) == table


def test_synthesize_rejects_exactly_the_violating_tables():
    for entries in itertools.product(ELEMENTS, repeat=4):
        table = FuncTable(1, entries)
        witness = find_violation(table, delta_pairing_relation())
        if witness is None:
            synthesize(table)  # must not raise
        else:
            with pytest.raises(NotRepresentable):
                synthesize(table)


def test_not_representable_message_pinned():
    # the message names the first violating selection of the delta-pairing
    # relation in lexicographic order, in element tokens
    with pytest.raises(NotRepresentable) as info:
        synthesize(FuncTable.from_text("1:0s00"))
    assert str(info.value) == (
        "table maps same-class inputs (0r) to distinct classes (0s)"
    )
    with pytest.raises(NotRepresentable) as info:
        synthesize(FuncTable.from_text("2:0s00000000000000"))
    assert str(info.value) == (
        "table maps same-class inputs (00;0r) to distinct classes (0s)"
    )


def test_synthesize_zero_arity_rejected():
    with pytest.raises(ValueError):
        synthesize(FuncTable(0, (S,)))


def test_synthesize_binary_spot_and_random():
    rng = make_rng(8)
    meet_table = FuncTable(
        2, tuple(meet(x, y) for x, y in points(2))
    )
    for simplify in (False, True):
        assert truth_table(synthesize(meet_table, simplify=simplify), ("p1", "p2")) == meet_table
    for _ in range(40):
        table = random_delta_preserving_table(2, rng)
        for simplify in (False, True):
            assert truth_table(synthesize(table, simplify=simplify), ("p1", "p2")) == table


def test_synthesize_builds_each_clause_once():
    # the unsimplified binary output needs [](p_i <-> a) for both p_i and
    # all four a: 4n = 8 clauses, each one object shared by its selectors
    table = random_delta_preserving_table(2, make_rng(31))
    clauses = [
        node
        for node in distinct_nodes(synthesize(table)).values()
        if isinstance(node, Binary)
        and isinstance(node.right, Unary)
        and node.right.op is Connective.DELTA
        and node.right.child is node.left
    ]
    assert len(clauses) == 8
    assert set(clauses) == {
        box_formula(iff_formula(Var(name), Const(a)))
        for name in ("p1", "p2")
        for a in ELEMENTS
    }


def test_synthesize_builds_each_constant_leaf_once():
    # one Const object per value, shared by the clauses and the selectors
    nodes = distinct_nodes(synthesize(random_delta_preserving_table(2, make_rng(31))))
    consts = [node for node in nodes.values() if isinstance(node, Const)]
    assert len(consts) == 4 and {c.value for c in consts} == set(ELEMENTS)
    # 16 selectors of 2 AND nodes, 15 ORs, 8 clauses of 5 compound nodes,
    # one Var per variable shared by its 4 clauses, and the 4 constants
    assert len(nodes) == 93
    variables = [node for node in nodes.values() if isinstance(node, Var)]
    assert sorted(v.name for v in variables) == ["p1", "p2"]


@pytest.mark.parametrize("simplify", [False, True])
def test_synthesize_refuses_a_repeated_variable_name(simplify):
    # over ("p", "p") the two inputs would be one, and the formula would
    # realize another table (1:0r11 for this one)
    table = FuncTable.from_text("2:0rs1rr11ss111111")
    with pytest.raises(ValueError, match="duplicate variable name"):
        synthesize(table, ("p", "p"), simplify=simplify)
    assert truth_table(synthesize(table, ("p", "q"), simplify=simplify), ("p", "q")) == table


def test_simplify_preserves_table():
    rng = make_rng(9)
    for _ in range(40):
        table = random_delta_preserving_table(1, rng)
        f = synthesize(table, simplify=True)
        assert truth_table(f, ("p1",)) == table
    zero = FuncTable(1, (Z, Z, Z, Z))
    assert format_formula(synthesize(zero, simplify=True)) == "0"


# ---------------------------------------------------------------------------
# Compact synthesis (simplify=True)
# ---------------------------------------------------------------------------


def _least_sizes() -> dict[tuple, int]:
    """The least tree size of a formula in p realizing each table, found
    apart from the atlas: pointwise, on Element 4-tuples, every table
    that some formula of exactly n nodes realizes, for n up to 12."""
    p = Var("p")
    ops = {  # each connective's pointwise table, read off evaluate
        op: {xs: evaluate(build, dict(zip("pq", xs))) for xs in points(op.arity)}
        for op, build in (
            (Connective.NOT, Unary(Connective.NOT, p)),
            (Connective.DELTA, Unary(Connective.DELTA, p)),
            (Connective.AND, Binary(Connective.AND, p, Var("q"))),
            (Connective.OR, Binary(Connective.OR, p, Var("q"))),
            (Connective.IMP, Binary(Connective.IMP, p, Var("q"))),
        )
    }
    exact = {1: {ELEMENTS} | {(c,) * 4 for c in ELEMENTS}}
    for n in range(2, 13):
        exact[n] = {
            tuple(ops[op][x,] for x in t)
            for op in (Connective.NOT, Connective.DELTA)
            for t in exact[n - 1]
        } | {
            tuple(map(ops[op].get, zip(t, u)))
            for i in range(1, n - 1)
            for t in exact[i]
            for u in exact[n - 1 - i]
            for op in (Connective.AND, Connective.OR, Connective.IMP)
        }
    least: dict[tuple, int] = {}
    for n, tables in exact.items():
        for t in tables:
            least.setdefault(t, n)
    return least


def test_compact_unary_formulas_are_least():
    least = _least_sizes()
    assert len(least) == 64 and max(least.values()) == 12
    for table in delta_preserving_tables(1):
        f = synthesize(table, ("p",), simplify=True)
        assert tuple(evaluate(f, {"p": x}) for x in ELEMENTS) == table.entries
        assert tree_size(f) == least[table.entries]


def test_compact_synthesis_round_trips_arity_3_and_constants():
    # arity 3 recurses through the slice join twice
    rng = make_rng(43)
    names = ("x", "y", "z")
    for _ in range(60):
        table = random_delta_preserving_table(3, rng)
        assert truth_table(synthesize(table, names, simplify=True), names) == table
    for arity in (1, 2, 3):
        for value in ELEMENTS:
            constant = FuncTable(arity, (value,) * 4**arity)
            assert synthesize(constant, names[:arity], simplify=True) == Const(value)


def test_compact_synthesis_builds_each_unary_node_once():
    # within one call, no two node objects in at most one variable have the
    # same variable and table, so the atlas formulas share their subformulas
    rng = make_rng(47)
    for arity in (2, 3):
        for _ in range(10):
            f = synthesize(random_delta_preserving_table(arity, rng), simplify=True)
            keys = []
            for node in distinct_nodes(f).values():
                names = tuple(sorted(free_vars(node)))
                if len(names) <= 1:
                    keys.append((names, truth_table(node, names)))
            assert len(set(keys)) == len(keys) > 4


def test_synthesize_deterministic():
    table = FuncTable.from_text("1:ss11")
    assert format_formula(synthesize(table)) == format_formula(synthesize(table))


def test_synthesize_custom_variable_names():
    table = FuncTable.from_text("1:ss11")
    f = synthesize(table, var_names=("x",))
    assert truth_table(f, ("x",)) == table
    with pytest.raises(ValueError):
        synthesize(table, var_names=("x", "y"))


def test_structure_is_join_of_selectors():
    # the unsimplified output joins one selector per argument tuple
    table = FuncTable.from_text("1:ss11")
    text = format_formula(synthesize(table))
    assert text.count("#(") == 4  # one boxed equivalence clause per tuple
    reparsed = parse(text)
    assert truth_table(reparsed, ("p1",)) == table


# sha256 of the printed synthesized formulas below; a change to how
# synthesize builds its formulas must leave every printed byte as it was
SYNTHESIS_DIGEST = "6054a7b119e666b267973e239adc3775e03be0d703742d430ea76e5629c59f2e"


def test_synthesized_text_digest_pinned():
    # a fixed Random, not make_rng, so MAGARI4_SEED cannot move the digest
    rng = random.Random(1789)
    digest = hashlib.sha256()
    for arity in (1, 2, 3):
        for _ in range(8):
            table = random_delta_preserving_table(arity, rng)
            for simplify in (False, True):
                text = format_formula(synthesize(table, simplify=simplify))
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == SYNTHESIS_DIGEST
