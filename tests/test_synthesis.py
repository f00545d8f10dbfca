"""Table synthesis: the slice join, its least-size unary atlas and round-trips."""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import tracemalloc

import pytest

from conftest import distinct_nodes, make_rng
from magari4 import formula, selftest, synthesis
from magari4.algebra import ELEMENTS, Connective, delta, join, meet
from magari4.cli import run
from magari4.formula import (
    MAX_TABLE_VARS,
    Binary,
    Const,
    Unary,
    Var,
    evaluate,
    format_formula,
    free_vars,
    tree_size,
    truth_table,
)
from magari4.preservation import (
    delta_preserving_tables,
    find_violation,
    delta_pairing_relation,
    random_delta_preserving_table,
)
from magari4.synthesis import NotRepresentable, default_var_names, synthesize
from magari4.tables import FuncTable, points

Z, R, S, O = ELEMENTS


# ---------------------------------------------------------------------------
# The slice join
# ---------------------------------------------------------------------------


def test_final_collapse_identity():
    # d | 0 | (s & d') = d for every same-class pair (d, d'): at p1 = a the
    # slice join reads f_a | (s & f_a') | 0 with f_a' in f_a's class
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
        assert truth_table(synthesize(table), ("p1",)) == table


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
    assert truth_table(synthesize(meet_table), ("p1", "p2")) == meet_table
    for _ in range(40):
        table = random_delta_preserving_table(2, rng)
        assert truth_table(synthesize(table), ("p1", "p2")) == table


@pytest.mark.parametrize("simplify", [False, True])
def test_synthesize_refuses_a_repeated_variable_name(simplify):
    # over ("p", "p") the two inputs would be one, and the formula would
    # realize another table (1:0r11 for this one)
    table = FuncTable.from_text("2:0rs1rr11ss111111")
    with pytest.raises(ValueError, match="duplicate variable name"):
        synthesize(table, ("p", "p"), simplify=simplify)
    assert truth_table(synthesize(table, ("p", "q"), simplify=simplify), ("p", "q")) == table
    # a reserved or malformed name is refused also where the formula would
    # not read it: a constant table, and one that ignores p2
    for text, names in (("1:1111", ("rho",)), ("1:1111", ("9x",)),
                        ("2:ssss11110000rrrr", ("p", "sigma")),
                        ("2:ssss11110000rrrr", ("p", "9x"))):
        with pytest.raises(ValueError, match="reserved for a constant|not a valid variable"):
            synthesize(FuncTable.from_text(text), names, simplify=simplify)


def test_simplify_preserves_table(capsys):
    # simplify= is accepted and selects nothing; the CLI has no --simplify
    rng = make_rng(9)
    for arity in (1, 2, 3):
        for _ in range(10):
            table = random_delta_preserving_table(arity, rng)
            f = synthesize(table)
            assert synthesize(table, simplify=False) == f == synthesize(table, simplify=True)
            assert truth_table(f, tuple(f"p{i}" for i in range(1, arity + 1))) == table
    zero = FuncTable(1, (Z, Z, Z, Z))
    assert format_formula(synthesize(zero)) == "0"
    assert run(["synthesize", "--table", "2:0rs1rr11ss111111", "--simplify"]) == 2
    assert "unrecognized arguments: --simplify" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Compact synthesis: the unary atlas and the slice join
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
        f = synthesize(table, ("p",))
        assert tuple(evaluate(f, {"p": x}) for x in ELEMENTS) == table.entries
        assert tree_size(f) == least[table.entries]


def test_compact_synthesis_round_trips_arity_3_and_constants():
    # arity 3 recurses through the slice join twice
    rng = make_rng(43)
    names = ("x", "y", "z")
    for _ in range(60):
        table = random_delta_preserving_table(3, rng)
        assert truth_table(synthesize(table, names), names) == table
    for arity in (1, 2, 3):
        for value in ELEMENTS:
            constant = FuncTable(arity, (value,) * 4**arity)
            assert synthesize(constant, names[:arity]) == Const(value)


def test_compact_synthesis_builds_each_unary_node_once():
    # within one call, no two node objects in at most one variable have the
    # same variable and table, so the atlas formulas share their subformulas
    rng = make_rng(47)
    for arity in (2, 3):
        for _ in range(10):
            f = synthesize(random_delta_preserving_table(arity, rng))
            keys = []
            for node in distinct_nodes(f).values():
                names = tuple(sorted(free_vars(node)))
                if len(names) <= 1:
                    keys.append((names, truth_table(node, names)))
            assert len(set(keys)) == len(keys) > 4


def test_synthesize_shares_each_atlas_node_across_calls():
    # each (variable, unary table) atlas formula is one node object for the
    # process: every call over the same names reuses it.  A unary call
    # returns it; a wider call holds it wherever its formula holds an equal
    # node.  (The join's own & and | nodes, built per call, never equal an
    # atlas formula: of the 251 one-variable forms S_a & c and their
    # |-joins, none does.)
    rng = make_rng(59)
    atlas = {(name, table): synthesize(table, (name,))
             for name in ("x", "y", "z") for table in delta_preserving_tables(1)}
    for arity, names in ((2, ("x", "y")), (3, ("x", "y", "z")), (2, ("z", "x"))) * 5:
        f = synthesize(random_delta_preserving_table(arity, rng), names)
        reused = 0
        for node in distinct_nodes(f).values():
            used = tuple(sorted(free_vars(node)))
            if len(used) == 1:
                known = atlas[used[0], truth_table(node, used)]
                assert node is known or node != known
                reused += node is known
        assert reused > 4
    for (name, table), node in atlas.items():
        assert synthesize(table, (name,)) is node


def test_shared_nodes_keep_identity_keyed_memos_correct():
    # synthesized formulas share nodes with earlier ones, so truth_table's
    # last memo may already hold some of them; each table must still match
    # a pointwise reference, also after the cache drops its nodes and for
    # copies that share none
    rng = make_rng(61)
    orders = (("x", "y"), ("y", "x"))
    for step in range(300):
        if step == 150:
            synthesis._unary.cache_clear()
        table = random_delta_preserving_table(2, rng)
        names = orders[step % 2]
        f = synthesize(table, names)
        if step % 50 == 7:
            f = copy.deepcopy(f)
        elif step % 50 == 31:
            f = pickle.loads(pickle.dumps(f))
        for order in orders if step % 3 else orders[::-1]:
            reference = tuple(evaluate(f, dict(zip(order, xs))) for xs in points(2))
            assert truth_table(f, order).entries == reference
        assert truth_table(f, names) == table


def test_the_unary_cache_is_bounded_and_caches_no_refusal():
    bound = synthesis._unary.cache_info().maxsize
    assert bound >= MAX_TABLE_VARS * 64  # one call never evicts its own nodes
    tables = list(delta_preserving_tables(1))
    for i in range(200):  # 200 names of 64 tables each overflow the bound
        name = f"v{i}"
        for table in tables:
            assert truth_table(synthesize(table, (name,)), (name,)) == table
        assert synthesis._unary.cache_info().currsize <= bound
    assert synthesis._unary.cache_info().currsize == bound < 200 * 64
    for table in (FuncTable.from_text("1:0rs1"), FuncTable.from_text("1:1111")):
        for _ in range(3):
            with pytest.raises(ValueError, match="reserved for a constant"):
                synthesize(table, ("rho",))


def test_a_wider_call_shares_the_unary_node_after_the_cache_drops_it():
    # _unary is the one owner of atlas nodes: once it drops them, a wider
    # call takes the node a unary call built since, not a copy kept elsewhere
    wide = FuncTable.from_text("2:" + "ss11" * 4)  # each slice at x = a is 1:ss11
    synthesize(wide, ("x", "y"))  # every cache takes its entries in
    synthesis._unary.cache_clear()
    u = synthesize(FuncTable.from_text("1:ss11"), ("y",))
    f = synthesize(wide, ("x", "y"))
    assert sum(node is u for node in distinct_nodes(f).values()) == 1


def test_synthesize_refuses_a_table_over_the_cap_before_any_work():
    n = MAX_TABLE_VARS + 1
    before = synthesis._lifted.cache_info().currsize
    message = f"^a truth table over {n} variables exceeds the cap of {MAX_TABLE_VARS}$"
    for table in (FuncTable(n, (S,) * 4**n), FuncTable(n, ELEMENTS * 4 ** (n - 1))):
        with pytest.raises(ValueError, match=message):
            synthesize(table)
    assert synthesis._lifted.cache_info().currsize == before


def test_a_corrupted_atlas_recipe_is_still_caught():
    # _unary walks each node it builds and checks it against its key, and
    # the re-check trusts the keys: a recipe whose formula no longer
    # realizes its key makes synthesize refuse, in a slice and at the root
    caches = (synthesis._atlas, synthesis._unary, synthesis._lifted)
    for cache in caches:
        cache.cache_clear()
    try:
        atlas = synthesis._atlas()
        packed, (_, x, y) = next(
            (t, r) for t, r in atlas.items() if r[0] is Connective.AND and len(r) == 3)
        atlas[packed] = (Connective.OR, x, y)  # x != y in a least recipe
        table = FuncTable(1, tuple(ELEMENTS[e] for e in packed.to_bytes(4, "little")))
        wide = FuncTable(2, table.entries * 4)  # each slice at x = a is the table
        with pytest.raises(RuntimeError, match="changed the realized table"):
            synthesize(wide, ("x", "y"))
        with pytest.raises(RuntimeError, match="changed the realized table"):
            synthesize(table, ("y",))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert truth_table(synthesize(wide, ("x", "y")), ("x", "y")) == wide


def test_the_recheck_values_each_atlas_root_once_per_variable_order(monkeypatch):
    # only the join's S_a tables are lifted, once per (table, arity),
    # whatever the order; after that a binary table's check values only the
    # & and | nodes that its call built
    synthesis._lifted.cache_clear()
    rng = make_rng(67)
    tables = [random_delta_preserving_table(2, rng) for _ in range(200)]
    orders = (("x", "y"), ("y", "x"))
    for step, table in enumerate(tables):
        synthesize(table, orders[step % 2])
    walked = synthesis._lifted.cache_info()
    assert walked.misses == walked.currsize <= 4 < walked.hits
    valued = []
    walker = formula._walker

    def counting(var_order):
        leaf, unary, binary = walker(var_order)
        return (leaf, lambda op, x: valued.append(op) or unary(op, x),
                lambda op, x, y: valued.append(op) or binary(op, x, y))

    monkeypatch.setattr(formula, "_walker", counting)
    for step, table in enumerate(tables):
        valued.clear()
        synthesize(table, orders[step % 2])
        slices = [set(table.entries[4 * a : 4 * a + 4]) for a in range(4)]
        terms = [s for s in slices if s != {Z}]
        built = sum(s != {O} for s in terms) + len(terms) - 1  # the &s and |s
        assert len(valued) == (0 if len(set(table.entries)) == 1 else built)
    assert synthesis._lifted.cache_info().misses == walked.misses


def test_the_root_cache_is_bounded_and_right_after_the_unary_cache_drops_its_nodes():
    # the table cache holds no node and no name, so 300 tables over
    # alternating orders of 12 names, after the unary cache drops its nodes,
    # take at most 4 entries: the S_a over two variables
    synthesis._lifted.cache_clear()
    synthesis._unary.cache_clear()
    gc.collect()
    rng = make_rng(71)
    for step in range(300):
        a, b = f"v{step // 2 % 12}", f"v{(step // 2 + 1) % 12}"
        names = (a, b) if step % 2 else (b, a)
        table = random_delta_preserving_table(2, rng)
        f = synthesize(table, names)
        assert tuple(evaluate(f, dict(zip(names, xs))) for xs in points(2)) == table.entries
    assert synthesis._lifted.cache_info().currsize <= 4


@pytest.mark.parametrize("arity", [2, 3])
def test_a_wrong_slice_is_refused_by_the_level_that_joins_it(monkeypatch, arity):
    # a level checks its join on the slices that its operands' own checks
    # found, so one slice call that realizes another table (the negation of
    # its slice, which differs at every entry) passes its own check and is
    # refused one level up
    real, wrong = synthesis._compact, []

    def one_wrong_slice(flat, names):
        if len(names) < arity and not wrong:
            wrong.append(real(bytes(e ^ 3 for e in flat), names))
            return wrong[0]
        return real(flat, names)

    monkeypatch.setattr(synthesis, "_compact", one_wrong_slice)
    table = random_delta_preserving_table(arity, make_rng(79))
    with pytest.raises(RuntimeError, match="changed the realized table"):
        synthesize(table)
    assert len(wrong) == 1
    monkeypatch.undo()
    assert truth_table(synthesize(table), default_var_names(arity)) == table


def test_a_wide_synthesis_keeps_no_table_per_join_node():
    # each join is checked on its own level's width as it is built, so one
    # arity-7 call (9,528 distinct nodes) holds a few tables at a time,
    # not one per node, which would take about 159 MiB
    table = random_delta_preserving_table(7, random.Random("probe/7/0"))
    tracemalloc.start()
    try:
        f = synthesize(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert truth_table(f, default_var_names(7)) == table


def test_selftest_round_trips_confirm_each_point_with_evaluate(monkeypatch):
    rng = make_rng(73)
    tables = [random_delta_preserving_table(arity, rng) for arity in (2, 2, 3)]
    assert selftest._round_trips(tables)
    monkeypatch.setattr(selftest, "synthesize", lambda table, names: Var(names[-1]))
    assert not selftest._round_trips(tables)


def test_synthesize_deterministic():
    table = FuncTable.from_text("1:ss11")
    assert format_formula(synthesize(table)) == format_formula(synthesize(table))


def test_synthesize_custom_variable_names():
    table = FuncTable.from_text("1:ss11")
    f = synthesize(table, var_names=("x",))
    assert truth_table(f, ("x",)) == table
    with pytest.raises(ValueError):
        synthesize(table, var_names=("x", "y"))


# sha256 of the printed synthesized formulas below; a change to how
# synthesize builds its formulas must leave every printed byte as it was
SYNTHESIS_DIGEST = "5f43a7fc134a2ba4cd17807674725ea36a0bb6f71014537a88c8fd9d13bf88c2"


def test_synthesized_text_digest_pinned():
    # a fixed Random, not make_rng, so MAGARI4_SEED cannot move the digest
    rng = random.Random(1789)
    digest = hashlib.sha256()
    for arity in (1, 2, 3):
        for _ in range(8):
            table = random_delta_preserving_table(arity, rng)
            text = format_formula(synthesize(table))
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == SYNTHESIS_DIGEST
