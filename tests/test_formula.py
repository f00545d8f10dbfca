"""Formula language: grammar, printing round-trip, evaluation, truth
tables (checked against the naive per-valuation evaluator), equivalence,
and substitution laws."""

import copy
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BINARY_OPS,
    all_valuations,
    compose_pointwise,
    distinct_nodes,
    make_rng,
    random_formula,
)
from magari4 import formula
from magari4.algebra import ELEMENTS, Connective, apply, delta
from magari4.formula import (
    Binary,
    Const,
    EvaluationError,
    ParseError,
    TermApply,
    Unary,
    Var,
    counterexample,
    equivalent,
    evaluate,
    format_formula,
    free_vars,
    parse,
    substitute_all,
    term_table,
    tree_size,
    truth_table,
)
from magari4.preservation import preserves_delta_pairing
from magari4.tables import FuncTable, points, projection

Z, R, S, O = ELEMENTS


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_basic_ast():
    assert parse("p & ~p") == Binary(
        Connective.AND, Var("p"), Unary(Connective.NOT, Var("p"))
    )


def test_box_expands_at_parse_time():
    assert parse("[] p") == Binary(
        Connective.AND, Var("p"), Unary(Connective.DELTA, Var("p"))
    )


def test_iff_expands_at_parse_time():
    assert parse("p <-> q") == Binary(
        Connective.AND,
        Binary(Connective.IMP, Var("p"), Var("q")),
        Binary(Connective.IMP, Var("q"), Var("p")),
    )


def test_constants_and_reserved_words():
    assert parse("0") == Const(Z)
    assert parse("1") == Const(O)
    assert parse("rho") == Const(R)
    assert parse("sigma") == Const(S)
    # r and s stay available as variables
    assert parse("r & s") == Binary(Connective.AND, Var("r"), Var("s"))
    with pytest.raises(ValueError):
        Var("rho")
    with pytest.raises(ValueError):
        Var("2x")


def test_precedence_and_associativity():
    assert parse("~p & q | r -> t") == Binary(
        Connective.IMP,
        Binary(
            Connective.OR,
            Binary(Connective.AND, Unary(Connective.NOT, Var("p")), Var("q")),
            Var("r"),
        ),
        Var("t"),
    )
    # -> right-associative, & left-associative
    assert parse("a -> b -> c") == parse("a -> (b -> c)")
    assert parse("a & b & c") == parse("(a & b) & c")
    assert parse("~#p") == Unary(Connective.NOT, Unary(Connective.DELTA, Var("p")))


PARSE_ERRORS = (
    ("p & $q", "unexpected character '$'", 4),
    ("(p & q", "expected ')'", 6),
    ("p q", "trailing input 'q'", 2),
    ("p)", "trailing input ')'", 1),
    (")", "unexpected token ')'", 0),
    ("p & & q", "unexpected token '&'", 4),
    ("((p)", "expected ')'", 4),
    ("p <-> ", "unexpected end of input", 6),
    ("[] (q |)", "unexpected token ')'", 7),
    ("", "unexpected end of input", 0),
    ("p ->", "unexpected end of input", 4),
)


def test_parse_errors_carry_positions():
    for text, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text


def test_parse_takes_any_depth():
    # far deeper than Python's recursion limit
    assert parse("(" * 200_000 + "p" + ")" * 200_000) == Var("p")
    nest = _nest("p", 100_000)
    assert parse(format_formula(nest)) == nest


def test_sigma_of_contradiction_is_sigma_everywhere():
    f = parse("# (p & ~p)")
    for v in all_valuations(("p",)):
        assert evaluate(f, v) is S


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_print_constants():
    assert format_formula(Const(S)) == "sigma"
    assert format_formula(Const(R)) == "rho"
    assert format_formula(Const(Z)) == "0"


def test_print_inserts_required_parentheses():
    assert format_formula(parse("(a -> b) -> c")) == "(a -> b) -> c"
    assert format_formula(parse("a -> b -> c")) == "a -> b -> c"
    assert format_formula(parse("a & (b & c)")) == "a & (b & c)"
    assert format_formula(parse("#(p & q)")) == "#(p & q)"
    assert format_formula(parse("~p & q")) == "~p & q"
    assert format_formula(parse("(a | b) & c")) == "(a | b) & c"


@pytest.mark.parametrize(
    "text",
    [
        "p",
        "~ # p",
        "[] (p <-> q)",
        "p & q | r -> sigma",
        "((p -> q) -> p) -> p",
        "# # 0 & (# (# p -> q) | # (# q -> p))",
    ],
)
def test_round_trip_examples(text):
    f = parse(text)
    assert parse(format_formula(f)) == f


def test_round_trip_random_trees():
    rng = make_rng(1)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), 5)
        assert parse(format_formula(f)) == f


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_tautology_and_constant_formulas():
    f = parse("p -> p")
    g = parse("~ # (p & ~p)")
    for v in all_valuations(("p",)):
        assert evaluate(f, v) is O
        assert evaluate(g, v) is R


def test_unbound_variable_named():
    with pytest.raises(EvaluationError, match="q"):
        evaluate(parse("p & q"), {"p": Z})


def test_truth_table_examples():
    assert truth_table(parse("# p"), ("p",)).to_text() == "1:ss11"
    assert truth_table(parse("p"), ("p",)).entries == ELEMENTS
    table = truth_table(parse("p & q"), ("p", "q"))
    assert table[(R, S)] is Z


def test_truth_table_zero_arity():
    assert truth_table(parse("sigma"), ()).entries == (S,)


def test_truth_table_var_order_errors():
    missing = r"^var_order misses free variable\(s\): \['q'\]$"
    with pytest.raises(ValueError, match=missing):
        truth_table(parse("p & q"), ("p",))
    with pytest.raises(ValueError, match=r"\['q', 'r'\]$"):
        truth_table(parse("r | (p & q)"), ("p",))
    with pytest.raises(ValueError):
        truth_table(parse("p"), ("p", "p"))


def test_a_refused_var_order_is_refused_on_every_call():
    # the walker cache keeps only orders it accepted, so each refusal comes
    # again on every call, also right after a valid call over the same names
    cap = formula.MAX_TABLE_VARS
    names = tuple(f"p{i}" for i in range(cap + 1))
    for _ in range(2):
        assert truth_table(parse("p & q"), ("p", "q")).arity == 2
        with pytest.raises(ValueError, match="^duplicate variable in var_order$"):
            truth_table(parse("p & q"), ("p", "q", "p"))
        assert truth_table(parse("p0"), names[:cap]).arity == cap
        with pytest.raises(ValueError, match=f"^a truth table over {cap + 1} variables"):
            truth_table(parse("p0"), names)
        assert truth_table(parse("p"), ("p",)).arity == 1
        missing = r"^var_order misses free variable\(s\): \['q', 'r'\]$"
        with pytest.raises(ValueError, match=missing):
            truth_table(parse("r | (p & q)"), ("p",))
    term = TermApply("F1", (Var("p0"),))
    with pytest.raises(ValueError, match=f"^a truth table over {cap + 1} variables"):
        term_table(term, names, {"F1": projection(1, 0)})


def test_the_walker_cache_stops_at_its_bound():
    # 1,000 distinct orders, each walked right: the cache keeps _WALKERS
    formula._walker.cache_clear()
    f = parse("p & ~q")
    for step in range(1000):
        names = ("p", "q", f"v{step}")[:: 1 if step % 2 else -1]
        table = truth_table(f, names)
        assert table.entries == tuple(evaluate(f, v) for v in all_valuations(names))
    assert formula._walker.cache_info().currsize == formula._WALKERS < 1000


def test_truth_table_caps_the_variable_count(monkeypatch):
    from magari4.constants import TwelveSystem
    from magari4.selftest import CANNED_FORMULAS

    def no_tables(n, i):
        raise AssertionError("a table was built past the cap")

    monkeypatch.setattr(formula, "projection_packed", no_tables)
    names = tuple(f"p{i}" for i in range(formula.MAX_TABLE_VARS + 1))
    wide = parse(" & ".join(names))
    cap = r"^a truth table over 9 variables exceeds the cap of 8$"
    with pytest.raises(ValueError, match=cap):
        truth_table(wide, names)
    with pytest.raises(ValueError, match=cap):
        truth_table(parse("p0"), names)
    with pytest.raises(ValueError, match=cap):
        equivalent(wide, parse("p0"))
    with pytest.raises(ValueError, match=cap):
        TwelveSystem.from_formulas({**CANNED_FORMULAS, 1: " & ".join(names)})


def test_truth_table_walks_once(monkeypatch):
    # free variables are collected only to name a missing one
    def no_free_vars(f):
        raise AssertionError("truth_table collected free variables")

    monkeypatch.setattr(formula, "free_vars", no_free_vars)
    assert truth_table(parse("p & q"), ("p", "q", "r")).arity == 3


def test_truth_table_matches_naive_evaluation():
    # the packed table walk against the reference evaluator
    rng = make_rng(2)
    names = ("p", "q")
    for _ in range(150):
        f = random_formula(rng, names, 4)
        table = truth_table(f, names)
        naive = tuple(
            evaluate(f, v) for v in all_valuations(names)
        )
        assert table.entries == naive


def _reference_table(f, names) -> tuple:
    return tuple(evaluate(f, v) for v in all_valuations(names))


def _sharing_formulas(rng, names, count: int) -> list:
    # each formula joins two earlier subformulas and joins the pool itself,
    # so consecutive formulas share operands
    pool = [random_formula(rng, names, 3) for _ in range(6)]
    for _ in range(count):
        pool.append(Binary(rng.choice(BINARY_OPS), rng.choice(pool), rng.choice(pool)))
    return pool[6:]


def test_truth_table_never_reads_the_ids_of_dropped_formulas():
    # the last call's memo names only nodes kept alive with it: f is dropped
    # once an unrelated g has replaced it, and each h once the next call has
    # begun, so fresh formulas are built at their addresses
    rng = make_rng(41)
    names = ("p", "q")
    f, g = random_formula(rng, names, 6), random_formula(rng, names, 6)
    truth_table(f, names)
    truth_table(g, names)
    del f
    for _ in range(1000):
        h = random_formula(rng, names, 4)
        assert truth_table(h, names).entries == _reference_table(h, names)
        del h


def test_truth_table_reuses_nothing_across_var_orders():
    f = parse("(p -> #q) & ~(p -> #q) | []q")
    for names in (("p", "q"), ("q", "p"), ("p", "q", "r"), ("p", "q")):
        assert truth_table(f, names).entries == _reference_table(f, names)


def test_truth_table_gives_the_same_tables_in_either_call_order():
    rng = make_rng(42)
    names = ("p", "q")
    formulas = _sharing_formulas(rng, names, 60)
    forward = [truth_table(f, names).entries for f in formulas]
    backward = [truth_table(f, names).entries for f in reversed(formulas)][::-1]
    assert forward == backward == [_reference_table(f, names) for f in formulas]


def test_truth_table_is_correct_under_two_threads():
    # each thread tabulates its own formulas over one var_order, so each
    # call reads a memo the other thread may just have put in place
    rng = make_rng(43)
    names = ("p", "q")
    work = [_sharing_formulas(rng, names, 40) for _ in range(2)]
    wrong, finished = [], []

    def tabulate(formulas, tables):
        for _ in range(20):
            wrong.extend(f for f, t in zip(formulas, tables) if truth_table(f, names).entries != t)
        finished.append(True)

    threads = [
        threading.Thread(target=tabulate, args=(fs, [_reference_table(f, names) for f in fs]))
        for fs in work
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == 2 and wrong == []


def test_gl4_axiom_formula_evaluates_exhaustively():
    # the box-corrected depth-two axiom is identically 1
    f = parse("# # 0 & (# ([] p -> q) | # ([] q -> p))")
    assert all(e is O for e in truth_table(f, ("p", "q")).entries)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def test_equivalence_examples():
    assert equivalent(parse("p"), parse("p & p"))
    assert equivalent(parse("# # (p & ~p)"), parse("1"))  # ##0 = #s = 1
    assert not equivalent(parse("p"), parse("q"))


def test_counterexample_is_first_in_enumeration_order():
    diff = counterexample(parse("p"), parse("q"))
    assert diff == {"p": Z, "q": R}
    assert counterexample(parse("p"), parse("p | p")) is None


def test_equivalent_is_equivalence_relation_and_congruence():
    rng = make_rng(3)
    names = ("p", "q")
    pool = [random_formula(rng, names, 3) for _ in range(40)]
    for f in pool[:10]:
        assert equivalent(f, f)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    for f, g in pairs:
        assert equivalent(f, g) == equivalent(g, f)
        if equivalent(f, g):
            # congruence with respect to every connective
            assert equivalent(Unary(Connective.NOT, f), Unary(Connective.NOT, g))
            assert equivalent(Unary(Connective.DELTA, f), Unary(Connective.DELTA, g))
            h = rng.choice(pool)
            for op in (Connective.AND, Connective.OR, Connective.IMP):
                assert equivalent(Binary(op, f, h), Binary(op, g, h))
    for f, g, h in [(rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(40)]:
        if equivalent(f, g) and equivalent(g, h):
            assert equivalent(f, h)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def test_substitute_examples():
    assert substitute_all(parse("p & q"), {"p": parse("# r")}) == parse("# r & q")
    f = parse("p -> # p | q")
    assert substitute_all(f, {"p": parse("p")}) == f


def test_the_formula_folds_refuse_a_term():
    # evaluate and truth_table refuse a term application wherever it sits,
    # with one TypeError that names term_table
    term = TermApply("F1", (Var("p"),))
    deep = term
    for _ in range(100_000):
        deep = Unary(Connective.NOT, deep)
    refusal = r"^F1\[\.\.\.\] is a term application: tabulate it with term_table$"
    for f in (term, Binary(Connective.AND, term, Var("q")), Binary(Connective.OR, Var("q"), deep)):
        with pytest.raises(TypeError, match=refusal):
            evaluate(f, {"p": Z, "q": Z})
        with pytest.raises(TypeError, match=refusal):
            truth_table(f, ("p", "q"))


def test_substitution_and_printing_go_through_term_applications():
    # a mix of formula nodes and applications, either way round
    p, q, r = Var("p"), Var("q"), Var("r")
    mixed = Binary(Connective.AND, TermApply("F1", (p,)), q)
    assert substitute_all(mixed, {"p": r}) == Binary(Connective.AND, TermApply("F1", (r,)), q)
    assert format_formula(mixed) == "F1[p] & q"
    inner = TermApply("F2", (Binary(Connective.OR, p, Unary(Connective.DELTA, q)), Const(S)))
    assert substitute_all(inner, {"q": p}) == TermApply(
        "F2", (Binary(Connective.OR, p, Unary(Connective.DELTA, p)), Const(S))
    )
    assert format_formula(Unary(Connective.NOT, inner)) == "~F2[p | #q,sigma]"
    assert format_formula(Binary(Connective.AND, mixed, mixed)) == "F1[p] & q & (F1[p] & q)"


def test_term_table_tabulates_formula_nodes_under_an_application():
    rng = make_rng(46)
    f1 = FuncTable(1, tuple(rng.choice(ELEMENTS) for _ in range(4)))
    f2 = FuncTable(2, tuple(rng.choice(ELEMENTS) for _ in range(16)))
    conj = parse("p & q")
    got = term_table(TermApply("F1", (conj,)), ("p", "q"), {"F1": f1})
    assert got == compose_pointwise(f1, [truth_table(conj, ("p", "q"))])
    mixed = Binary(Connective.OR, TermApply("F2", (Var("q"), conj)), Var("p"))
    inner = compose_pointwise(f2, [truth_table(v, ("p", "q")) for v in (Var("q"), conj)])
    want = [apply(Connective.OR, (x, pt[0])) for x, pt in zip(inner.entries, points(2))]
    assert list(term_table(mixed, ("p", "q"), {"F2": f2}).entries) == want


def test_substitute_all_is_simultaneous():
    swapped = substitute_all(parse("p & q"), {"p": Var("q"), "q": Var("p")})
    assert swapped == parse("q & p")


def test_substitute_all_keeps_shared_nodes_shared():
    # f_{i+1} = f_i & # f_i: 33 node objects, about 2**17 nodes as a tree
    tower = Var("p")
    for _ in range(16):
        tower = Binary(Connective.AND, tower, Unary(Connective.DELTA, tower))
    result = substitute_all(tower, {"p": Var("q")})
    sizes = len(distinct_nodes(tower)), len(distinct_nodes(result))
    assert sizes == (33, 33)
    assert truth_table(result, ("q",)) == truth_table(tower, ("p",))


def test_repr_writes_each_distinct_node_once():
    assert repr(parse("[](p -> q) | ~rho")) == (
        "Binary(%0 = %1 | %2, %1 = %3 & %4, %2 = ~rho, %3 = p -> q, %4 = #%3)"
    )
    # f_{i+1} = f_i & # f_i: 121 node objects, about 2**61 nodes as a tree
    tower = Var("p")
    for _ in range(60):
        tower = Binary(Connective.AND, tower, Unary(Connective.DELTA, tower))
    text = repr(tower)
    assert text.count(" = ") == 120
    assert text.startswith("Binary(%0 = %1 & %2, %1 = %3 & %4, %2 = #%1, ")
    assert text.endswith(", %117 = p & %119, %118 = #%117, %119 = #p)")


def test_free_vars_takes_any_depth():
    assert free_vars(parse(" & ".join(["p"] * 100_000))) == {"p"}


def _nest(name: str, depth: int):
    f = Var(name)
    for i in range(depth):
        f = Unary(Connective.NOT if i % 2 else Connective.DELTA, f)
    return f


def test_formula_walkers_take_any_depth():
    # both far deeper than Python's recursion limit
    text = " & ".join(["p"] * 100_000)
    chain = parse(text)
    assert truth_table(chain, ("p",)).to_text() == "1:0rs1"
    assert format_formula(chain) == text  # so it re-parses to chain
    assert format_formula(substitute_all(chain, {"p": Var("q")})) == text.replace("p", "q")
    nest = _nest("p", 100_000)
    assert parse(format_formula(nest)) == nest
    assert parse(format_formula(substitute_all(nest, {"p": Var("q")}))) == _nest("q", 100_000)
    for f in (chain, nest):
        table = truth_table(f, ("p",))
        assert all(evaluate(f, {"p": x}) is table[(x,)] for x in ELEMENTS)


def _tower(name: str, levels: int):
    # f_{i+1} = f_i & # f_i: 2 * levels + 1 node objects, 3 * 2**levels - 2
    # nodes as a tree
    f = Var(name)
    for _ in range(levels):
        f = Binary(Connective.AND, f, Unary(Connective.DELTA, f))
    return f


def test_equality_and_hash_walk_the_dag():
    start = time.perf_counter()
    a, b = _tower("p", 60), _tower("p", 60)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _tower("q", 60)
    assert tree_size(a) == 3 * 2**60 - 2
    assert time.perf_counter() - start < 1.0
    assert parse(" & ".join(["p"] * 100_000)) == parse(" & ".join(["p"] * 100_000))
    assert parse("p & q") != parse("q & p")


def test_not_equal_is_the_negation_of_equal_at_any_depth():
    # separately built chains, far deeper than Python's recursion limit
    a, b, c = _nest("p", 200_000), _nest("p", 200_000), _nest("q", 200_000)
    assert (a != b) is False
    assert (a != c) is True


def test_a_formula_equals_itself_without_a_walk(monkeypatch):
    chain = _chain(200_000, True)

    def no_fold(*args):
        raise AssertionError("== walked a formula compared with itself")

    monkeypatch.setattr(formula, "_fold", no_fold)
    assert chain == chain and not chain != chain


def test_roots_with_different_heads_or_lengths_differ_without_a_walk(monkeypatch):
    chain, t = _chain(200_000, True), Var("t")
    pairs = (
        (Binary(Connective.AND, chain, chain), Binary(Connective.OR, chain, chain)),
        (Unary(Connective.NOT, chain), Unary(Connective.DELTA, chain)),
        (TermApply("F1", (t,)), TermApply("F2", (t,))),
        (TermApply("F1", (t,)), TermApply("F1", (t, t))),
    )

    def no_fold(*args):
        raise AssertionError("== walked two roots that differ at the root")

    monkeypatch.setattr(formula, "_fold", no_fold)
    for f, g in pairs:
        assert f != g and g != f and not f == g


def test_a_node_never_equals_a_plain_tuple():
    p, t = Var("p"), Var("p")
    for node, fields in (
        (Binary(Connective.AND, p, p), (Connective.AND, p, p)),
        (Unary(Connective.NOT, p), (Connective.NOT, p)),
        (TermApply("F1", (t,)), ("F1", t)),
    ):
        assert node != fields and fields != node
        assert not node == fields and not fields == node


def test_formulas_are_not_ordered():
    p, q, t = Var("p"), Var("q"), Var("p")
    nodes = [Binary(Connective.AND, p, q), Binary(Connective.AND, p, q), Unary(Connective.NOT, p)]
    nodes += [TermApply("F1", (t,)), TermApply("F1", (t, t))]
    for x in nodes:
        for y in nodes + [p]:
            with pytest.raises(TypeError):
                x < y
            with pytest.raises(TypeError):
                y >= x
    with pytest.raises(TypeError):
        sorted(nodes)


def test_node_fields_cannot_be_assigned():
    p = Var("p")
    binary, unary = Binary(Connective.AND, p, p), Unary(Connective.NOT, p)
    term = TermApply("F1", (Var("p"),))
    for node, name in (
        (binary, "op"), (binary, "left"), (binary, "right"), (unary, "child"),
        (term, "label"), (term, "args"),
    ):
        with pytest.raises(AttributeError):
            setattr(node, name, Var("q"))
    assert binary == Binary(Connective.AND, p, p) and unary.child is p
    assert term.label == "F1" and term.args == (Var("p"),)


def test_deepcopy_keeps_sharing_and_equality():
    f = _tower("p", 20)
    g = copy.deepcopy(f)
    assert g is not f and g == f and hash(g) == hash(f)
    assert len(distinct_nodes(g)) == len(distinct_nodes(f)) == 41


def _chain(depth: int, left_leaning: bool, names=("p", "q")):
    # link i joins the chain so far to one of two shared leaves, by & or |;
    # so leaves and connectives repeat every 6 links
    leaves = [Var(name) for name in names]
    f = leaves[0]
    for i in range(depth):
        op, leaf = Connective.OR if i % 3 else Connective.AND, leaves[i % 2]
        f = Binary(op, f, leaf) if left_leaning else Binary(op, leaf, f)
    return f


@pytest.mark.parametrize("left_leaning", [True, False], ids=["left", "right"])
def test_deep_chains_go_through_every_fold(left_leaning):
    # far deeper than Python's recursion limit.  Every 6 links apply one
    # fixed map to each entry, and a map of four elements repeats with a
    # period of 1 to 4 after at most 3 steps; 200,000 - 56 is a multiple of
    # 6 * 12, so the chain has the table of its first 56 links
    f = _chain(200_000, left_leaning)
    table = truth_table(f, ("p", "q"))
    assert table == truth_table(_chain(56, left_leaning), ("p", "q"))
    swapped = substitute_all(f, {"p": Var("q"), "q": Var("p")})
    assert truth_table(swapped, ("q", "p")) == table
    built = _chain(200_000, left_leaning, ("q", "p"))
    assert swapped == built and hash(swapped) == hash(built)


def test_deep_chains_survive_deepcopy_and_pickle():
    f = _chain(200_000, True)
    try:
        copies = copy.deepcopy(f), pickle.loads(pickle.dumps(f))
    except RecursionError:
        # raised afresh: a report of the recursing frames would print the
        # chain in each of them
        raise AssertionError("copying recursed once per level") from None
    for g in copies:
        assert g is not f and g == f


def test_a_shallow_copy_is_the_node_itself():
    # an immutable node needs no copy, as a tuple does not; at any depth
    p = Var("p")
    term = TermApply("F1", (TermApply("F2", (Var("p"),)),))
    for node in (Unary(Connective.NOT, p), Binary(Connective.AND, p, p),
                 _chain(200_000, True), term):
        assert copy.copy(node) is node


def test_unpickled_tower_keeps_its_sharing():
    f = parse("[]" * 40 + "(p -> sigma)")
    g = pickle.loads(pickle.dumps(f))
    # p, sigma, p -> sigma, and two nodes per []
    assert g == f and len(distinct_nodes(g)) == len(distinct_nodes(f)) == 83


def _all_nodes(f) -> int:
    """The distinct node objects of a formula, a term or a mix, leaves too."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, tuple):
                stack += node[1:]
    return len(seen)


def _mixed_chain(depth: int, name: str):
    # links take turns as Binary, TermApply and Unary nodes; each Binary and
    # TermApply link shares one #name node with all the others
    leaf = Var(name)
    shared, f = Unary(Connective.DELTA, leaf), leaf
    for i in range(depth):
        f = (Binary(Connective.AND, f, shared) if i % 3 == 0 else
             TermApply("F1", (shared, f)) if i % 3 == 1 else Unary(Connective.NOT, f))
    return f


def test_mixed_deep_chains_take_the_dag_protocol():
    # far deeper than Python's recursion limit: 200,000 links over one
    # shared #p, so 200,002 distinct nodes
    depth = 200_000
    f, g = _mixed_chain(depth, "p"), _mixed_chain(depth, "p")
    assert tree_size(f) == 1 + sum(3 if i % 3 < 2 else 1 for i in range(depth))
    assert f is not g and f == g and hash(f) == hash(g) and not f != g
    assert f != _mixed_chain(depth, "q")
    for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied is not f and copied == f and hash(copied) == hash(f)
        assert _all_nodes(copied) == _all_nodes(f) == depth + 2


_LEAF_TEXT = {Z: "0", O: "1", R: "rho", S: "sigma"}


@st.composite
def _dags(draw, kinds=("unary", "binary", "term")):
    """A DAG whose nodes each take their operands from the nodes and leaves
    drawn before them, so operands are shared; the last one is the root."""
    leaf = st.one_of(st.sampled_from("pqr").map(Var), st.sampled_from(ELEMENTS).map(Const))
    pool = draw(st.lists(leaf, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 10))):
        pick = st.sampled_from(list(pool))
        kind = draw(st.sampled_from(kinds))
        if kind == "unary":
            node = Unary(draw(st.sampled_from((Connective.NOT, Connective.DELTA))), draw(pick))
        elif kind == "binary":
            node = Binary(draw(st.sampled_from(BINARY_OPS)), draw(pick), draw(pick))
        else:
            node = TermApply(draw(st.sampled_from(("F1", "F2"))), tuple(draw(st.lists(pick, max_size=3))))
        pool.append(node)
    return pool[-1]


def _reference_size(node) -> int:
    return 1 + sum(map(_reference_size, node[1:])) if isinstance(node, tuple) else 1


def _reference_subst(node, mapping):
    if type(node) is Var:
        return mapping.get(node.name, node)
    if type(node) is Const:
        return node
    operands = [_reference_subst(x, mapping) for x in node[1:]]
    return TermApply(node[0], tuple(operands)) if type(node) is TermApply else type(node)(node[0], *operands)


def _reference_term_text(node) -> str:
    if type(node) is Var:
        return node.name
    if type(node) is Const:
        return _LEAF_TEXT[node.value]
    return f"{node[0]}[{','.join(map(_reference_term_text, node[1:]))}]"


def _same_tree(f, g) -> bool:
    if isinstance(f, tuple):
        return (type(f) is type(g) and f[0] == g[0] and len(f) == len(g)
                and all(map(_same_tree, f[1:], g[1:])))
    return type(f) is type(g) and f == g


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_dags(), _dags(kinds=("term",)), st.sampled_from(({"p": Var("q")}, {"q": Const(R), "r": Var("p")})))
def test_the_fold_agrees_with_recursive_references(f, term, mapping):
    for node in (f, term):
        assert tree_size(node) == _reference_size(node)
        substituted = substitute_all(node, mapping)
        assert _same_tree(substituted, _reference_subst(node, mapping))
        assert _all_nodes(substituted) <= _all_nodes(node) + len(mapping)
        for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert _same_tree(copied, node) and copied == node and hash(copied) == hash(node)
            assert _all_nodes(copied) == _all_nodes(node)
    assert format_formula(term) == _reference_term_text(term)


def _counting_callbacks(calls: list):
    return (
        lambda node: calls.append(node) or 0,
        lambda op, x: calls.append(op) or 0,
        lambda op, x, y: calls.append(op) or 0,
    )


def test_fold_values_a_node_met_twice_once():
    # c is an operand of P and, under L, of P's other operand; a fold that
    # pushed c twice and valued it on each visit would count it twice
    p, e = Var("p"), Var("e")
    c = Unary(Connective.NOT, p)
    L = Binary(Connective.AND, c, e)
    P = Binary(Connective.OR, L, c)
    calls: list = []
    formula._fold(P, *_counting_callbacks(calls))
    assert len(calls) == len(distinct_nodes(P)) == 5
    for f in (_tower("p", 12), parse(" <-> ".join(["p", "q"] * 6))):
        calls.clear()
        formula._fold(f, *_counting_callbacks(calls))
        assert len(calls) == len(distinct_nodes(f))


def test_evaluate_names_the_leftmost_unbound_variable():
    with pytest.raises(EvaluationError, match="'q'"):
        evaluate(parse("~q & p"), {})
    with pytest.raises(EvaluationError, match="'u'"):
        evaluate(parse("(u | #v) -> (v & w)"), {})


def _reference_leaf_order(f) -> list:
    """The leaves of f in the order a recursive, memoized fold values them."""
    seen, order = set(), []

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Binary):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Unary):
            visit(node.child)
        else:
            order.append(node)

    visit(f)
    return order


def test_fold_values_leaves_left_to_right():
    rng = make_rng(44)
    names = ("p", "q", "u", "v")
    for _ in range(200):
        f = parse(format_formula(random_formula(rng, names, 6)))
        for g in (f, substitute_all(f, {"p": parse("[]q <-> p")})):
            leaves: list = []
            formula._fold(g, leaves.append, lambda op, x: 0, lambda op, x, y: 0)
            assert [id(x) for x in leaves] == [id(x) for x in _reference_leaf_order(g)]


@pytest.mark.parametrize(
    "text", [" <-> ".join(["p"] * 16), "[]" * 16 + "p"], ids=["iff-chain", "box-tower"]
)
def test_evaluate_visits_each_shared_operand_once(monkeypatch, text):
    # `<->` and `[]` share their operands, so as trees these formulas have
    # about 10**5 internal nodes, but as DAGs under 50
    f = parse(text)
    internal = sum(
        isinstance(node, (Unary, Binary)) for node in distinct_nodes(f).values()
    )
    table = truth_table(f, ("p",))
    calls = []

    def counting_apply(op, args):
        calls.append(op)
        return apply(op, args)

    monkeypatch.setattr(formula, "apply", counting_apply)
    for x in ELEMENTS:
        calls.clear()
        assert evaluate(f, {"p": x}) is table[(x,)]
        assert len(calls) <= internal


def test_evaluation_homomorphism():
    # evaluate(a[p/b], v) = evaluate(a, v[p -> evaluate(b, v)])
    rng = make_rng(4)
    names = ("p", "q")
    for _ in range(120):
        a = random_formula(rng, names, 4)
        b = random_formula(rng, names, 3)
        sub = substitute_all(a, {"p": b})
        for v in all_valuations(names):
            inner = dict(v)
            inner["p"] = evaluate(b, v)
            assert evaluate(sub, v) is evaluate(a, inner)


def test_substitution_composes_truth_tables():
    # table of a[p/b] equals composing a's table with (b's table, projections)
    rng = make_rng(5)
    names = ("p", "q")
    for _ in range(60):
        a = random_formula(rng, names, 3)
        b = random_formula(rng, names, 3)
        table_a = truth_table(a, names)
        table_b = truth_table(b, names)
        expected = compose_pointwise(table_a, (table_b, projection(2, 1)))
        assert truth_table(substitute_all(a, {"p": b}), names) == expected


def test_formula_tables_respect_delta_classes():
    # necessity half of the synthesis theorem, on random trees
    rng = make_rng(6)
    names = ("p", "q")
    for _ in range(100):
        f = random_formula(rng, names, 4)
        assert preserves_delta_pairing(truth_table(f, names))
    assert delta(Z) is S  # anchor the class split used above
