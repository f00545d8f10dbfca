"""Formula language: grammar, printing round-trip, evaluation, truth
tables (checked against the naive per-valuation evaluator), equivalence,
and substitution laws."""

import itertools

import pytest

from conftest import all_valuations, make_rng, random_formula
from magari4.algebra import ELEMENTS, Connective, delta
from magari4.formula import (
    Binary,
    Const,
    EvaluationError,
    ParseError,
    Unary,
    Var,
    counterexample,
    equivalent,
    evaluate,
    format_formula,
    parse,
    substitute,
    substitute_all,
    truth_table,
)
from magari4.preservation import preserves_delta_pairing
from magari4.tables import FuncTable, compose

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


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("p & $q")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p ->")


def test_deep_nesting_is_parse_error():
    # the parser recurses once per level; running out of stack is reported
    # as malformed input, not as a RecursionError
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 200 + "p" + ")" * 200)


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
    with pytest.raises(ValueError):
        truth_table(parse("p & q"), ("p",))
    with pytest.raises(ValueError):
        truth_table(parse("p"), ("p", "p"))


def test_truth_table_matches_naive_evaluation():
    # the packed walker against the plain recursive evaluator
    rng = make_rng(2)
    names = ("p", "q")
    for _ in range(150):
        f = random_formula(rng, names, 4)
        table = truth_table(f, names)
        naive = tuple(
            evaluate(f, v) for v in all_valuations(names)
        )
        assert table.entries == naive


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
    assert substitute(parse("p & q"), "p", parse("# r")) == parse("# r & q")
    f = parse("p -> # p | q")
    assert substitute(f, "p", parse("p")) == f


def test_substitute_all_is_simultaneous():
    swapped = substitute_all(parse("p & q"), {"p": Var("q"), "q": Var("p")})
    assert swapped == parse("q & p")


def test_evaluation_homomorphism():
    # evaluate(a[p/b], v) = evaluate(a, v[p -> evaluate(b, v)])
    rng = make_rng(4)
    names = ("p", "q")
    for _ in range(120):
        a = random_formula(rng, names, 4)
        b = random_formula(rng, names, 3)
        sub = substitute(a, "p", b)
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
        projections = [
            FuncTable(2, tuple(pt[i] for pt in itertools.product(ELEMENTS, repeat=2)))
            for i in range(2)
        ]
        expected = compose(table_a, (table_b, projections[1]))
        assert truth_table(substitute(a, "p", b), names) == expected


def test_formula_tables_respect_delta_classes():
    # necessity half of the synthesis theorem, on random trees
    rng = make_rng(6)
    names = ("p", "q")
    for _ in range(100):
        f = random_formula(rng, names, 4)
        assert preserves_delta_pairing(truth_table(f, names))
    assert delta(Z) is S  # anchor the class split used above
