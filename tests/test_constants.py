"""The constant-derivation engine: gates, every branch of the pipeline,
soundness of realized tables, and agreement with the closure oracle.

Branch steering is done with hand-picked member tables whose collapsed
profiles force each path; expected constants were computed by hand from
the member tables and are asserted exactly.
"""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import time

import pytest

from conftest import (
    canned_with,
    compound_nodes,
    compound_nodes_valued,
    distinct_nodes,
    make_rng,
)
from magari4 import constants, formula, selftest
from magari4.algebra import ELEMENTS
from magari4.closure import expressible_constants
from magari4.constants import (
    Derivation,
    PreconditionViolated,
    TwelveSystem,
    derive_all_constants,
    lemma1_A,
    lemma2_B,
    lemma3,
    lemma4,
    lemma5,
)
from magari4.formula import (
    Const,
    TermApply,
    Var,
    format_formula,
    free_vars,
    parse,
    substitute_all,
    term_subst,
    term_table,
    term_text,
    truth_table,
)
from magari4.preservation import ViolationWitness
from magari4.selftest import CANNED_FORMULAS, canned_system, random_twelve_tables
from magari4.synthesis import NotRepresentable, synthesize
from magari4.tables import FuncTable, constant_table, points

Z, R, S, O = ELEMENTS


def table_formula(entries: str) -> str:
    """A formula in p1 realizing the unary table given by four entry tokens;
    a constant table synthesizes to a bare constant, so it gets p1 & 0."""
    text = format_formula(synthesize(FuncTable.from_text(f"1:{entries}")))
    return text if "p1" in text else f"{text} | p1 & 0"


def system(**overrides: str) -> TwelveSystem:
    return TwelveSystem.from_formulas(canned_with(**overrides))


def assert_sound(derivation: Derivation) -> None:
    """Expanding the term to a raw formula reproduces the realized table."""
    expanded = truth_table(derivation.expand(), ("p",))
    assert expanded == derivation.realized


def steps(derivation: Derivation) -> list[str]:
    return [step for step, _ in derivation.trace]


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------


def test_canned_system_members_violate_their_relations():
    sysm = canned_system()
    for i in range(1, 13):
        member = sysm.member(i)
        assert member.label == f"F{i}"
        image_cols = set(
            tuple(col) for col in member.witness.selected_columns
        )
        assert image_cols  # witnesses recorded and re-checked on construction


def test_projection_member_rejected_with_index():
    formulas = canned_with(F5="p")
    with pytest.raises(PreconditionViolated) as err:
        TwelveSystem.from_formulas(formulas)
    assert err.value.index == 5
    assert "F5 preserves R5" in str(err.value)


def test_tampered_witness_rejected():
    sysm = canned_system()
    bogus = ViolationWitness(((S,),), (O,))  # F1 maps s to 1: inside R2, wrong shape for R1
    members = list(sysm.members)
    members[0] = dataclasses.replace(members[0], witness=bogus)
    with pytest.raises(PreconditionViolated) as err:
        TwelveSystem(tuple(members))
    assert err.value.index == 1


def test_class_breaking_member_table_rejected():
    sysm = canned_system()
    members = list(sysm.members)
    breaker = FuncTable.from_text("1:0s00")  # genuine R1 violation, no realizer
    members[0] = dataclasses.replace(
        members[0], table=breaker, witness=ViolationWitness(((R,),), (S,))
    )
    with pytest.raises(ValueError, match="delta pairing"):
        TwelveSystem(tuple(members))


def test_from_tables_round_trip():
    rng = make_rng(12)
    tables = random_twelve_tables(rng)
    sysm = TwelveSystem.from_tables(tables)
    for i in range(1, 13):
        m = sysm.member(i)
        assert m.table == tables[i]
        assert m.var_order == tuple(f"p{k}" for k in range(1, m.table.arity + 1))


def test_from_tables_keeps_the_checked_tables(monkeypatch):
    # construction checks each input table and keeps it; no formula is
    # tabulated, and a member's formula is only made on first read, where
    # synthesize compares its table with the member's
    tables = canned_system().tables()
    inputs = {i: tables[f"F{i}"] for i in range(1, 13)}

    def no_tabulation(*args, **kwargs):
        raise AssertionError("from_tables tabulated a member")

    monkeypatch.setattr(constants, "truth_table", no_tabulation)
    sysm = TwelveSystem.from_tables(inputs)
    for i in range(1, 13):
        m = sysm.member(i)
        assert m.table == inputs[i]
        assert m.var_order == tuple(f"p{k}" for k in range(1, m.table.arity + 1))


def test_from_tables_keeps_an_all_zero_member_as_the_constant():
    # an all-zero table simplifies to the constant 0, which has no variable;
    # it stays the member formula, and the member keeps its table over p1
    tables = {**random_twelve_tables(make_rng(12)), 2: FuncTable.from_text("1:0000")}
    m = TwelveSystem.from_tables(tables).member(2)
    assert m.formula == Const(Z)
    assert m.table == tables[2]
    assert m.var_order == ("p1",)
    assert truth_table(m.formula, ("p1",)) == tables[2]


def test_member_count_enforced():
    with pytest.raises(ValueError):
        TwelveSystem.from_formulas(["# p"] * 11)
    with pytest.raises(ValueError, match="F12"):
        TwelveSystem.from_formulas({i: "# p" for i in range(1, 12)})
    with pytest.raises(ValueError, match="unexpected members: F13$"):
        TwelveSystem.from_formulas({**CANNED_FORMULAS, 13: "p"})
    with pytest.raises(ValueError, match="unexpected members: F0, F13$"):
        TwelveSystem.from_formulas({**CANNED_FORMULAS, 13: "p", 0: "q"})


def test_from_tables_checks_members_before_synthesis(monkeypatch):
    tables = random_twelve_tables(make_rng(15))

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized before the member check")

    monkeypatch.setattr(constants, "synthesize", no_synthesis)
    with pytest.raises(ValueError, match="expected 12 members, got 11"):
        TwelveSystem.from_tables([tables[i] for i in range(1, 12)])
    del tables[7]
    with pytest.raises(ValueError, match="missing members: F7$"):
        TwelveSystem.from_tables(tables)
    # a table no formula realizes is refused by the member check, not by
    # synthesize's NotRepresentable
    tables = {**random_twelve_tables(make_rng(15)), 5: FuncTable.from_text("1:000s")}
    with pytest.raises(ValueError, match="^F5's table breaks the delta pairing") as err:
        TwelveSystem.from_tables(tables)
    assert not isinstance(err.value, NotRepresentable)


def test_table_members_synthesize_once_on_first_read(monkeypatch):
    # from_tables makes no formula; expanding the four constants makes one
    # per member their terms name, and nothing makes one twice
    calls = []

    def counting(table, *args, **kwargs):
        calls.append(id(table))
        return synthesize(table, *args, **kwargs)

    monkeypatch.setattr(constants, "synthesize", counting)
    rng = make_rng(36)
    for _ in range(6):
        calls.clear()
        tables = random_twelve_tables(rng)
        sysm, unread = TwelveSystem.from_tables(tables), TwelveSystem.from_tables(tables)
        assert calls == []
        derived = list(derive_all_constants(sysm).values())
        for d in derived:
            d.expand()
        named = {t.label for t in apply_nodes(d.term for d in derived).values()}
        assert sorted(calls) == sorted(id(m.table) for m in sysm.members if m.label in named)
        for d in derived:
            d.expand()
        assert len(calls) == len(named)
        formulas = [m.formula for m in sysm.members]
        assert len(calls) == 12
        # reading formulas moves neither a member's value nor the system's
        assert sysm == unread and hash(sysm) == hash(unread)
        for m, twin in zip(sysm.members, unread.members):
            assert m == twin and hash(m) == hash(twin)
        copied = copy.deepcopy(sysm)
        assert copied == sysm and hash(copied) == hash(sysm)
        assert [m.formula for m in copied.members] == formulas
        assert len(calls) == 12


def test_randomized_systems_expand_soundly():
    # expansions share subtree objects, so the term-to-formula soundness
    # check stays linear even on deep derivations
    rng = make_rng(14)
    for _ in range(25):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        result = derive_all_constants(sysm)
        for v, d in result.items():
            assert d.realized == constant_table(v, 1)
            assert_sound(d)



def apply_nodes(terms) -> dict[int, TermApply]:
    """The distinct applications (by identity) under the given terms."""
    nodes, stack = {}, list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, TermApply) and id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t.args)
    return nodes


def test_expansion_copies_each_member_once_per_term_node():
    # each distinct term node substitutes into its member's formula once,
    # and substitution keeps the member's shared nodes shared
    rng = make_rng(32)
    for _ in range(5):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        members = {m.label: len(distinct_nodes(m.formula)) for m in sysm.members}
        for d in derive_all_constants(sysm).values():
            # ints only: pytest's report of a failed assert would print
            # the expansion as a tree
            size = len(distinct_nodes(d.expand()))
            assert size <= sum(members[t.label] for t in apply_nodes([d.term]).values())


def test_one_substitution_per_distinct_application(monkeypatch):
    # the four constants of one run share subterms by identity, and the
    # system's expansions serve a shared application to all four
    calls = []

    def counting(formula, mapping):
        calls.append(formula)
        return substitute_all(formula, mapping)

    monkeypatch.setattr(constants, "substitute_all", counting)
    rng = make_rng(33)
    for _ in range(6):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        derived = list(derive_all_constants(sysm).values())
        calls.clear()
        for d in derived:
            d.expand()
        assert len(calls) == len(apply_nodes(d.term for d in derived))
        # the sum is what expanding each constant on its own would cost
        assert len(calls) < sum(len(apply_nodes([d.term])) for d in derived)
        for d in derived:  # a second round is served whole
            d.expand()
        assert len(calls) == len(apply_nodes(d.term for d in derived))


def test_expansions_survive_reused_ids():
    # every term is dropped after its expansion, so its memory, and with it
    # its id, goes to a later term; an entry that did not hold its node
    # would serve the dropped term's formula to the live one
    sysm = canned_system()
    tables = sysm.tables()
    rng = make_rng(34)
    for _ in range(3000):
        term = random_two_level_term(rng, tables)
        realized = term_table(term, ("p",), tables)
        expanded = Derivation(term, realized, (), sysm).expand()
        assert truth_table(expanded, ("p",)) == realized


def pickled(value):
    return pickle.loads(pickle.dumps(value))


def test_copied_system_expands_its_own_terms():
    # a deep copy's or an unpickled copy's entries hold copies of the nodes
    # under the originals' ids; once the originals are gone, those ids go
    # to new terms
    tables = canned_system().tables()
    rng = make_rng(35)
    for duplicate in (copy.deepcopy, pickled):
        for _ in range(300):
            original = canned_system()
            term = random_two_level_term(rng, tables)
            Derivation(term, term_table(term, ("p",), tables), (), original).expand()
            copied = duplicate(original)
            del original, term
            term = random_two_level_term(rng, tables)
            realized = term_table(term, ("p",), tables)
            expanded = Derivation(term, realized, (), copied).expand()
            assert truth_table(expanded, ("p",)) == realized


def test_one_composition_per_distinct_tabulated_node(monkeypatch):
    # the engine's checks tabulate each one-variable term against the
    # system, which keeps every node's table; so a node shared by several
    # checked terms is composed once.  Lemma 3's two-variable tables are
    # not kept: each term_table call composes its own distinct nodes
    compositions, one_var, two_var = [], [], []
    run_lanes, tabulate, table = formula.compose_lanes, constants._tabulate, term_table

    def counting_lanes(*args):
        compositions.append(args)
        return run_lanes(*args)

    def counting_tabulate(term, sysm):
        one_var.append(term)
        return tabulate(term, sysm)

    def counting_table(term, var_order, *args):
        if len(var_order) == 2:  # _tabulate's one-variable calls are counted above
            two_var.append(term)
        return table(term, var_order, *args)

    monkeypatch.setattr(formula, "compose_lanes", counting_lanes)
    monkeypatch.setattr(constants, "_tabulate", counting_tabulate)
    monkeypatch.setattr(constants, "term_table", counting_table)
    rng = make_rng(37)
    for _ in range(20):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        for calls in (compositions, one_var, two_var):
            calls.clear()
        derive_all_constants(sysm)
        assert len(compositions) == len(apply_nodes(one_var)) + sum(
            len(apply_nodes([t])) for t in two_var
        )


def test_tabulated_tables_survive_reused_ids():
    # as test_expansions_survive_reused_ids, for the system's term tables
    sysm = canned_system()
    tables = sysm.tables()
    rng = make_rng(38)
    for _ in range(3000):
        term = random_two_level_term(rng, tables)
        assert constants._tabulate(term, sysm) == term_table(term, ("p",), tables)


def test_copied_and_replaced_systems_tabulate_their_own_terms():
    # a deep copy's or an unpickled copy's entries hold copies of the nodes
    # under the originals' ids, and dataclasses.replace starts with no
    # entries, so none of them ever serves another system's table
    canned = canned_system()
    tables = canned.tables()
    rng = make_rng(39)
    for duplicate in (copy.deepcopy, pickled):
        for _ in range(300):
            original = canned_system()
            term = random_two_level_term(rng, tables)
            constants._tabulate(term, original)
            copied = duplicate(original)
            del original, term
            term = random_two_level_term(rng, tables)
            assert constants._tabulate(term, copied) == term_table(term, ("p",), tables)
    other = system(F2="~ # p")
    terms = [random_two_level_term(rng, tables) for _ in range(100)]
    for term in terms:
        constants._tabulate(term, canned)
    moved = dataclasses.replace(canned, members=other.members)
    differ = 0
    for term in terms:
        want = term_table(term, ("p",), other.tables())
        assert constants._tabulate(term, moved) == want
        differ += want != constants._tabulate(term, canned)
    assert differ > 0


def test_system_with_a_deep_member_deep_copies():
    # F2 = ~p under 100,000 more negations, far deeper than Python's
    # recursion limit
    sysm = system(F2="~" * 100_000 + "~p")
    try:
        copied = copy.deepcopy(sysm)
    except RecursionError:
        # raised afresh: a report of the recursing frames would print the
        # member in each of them
        raise AssertionError("copying recursed once per level") from None
    assert copied == sysm and copied.member(2).formula is not sysm.member(2).formula
    assert copied.member(2).formula == sysm.member(2).formula


def random_two_level_term(rng, tables) -> TermApply:
    inner, outer = rng.choice(sorted(tables)), rng.choice(sorted(tables))
    term = TermApply(inner, (Var("p"),) * tables[inner].arity)
    return TermApply(outer, (term,) * tables[outer].arity)


def expand_reference(term, sysm):
    """The term substituted out through the members' formulas, with its own
    memo; the reference for Derivation.expand."""
    members = {m.label: m for m in sysm.members}
    memo = {}

    def go(t):
        if isinstance(t, Var):
            return t
        if id(t) not in memo:
            m = members[t.label]
            memo[id(t)] = substitute_all(m.formula, dict(zip(m.var_order, map(go, t.args))))
        return memo[id(t)]

    return go(term)


def test_expansion_follows_the_derivations_system():
    # two systems with the same tables but different formulas run the
    # engine alike; a derivation moved to the other system expands through
    # that system's formulas, whatever the first system has expanded.  The
    # compact synthesis gives some canned members' formulas exactly, so the
    # formula side wraps each canned member in ~ ~ ( ), which keeps its table
    wrapped = {i: f"~ ~ ({text})" for i, text in CANNED_FORMULAS.items()}
    by_formulas = TwelveSystem.from_formulas(wrapped)
    by_tables = TwelveSystem.from_tables([m.table for m in by_formulas.members])
    assert by_tables.tables() == by_formulas.tables() == canned_system().tables()
    before = [(sysm, hash(sysm)) for sysm in (by_tables, by_formulas)]
    # the synthesized sides compare on the DAG; the canned side compares as
    # printed
    for first, other in ((by_tables, by_formulas), (by_formulas, by_tables)):
        for d in derive_all_constants(first).values():
            own = d.expand()
            moved = dataclasses.replace(d, system=other).expand()
            assert own == expand_reference(d.term, first)
            assert moved == expand_reference(d.term, other)
            assert moved != own
            if other is by_formulas:
                assert format_formula(moved) == format_formula(
                    expand_reference(d.term, other)
                )
    # the expansions are not part of a system's value
    for sysm, h in before:
        assert hash(sysm) == h
        assert sysm == dataclasses.replace(sysm)
    assert by_formulas == TwelveSystem.from_formulas(wrapped)
    assert hash(by_formulas) == hash(TwelveSystem.from_formulas(wrapped))


# ---------------------------------------------------------------------------
# The two collapses
# ---------------------------------------------------------------------------


def test_collapse_of_first_member():
    d = lemma1_A(canned_system())
    assert d.term_text() == "F1[p]"
    assert d.realized.to_text() == "1:ss11"
    assert d.realized.entries[0] is S
    assert_sound(d)


def test_collapse_identifies_all_variables():
    d = lemma1_A(system(F1="# p | q"))
    assert d.term_text() == "F1[p,p]"
    # x -> delta(x) | x: (s, s|r=1, 1, 1)
    assert d.realized.to_text() == "1:s111"
    assert d.realized.entries[0] is S
    assert_sound(d)


def test_collapse_of_second_member():
    d = lemma2_B(canned_system())
    assert d.realized.to_text() == "1:1sr0"
    assert d.realized.entries[3] is Z


def test_collapse_of_second_member_composite():
    d = lemma2_B(system(F2="~ # p"))
    assert d.realized.to_text() == "1:rr00"
    assert d.realized.entries[3] is Z and d.realized.entries[2] is Z


# ---------------------------------------------------------------------------
# lemma3
# ---------------------------------------------------------------------------


def test_lemma3_case1_known_composition():
    sysm = system(F2="~ # p")
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    d = lemma3(A, B, sysm)
    assert d.term_text() == "F2[F1[F2[p]]]"
    assert d.realized == constant_table(Z, 1)
    assert format_formula(d.expand()) == "~##~#p"
    assert "lemma3.case1" in steps(d)
    assert_sound(d)


def test_lemma3_case2_routed_through_twelfth_member():
    # B with profile (s, s, 0, 0): maps 0 upward, forcing the D* route
    sysm = system(F2=table_formula("ss00"))
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    assert B.realized.entries[0] is S
    d = lemma3(A, B, sysm)
    assert d.realized == constant_table(Z, 1)
    trail = steps(d)
    assert "lemma3.case2" in trail and "lemma3.D*" in trail and "lemma3.D'" in trail
    assert_sound(d)


def test_lemma3_gate_rejects_disagreeing_profile():
    sysm = canned_system()  # B = ~p has B[sigma]=r != B[1]=0
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    with pytest.raises(PreconditionViolated):
        lemma3(A, B, sysm)


# ---------------------------------------------------------------------------
# lemma4 branches
# ---------------------------------------------------------------------------


def test_lemma4_gate_rejects_agreeing_profile():
    sysm = system(F2="~ # p")
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    with pytest.raises(PreconditionViolated):
        lemma4(A, B, sysm)


def test_lemma4_case2_from_canned_system():
    sysm = canned_system()
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    d = lemma4(A, B, sysm)
    assert d.realized == constant_table(R, 1)
    trail = steps(d)
    assert "lemma4.S" in trail and "lemma4.S*" in trail
    assert "lemma3.case1" in trail  # S* hands off with matching profile
    assert_sound(d)


def test_lemma4_case1_short_subcase():
    # B profile (0,0,0,r): case 1; E = F3 = delta, E[sigma]=1, so E* = B[E]
    # comes to (0,0,r,r) with E*[1]=r: immediate lemma3 hand-off
    sysm = system(F2=table_formula("000r"))
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    d = lemma4(A, B, sysm)
    assert d.realized == constant_table(R, 1)
    trail = steps(d)
    assert "lemma4.E" in trail and "lemma4.E*" in trail
    assert "lemma4.H" not in trail
    assert_sound(d)


def test_lemma4_corrector_chain_through_seventh_member():
    # E* lands at (0,0,r,0) so the chain continues; F7 with H[1]=1 closes
    # through B[H]
    sysm = system(
        F2=table_formula("000r"),
        F3=table_formula("001s"),
        F7=table_formula("0011"),
    )
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    d = lemma4(A, B, sysm)
    assert d.realized == constant_table(R, 1)
    trail = steps(d)
    assert "lemma4.H" in trail
    assert "lemma4.J" not in trail
    assert_sound(d)


def test_lemma4_full_chain_through_eleventh_member():
    # H[1]=s forces the final corrector J built from B, E*, p and H
    sysm = system(
        F2=table_formula("000r"),
        F3=table_formula("001s"),
        F7=table_formula("001s"),
    )
    A = lemma1_A(sysm)
    B = lemma2_B(sysm)
    d = lemma4(A, B, sysm)
    assert d.realized == constant_table(Z, 1)
    trail = steps(d)
    assert "lemma4.J" in trail and "lemma4.J*" in trail
    assert_sound(d)


# ---------------------------------------------------------------------------
# lemma5
# ---------------------------------------------------------------------------


def test_lemma5_gate_rejects_high_constant():
    sysm = canned_system()
    A = lemma1_A(sysm)
    fake = Derivation(
        Var("p"), constant_table(S, 1), (), sysm
    )
    with pytest.raises(PreconditionViolated):
        lemma5(fake, A, sysm)


def test_lemma5_from_low_r_through_fifth_and_tenth():
    sysm = canned_system()
    result = derive_all_constants(sysm)
    assert {v: d.realized for v, d in result.items()} == {
        v: constant_table(v, 1) for v in ELEMENTS
    }
    trail = steps(result[Z])
    assert "lemma5.F5" in trail and "lemma5.F10" in trail


def test_lemma5_from_low_zero_through_third_and_ninth():
    sysm = system(F2=table_formula("ss00"))  # lemma3 case 2 gives constant 0
    result = derive_all_constants(sysm)
    trail = steps(result[R])
    assert "lemma5.F3" in trail and "lemma5.F9" in trail
    for v in ELEMENTS:
        assert result[v].realized == constant_table(v, 1)


def test_lemma5_pair_with_high_one_through_fourth_member():
    # A constant at 1 plus k = 0 exercises the {0,1} pairing
    sysm = system(
        F1=table_formula("1111"),
        F2=table_formula("000r"),
        F3=table_formula("001s"),
        F7=table_formula("001s"),
    )
    result = derive_all_constants(sysm)
    trail = steps(result[S])
    assert "lemma5.F4" in trail and "lemma5.F9" in trail
    for v in ELEMENTS:
        assert result[v].realized == constant_table(v, 1)


def test_lemma5_pair_with_high_one_through_sixth_member():
    sysm = system(F1=table_formula("1111"))
    result = derive_all_constants(sysm)
    trail = steps(result[Z])
    assert "lemma5.F6" in trail and "lemma5.F10" in trail


def test_lemma5_triple_through_seventh_member():
    # k=0, then F3 contributes r rather than 1, landing in the {0,r,s} triple
    sysm = system(F2=table_formula("ss00"), F3=table_formula("rrrr"))
    result = derive_all_constants(sysm)
    trail = steps(result[O])
    assert "lemma5.F3" in trail and "lemma5.F7" in trail


def test_lemma5_triple_through_eighth_member():
    # k=0 with A constant 1 and F4 contributing r: the {0,r,1} triple
    sysm = system(
        F1=table_formula("1111"),
        F2=table_formula("ss00"),
        F4=table_formula("rrrr"),
    )
    result = derive_all_constants(sysm)
    trail = steps(result[S])
    assert "lemma5.F4" in trail and "lemma5.F8" in trail


# ---------------------------------------------------------------------------
# Whole-pipeline properties
# ---------------------------------------------------------------------------


def test_derivations_are_deterministic():
    first = derive_all_constants(canned_system())
    second = derive_all_constants(canned_system())
    for v in ELEMENTS:
        assert first[v].term_text() == second[v].term_text()
        assert first[v].trace == second[v].trace
        assert first[v].realized == second[v].realized


def test_all_outputs_sound_and_oracle_confirmed():
    for sysm in (
        canned_system(),
        system(F2=table_formula("ss00")),
        system(F2=table_formula("000r")),
    ):
        result = derive_all_constants(sysm)
        for v, d in result.items():
            assert d.realized == constant_table(v, 1)
            assert_sound(d)
            assert len(d.trace) > 0
        assert expressible_constants(sysm.sigma()) == frozenset(ELEMENTS)


def test_randomized_runs_cover_all_branches():
    # a fixed Random, not make_rng, so MAGARI4_SEED cannot drop a branch;
    # J* := B[J] is the rarest, 9 of these 300 systems
    rng = random.Random(13)
    seen: set[str] = set()
    lowerings: set[str] = set()
    for _ in range(300):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        result = derive_all_constants(sysm)
        for v in ELEMENTS:
            assert result[v].realized == constant_table(v, 1)
        seen.update(steps(result[Z]))
        # each lowering step either keeps its term or puts it under B
        lowerings.update(
            claim.split(" (")[0]
            for step, claim in result[Z].trace
            if step in ("lemma3.D'", "lemma4.E*", "lemma4.S*", "lemma4.J*")
            and " := " in claim
        )
    assert {"lemma3.case1", "lemma3.case2", "lemma4.entry", "lemma4.S",
            "lemma4.E", "lemma4.H", "lemma4.J"} <= seen, sorted(seen)
    assert lowerings == {
        "D' := D*", "D' := B[D*]", "E* := E", "E* := B[E]",
        "S* := S", "S* := B[S]", "J* := J", "J* := B[J]",
    }, sorted(lowerings)


# sha256 of the engine's output over the systems below; a refactor of the
# engine must leave every term, table and trace step as it was
DERIVATION_DIGEST = "927f89f827cc6a29555a148fb30325e0ab6e4c4ad91010a02671e1928d877f53"


def test_derivation_digest_pinned():
    # a fixed Random, not make_rng, so MAGARI4_SEED cannot move the digest;
    # the first nine systems at 1789 already reach every lemma3 and lemma4
    # branch
    rng = random.Random(1789)
    systems = [canned_system()] + [
        TwelveSystem.from_tables(random_twelve_tables(rng)) for _ in range(40)
    ]
    record = [
        {
            v.token: [
                d.term_text(),
                d.realized.to_text(),
                d.trace,
                truth_table(d.expand(), ("p",)).to_text(),
            ]
            for v, d in derive_all_constants(sysm).items()
        }
        for sysm in systems
    ]
    blob = json.dumps(record, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DERIVATION_DIGEST


def test_term_evaluation_matches_direct_composition():
    sysm = canned_system()
    tables = sysm.tables()
    term = TermApply("F2", (TermApply("F1", (Var("p"),)),))
    tab = term_table(term, ("p",), tables)
    for x in ELEMENTS:
        assert tab[(x,)] is tables["F2"][(tables["F1"][(x,)],)]


def pointwise_value(term, valuation, tables, memo):
    """Reference: one value of a term through FuncTable.apply, memoized by
    node identity within one valuation."""
    if isinstance(term, Var):
        return valuation[term.name]
    if id(term) not in memo:
        args = tuple(pointwise_value(a, valuation, tables, memo) for a in term.args)
        memo[id(term)] = tables[term.label].apply(args)
    return memo[id(term)]


def random_shared_term(rng, tables, var_order, size):
    """A random term DAG: each new node takes its arguments from the nodes
    built so far, and some nodes are substitution instances of earlier
    ones, so subterm objects are shared as in the engine's terms."""
    pool = [Var(name) for name in var_order]
    for _ in range(size):
        if len(pool) > len(var_order) and rng.random() < 0.25:
            base = rng.choice(pool[len(var_order):])
            pool.append(term_subst(base, {rng.choice(var_order): rng.choice(pool)}))
            continue
        label = rng.choice(sorted(tables))
        args = tuple(rng.choice(pool) for _ in range(tables[label].arity))
        pool.append(TermApply(label, args))
    return pool[-1]


@pytest.mark.parametrize("var_order", [("p",), ("p", "q")])
def test_term_table_matches_pointwise_fold(var_order):
    rng = make_rng(41 + len(var_order))
    for _ in range(60):
        tables = {}
        for i in range(rng.randint(1, 4)):
            arity = rng.randint(1, 3)
            entries = tuple(rng.choice(ELEMENTS) for _ in range(4**arity))
            tables[f"g{i}"] = FuncTable(arity, entries)
        term = random_shared_term(rng, tables, var_order, rng.randint(1, 25))
        tab = term_table(term, var_order, tables)
        assert tab.arity == len(var_order)
        for pt in points(len(var_order)):
            expected = pointwise_value(term, dict(zip(var_order, pt)), tables, {})
            assert tab[pt] is expected


def test_term_table_rejects_wrong_argument_count():
    tables = canned_system().tables()
    term = TermApply("F1", (Var("p"),) * (tables["F1"].arity + 1))
    with pytest.raises(ValueError):
        term_table(term, ("p",), tables)


def test_term_table_refuses_a_repeated_variable_name():
    # F1[p] over (p, p) would otherwise read as a two-variable table
    tables = {"F1": FuncTable.from_text("1:0s1r")}
    term = TermApply("F1", (Var("p"),))
    with pytest.raises(ValueError, match="duplicate variable"):
        term_table(term, ("p", "p"), tables)


def test_term_table_names_a_variable_outside_var_order():
    tables = {"F1": FuncTable.from_text("2:0s1r0s1r0s1r0s1r")}
    term = TermApply("F1", (Var("p"), Var("q")))
    with pytest.raises(ValueError, match=r"misses term variable\(s\): \['q'\]"):
        term_table(term, ("p",), tables)


def test_term_table_names_the_variables_of_an_empty_var_order():
    tables = {"F1": FuncTable.from_text("1:0s1r")}
    with pytest.raises(ValueError, match=r"misses term variable\(s\): \['p'\]"):
        term_table(TermApply("F1", (Var("p"),)), (), tables)


def test_term_table_names_an_unknown_member():
    tables = {"F1": FuncTable.from_text("1:0s1r")}
    term = TermApply("F1", (TermApply("F9", (Var("p"),)),))
    with pytest.raises(ValueError, match=r"no table for member\(s\): \['F9'\]"):
        term_table(term, ("p",), tables)


def test_term_functions_take_any_depth():
    # far deeper than Python's recursion limit; the canned F2 is `~ p`, so
    # an even number of applications is the identity
    system = canned_system()
    term = Var("p")
    for _ in range(5000):
        term = TermApply("F2", (term,))
    realized = term_table(term, ("p",), system.tables())
    assert realized.to_text() == "1:0rs1"
    text = term_text(term)
    assert len(text) == 20_001
    renamed = term_subst(term, {"p": Var("q")})
    assert isinstance(renamed, TermApply)
    assert term_text(renamed) == text.replace("p", "q")
    expanded = Derivation(term, realized, (), system).expand()
    assert free_vars(expanded) == {"p"}


def chain(depth, leaf):
    term = Var(leaf)
    for _ in range(depth):
        term = TermApply("F2", (term,))
    return term


def tower(levels, leaf):
    term = Var(leaf)
    for _ in range(levels):
        term = TermApply("F1", (term, term))
    return term


def test_term_equality_and_hash_take_any_depth():
    # a chain far deeper than Python's recursion limit
    deep = chain(5000, "p")
    assert hash(deep) == hash(chain(5000, "p"))
    assert deep == chain(5000, "p")
    assert deep != chain(5000, "q") and deep != chain(4999, "p")
    # a tower of 2**30 tree nodes: compared and hashed on its 31 distinct nodes
    high = tower(30, "p")
    assert hash(high) == hash(tower(30, "p"))
    assert high == tower(30, "p")
    assert high != tower(30, "q") and high != Var("p")
    # a derivation compares and hashes its term the same way
    canned = canned_system()
    first, second = derive_all_constants(canned), derive_all_constants(canned)
    assert first == second
    assert {hash(d) for d in first.values()} == {hash(d) for d in second.values()}


def term_nodes(term) -> int:
    """The distinct node objects of a term, its variables included."""
    seen, stack = set(), [term]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(getattr(t, "args", ()))
    return len(seen)


def test_terms_deep_copy_and_pickle_at_any_depth():
    # a chain far deeper than Python's recursion limit, and a tower of 2**30
    # tree nodes whose copies keep its 31 distinct nodes
    deep, high = chain(200_000, "p"), tower(30, "p")
    for term, distinct in ((deep, 200_001), (high, 31)):
        try:
            copies = copy.deepcopy(term), pickled(term)
        except RecursionError:
            # raised afresh: a report of the recursing frames would print
            # the term in each of them
            raise AssertionError("copying recursed once per level") from None
        for copied in copies:
            assert copied is not term and copied == term
            assert term_nodes(copied) == distinct


def test_term_repr_lists_each_distinct_node_once():
    # far deeper than Python's recursion limit, and a tower of 2**22 tree
    # nodes, each printed on its distinct nodes
    start = time.perf_counter()
    deep, high = repr(chain(5000, "p")), repr(tower(22, "p"))
    assert time.perf_counter() - start < 1
    assert deep.startswith("TermApply(%0 = F2[p], %1 = F2[%0], ")
    assert deep.endswith(", %4999 = F2[%4998])")
    assert high.startswith("TermApply(%0 = F1[p,p], %1 = F1[%0,%0], ")
    assert high.endswith(", %21 = F1[%20,%20])")
    # a derivation prints its term the same way
    d = lemma2_B(canned_system())
    assert repr(d).startswith("Derivation(term=TermApply(%0 = F2[p]), ")


def test_deep_expansions_tabulate(monkeypatch):
    # the second 4-ary system drawn from Random(4) expands constant 0 to a
    # formula 7,330 levels deep
    monkeypatch.setattr(selftest, "_ARITIES", (4,))
    rng = random.Random(4)
    random_twelve_tables(rng)
    system = TwelveSystem.from_tables(random_twelve_tables(rng))
    for derivation in derive_all_constants(system).values():
        assert truth_table(derivation.expand(), ("p",)) == derivation.realized


def test_four_expansions_tabulate_their_shared_nodes_once():
    # lemma 5 builds the four constants from one low constant, so their
    # expansions share most of their nodes; tabulated in turn over ("p",),
    # each takes the tables of the nodes the previous call valued
    rng = make_rng(44)
    systems = [canned_system()]
    systems += [TwelveSystem.from_tables(random_twelve_tables(rng)) for _ in range(4)]
    valued = summed = 0
    for sysm in systems:
        derived = derive_all_constants(sysm)
        truth_table(Var("p"), ("p",))  # a last call that shares no node
        for value in ELEMENTS:
            f = derived[value].expand()
            table, count = compound_nodes_valued(truth_table, f, ("p",))
            assert table == constant_table(value, 1)
            valued, summed = valued + count, summed + compound_nodes(f)
    assert valued <= summed / 2


def test_a_synthesize_check_between_tabulations_keeps_the_reuse():
    # synthesize's checks tabulate the joins it has just built;
    # they neither read nor replace the memo the next tabulation reuses,
    # also when it tabulates over the same var_order
    sysm = TwelveSystem.from_tables(random_twelve_tables(make_rng(45)))
    derived = derive_all_constants(sysm)
    expansions = [derived[value].expand() for value in ELEMENTS]
    negation = truth_table(parse("~p"), ("p",))
    implication = truth_table(parse("p1 -> p2"), ("p1", "p2"))

    def second_of_two(first, second, between) -> int:
        truth_table(Var("p"), ("p",))
        truth_table(first, ("p",))
        between()
        return compound_nodes_valued(truth_table, second, ("p",))[1]

    def synthesize_both():
        synthesize(negation, ("p",))
        synthesize(implication)

    for first, second in zip(expansions, expansions[1:]):
        plain = second_of_two(first, second, lambda: None)
        assert second_of_two(first, second, synthesize_both) == plain
        assert plain < compound_nodes(second)


def test_a_term_equals_itself_without_a_walk(monkeypatch):
    deep = chain(200_000, "p")

    def no_fold(*args):
        raise AssertionError("== walked a term compared with itself")

    monkeypatch.setattr(formula, "_dag_fold", no_fold)
    assert deep == deep and not deep != deep


def test_real_formula_membership_of_overridden_entries():
    # sanity: table_formula produces formulas whose tables equal the source
    for entries in ("ss00", "000r", "001s", "0011", "rrrr", "1111"):
        f = parse(table_formula(entries))
        assert truth_table(f, ("p1",)) == FuncTable.from_text(f"1:{entries}")
