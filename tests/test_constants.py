"""The constant-derivation engine: gates, every branch of the pipeline,
soundness of realized tables, and agreement with the closure oracle.

Branch steering is done with hand-picked member tables whose collapsed
profiles force each path; expected constants were computed by hand from
the member tables and are asserted exactly.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from conftest import canned_with, make_rng
from magari4 import constants
from magari4.algebra import ELEMENTS
from magari4.closure import expressible_constants
from magari4.constants import (
    Derivation,
    PreconditionViolated,
    TermApply,
    TermVar,
    TwelveSystem,
    derive_all_constants,
    lemma1_A,
    lemma2_B,
    lemma3,
    lemma4,
    lemma5,
    term_subst,
    term_table,
)
from magari4.formula import format_formula, parse, truth_table
from magari4.preservation import ViolationWitness
from magari4.selftest import canned_system, random_twelve_tables
from magari4.synthesis import synthesize
from magari4.tables import FuncTable, constant_table, points

Z, R, S, O = ELEMENTS


def table_formula(entries: str) -> str:
    """A formula realizing the unary table given by four entry tokens."""
    return format_formula(synthesize(FuncTable.from_text(f"1:{entries}")))


def system(**overrides: str) -> TwelveSystem:
    return TwelveSystem.from_formulas(canned_with(**overrides))


def assert_sound(derivation: Derivation) -> None:
    """Expanding the term to a raw formula reproduces the realized table."""
    expanded = truth_table(derivation.expand(), derivation.var_order)
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
        assert sysm.member(i).table == tables[i]


def test_member_count_enforced():
    with pytest.raises(ValueError):
        TwelveSystem.from_formulas(["# p"] * 11)
    with pytest.raises(ValueError, match="F12"):
        TwelveSystem.from_formulas({i: "# p" for i in range(1, 12)})


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
        TermVar("p"), ("p",), constant_table(S, 1), (), sysm
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
    rng = make_rng(13)
    seen: set[str] = set()
    for _ in range(300):
        sysm = TwelveSystem.from_tables(random_twelve_tables(rng))
        result = derive_all_constants(sysm)
        for v in ELEMENTS:
            assert result[v].realized == constant_table(v, 1)
        seen.update(steps(result[Z]))
    assert {"lemma3.case1", "lemma3.case2", "lemma4.entry", "lemma4.S",
            "lemma4.E", "lemma4.H"} <= seen, sorted(seen)


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
    term = TermApply("F2", (TermApply("F1", (TermVar("p"),)),))
    tab = term_table(term, ("p",), tables)
    for x in ELEMENTS:
        assert tab[(x,)] is tables["F2"][(tables["F1"][(x,)],)]


def pointwise_value(term, valuation, tables, memo):
    """Reference: one value of a term through FuncTable.apply, memoized by
    node identity within one valuation."""
    if isinstance(term, TermVar):
        return valuation[term.name]
    if id(term) not in memo:
        args = tuple(pointwise_value(a, valuation, tables, memo) for a in term.args)
        memo[id(term)] = tables[term.label].apply(args)
    return memo[id(term)]


def random_shared_term(rng, tables, var_order, size):
    """A random term DAG: each new node takes its arguments from the nodes
    built so far, and some nodes are substitution instances of earlier
    ones, so subterm objects are shared as in the engine's terms."""
    pool = [TermVar(name) for name in var_order]
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
    term = TermApply("F1", (TermVar("p"),) * (tables["F1"].arity + 1))
    with pytest.raises(ValueError):
        term_table(term, ("p",), tables)


def test_real_formula_membership_of_overridden_entries():
    # sanity: table_formula produces formulas whose tables equal the source
    for entries in ("ss00", "000r", "001s", "0011", "rrrr", "1111"):
        f = parse(table_formula(entries))
        assert truth_table(f, ("p1",)) == FuncTable.from_text(f"1:{entries}")
