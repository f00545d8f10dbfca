"""Composition-closure oracle, cross-validated by naive term enumeration."""

import itertools
import math

import pytest

from conftest import compose_pointwise, make_rng
from magari4 import closure
from magari4.algebra import ELEMENTS, Element
from magari4.closure import (
    COMPOSE_BUDGET,
    ClosureBudgetExceeded,
    SystemSigma,
    closure_fragment,
    expressible_constants,
)
from magari4.preservation import (
    builtin_relation,
    delta_pairing_relation,
    delta_preserving_tables,
    preserves,
    preserves_delta_pairing,
    random_delta_preserving_table,
)
from magari4.selftest import canned_system
from magari4.tables import FuncTable, constant_table, points, projection, unary_code, unary_entries

Z, R, S, O = ELEMENTS

DELTA = FuncTable.from_text("1:ss11")
NOT = FuncTable.from_text("1:1sr0")
IDENT = FuncTable.from_text("1:0rs1")


def _binary(fn):
    return FuncTable(2, tuple(Element(fn(int(a), int(b))) for a, b in points(2)))


AND = _binary(lambda a, b: a & b)
OR = _binary(lambda a, b: a | b)
IMP = _binary(lambda a, b: (a ^ 3) | b)
CONNECTIVE_SIGMA = SystemSigma(
    (("and", AND), ("or", OR), ("imp", IMP), ("not", NOT), ("delta", DELTA))
)


def enumerate_terms(sigma: SystemSigma, k: int, depth: int) -> set[FuncTable]:
    """Independent oracle: all k-ary tables of composition terms of bounded
    depth over sigma and the projections, composed point by point."""
    layers = {projection(k, i) for i in range(k)}
    for _ in range(depth):
        new = set(layers)
        for _, g in sigma.members:
            for combo in itertools.product(sorted(layers, key=lambda t: t.entries), repeat=g.arity):
                new.add(compose_pointwise(g, combo))
        if new == layers:
            break
        layers = new
    return layers


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------


def test_identity_system_gives_projections_only():
    sigma = SystemSigma((("id", IDENT),))
    assert closure_fragment(sigma, 1).tables == {projection(1, 0)}
    assert closure_fragment(sigma, 2).tables == {projection(2, 0), projection(2, 1)}


def test_fragment_matches_term_enumeration_for_not_delta():
    sigma = SystemSigma((("not", NOT), ("delta", DELTA)))
    fragment = closure_fragment(sigma, 1)
    by_terms = enumerate_terms(sigma, 1, depth=5)
    # depth 5 is enough for this system to stabilize
    assert by_terms == fragment.tables
    # stated members: doubled delta collapses to the constant 1, and from
    # there negation and delta reach every constant
    assert compose_pointwise(DELTA, (DELTA,)) in fragment.tables
    assert constant_table(O, 1) in fragment.tables


def test_fragment_matches_term_enumeration_small_binary():
    sigma = SystemSigma((("and", AND),))
    fragment = closure_fragment(sigma, 2)
    assert enumerate_terms(sigma, 2, depth=4) == fragment.tables
    assert AND in fragment.tables


def test_ternary_fragment_of_the_lattice_operations(batches, monkeypatch):
    # the free distributive lattice on three generators has 18 elements
    sigma = SystemSigma((("and", AND), ("or", OR)))
    by_terms = enumerate_terms(sigma, 3, depth=10)
    assert len(by_terms) == 18
    assert closure_fragment(sigma, 3).tables == by_terms
    assert max(batches) > 1
    # lanes of four 64-entry tables at most: batches loop over leading pools
    batches.clear()
    calls = []
    run_lanes = closure.compose_lanes

    def counting(flat, args, width):
        calls.append(width)
        return run_lanes(flat, args, width)

    monkeypatch.setattr(closure, "compose_lanes", counting)
    monkeypatch.setattr(closure, "_LANE_BYTES", 4 * 64)
    assert closure_fragment(sigma, 3).tables == by_terms
    assert max(calls) <= 4 * 64 and len(calls) > len(batches)


def test_full_connective_system_unary_fragment_is_the_64():
    fragment = closure_fragment(CONNECTIVE_SIGMA, 1)
    assert fragment.tables == set(delta_preserving_tables(1))
    assert len(fragment) == 64


def test_arity_guard():
    with pytest.raises(ValueError):
        closure_fragment(CONNECTIVE_SIGMA, 0)
    with pytest.raises(ValueError):
        closure_fragment(CONNECTIVE_SIGMA, 4)


def test_sigma_validation():
    with pytest.raises(ValueError):
        SystemSigma((("a", DELTA), ("a", NOT)))
    with pytest.raises(ValueError):
        SystemSigma((("c", constant_table(Z, 0)),))


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def test_negation_alone_expresses_no_constants():
    sigma = SystemSigma((("not", NOT),))
    assert expressible_constants(sigma) == frozenset()


def test_constant_zero_member():
    sigma = SystemSigma((("zero", constant_table(Z, 1)),))
    assert expressible_constants(sigma) == frozenset({Z})


def test_canned_system_expresses_all_constants():
    assert expressible_constants(canned_system().sigma()) == frozenset(ELEMENTS)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def test_fragment_tables_preserve_common_relations():
    # whatever every member preserves, the whole fragment preserves
    rng = make_rng(10)
    relations = [builtin_relation(i) for i in range(1, 13)] + [
        delta_pairing_relation()
    ]
    for _ in range(10):
        members = tuple(
            (f"g{i}", random_delta_preserving_table(rng.choice((1, 2)), rng))
            for i in range(3)
        )
        sigma = SystemSigma(members)
        fragment = closure_fragment(sigma, 1)
        for relation in relations:
            if all(preserves(t, relation) for _, t in members):
                assert all(preserves(t, relation) for t in fragment.tables)


def test_monotone_in_the_system():
    rng = make_rng(11)
    for _ in range(10):
        base = tuple(
            (f"g{i}", random_delta_preserving_table(1, rng)) for i in range(2)
        )
        extra = base + (("h", random_delta_preserving_table(2, rng)),)
        small = closure_fragment(SystemSigma(base), 1).tables
        large = closure_fragment(SystemSigma(extra), 1).tables
        assert small <= large


def test_contains():
    unary = closure_fragment(CONNECTIVE_SIGMA, 1).tables
    assert projection(1, 0) in unary
    assert FuncTable.from_text("1:0s00") not in unary  # breaks the delta classes
    small = SystemSigma((("and", AND),))
    binary = closure_fragment(small, 2).tables
    assert projection(2, 1) in binary
    assert compose_pointwise(AND, (projection(2, 1), projection(2, 0))) in binary
    assert NOT not in closure_fragment(small, 1).tables


# ---------------------------------------------------------------------------
# Early stop and budget
# ---------------------------------------------------------------------------


def plain_unary_fixpoint(members):
    """Independent reference: the unary fragment of unary and binary members
    as a plain fixpoint over 4-tuples of ints, run until a round adds
    nothing; a round composes the argument tuples that touch the previous
    round's additions.  Returns the fragment and, per round, the
    compositions made and the size reached."""
    members = [(t.arity, [int(e) for e in t.entries]) for t in members]
    fragment = {(0, 1, 2, 3)}
    added = set(fragment)
    rounds = []
    while added:
        calls = 0
        new = set()
        for arity, g in members:
            if arity == 1:
                images = (tuple(g[x] for x in a) for a in added)
            else:
                images = (
                    tuple(g[4 * x + y] for x, y in zip(a, b))
                    for a in fragment
                    for b in (fragment if a in added else added)
                )
            for image in images:
                calls += 1
                new.add(image)
        added = new - fragment
        fragment |= added
        rounds.append((calls, len(fragment)))
    return fragment, rounds


def _random_member(rng, arities=(1, 2)):
    arity = rng.choice(arities)
    if rng.random() < 0.25:  # usually breaks the delta classes
        return FuncTable(arity, tuple(rng.choice(ELEMENTS) for _ in range(4**arity)))
    return random_delta_preserving_table(arity, rng)


def test_early_stop_matches_plain_fixpoint():
    rng = make_rng(30)
    sizes = {64: 0, 256: 0, "neither": 0}
    breaking = 0
    for _ in range(100):
        members = [_random_member(rng) for _ in range(rng.randint(1, 3))]
        sigma = SystemSigma(tuple((f"g{i}", t) for i, t in enumerate(members)))
        want, _ = plain_unary_fixpoint(members)
        got = {tuple(int(e) for e in t.entries) for t in closure_fragment(sigma, 1).tables}
        assert got == want, [t.to_text() for t in members]
        sizes[len(want) if len(want) in (64, 256) else "neither"] += 1
        breaking += not all(preserves_delta_pairing(t) for t in members)
    # the cases cover both saturation sizes, unsaturated fragments, and
    # systems breaking the delta classes
    assert min(sizes.values()) >= 10, sizes
    assert breaking >= 20


def test_batches_past_the_lane_cap_give_the_same_fragments(monkeypatch):
    rng = make_rng(32)
    systems = [(SystemSigma((("and", AND), ("delta", DELTA))), 2), (CONNECTIVE_SIGMA, 1)]
    for _ in range(10):
        members = [_random_member(rng) for _ in range(rng.randint(1, 3))]
        systems.append((SystemSigma(tuple((f"g{i}", t) for i, t in enumerate(members))), 1))
    want = [closure_fragment(sigma, k) for sigma, k in systems]
    # lanes of 8 bytes at most: most batches loop over their leading pools
    monkeypatch.setattr(closure, "_LANE_BYTES", 8)
    assert [closure_fragment(sigma, k) for sigma, k in systems] == want


@pytest.fixture
def batches(monkeypatch):
    """The size of each composition batch the closure runs, in order."""
    sizes = []
    run_batch = closure._compose_batch

    def counting(flat, pools, size):
        sizes.append(math.prod(map(len, pools)))
        return run_batch(flat, pools, size)

    monkeypatch.setattr(closure, "_compose_batch", counting)
    return sizes


def test_saturated_fixpoint_returns_inside_the_filling_round(batches):
    members = [t for _, t in CONNECTIVE_SIGMA.members]
    _, rounds = plain_unary_fixpoint(members)
    assert closure_fragment(CONNECTIVE_SIGMA, 1).tables == set(delta_preserving_tables(1))
    cumulative = list(itertools.accumulate(c for c, _ in rounds))
    filled = next(r for r, (_, size) in enumerate(rounds) if size == 64)
    # the plain fixpoint spends more rounds after the one that fills the 64
    assert filled < len(rounds) - 1
    assert cumulative[filled - 1] < sum(batches) < cumulative[filled]


# {p -> q, # p, ~ p}: its binary fragment would need over 10**8 compositions
PROBE_SIGMA = SystemSigma((("imp", IMP), ("delta", DELTA), ("not", NOT)))


class RefusedBatch(Exception):
    """Carries the size of the batch the budget refused."""


def test_budget_refuses_the_binary_fragment_of_the_probe(batches, monkeypatch):
    with pytest.raises(ClosureBudgetExceeded, match=f"more than {COMPOSE_BUDGET} "):
        closure_fragment(PROBE_SIGMA, 2)
    ran = list(batches)
    # the same system's unary fragment stays far inside the budget
    batches.clear()
    assert len(closure_fragment(PROBE_SIGMA, 1)) == 64
    assert sum(batches) < COMPOSE_BUDGET // 100
    # lift the budget and stop at the batch it refused, to read its size
    counting = closure._compose_batch

    def stop_at_the_refused_batch(flat, pools, size):
        if len(batches) == len(ran):
            raise RefusedBatch(math.prod(map(len, pools)))
        return counting(flat, pools, size)

    monkeypatch.setattr(closure, "COMPOSE_BUDGET", 2**62)
    monkeypatch.setattr(closure, "_compose_batch", stop_at_the_refused_batch)
    batches.clear()
    with pytest.raises(RefusedBatch) as refused:
        closure_fragment(PROBE_SIGMA, 2)
    assert batches == ran
    assert sum(ran) <= COMPOSE_BUDGET < sum(ran) + refused.value.args[0]


def test_constants_match_the_fragment_and_stop_early(batches):
    rng = make_rng(40)
    systems = [(SystemSigma((("not", NOT),)), {IDENT, NOT}), (canned_system().sigma(), None)]
    for _ in range(240):
        members = [_random_member(rng, (1, 1, 2, 3)) for _ in range(rng.randint(1, 4))]
        systems.append((SystemSigma(tuple((f"g{i}", t) for i, t in enumerate(members))), None))
    answered, refused, early = {n: 0 for n in range(5)}, 0, 0
    for sigma, pinned in systems:
        batches.clear()
        try:
            tables = closure_fragment(sigma, 1).tables
        except ClosureBudgetExceeded:
            tables = None
        whole = list(batches)
        batches.clear()
        if tables is None:
            # the oracle raises too, unless it had all four before the refusal
            try:
                assert expressible_constants(sigma) == frozenset(ELEMENTS)
            except ClosureBudgetExceeded:
                assert batches == whole
            refused += 1
            continue
        if pinned is not None:
            assert tables == pinned
        want = frozenset(c for c in ELEMENTS if constant_table(c, 1) in tables)
        assert expressible_constants(sigma) == want, [t.to_text() for _, t in sigma.members]
        # the oracle runs a prefix of the fixpoint's batches, all of them
        # unless it has all four constants before the end
        assert batches == whole[: len(batches)]
        assert len(batches) == len(whole) or len(want) == 4
        early += len(batches) < len(whole)
        answered[len(want)] += 1
    assert min(answered.values()) >= 1 and refused >= 1, (answered, refused)
    assert early >= 50, early
    # the connectives have their four constants before the 64 fill
    batches.clear()
    assert expressible_constants(CONNECTIVE_SIGMA) == frozenset(ELEMENTS)
    stopped = len(batches)
    batches.clear()
    assert len(closure_fragment(CONNECTIVE_SIGMA, 1)) == 64
    assert stopped < len(batches)


def test_oracle_answers_where_the_fragment_passes_the_budget(batches, monkeypatch):
    sigma = canned_system().sigma()
    assert expressible_constants(sigma) == frozenset(ELEMENTS)
    # a budget that covers exactly the batches the oracle ran
    monkeypatch.setattr(closure, "COMPOSE_BUDGET", sum(batches))
    assert expressible_constants(sigma) == frozenset(ELEMENTS)
    with pytest.raises(ClosureBudgetExceeded):
        closure_fragment(sigma, 1)


# ---------------------------------------------------------------------------
# Members of arity 4 and 5
# ---------------------------------------------------------------------------


def pointwise_unary_fixpoint(members, cap):
    """Independent reference for members of any arity: the unary fragment as
    a plain fixpoint of compose_pointwise over every argument tuple touching
    the last round's additions.  None once it holds more than cap tables."""
    fragment = {projection(1, 0)}
    added = set(fragment)
    while added:
        ordered = sorted(fragment, key=lambda t: t.entries)
        new = set()
        for g in members:
            for args in itertools.product(ordered, repeat=g.arity):
                if not added.isdisjoint(args):
                    new.add(compose_pointwise(g, args))
        added = new - fragment
        fragment |= added
        if len(fragment) > cap:
            return None
    return fragment


def _near_projection(arity, rng, keep_classes):
    """A projection with a few entries changed: within their delta class
    (so the table still preserves the delta pairing), or to any element."""
    entries = list(projection(arity, rng.randrange(arity)).entries)
    for _ in range(rng.choice((2, 8, 32))):
        k = rng.randrange(len(entries))
        entries[k] = ELEMENTS[entries[k] ^ 1] if keep_classes else rng.choice(ELEMENTS)
    return FuncTable(arity, tuple(entries))


def test_unary_fragments_of_members_of_arity_4_and_5():
    # arity 4 is the widest member one translate composes; arity 5 goes
    # through compose_lanes' split on the first argument
    rng = make_rng(50)
    checked = {4: 0, 5: 0}
    kinds, sizes, constants_seen = set(), set(), 0
    for _ in range(60):
        arity = rng.choice((4, 5))
        wide = _near_projection(arity, rng, keep_classes=rng.random() < 0.5)
        unary = FuncTable(1, tuple(rng.choice(ELEMENTS) for _ in range(4)))
        members = [unary, wide]
        want = pointwise_unary_fixpoint(members, cap=6)
        if want is None:
            continue
        sigma = SystemSigma((("u", unary), ("w", wide)))
        assert closure_fragment(sigma, 1).tables == want, [t.to_text() for t in members]
        constants = frozenset(c for c in ELEMENTS if constant_table(c, 1) in want)
        assert expressible_constants(sigma) == constants
        constants_seen += len(constants)
        checked[arity] += 1
        kinds.add(preserves_delta_pairing(wide))
        sizes.add(len(want))
    assert min(checked.values()) >= 5, checked
    assert kinds == {True, False}
    assert max(sizes) >= 4, sizes
    assert constants_seen >= 1


def test_unary_fragments_hold_the_table_of_each_code():
    for sigma in (CONNECTIVE_SIGMA, PROBE_SIGMA, SystemSigma((("not", NOT),))):
        tables = closure_fragment(sigma, 1).tables
        codes = [unary_code(t.packed) for t in tables]
        assert frozenset(FuncTable(1, unary_entries(code)) for code in codes) == tables
        assert all(t.arity == 1 for t in tables)
