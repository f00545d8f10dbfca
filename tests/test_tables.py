"""Function tables: construction, text format, and the composition kernel
against the pointwise reference."""

import copy
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_pointwise
from magari4.algebra import ELEMENTS, Element
from magari4.closure import SystemSigma, closure_fragment
from magari4.constants import _tabulate, derive_all_constants
from magari4.formula import evaluate, parse, truth_table
from magari4.selftest import canned_system
from magari4.tables import (
    FuncTable,
    compose_codes,
    compose_lanes,
    constant_table,
    linear_index,
    points,
    projection,
    unary_code,
    unary_entries,
)

Z, R, S, O = ELEMENTS
DELTA = FuncTable.from_text("1:ss11")
NOT = FuncTable.from_text("1:1sr0")
AND = FuncTable(2, tuple(Element(int(x) & int(y)) for x, y in points(2)))


def test_points_order_first_most_significant():
    pts = list(points(2))
    assert pts[0] == (Z, Z)
    assert pts[1] == (Z, R)
    assert pts[4] == (R, Z)
    assert pts[15] == (O, O)
    assert [linear_index(pt) for pt in pts] == list(range(16))


def test_entry_count_validation():
    with pytest.raises(ValueError):
        FuncTable(1, (Z, Z))
    with pytest.raises(ValueError):
        FuncTable(-1, ())
    # refused without building 4**arity, and the message names the arity
    with pytest.raises(ValueError, match="arity 100000 needs"):
        FuncTable(100_000, (Z,))
    with pytest.raises(ValueError, match="arity 99999999999 needs"):
        FuncTable(99_999_999_999, (Z,) * 4)


def test_elements_ints_and_bytes_build_one_table():
    for entries in itertools.product(ELEMENTS, repeat=4):
        ints = tuple(map(int, entries))
        tables = [FuncTable(1, entries), FuncTable(1, ints), FuncTable(1, bytes(ints))]
        assert tables[0] == tables[1] == tables[2]
        assert len({hash(t) for t in tables}) == 1
        assert all(t.packed == bytes(ints) and t.entries == entries for t in tables)
    wide = FuncTable(2, [int(x) ^ int(y) for x, y in points(2)])
    assert wide == FuncTable(2, bytes(wide.packed)) != FuncTable(1, wide.packed[:4])
    assert DELTA != NOT and wide != FuncTable(2, wide.packed[1:] + wide.packed[:1])


def test_an_entry_outside_the_carrier_is_refused():
    for arity, entries in ((1, (Z, R, S, 4)), (1, b"\0\1\2\4"), (1, (255, 0, 0, 0)),
                           (2, b"\x10" * 16)):
        with pytest.raises(ValueError, match="0..3"):
            FuncTable(arity, entries)
    with pytest.raises(ValueError):
        FuncTable(1, (0, 1, 2, -1))
    with pytest.raises(TypeError):
        FuncTable(1, 4)  # a count, not entries


def test_a_table_is_immutable_and_copies_by_value():
    with pytest.raises(AttributeError):
        DELTA.packed = b"\0" * 4
    with pytest.raises(AttributeError):
        del DELTA.arity
    for twin in (copy.copy(DELTA), copy.deepcopy(AND), pickle.loads(pickle.dumps(AND))):
        assert twin in (DELTA, AND)


def test_apply_and_getitem():
    assert DELTA.apply((Z,)) is S
    assert DELTA[(O,)] is O
    assert AND[(R, S)] is Z
    with pytest.raises(ValueError):
        DELTA.apply((Z, Z))


def test_text_round_trip():
    for text in ("1:ss11", "0:r", "2:" + "0rs1" * 4):
        assert FuncTable.from_text(text).to_text() == text


def test_text_round_trips_every_unary_and_seeded_binary_tables():
    rng = random.Random(31)
    binary = [FuncTable(2, [rng.randrange(4) for _ in range(16)]) for _ in range(200)]
    unary = [FuncTable(1, entries) for entries in itertools.product(ELEMENTS, repeat=4)]
    for t in unary + binary:
        text = t.to_text()
        assert text == f"{t.arity}:" + "".join(e.token for e in t.entries)
        assert FuncTable.from_text(text) == t


def test_text_errors():
    with pytest.raises(ValueError):
        FuncTable.from_text("ss11")
    with pytest.raises(ValueError):
        FuncTable.from_text("x:ss11")
    with pytest.raises(ValueError):
        FuncTable.from_text("1:ssx1")
    with pytest.raises(ValueError):
        FuncTable.from_text("1:ss1")  # wrong length
    with pytest.raises(ValueError, match="'é'"):
        FuncTable.from_text("1:ssé1")  # named, though not ASCII


def test_projection_and_constant():
    assert projection(1, 0).entries == ELEMENTS
    p0 = projection(2, 0)
    p1 = projection(2, 1)
    for x, y in points(2):
        assert p0[(x, y)] is x
        assert p1[(x, y)] is y
    assert constant_table(S, 1).entries == (S, S, S, S)
    assert constant_table(R, 0).entries == (R,)
    with pytest.raises(ValueError):
        projection(2, 2)


def compose_by_kernel(g, args):
    """compose_lanes over the packed arguments, read back as a table."""
    k = args[0].arity
    lanes = [int.from_bytes(t.packed, "little") for t in args]
    return FuncTable(k, compose_lanes(g.packed, lanes, 4**k))


def test_compose_against_pointwise_oracle():
    assert compose_by_kernel(AND, (DELTA, NOT)) == compose_pointwise(AND, (DELTA, NOT))
    assert compose_by_kernel(AND, (DELTA, NOT)).to_text() == "1:ssr0"


def tables(arity: int):
    return st.binary(min_size=4**arity, max_size=4**arity).map(
        lambda raw: FuncTable(arity, tuple(ELEMENTS[b & 3] for b in raw))
    )


@st.composite
def compositions(draw):
    g = draw(tables(draw(st.integers(1, 6))))
    k = draw(st.integers(0, 3))
    return g, [draw(tables(k)) for _ in range(g.arity)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(compositions())
def test_compose_matches_apply_on_random_tables(case):
    # members above arity 4 are split on their first argument
    g, args = case
    assert compose_by_kernel(g, args) == compose_pointwise(g, args)


def test_compose_projection_identity():
    for t in (DELTA, NOT, AND):
        identity = [projection(t.arity, i) for i in range(t.arity)]
        assert compose_by_kernel(t, identity) == t


# ---------------------------------------------------------------------------
# Unary codes
# ---------------------------------------------------------------------------


def test_every_unary_table_round_trips_through_its_code():
    assert unary_code(projection(1, 0).packed) == 0xE4
    for c in ELEMENTS:
        assert unary_code(constant_table(c, 1).packed) == c * 0x55
    tables = [FuncTable(1, entries) for entries in itertools.product(ELEMENTS, repeat=4)]
    codes = [unary_code(t.packed) for t in tables]
    assert set(codes) == set(range(256))
    assert [FuncTable(1, unary_entries(code)) for code in codes] == tables


def test_one_variable_tabulations_agree_with_their_references():
    f = parse("# ~ p -> p")
    t = truth_table(f, ("p",))
    assert t == truth_table(f, ("p",))  # again, through the last call's memo
    assert t.entries == tuple(evaluate(f, {"p": x}) for x in ELEMENTS)
    system = canned_system()
    for value, derivation in derive_all_constants(system).items():
        t = derivation.realized
        assert t == _tabulate(derivation.term, system) == constant_table(value, 1)


def test_constant_tables_are_found_in_the_fragments_as_the_bench_and_cli_ask():
    for members, reached in (((DELTA, NOT), ELEMENTS), ((DELTA,), (O,))):
        sigma = SystemSigma(tuple((f"g{i}", t) for i, t in enumerate(members)))
        unary, binary = closure_fragment(sigma, 1), closure_fragment(sigma, 2)
        for e in ELEMENTS:
            assert (FuncTable(1, (e,) * 4) in unary.tables) == (e in reached)
            assert (constant_table(e, 2) in binary.tables) == (e in reached)


def test_a_wide_table_holds_one_byte_per_entry():
    t = truth_table(parse(" & ".join(f"p{i}" for i in range(8))), [f"p{i}" for i in range(8)])
    assert sys.getsizeof(t.packed) <= 4**8 + 64


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(tables(m), st.lists(
    st.lists(tables(1), min_size=m, max_size=m), min_size=1, max_size=12))))
def test_compose_codes_matches_apply_on_random_tables(case):
    # each composition's arguments sit at one position of the code lanes
    g, compositions = case
    lanes = [bytes(unary_code(args[i].packed) for args in compositions) for i in range(g.arity)]
    got = compose_codes(g.packed, lanes, len(compositions))
    assert [FuncTable(1, unary_entries(code)) for code in got] == [
        compose_pointwise(g, args) for args in compositions
    ]
