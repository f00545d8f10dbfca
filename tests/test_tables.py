"""Function tables: construction, text format, and the composition kernel
against the pointwise reference."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_pointwise
from magari4.algebra import ELEMENTS, Element
from magari4.constants import _tabulate, derive_all_constants
from magari4.formula import parse, truth_table
from magari4.selftest import canned_system
from magari4.tables import (
    UNARY_TABLES,
    FuncTable,
    compose_codes,
    compose_lanes,
    constant_table,
    linear_index,
    pack,
    points,
    projection,
    unary_code,
    unpack,
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


def test_apply_and_getitem():
    assert DELTA.apply((Z,)) is S
    assert DELTA[(O,)] is O
    assert AND[(R, S)] is Z
    with pytest.raises(ValueError):
        DELTA.apply((Z, Z))


def test_text_round_trip():
    for text in ("1:ss11", "0:r", "2:" + "0rs1" * 4):
        assert FuncTable.from_text(text).to_text() == text


def test_text_errors():
    with pytest.raises(ValueError):
        FuncTable.from_text("ss11")
    with pytest.raises(ValueError):
        FuncTable.from_text("x:ss11")
    with pytest.raises(ValueError):
        FuncTable.from_text("1:ssx1")
    with pytest.raises(ValueError):
        FuncTable.from_text("1:ss1")  # wrong length


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
    return unpack(compose_lanes(bytes(g.entries), [pack(t) for t in args], 4**k), k)


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


def test_every_unary_table_round_trips_through_its_code_to_the_shared_table():
    assert unary_code(projection(1, 0).entries) == 0xE4
    for c in ELEMENTS:
        assert unary_code(constant_table(c, 1).entries) == c * 0x55
    codes = set()
    for entries in itertools.product(ELEMENTS, repeat=4):
        t = FuncTable(1, entries)  # a fresh table, not the shared one
        code = unary_code(t.entries)
        codes.add(code)
        assert UNARY_TABLES[code] == t
        assert unpack(pack(t), 1) is unpack(bytes(t.entries), 1) is UNARY_TABLES[code]
    assert codes == set(range(256))
    with pytest.raises(ValueError):
        unpack(bytes((0, 1, 2, 4)), 1)


def test_one_variable_tabulations_return_the_shared_tables():
    f = parse("# ~ p -> p")
    t = truth_table(f, ("p",))
    assert t is truth_table(f, ("p",)) is UNARY_TABLES[unary_code(t.entries)]
    system = canned_system()
    for derivation in derive_all_constants(system).values():
        t = derivation.realized
        assert t is _tabulate(derivation.term, system) is UNARY_TABLES[unary_code(t.entries)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(tables(m), st.lists(
    st.lists(tables(1), min_size=m, max_size=m), min_size=1, max_size=12))))
def test_compose_codes_matches_apply_on_random_tables(case):
    # each composition's arguments sit at one position of the code lanes
    g, compositions = case
    lanes = [bytes(unary_code(args[i].entries) for args in compositions) for i in range(g.arity)]
    got = compose_codes(bytes(g.entries), lanes, len(compositions))
    assert [UNARY_TABLES[code] for code in got] == [
        compose_pointwise(g, args) for args in compositions
    ]
