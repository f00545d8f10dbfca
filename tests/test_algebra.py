"""Core algebra: boolean reduct axioms (the oracle for all derived values),
the delta table, derived operators, and the defining identities."""

import itertools

import pytest

from magari4.algebra import (
    ELEMENTS,
    HIGH,
    LOW,
    Connective,
    Element,
    apply,
    delta,
    imp,
    join,
    magari_identity_report,
    meet,
)
from magari4.formula import parse, truth_table
from magari4.tables import FuncTable

Z, R, S, O = ELEMENTS


def neg(x):
    return apply(Connective.NOT, (x,))


# ---------------------------------------------------------------------------
# Boolean reduct: exhaustive axiom sweep.  This is the independent check
# that the bit encoding really is the four-element boolean algebra with
# atoms r and s.
# ---------------------------------------------------------------------------


def test_boolean_algebra_axioms_exhaustive():
    for x, y, z in itertools.product(ELEMENTS, repeat=3):
        assert meet(x, y) is meet(y, x)
        assert join(x, y) is join(y, x)
        assert meet(meet(x, y), z) is meet(x, meet(y, z))
        assert join(join(x, y), z) is join(x, join(y, z))
        assert meet(x, join(x, y)) is x
        assert join(x, meet(x, y)) is x
        assert meet(x, join(y, z)) is join(meet(x, y), meet(x, z))
        assert join(x, meet(y, z)) is meet(join(x, y), join(x, z))
    for x in ELEMENTS:
        assert meet(x, neg(x)) is Z
        assert join(x, neg(x)) is O
        assert neg(neg(x)) is x
        assert meet(x, O) is x
        assert join(x, Z) is x


def test_atoms_and_complements():
    assert meet(R, S) is Z
    assert join(R, S) is O
    assert neg(R) is S
    assert neg(S) is R
    assert neg(Z) is O


def test_implication_is_material():
    for x, y in itertools.product(ELEMENTS, repeat=2):
        assert imp(x, y) is join(neg(x), y)


# ---------------------------------------------------------------------------
# The delta table and apply
# ---------------------------------------------------------------------------


def test_delta_table():
    assert [delta(x) for x in ELEMENTS] == [S, S, O, O]


def test_apply_examples():
    assert apply(Connective.DELTA, (R,)) is S
    for x in ELEMENTS:
        assert apply(Connective.AND, (O, x)) is x
    assert apply(Connective.AND, (R, S)) is Z
    assert apply(Connective.OR, (R, S)) is O
    assert apply(Connective.NOT, (S,)) is R
    assert apply(Connective.IMP, (S, Z)) is R


def test_apply_arity_mismatch():
    with pytest.raises(ValueError):
        apply(Connective.AND, (Z,))
    with pytest.raises(ValueError):
        apply(Connective.NOT, (Z, Z))


def test_connective_arities():
    assert Connective.AND.arity == Connective.OR.arity == Connective.IMP.arity == 2
    assert Connective.NOT.arity == Connective.DELTA.arity == 1


# ---------------------------------------------------------------------------
# Derived operators
# ---------------------------------------------------------------------------


def test_box_values():
    box = truth_table(parse("[]p"), ("p",))
    assert box == FuncTable.from_text("1:00s1")  # r & delta(r) = r & s = 0
    for x in ELEMENTS:
        assert box[(x,)] is meet(x, delta(x))


def test_elem_equiv_values():
    equiv = truth_table(parse("p <-> q"), ("p", "q"))
    for x in ELEMENTS:
        assert equiv[(x, x)] is O
    assert equiv[(Z, R)] is S
    assert equiv[(S, O)] is S
    assert equiv[(Z, S)] is R
    assert equiv[(R, O)] is R
    assert equiv[(Z, O)] is Z
    assert equiv[(R, S)] is Z
    for x, y in itertools.product(ELEMENTS, repeat=2):
        assert equiv[(x, y)] is meet(imp(x, y), imp(y, x))


def test_delta_class():
    # LOW is what delta sends to s, HIGH what it sends to 1
    assert LOW == {Z, R} and HIGH == {S, O}
    for x in ELEMENTS:
        assert (x in LOW) == (delta(x) is S)
        assert (x in HIGH) == (delta(x) is O)


# ---------------------------------------------------------------------------
# Identities and monotonicity
# ---------------------------------------------------------------------------


def test_magari_identities_all_hold():
    report = magari_identity_report()
    assert len(report) == 4
    assert all(holds for _, holds in report)


def test_fixed_point_identity_spot_value():
    # at x = 0: #(#0 -> 0) = #(s -> 0) = #r = s = #0
    assert delta(imp(delta(Z), Z)) is S
    assert delta(Z) is S


def test_delta_monotone():
    for x, y in itertools.product(ELEMENTS, repeat=2):
        if meet(x, y) is x:  # x <= y
            assert meet(delta(x), delta(y)) is delta(x)


def test_delta_range():
    for x in ELEMENTS:
        assert delta(x) in (S, O)


def test_element_tokens():
    assert [x.token for x in ELEMENTS] == ["0", "r", "s", "1"]
    assert Element.from_token("rho") is R
    assert Element.from_token("sigma") is S
    assert Element.from_token("s") is S
    with pytest.raises(ValueError):
        Element.from_token("x")
