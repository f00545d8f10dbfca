"""The four-element Magari algebra.

The carrier is {0, rho, sigma, 1}: the four-element boolean algebra whose
atoms are rho and sigma, extended with the unary operator delta satisfying

    delta(0) = delta(rho) = sigma,    delta(sigma) = delta(1) = 1.

Elements are encoded in two bits (0 -> 00, rho -> 01, sigma -> 10, 1 -> 11),
so meet/join/complement are bitwise and delta(x) = 0b10 | (x >> 1).  The
encoding is internal; interfaces speak element tokens `0`, `r`, `s`, `1`
(long forms `rho`, `sigma` accepted on input).

Everything here is an immutable value and every operation is pure.
"""

from __future__ import annotations

import enum
from typing import Iterable


class Element(enum.IntEnum):
    """One of the four values of the algebra."""

    ZERO = 0
    RHO = 1
    SIGMA = 2
    ONE = 3

    @property
    def token(self) -> str:
        return _TOKENS[self]

    @classmethod
    def from_token(cls, text: str) -> "Element":
        try:
            return _FROM_TOKEN[text]
        except KeyError:
            raise ValueError(f"not an element token: {text!r}") from None


_TOKENS = {
    Element.ZERO: "0",
    Element.RHO: "r",
    Element.SIGMA: "s",
    Element.ONE: "1",
}
_FROM_TOKEN = {
    "0": Element.ZERO,
    "r": Element.RHO,
    "s": Element.SIGMA,
    "1": Element.ONE,
    "rho": Element.RHO,
    "sigma": Element.SIGMA,
}

ELEMENTS: tuple[Element, ...] = (Element.ZERO, Element.RHO, Element.SIGMA, Element.ONE)
LOW: frozenset[Element] = frozenset({Element.ZERO, Element.RHO})
HIGH: frozenset[Element] = frozenset({Element.SIGMA, Element.ONE})


class Connective(enum.Enum):
    AND = "&"
    OR = "|"
    IMP = "->"
    NOT = "~"
    DELTA = "#"

    @property
    def arity(self) -> int:
        return _OPS[self][0]


# Operation tables, precomputed from the bit encoding.  All callers go
# through these lookups; the bit rules appear only here.
def _mk1(fn) -> tuple[Element, ...]:
    return tuple(Element(fn(x)) for x in ELEMENTS)


def _mk2(fn) -> tuple[tuple[Element, ...], ...]:
    return tuple(tuple(Element(fn(x, y)) for y in ELEMENTS) for x in ELEMENTS)


_AND = _mk2(lambda x, y: x & y)
_OR = _mk2(lambda x, y: x | y)
_NOT = _mk1(lambda x: x ^ 3)
_IMP = _mk2(lambda x, y: (x ^ 3) | y)
_DELTA = _mk1(lambda x: 0b10 | (x >> 1))
# each connective's (arity, table), looked up once per apply
_OPS = {
    Connective.AND: (2, _AND),
    Connective.OR: (2, _OR),
    Connective.IMP: (2, _IMP),
    Connective.NOT: (1, _NOT),
    Connective.DELTA: (1, _DELTA),
}


def meet(x: Element, y: Element) -> Element:
    return _AND[x][y]


def join(x: Element, y: Element) -> Element:
    return _OR[x][y]


def imp(x: Element, y: Element) -> Element:
    return _IMP[x][y]


def delta(x: Element) -> Element:
    return _DELTA[x]


def apply(conn: Connective, args: Iterable[Element]) -> Element:
    """Apply a connective to its arguments by table lookup.

    Raises ValueError on an argument-count mismatch.
    """
    args = tuple(args)
    arity, table = _OPS[conn]
    if len(args) != arity:
        raise ValueError(f"{conn.value} expects {arity} argument(s), got {len(args)}")
    return table[args[0]][args[1]] if arity == 2 else table[args[0]]


def magari_identity_report() -> list[tuple[str, bool]]:
    """Evaluate the four defining identities over all element assignments.

    Returns one (identity, holds) pair per identity; each sweep is
    exhaustive (4 or 16 cases).
    """
    k_dist = all(
        imp(delta(imp(x, y)), imp(delta(x), delta(y))) is Element.ONE
        for x in ELEMENTS
        for y in ELEMENTS
    )
    transit = all(imp(delta(x), delta(delta(x))) is Element.ONE for x in ELEMENTS)
    fixed_point = all(delta(imp(delta(x), x)) is delta(x) for x in ELEMENTS)
    unit = delta(Element.ONE) is Element.ONE
    return [
        ("#(x -> y) -> (#x -> #y) = 1", k_dist),
        ("#x -> ##x = 1", transit),
        ("#(#x -> x) = #x", fixed_point),
        ("#1 = 1", unit),
    ]
