"""Shared test helpers: seeded RNGs, random formula trees, system builders,
and the reference table composition."""

from __future__ import annotations

import itertools
import os
import random

from magari4 import formula
from magari4.algebra import ELEMENTS, Connective, Element
from magari4.formula import Binary, Const, Formula, Unary, Var
from magari4.selftest import CANNED_FORMULAS
from magari4.tables import FuncTable

SEED = int(os.environ.get("MAGARI4_SEED", "1789"))

BINARY_OPS = (Connective.AND, Connective.OR, Connective.IMP)
UNARY_OPS = (Connective.NOT, Connective.DELTA)


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(SEED + offset)


def random_formula(rng: random.Random, variables: tuple[str, ...], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        if variables and rng.random() < 0.8:
            return Var(rng.choice(variables))
        return Const(rng.choice(ELEMENTS))
    if rng.random() < 0.4:
        return Unary(rng.choice(UNARY_OPS), random_formula(rng, variables, depth - 1))
    return Binary(
        rng.choice(BINARY_OPS),
        random_formula(rng, variables, depth - 1),
        random_formula(rng, variables, depth - 1),
    )


def all_valuations(names: tuple[str, ...]):
    for values in itertools.product(ELEMENTS, repeat=len(names)):
        yield dict(zip(names, values))


def compose_pointwise(g: FuncTable, args) -> FuncTable:
    """g(t1, ..., tm) for tables t_i of one arity, one point at a time
    through FuncTable.apply: the reference, independent of the byte-lane
    kernel, that compositions are tested against."""
    k = args[0].arity
    return FuncTable(
        k,
        tuple(
            g.apply([t.apply(pt) for t in args])
            for pt in itertools.product(ELEMENTS, repeat=k)
        ),
    )


def distinct_nodes(f: Formula) -> dict[int, Formula]:
    """Every node object of a formula, keyed by id; a shared node counts once."""
    seen: dict[int, Formula] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack.extend((node.left, node.right))
    return seen


def compound_nodes_valued(call, *args):
    """(call(*args), the number of Unary and Binary nodes formula._fold
    valued during it), counted by wrapping the fold's unary and binary
    callbacks; the term callback and the memos pass through, and a node
    whose value a fold took from elsewhere is not counted."""
    valued = [0]
    fold = formula._fold

    def counting(f, leaf, unary, binary, *rest, **memos):
        def count_unary(op, x):
            valued[0] += 1
            return unary(op, x)

        def count_binary(op, x, y):
            valued[0] += 1
            return binary(op, x, y)

        return fold(f, leaf, count_unary, count_binary, *rest, **memos)

    formula._fold = counting
    try:
        return call(*args), valued[0]
    finally:
        formula._fold = fold


def compound_nodes(f: Formula) -> int:
    """The distinct Unary and Binary node objects of f."""
    return sum(type(node) in (Unary, Binary) for node in distinct_nodes(f).values())


def canned_with(**overrides: str) -> dict[int, str]:
    """The canned twelve formulas with e.g. F2='~ # p' overrides."""
    formulas = dict(CANNED_FORMULAS)
    for key, text in overrides.items():
        assert key.startswith("F")
        formulas[int(key[1:])] = text
    return formulas


def elem(token: str) -> Element:
    return Element.from_token(token)
