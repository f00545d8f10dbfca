"""Constructive synthesis of a realizing formula for any table that
respects the delta-class pairing.

A unary table takes its least-size formula from an atlas.  A wider f is
the join over a of S_a(p1) & f_a, with f_a f's slice at p1 = a (built one
arity down) and S_a 1 at a, s at a's class partner a', 0 elsewhere.  At
p1 = a that reads f_a | (s & f_a') | 0, and f_a' is in f_a's delta class,
as f preserves the pairing: so it reads f_a, as d | 0 | (s & d') = d
whenever d' shares d's class.  Slices of all 0s are dropped; one of all
1s leaves S_a alone.
"""

from __future__ import annotations

import functools

from .algebra import ELEMENTS, Connective, Element
from .formula import (MAX_TABLE_VARS, Binary, Const, Formula, Unary, Var, _tabulate,
                      packed_connectives)
from .preservation import (column_text, delta_pairing_relation, find_violation,
                           preserves_delta_pairing)
from .tables import FuncTable, constant_table, pack, projection_packed


class NotRepresentable(ValueError):
    """The table maps some same-class inputs to different classes, so no
    formula realizes it."""


_CONSTS = tuple(map(Const, ELEMENTS))  # the one Const of each value
_PROJECTION = projection_packed(1, 0)


def default_var_names(arity: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(arity))


def synthesize(
    f: FuncTable,
    var_names: list[str] | tuple[str, ...] | None = None,
    simplify: bool = False,
) -> Formula:
    """A formula whose truth table is exactly f: the compact synthesis of
    the module docstring, deterministic and re-checked against f; the
    re-check values the nodes this call built, on _root's atlas tables.

    Tables of arity 0 are rejected: use a constant formula.  Tables
    breaking the delta pairing raise NotRepresentable.  var_names holding
    a name twice, or a name that is reserved for a constant or malformed,
    raise ValueError, also where f ignores that variable.  simplify is
    accepted and selects nothing: there is one construction.
    """
    if f.arity == 0:
        raise ValueError("arity-0 table: use a constant formula directly")
    if not preserves_delta_pairing(f):
        witness = find_violation(f, delta_pairing_relation())
        cols = ";".join(map(column_text, witness.selected_columns))
        raise NotRepresentable(
            f"table maps same-class inputs ({cols}) to distinct classes "
            f"({column_text(witness.image)})"
        )
    names = tuple(var_names) if var_names is not None else default_var_names(f.arity)
    if len(names) != f.arity:
        raise ValueError(f"need {f.arity} variable name(s), got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable name in {list(names)}")
    for name in names:  # each name's Var, built here so that Var checks every name
        _unary(_PROJECTION, name)
    flat, known = bytes(f.entries), {}
    result = _compact(flat, names, known)
    # known holds each atlas root's table over names from its own walk, and
    # the re-check takes no other memo; a root alone is checked on its table
    packed = known[id(result)] if id(result) in known else _tabulate(result, names, known)
    if packed != int.from_bytes(flat, "little"):
        raise RuntimeError("compact synthesis changed the realized table")
    return result


@functools.cache
def _atlas() -> dict[int, tuple]:
    """A least-size recipe per unary table, keyed by the packed table: (Var,),
    (Const, value) or (op, *operand tables).  The search by tree size
    (Knuth, TAOCP 4A, 7.1.2) combines only least recipes, as a least
    formula's operands may be least formulas of their own tables."""
    unary, binary = packed_connectives(1)
    atlas = {pack(constant_table(v)): (Const, v) for v in ELEMENTS}
    atlas[_PROJECTION] = (Var,)
    by_size = [[], list(atlas)]  # the tables first reached at each size
    while len(atlas) < 64:
        n, known = len(by_size), len(atlas)
        made = [((op, x), unary(op, x)) for op in Connective if op.arity < 2 for x in by_size[-1]]
        made += [((op, x, y), binary(op, x, y)) for op in Connective if op.arity > 1
                 for i in range(1, n - 1) for x in by_size[i] for y in by_size[n - 1 - i]]
        for recipe, table in made:
            atlas.setdefault(table, recipe)
        by_size.append(list(atlas)[known:])
    return atlas


@functools.lru_cache(maxsize=MAX_TABLE_VARS * 64)  # 64 tables a name: no call evicts its own
def _unary(table: int, name: str) -> Formula:
    """The atlas formula of a packed unary table over name, built once per
    process while cached, as are its operands, which come from this cache."""
    op, *args = _atlas()[table]
    if op is Var:
        return Var(name)
    if op is Const:
        return _CONSTS[args[0]]
    return (Unary if len(args) == 1 else Binary)(op, *[_unary(t, name) for t in args])


@functools.lru_cache(maxsize=MAX_TABLE_VARS * 64)  # a call takes at most 4 * (n - 1) + 64
def _root(table: int, i: int, names: tuple[str, ...]) -> tuple[Formula, int]:
    """The atlas formula of a packed unary table over names[i], with its
    packed table over names from walking that very node.  The entry holds
    its node, so no id of a valued node is reused while it is cached."""
    node = _unary(table, names[i])
    return node, _tabulate(node, names)


def _compact(flat: bytes, names: tuple[str, ...], known: dict, i: int = 0) -> Formula:
    """The compact synthesis of the module docstring of the packed slice flat
    over names[i:]; a ^ 1 is a's partner.  known gets id(node) and its
    table over names for each atlas root the join holds."""
    if i == len(names) - 1:
        node, known[id(node)] = _root(int.from_bytes(flat, "little"), i, names)
        return node
    if flat.count(flat[0]) == len(flat):
        return _CONSTS[flat[0]]
    width, terms = len(flat) // 4, []
    for a in ELEMENTS:
        part = flat[a * width : (a + 1) * width]
        if part.count(Element.ZERO) < width:
            s_a, known[id(s_a)] = _root(3 << 8 * a | 2 << 8 * (a ^ 1), i, names)
            terms.append(s_a if part.count(Element.ONE) == width else
                         Binary(Connective.AND, s_a, _compact(part, names, known, i + 1)))
    return functools.reduce(functools.partial(Binary, Connective.OR), terms)
