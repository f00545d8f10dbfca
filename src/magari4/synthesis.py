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
from .formula import MAX_TABLE_VARS, Binary, Const, Formula, Unary, Var, _tabulate, _walker
from .preservation import (column_text, delta_pairing_relation, find_violation,
                           preserves_delta_pairing)
from .tables import FuncTable, compose_lanes, constant_table, projection_packed


class NotRepresentable(ValueError):
    """The table maps some same-class inputs to different classes, so no
    formula realizes it."""


_CONSTS = tuple(map(Const, ELEMENTS))  # the one Const of each value
_PROJECTION = projection_packed(1, 0)
# module names, so that _compact looks up no enum attribute per node
_AND, _OR, _ZERO, _ONE = Connective.AND, Connective.OR, Element.ZERO, Element.ONE


def default_var_names(arity: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(arity))


def synthesize(
    f: FuncTable,
    var_names: list[str] | tuple[str, ...] | None = None,
    simplify: bool = False,
) -> Formula:
    """A formula whose truth table is exactly f: the module docstring's
    compact synthesis, deterministic, each join checked where it is built.

    Tables of arity 0 (use a constant formula) or above MAX_TABLE_VARS are
    refused before any work.  Tables breaking the delta pairing raise
    NotRepresentable.  var_names holding a name twice, or a name that is
    reserved for a constant or malformed, raise ValueError, also where f
    ignores that variable.  simplify selects nothing; it stays accepted
    because bench/ops.py passes it.
    """
    if f.arity == 0:
        raise ValueError("arity-0 table: use a constant formula directly")
    if f.arity > MAX_TABLE_VARS:
        raise ValueError(
            f"a truth table over {f.arity} variables exceeds the cap of {MAX_TABLE_VARS}")
    if not preserves_delta_pairing(f):
        witness = find_violation(f, delta_pairing_relation())
        cols = ";".join(map(column_text, witness.selected_columns))
        raise NotRepresentable(
            f"table maps same-class inputs ({cols}) to distinct classes "
            f"({column_text(witness.image)})")
    names = tuple(var_names) if var_names is not None else default_var_names(f.arity)
    if len(names) != f.arity:
        raise ValueError(f"need {f.arity} variable name(s), got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable name in {list(names)}")
    for name in names:  # each name's Var, built here so that Var checks every name
        _unary(_PROJECTION, name)
    return _compact(f.packed, names)[0]


@functools.cache
def _atlas() -> dict[int, tuple]:
    """A least-size recipe per unary table, keyed by the packed table: (Var,),
    (Const, value) or (op, *operand tables).  The search by tree size
    (Knuth, TAOCP 4A, 7.1.2) combines only least recipes, as a least
    formula's operands may be least formulas of their own tables."""
    _, unary, binary = _walker(("p",))
    atlas = {int.from_bytes(constant_table(v).packed, "little"): (Const, v) for v in ELEMENTS}
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
    """The atlas formula of a packed unary table over name, walked over
    (name,) and checked against table when built: the one cache of atlas
    nodes, each built once per process while cached, operands included."""
    op, *args = _atlas()[table]
    node = (Var(name) if op is Var else _CONSTS[args[0]] if op is Const else
            (Unary if len(args) == 1 else Binary)(op, *[_unary(t, name) for t in args]))
    if _tabulate(node, (name,)) != table:
        raise RuntimeError("compact synthesis changed the realized table")
    return node


@functools.cache  # 4 keys, the S_a tables, for each arity 2 <= n <= MAX_TABLE_VARS
def _lifted(table: int, n: int) -> int:
    """A packed unary table read at the first of n variables: no node held."""
    lanes = compose_lanes(table.to_bytes(4, "little"), (projection_packed(n, 0),), 4**n)
    return int.from_bytes(lanes, "little")


def _compact(flat: bytes, names: tuple[str, ...]) -> tuple[Formula, bytes]:
    """The module docstring's compact synthesis of the packed slice flat over
    names, returned with the slice it is checked to realize; a ^ 1 is a's
    partner.  The join is checked on its operands' tables: S_a's from _lifted,
    f_a's from its own call's slice, four times over as f_a ignores names[0].
    Nodes are built with tuple.__new__, as Binary's own constructor does."""
    if len(names) == 1:
        return _unary(int.from_bytes(flat, "little"), names[0]), flat
    if flat.count(flat[0]) == len(flat):
        return _CONSTS[flat[0]], flat
    width, node, operands = len(flat) // 4, None, {}
    for a in ELEMENTS:
        part = flat[a * width : (a + 1) * width]
        if part.count(_ZERO) < width:
            s_a = _unary(table := 3 << 8 * a | 2 << 8 * (a ^ 1), names[0])
            operands[id(s_a)] = _lifted(table, len(names))
            if part.count(_ONE) < width:
                f_a, part = _compact(part, names[1:])
                operands[id(f_a)] = int.from_bytes(part * 4, "little")
                s_a = tuple.__new__(Binary, (_AND, s_a, f_a))
            node = s_a if node is None else tuple.__new__(Binary, (_OR, node, s_a))
    if _tabulate(node, names, memo=operands) != int.from_bytes(flat, "little"):
        raise RuntimeError("compact synthesis changed the realized table")
    return node, flat
