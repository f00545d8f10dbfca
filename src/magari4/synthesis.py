"""Constructive synthesis of a realizing formula for any table that
respects the delta-class pairing.

For a fixed argument tuple alpha with table value delta, the selector

    C_alpha(p1, ..., pn) = ([](p1 <-> a1) & ... & [](pn <-> an)) & d

(constants a_i for alpha_i and d for delta) evaluates to d when every
p_i = alpha_i, to s & d when all inputs stay in their delta classes but
some differ, and to 0 once any input leaves its class.  Joining the
selectors of all 4**n argument tuples therefore reproduces the table
exactly, because d | 0 | (s & d') = d whenever d' shares d's class.
"""

from __future__ import annotations

import functools

from .algebra import Connective, Element
from .formula import Binary, Const, Formula, Var, _tabulate, box_formula, iff_formula
from .preservation import (
    column_text,
    delta_pairing_relation,
    find_violation,
    preserves_delta_pairing,
)
from .tables import FuncTable, points


class NotRepresentable(ValueError):
    """The table maps some same-class inputs to different classes, so no
    formula realizes it."""


def _selector(alpha, value: Element, names, shared: dict) -> Formula:
    # one dict per synthesize call, so each [](name <-> a) clause, each
    # variable and each constant leaf is built once
    conj: Formula | None = None
    for key in zip(names, alpha):
        if key not in shared:
            var, const = _leaf(Var, key[0], shared), _leaf(Const, key[1], shared)
            shared[key] = box_formula(iff_formula(var, const))
        clause = shared[key]
        conj = clause if conj is None else Binary(Connective.AND, conj, clause)
    return Binary(Connective.AND, conj, _leaf(Const, value, shared))


def _leaf(kind: type, key: str | Element, shared: dict) -> Formula:
    # a name (a str) never equals a value (an int) or a clause key (a tuple)
    if key not in shared:
        shared[key] = kind(key)
    return shared[key]


def default_var_names(arity: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(arity))


def synthesize(
    f: FuncTable,
    var_names: list[str] | tuple[str, ...] | None = None,
    simplify: bool = False,
) -> Formula:
    """A formula whose truth table is exactly f.

    The result is the join of one selector per argument tuple, tuples in
    enumeration order, so output is deterministic.  With simplify=True the
    selectors contributing a bare 0 are dropped (and the table equality is
    re-checked).  Tables of arity 0 are rejected: use a constant formula.
    Tables breaking the delta pairing raise NotRepresentable, and
    var_names holding a name twice raise ValueError.
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
    selectors = list(zip(points(f.arity), f.entries))
    if simplify:
        kept = [(a, v) for a, v in selectors if v is not Element.ZERO]
        result = _join_all(kept, names) if kept else Const(Element.ZERO)
        # a formula just built shares no node with an earlier tabulation, so
        # the re-check leaves truth_table's last memo in place
        if _tabulate(result, names) != f:
            raise RuntimeError("simplification changed the realized table")
        return result
    return _join_all(selectors, names)


def _join_all(selectors, names) -> Formula:
    shared: dict = {}
    joined = [_selector(alpha, value, names, shared) for alpha, value in selectors]
    return functools.reduce(functools.partial(Binary, Connective.OR), joined)
