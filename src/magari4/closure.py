"""Brute-force expressibility oracle: the k-ary fragment of the clone
generated by a system of tables.

Starting from the k projections, the fragment is closed under top
composition with the system's members until it stabilizes.  Because
equivalence over the four-element algebra is table equality, term identity
plays no role: the fixpoint is exactly the set of k-ary operations the
system can express with variables available (and no constants assumed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import ELEMENTS, Element
from .tables import (
    FuncTable,
    compose_packed,
    constant_table,
    projection,
    projection_packed,
    unpack,
)


@dataclass(frozen=True)
class SystemSigma:
    members: tuple[tuple[str, FuncTable], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.members]
        if len(set(labels)) != len(labels):
            raise ValueError("member labels must be unique")
        for label, table in self.members:
            if table.arity < 1:
                raise ValueError(f"member {label!r} must have arity >= 1")


@dataclass(frozen=True)
class ClosureFragment:
    k: int
    tables: frozenset[FuncTable]

    def __contains__(self, table: FuncTable) -> bool:
        return table in self.tables

    def __len__(self) -> int:
        return len(self.tables)


def closure_fragment(sigma: SystemSigma, k: int) -> ClosureFragment:
    """Least set of k-ary tables containing the projections and closed under
    top composition with sigma's members.  k must lie in 1..3."""
    if not 1 <= k <= 3:
        raise ValueError(f"fragment arity must lie in 1..3, got {k}")
    size = 4**k
    flats = [(t.arity, [int(e) for e in t.entries]) for _, t in sigma.members]
    current: set[int] = {projection_packed(k, i) for i in range(k)}
    frontier = sorted(current)
    while frontier:
        old = sorted(current.difference(frontier))
        new: set[int] = set()
        for arity, flat in flats:
            # every argument tuple touching the frontier, enumerated once
            for pattern in itertools.product((False, True), repeat=arity):
                if not any(pattern):
                    continue
                pools = [frontier if is_new else old for is_new in pattern]
                for combo in itertools.product(*pools):
                    h = compose_packed(flat, combo, size)
                    if h not in current:
                        new.add(h)
        current |= new
        frontier = sorted(new)
    return ClosureFragment(k, frozenset(unpack(p, k) for p in current))


def expressible_constants(sigma: SystemSigma) -> frozenset[Element]:
    """The constants whose one-variable constant table the system expresses."""
    fragment = closure_fragment(sigma, 1)
    return frozenset(
        c for c in ELEMENTS if constant_table(c, 1) in fragment.tables
    )


def contains(sigma: SystemSigma, target: FuncTable) -> bool:
    """Membership of target in the fragment of its own arity (arity <= 3)."""
    if not 1 <= target.arity <= 3:
        raise ValueError(f"target arity must lie in 1..3, got {target.arity}")
    if any(target == projection(target.arity, i) for i in range(target.arity)):
        return True  # projections seed every fragment
    return target in closure_fragment(sigma, target.arity).tables
