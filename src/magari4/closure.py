"""Brute-force expressibility oracle: the k-ary fragment of the clone
generated by a system of tables.

Starting from the k projections, the fragment is closed under top
composition with the system's members until it stabilizes.  Because
equivalence over the four-element algebra is table equality, term identity
plays no role: the fixpoint is exactly the set of k-ary operations the
system can express with variables available (and no constants assumed).

The fixpoint stops as soon as the fragment holds every k-ary table it could
ever hold: all 4**(4**k) tables, or only the delta-preserving ones when
every member preserves the delta pairing (compositions and projections
preserve it too).  Compositions run in batches, one per member and choice
of new or older tables at each argument; a batch that would take the
fixpoint past COMPOSE_BUDGET compositions is refused, before it runs, with
ClosureBudgetExceeded.

The fixpoint is one generator, _grow, that yields the packed tables each
batch adds.  closure_fragment drains it and unpacks the fragment once;
expressible_constants compares packed tables and stops it at the batch that
adds the fourth constant table.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterator

from .algebra import ELEMENTS, Element
from .preservation import count_delta_preserving, preserves_delta_pairing
from .tables import FuncTable, compose_lanes, projection, unpack


# Table compositions one closure_fragment call may make.  A delta-preserving
# system of up to twelve binary members needs at most 12 * 64**2 of them at
# k=1; the binary fragment of {p -> q, # p, ~ p} would need over 10**8.
COMPOSE_BUDGET = 2**18


# Bytes per argument lane of one composition, bounding a batch's memory.
_LANE_BYTES = 2**20


class ClosureBudgetExceeded(ValueError):
    """The fixpoint needs more than COMPOSE_BUDGET table compositions."""


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

    def __len__(self) -> int:
        return len(self.tables)


def closure_fragment(sigma: SystemSigma, k: int) -> ClosureFragment:
    """Least set of k-ary tables containing the projections and closed under
    top composition with sigma's members.  k must lie in 1..3."""
    if not 1 <= k <= 3:
        raise ValueError(f"fragment arity must lie in 1..3, got {k}")
    packed = set().union(*_grow(sigma, k))
    return ClosureFragment(k, frozenset(unpack(t, k) for t in packed))


def expressible_constants(sigma: SystemSigma) -> frozenset[Element]:
    """The constants whose one-variable constant table the system expresses.

    The unary fixpoint stops at the batch that adds the fourth constant, so
    a system that reaches all four before a batch that would pass
    COMPOSE_BUDGET gets its answer, where closure_fragment(sigma, 1) raises
    ClosureBudgetExceeded."""
    wanted = {bytes((c,)) * 4: c for c in ELEMENTS}
    found: set[Element] = set()
    for added in _grow(sigma, 1):
        found.update(wanted[t] for t in added.intersection(wanted))
        if len(found) == len(wanted):
            break
    return frozenset(found)


def _grow(sigma: SystemSigma, k: int) -> Iterator[set[bytes]]:
    """The k-ary fragment, packed, as the fixpoint grows it: first the
    projections, then the tables each composition batch adds, if any."""
    size = 4**k
    flats = [(t.arity, bytes(t.entries)) for _, t in sigma.members]
    if all(preserves_delta_pairing(t) for _, t in sigma.members):
        full = count_delta_preserving(k)  # compositions stay in this set
    else:
        full = 4**size
    current = {bytes(projection(k, i).entries) for i in range(k)}
    yield set(current)
    frontier = sorted(current)
    made = 0
    while frontier:
        old = sorted(current.difference(frontier))
        new: list[bytes] = []
        for arity, flat in flats:
            # every argument tuple touching the frontier, enumerated once
            for pattern in itertools.product((False, True), repeat=arity):
                if not any(pattern):
                    continue
                pools = [frontier if is_new else old for is_new in pattern]
                batch = math.prod(map(len, pools))
                if not batch:
                    continue
                if made + batch > COMPOSE_BUDGET:
                    raise ClosureBudgetExceeded(
                        f"the arity-{k} closure needs more than "
                        f"{COMPOSE_BUDGET} table compositions"
                    )
                made += batch
                added = _compose_batch(flat, pools, size).difference(current)
                if added:
                    yield added
                    current |= added
                    new += added
                    if len(current) == full:
                        return
        frontier = sorted(new)


def _compose_batch(flat: bytes, pools: list[list[bytes]], size: int) -> set[bytes]:
    """The tables g(t1, ..., tm) for every t_i in pools[i], composed at once:
    lane i repeats the pools' tables so that its c-th table is the i-th
    argument of the product's c-th tuple.  Leading pools are looped over
    while the lanes would pass _LANE_BYTES."""
    lead = 0
    while lead < len(pools) and math.prod(map(len, pools[lead:])) * size > _LANE_BYTES:
        lead += 1
    count, lanes, outer = math.prod(map(len, pools[lead:])), [], 1
    for pool in pools[lead:]:
        inner = count // (outer * len(pool))
        lanes.append(int.from_bytes(b"".join(t * inner for t in pool) * outer, "little"))
        outer *= len(pool)
    split = f"{size}s" * count
    out: set[bytes] = set()
    for fixed in itertools.product(*pools[:lead]):
        args = [int.from_bytes(t * count, "little") for t in fixed] + lanes
        out.update(struct.unpack(split, compose_lanes(flat, args, count * size)))
    return out
