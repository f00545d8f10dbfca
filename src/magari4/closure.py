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

The fixpoint is one generator, _grow, that yields the tables each batch
adds.  At k=1 a table is its one-byte code (see tables.unary_code): a batch
composes, and deduplicates, codes.  At k>=2 a table is its packed bytes.
closure_fragment drains the generator and builds the fragment's tables
once, at k=1 from their codes; expressible_constants compares codes and
stops it at the batch that adds the fourth constant table.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterator

from .algebra import ELEMENTS, Element
from .preservation import count_delta_preserving, delta_classes_respected
from .tables import (FuncTable, compose_codes, compose_lanes, projection, unary_code,
                     unary_entries)


# Table compositions one closure_fragment call may make.  A delta-preserving
# system of up to twelve binary members needs at most 12 * 64**2 of them at
# k=1; the binary fragment of {p -> q, # p, ~ p} would need over 10**8.
COMPOSE_BUDGET = 2**18


# Bytes per argument lane of one composition, bounding a batch's memory.
_LANE_BYTES = 2**20

# The one-byte bytes of each code, to lay unary tables out in lanes.
_BYTES = tuple(bytes((code,)) for code in range(256))

# The code of each constant's unary table.
_CONSTANTS = {unary_code((c,) * 4): c for c in ELEMENTS}


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
    if k == 1:
        packed = map(unary_entries, packed)
    return ClosureFragment(k, frozenset(map(FuncTable, itertools.repeat(k), packed)))


def expressible_constants(sigma: SystemSigma) -> frozenset[Element]:
    """The constants whose one-variable constant table the system expresses.

    The unary fixpoint stops at the batch that adds the fourth constant, so
    a system that reaches all four before a batch that would pass
    COMPOSE_BUDGET gets its answer, where closure_fragment(sigma, 1) raises
    ClosureBudgetExceeded."""
    found: set[Element] = set()
    for added in _grow(sigma, 1):
        found.update(_CONSTANTS[t] for t in added.intersection(_CONSTANTS))
        if len(found) == len(_CONSTANTS):
            break
    return frozenset(found)


def _grow(sigma: SystemSigma, k: int) -> Iterator[set]:
    """The k-ary fragment, packed, as the fixpoint grows it: first the
    projections, then the tables each composition batch adds, if any.  A
    unary table is its code, one byte; a wider one its packed bytes."""
    size = 4**k
    key = unary_code if k == 1 else bytes
    flats = [(t.arity, t.packed) for _, t in sigma.members]
    if all(delta_classes_respected(flat, arity) for arity, flat in flats):
        full = count_delta_preserving(k)  # compositions stay in this set
    else:
        full = 4**size
    current = {key(projection(k, i).packed) for i in range(k)}
    yield set(current)
    frontier = sorted(current)
    made = 0
    while frontier:
        old = sorted(current.difference(frontier))
        new: list = []
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


def _compose_batch(flat: bytes, pools: list[list], size: int) -> set:
    """The tables g(t1, ..., tm) for every t_i in pools[i], composed at once:
    lane i repeats the pools' tables so that its c-th table is the i-th
    argument of the product's c-th tuple.  Leading pools are looped over
    while the lanes would pass _LANE_BYTES.

    A unary table (size 4) is its code, one byte of a lane: compose_codes
    gives the codes of the product's tables in order, and a set of them
    takes the distinct ones.  A wider table is its packed bytes, and the
    output is split into tables by one struct.unpack call."""
    codes = size == 4
    width = 1 if codes else size
    count, lead = math.prod(map(len, pools)), 0
    while lead < len(pools) and count * width > _LANE_BYTES:
        count //= len(pools[lead])
        lead += 1
    lanes, outer = [], 1
    for pool in pools[lead:]:
        inner = count // (outer * len(pool))
        if not codes:
            lane = b"".join([t * inner for t in pool])
        elif inner == 1:
            lane = bytes(pool)
        else:
            lane = b"".join([_BYTES[t] * inner for t in pool])
        lanes.append(lane * outer)
        outer *= len(pool)
    out: set = set()
    if codes:
        for fixed in itertools.product(*pools[:lead]):
            out.update(compose_codes(flat, [_BYTES[t] * count for t in fixed] + lanes, count))
        return out
    lanes = [int.from_bytes(lane, "little") for lane in lanes]
    split = f"{size}s" * count
    for fixed in itertools.product(*pools[:lead]):
        args = [int.from_bytes(t * count, "little") for t in fixed] + lanes
        out.update(struct.unpack(split, compose_lanes(flat, args, count * size)))
    return out
