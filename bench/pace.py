"""The host's pace: how long a fixed piece of pure-Python work takes now.

Small virtual machines can switch between speeds up to 1.8 times apart,
from one second to the next and for minutes at a time, with no steal time
and no other load: a plain arithmetic loop slows in step with the
library.  So the benchmark times this fixed work between ops and scales
each op's wall time by REFERENCE_S / pace, as if the host had kept one
speed.  The work is the benchmark's own code, not the library's: it is
composition closure over unary maps of four elements held in small hashed
objects, the same kind of work as the library's tables and closure, so it
slows in step with them.
"""

from __future__ import annotations

import gc
from time import perf_counter

# A pace between the fast (1.8 ms) and slow (3.3 ms) modes of a 2 vCPU Xeon
# VM at 2.0 GHz with CPython 3.11.7; scaled times read as wall times at it.
REFERENCE_S = 0.0027
REPEATS = 3


class _Map:
    __slots__ = ("values", "_hash")

    def __init__(self, values: tuple[int, ...]) -> None:
        self.values = values
        self._hash = hash(values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.values == other.values


def _maps() -> list[_Map]:
    """64 fixed maps of {0, 1, 2, 3} into itself."""
    return [_Map(tuple((a * v + b * (v >> 1) + c) & 3 for v in range(4)))
            for a in range(4) for b in range(4) for c in range(4)]


_MAPS = _maps()


def work() -> int:
    """Compose and combine eight maps with all 64, keeping the new ones."""
    seen = set(_MAPS[:8])
    for f in _MAPS[:8]:
        fv = f.values
        for g in _MAPS:
            gv = g.values
            for h in (_Map(tuple(fv[x] for x in gv)),
                      _Map(tuple(fv[x] & gv[x] for x in range(4))),
                      _Map(tuple((3 - fv[x]) | gv[x] for x in range(4)))):
                if h not in seen:
                    seen.add(h)
    return len(seen)


def pace() -> float:
    """Seconds the fixed work takes now: the fastest of a few tries, with
    the collector off, so a pause or a collection does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            work()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()
