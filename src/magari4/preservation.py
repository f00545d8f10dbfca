"""Relations as matrices and the preservation test.

An m-ary relation is stored extensionally as the set of m-tuples it holds
of, kept as ordered "columns".  A table f preserves a relation when every
row-wise image of columns under f is again a column.  Twelve built-in
relations R1..R12 drive the constant-derivation engine; the 64 unary
operations that respect the delta-class partition are addressable as
i_op(i, j).

Text format for matrices: rows separated by `;`, each row a string over
{0, r, s, 1}; e.g. the eleventh built-in, the graph of the class-preserving
swap, reads `0rs1;r01s`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .algebra import ELEMENTS, HIGH, Element, delta
from .tables import FuncTable, linear_index, points

Column = tuple[Element, ...]


@dataclass(frozen=True)
class RelationMatrix:
    arity: int
    columns: tuple[Column, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if not self.columns:
            raise ValueError("a relation needs at least one column")
        for col in self.columns:
            if len(col) != self.arity:
                raise ValueError(f"column {col} does not have length {self.arity}")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate columns")

    @classmethod
    def from_columns(
        cls, columns: Iterable[Sequence[Element]], name: str | None = None
    ) -> "RelationMatrix":
        """Build from columns, dropping repeats but keeping first-seen order."""
        seen: dict[Column, None] = {}
        for col in columns:
            seen.setdefault(tuple(col), None)
        cols = tuple(seen)
        if not cols:
            raise ValueError("a relation needs at least one column")
        return cls(len(cols[0]), cols, name)

    def to_text(self) -> str:
        return ";".join(
            "".join(col[i].token for col in self.columns) for i in range(self.arity)
        )

    @classmethod
    def from_text(cls, text: str, name: str | None = None) -> "RelationMatrix":
        rows = [row.strip() for row in text.split(";")]
        if any(not row for row in rows):
            raise ValueError(f"empty row in matrix text: {text!r}")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows differ in length")
        cols = [
            tuple(Element.from_token(row[k]) for row in rows) for k in range(width)
        ]
        return cls.from_columns(cols, name)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class ViolationWitness:
    """n columns of a matrix whose row-wise image escapes the matrix."""

    selected_columns: tuple[Column, ...]
    image: Column


def column_text(col: Column) -> str:
    """A column in element tokens, e.g. `0r`."""
    return "".join(e.token for e in col)


def preserves(f: FuncTable, relation: RelationMatrix) -> bool:
    """True iff every row-wise image of columns under f is a column.

    For a unary relation this is closure of the column set under f.
    """
    return _search(f, relation) is None


def find_violation(f: FuncTable, relation: RelationMatrix) -> ViolationWitness | None:
    """First violating column selection in lexicographic order, if any."""
    rows, sel = range(relation.arity), _search(f, relation)
    if sel is not None:
        at = [linear_index([c[i] for c in sel]) for i in rows]
        return ViolationWitness(sel, tuple(ELEMENTS[f.packed[k]] for k in at))
    return None


class PreservationBudgetExceeded(ValueError):
    """The search needs more than SEARCH_BUDGET steps."""


# Steps one search may take: per memo miss, the entries of one row's block
# and the selections it tries.  Against all 64 columns of three rows, the
# 8-variable conjunction takes about 2**21 and a random 4-ary table 2**24.
SEARCH_BUDGET = 3 * 2**23


def _search(f: FuncTable, relation: RelationMatrix) -> tuple[Column, ...] | None:
    """The lexicographically first selection of f.arity columns whose image
    escapes the relation, or None.  Depth first: a column cuts each row's block
    of f's entries to the quarter its entry picks, memoized per tuple of blocks;
    the selections at the last (at most four) arguments are scanned as lanes
    by _leaf.  The plan (how many arguments the lanes take, the lanes and
    their masks) is made once per relation, arity and lane cap; a table that
    is one leaf goes straight to _leaf, with no memo and no budget count, as
    one leaf takes at most 4**4 + _MAX_LANES steps."""
    cols, n = relation.columns, len(relation.columns)
    if n.bit_length() > 2 * relation.arity:  # n == 4**arity: every image is a column
        return None
    plan = _plan(relation, f.arity, _MAX_LANES)
    tail, blocks = plan[0], (f.packed,) * relation.arity
    if f.arity == tail:
        return _leaf(blocks, cols, plan)
    memo: dict[tuple[bytes, ...], tuple[Column, ...] | None] = {}
    spent = 0

    def first(blocks: tuple[bytes, ...]) -> tuple[Column, ...] | None:
        nonlocal spent
        leaf = len(blocks[0]) == 4**tail
        # once per memo entry: one row's block, and the selections a leaf or node tries
        spent += len(blocks[0]) + (n**tail if leaf else n)
        if spent > SEARCH_BUDGET:
            raise PreservationBudgetExceeded(
                f"the preservation search needs more than {SEARCH_BUDGET} steps"
            )
        if leaf:
            sel = _leaf(blocks, cols, plan)
        else:
            q = len(blocks[0]) // 4
            cuts = (tuple(b[q * v : q * v + q] for b, v in zip(blocks, c)) for c in cols)
            rests = zip(cols, (memo[k] if k in memo else first(k) for k in cuts))
            sel = next(((c, *r) for c, r in rests if r is not None), None)
        memo[blocks] = sel
        return sel

    sel = first(blocks)
    del first  # it refers to itself; unlinking it frees the memo at once
    return sel


def _leaf(blocks: tuple[bytes, ...], cols: tuple[Column, ...], plan) -> tuple[Column, ...] | None:
    """The first selection of the plan's tail columns whose image escapes
    the relation, given each row's block of entries over the tail
    arguments."""
    lanes, masks, places = plan[1:]
    held = 0  # lanes where some column agrees with the image on every row
    for group in masks:
        agree = -1
        for lut, lane, mask in zip(blocks, lanes, group):
            marks = lane.translate(lut.translate(mask).ljust(256, b"\0"))
            agree &= int.from_bytes(marks, "little")
        held |= agree
    s = held.to_bytes(len(lanes[0]), "little").find(0)
    if s < 0:
        return None
    n = len(cols)
    return tuple([cols[s // place % n] for place in places])


# Lanes per row at most; past it, the search cuts blocks one argument more.
_MAX_LANES = 2**16


@lru_cache(maxsize=256)
def _plan(relation: RelationMatrix, arity: int, max_lanes: int):
    """The search plan for tables of this arity: the number of tail
    arguments the lanes take (at most four, and at most max_lanes
    selections); per row i, the lane whose byte s is the linear index of
    row i of the s-th selection of tail columns; per group of eight columns
    and row i, the table taking a value to the bits of the group's columns
    holding it in row i; and the place value of each tail argument's
    column in a selection's index."""
    cols, rows, n = relation.columns, range(relation.arity), len(relation.columns)
    tail = min(arity, 4)
    while n**tail > max_lanes:
        tail -= 1
    lanes = []
    for i in rows:
        index = 0
        for j in range(tail):  # row i of the j-th column of each selection
            digit = b"".join(bytes([c[i]]) * n ** (tail - 1 - j) for c in cols) * n**j
            index = index << 2 | int.from_bytes(digit, "little")
        lanes.append(index.to_bytes(n**tail, "little"))
    masks = tuple(
        tuple(
            bytes(sum(1 << b for b, c in enumerate(group) if c[i] == v) for v in range(4))
            .ljust(256, b"\0")
            for i in rows
        )
        for group in (cols[g : g + 8] for g in range(0, n, 8))
    )
    return tail, tuple(lanes), masks, tuple(n ** (tail - 1 - j) for j in range(tail))


# ---------------------------------------------------------------------------
# The twelve built-in relations
# ---------------------------------------------------------------------------

_Z, _R, _S, _O = ELEMENTS


def _unary(name: str, *values: Element) -> RelationMatrix:
    return RelationMatrix(1, tuple((v,) for v in values), name)


@lru_cache(maxsize=None)
def _builtins() -> tuple[RelationMatrix, ...]:
    swap_graph = tuple(
        (x, i_op(3, 7).entries[x]) for x in ELEMENTS
    )  # (0,r), (r,0), (s,1), (1,s)
    distinct_class = tuple(
        (x, y) for x in ELEMENTS for y in ELEMENTS if delta(x) is not delta(y)
    )
    return (
        _unary("R1", _Z, _R),
        _unary("R2", _S, _O),
        _unary("R3", _Z, _S),
        _unary("R4", _Z, _O),
        _unary("R5", _R, _S),
        _unary("R6", _R, _O),
        _unary("R7", _Z, _R, _S),
        _unary("R8", _Z, _R, _O),
        _unary("R9", _Z, _S, _O),
        _unary("R10", _R, _S, _O),
        RelationMatrix(2, swap_graph, "R11"),
        RelationMatrix(2, distinct_class, "R12"),
    )


def builtin_relation(i: int) -> RelationMatrix:
    """The matrix of R_i for i in 1..12."""
    if not 1 <= i <= 12:
        raise ValueError(f"relation index out of range: {i}")
    return _builtins()[i - 1]


def lookup_relation(spec: str) -> RelationMatrix:
    """Resolve `R1`..`R12` or matrix text to a relation."""
    m = spec.strip()
    if m.upper().startswith("R") and m[1:].isdigit():
        return builtin_relation(int(m[1:]))
    return RelationMatrix.from_text(m)


# ---------------------------------------------------------------------------
# The 64 unary operations respecting the delta classes
# ---------------------------------------------------------------------------

# Column k (1-based) fixes the value pair an operation takes on each class
# block: the i column gives (f(0), f(rho)), the j column gives
# (f(sigma), f(1)).
_PAIRS: tuple[tuple[Element, Element], ...] = (
    (_Z, _Z),
    (_Z, _R),
    (_R, _Z),
    (_R, _R),
    (_S, _S),
    (_S, _O),
    (_O, _S),
    (_O, _O),
)


def i_op(i: int, j: int) -> FuncTable:
    """The unary operation with low-block behavior i and high-block behavior j."""
    if not (1 <= i <= 8 and 1 <= j <= 8):
        raise ValueError(f"i_op indices must lie in 1..8: ({i}, {j})")
    return FuncTable(1, _PAIRS[i - 1] + _PAIRS[j - 1])


@lru_cache(maxsize=None)
def delta_pairing_relation() -> RelationMatrix:
    """The binary relation `delta(x) = delta(y)` as an eight-column matrix."""
    cols = tuple(
        (x, y) for x in ELEMENTS for y in ELEMENTS if delta(x) is delta(y)
    )
    return RelationMatrix(2, cols, "DeltaPairing")


def preserves_delta_pairing(f: FuncTable) -> bool:
    """True iff the delta class of f's output depends only on the classes of
    its inputs; exactly the tables realizable by formulas."""
    return delta_classes_respected(f.packed, f.arity)


# The delta class of each entry value: 0 for {0, rho}, 1 for {sigma, 1}.
_CLASS_BITS = bytes(v >> 1 for v in range(256))


def delta_classes_respected(flat: bytes, arity: int) -> bool:
    """preserves_delta_pairing on a table's entries, one byte each.  Two
    inputs share their class vector iff one reaches the other by moving
    arguments to their class partners (x ^ 1) one at a time, so the check
    is that no such move changes the output's class: with the entries
    translated to class bits, one shift and mask per argument."""
    bits = int.from_bytes(flat.translate(_CLASS_BITS), "little")
    for shift, mask in _partner_moves(arity):
        if (bits ^ bits >> shift) & mask:
            return False
    return True


@lru_cache(maxsize=16)
def _partner_moves(arity: int) -> tuple[tuple[int, int], ...]:
    """Per argument, the shift that brings the entry of each input with the
    argument at its class's upper element (rho or 1) down onto its partner's,
    with the mask of the lower inputs' entries."""
    moves = []
    for i in range(arity):
        stride = 4 ** (arity - 1 - i)
        lower = (b"\x01" * stride + b"\0" * stride) * (4**arity // (2 * stride))
        moves.append((8 * stride, int.from_bytes(lower, "little")))
    return tuple(moves)


def classify(f: FuncTable) -> frozenset[int]:
    """The set of i in 1..12 with f preserving R_i."""
    return frozenset(i for i in range(1, 13) if preserves(f, builtin_relation(i)))


# ---------------------------------------------------------------------------
# Enumeration of delta-class-respecting tables
# ---------------------------------------------------------------------------

_CLASS_ELEMS = {False: (_Z, _R), True: (_S, _O)}


@lru_cache(maxsize=None)
def _blocks(arity: int) -> tuple[tuple[int, ...], ...]:
    """Linear indices of each class-vector block, blocks in a fixed order."""
    out: dict[tuple[bool, ...], list[int]] = {}
    for idx, pt in enumerate(points(arity)):
        out.setdefault(tuple(x in HIGH for x in pt), []).append(idx)
    return tuple(tuple(out[key]) for key in sorted(out))


def count_delta_preserving(arity: int) -> int:
    return (2 * 2 ** (2**arity)) ** (2**arity)


def delta_preserving_tables(arity: int) -> Iterator[FuncTable]:
    """All tables of the given arity preserving the delta pairing, in a
    deterministic order.  64 tables for arity 1, 1,048,576 for arity 2."""
    blocks = _blocks(arity)
    options = [
        [
            assignment
            for high_out in (False, True)
            for assignment in itertools.product(_CLASS_ELEMS[high_out], repeat=len(blk))
        ]
        for blk in blocks
    ]
    for choice in itertools.product(*options):
        packed = bytearray(4**arity)
        for blk, assignment in zip(blocks, choice):
            for pos, value in zip(blk, assignment):
                packed[pos] = value
        yield FuncTable(arity, packed)


def random_delta_preserving_table(arity: int, rng) -> FuncTable:
    """One delta-class-respecting table drawn uniformly via an rng."""
    packed = bytearray(4**arity)
    for blk in _blocks(arity):
        out_class = _CLASS_ELEMS[rng.random() < 0.5]
        for pos in blk:
            packed[pos] = rng.choice(out_class)
    return FuncTable(arity, packed)
