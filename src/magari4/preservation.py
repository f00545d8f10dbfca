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


def _image(f: FuncTable, selection: Sequence[Column], arity: int) -> Column:
    return tuple(
        f.entries[linear_index([col[i] for col in selection])] for i in range(arity)
    )


def preserves(f: FuncTable, relation: RelationMatrix) -> bool:
    """True iff every row-wise image of columns under f is a column.

    For a unary relation this is closure of the column set under f.
    """
    return find_violation(f, relation) is None


def find_violation(f: FuncTable, relation: RelationMatrix) -> ViolationWitness | None:
    """First violating column selection in lexicographic order, if any."""
    colset = set(relation.columns)
    for sel in itertools.product(relation.columns, repeat=f.arity):
        image = _image(f, sel, relation.arity)
        if image not in colset:
            return ViolationWitness(sel, image)
    return None


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
    low = _PAIRS[i - 1]
    high = _PAIRS[j - 1]
    return FuncTable(1, (low[0], low[1], high[0], high[1]))


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
    return preserves(f, delta_pairing_relation())


def classify(f: FuncTable) -> frozenset[int]:
    """The set of i in 1..12 with f preserving R_i."""
    return frozenset(i for i in range(1, 13) if preserves(f, builtin_relation(i)))


# ---------------------------------------------------------------------------
# Enumeration of delta-class-respecting tables
# ---------------------------------------------------------------------------

_CLASS_ELEMS = {False: (_Z, _R), True: (_S, _O)}


def _blocks(arity: int) -> list[list[int]]:
    """Linear indices of each class-vector block, blocks in a fixed order."""
    out: dict[tuple[bool, ...], list[int]] = {}
    for idx, pt in enumerate(points(arity)):
        out.setdefault(tuple(x in HIGH for x in pt), []).append(idx)
    return [out[key] for key in sorted(out)]


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
        entries: list[Element] = [_Z] * 4**arity
        for blk, assignment in zip(blocks, choice):
            for pos, value in zip(blk, assignment):
                entries[pos] = value
        yield FuncTable(arity, tuple(entries))


def random_delta_preserving_table(arity: int, rng) -> FuncTable:
    """One delta-class-respecting table drawn uniformly via an rng."""
    entries: list[Element] = [_Z] * 4**arity
    for blk in _blocks(arity):
        out_class = _CLASS_ELEMS[rng.random() < 0.5]
        for pos in blk:
            entries[pos] = rng.choice(out_class)
    return FuncTable(arity, tuple(entries))
