"""Extensional n-ary operations on the four-element carrier.

A table lists all 4**n values in a fixed row-major enumeration: argument
tuples run through (0, r, s, 1) per position with the first argument most
significant.  The text format is `<arity>:<entries>` with entries a string
over {0, r, s, 1}, e.g. the delta operation is `1:ss11`.

The packed form of a table gives each entry one byte, entry k in byte k:
as an int (little-endian) for bitwise work, as bytes for `bytes.translate`.
A "lane" is one byte position; several tables laid end to end are
evaluated lane by lane at once.  Packing, unpacking, packed projections,
the bitwise masks and `compose_lanes`, the one composition kernel, live
here; the formula module's bitwise walk works on the same form.

A unary table also has a second form, owned here too: its code, one byte
with entry x in bits 2x..2x+1, so the identity is 0xE4 and the constant c
is c * 0x55.  UNARY_TABLES holds the one shared table of each code, which
`unpack(packed, 1)` returns, and `compose_codes` runs `compose_lanes` on
lanes of codes, one byte per table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import ELEMENTS, Element


def points(arity: int) -> Iterator[tuple[Element, ...]]:
    """All argument tuples of the given arity, in enumeration order."""
    return itertools.product(ELEMENTS, repeat=arity)


def linear_index(args: Sequence[Element]) -> int:
    idx = 0
    for a in args:
        idx = idx * 4 + int(a)
    return idx


@dataclass(frozen=True)
class FuncTable:
    arity: int
    entries: tuple[Element, ...]

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        # 4**arity entries is 1 followed by 2*arity zero bits: no power of
        # a huge arity is built to refuse it
        n = len(self.entries)
        if n.bit_length() != 2 * self.arity + 1 or n & (n - 1):
            raise ValueError(f"arity {self.arity} needs 4**{self.arity} entries, got {n}")

    def apply(self, args: Sequence[Element]) -> Element:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} argument(s), got {len(args)}")
        return self.entries[linear_index(args)]

    def __getitem__(self, args: Sequence[Element]) -> Element:
        return self.apply(args)

    def to_text(self) -> str:
        return f"{self.arity}:{''.join(e.token for e in self.entries)}"

    @classmethod
    def from_text(cls, text: str) -> "FuncTable":
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError(f"table text must look like '<arity>:<entries>': {text!r}")
        try:
            arity = int(head)
        except ValueError:
            raise ValueError(f"bad table arity: {head!r}") from None
        entries = []
        for ch in body:
            if ch not in "0rs1":
                raise ValueError(f"bad table entry character: {ch!r}")
            entries.append(Element.from_token(ch))
        return cls(arity, tuple(entries))

    def __str__(self) -> str:
        return self.to_text()


def constant_table(value: Element, arity: int = 1) -> FuncTable:
    return FuncTable(arity, (value,) * (4**arity))


def projection(arity: int, index: int) -> FuncTable:
    """The arity-ary table returning its index-th argument (0-based)."""
    if not 0 <= index < arity:
        raise ValueError(f"projection index {index} out of range for arity {arity}")
    return FuncTable(arity, tuple(pt[index] for pt in points(arity)))


def pack(t: FuncTable) -> int:
    return int.from_bytes(bytes(t.entries), "little")


def unary_code(entries: Sequence[int]) -> int:
    """The code of a unary table: entry x in bits 2x..2x+1."""
    a, b, c, d = entries
    if a | b | c | d > 3:
        raise ValueError(f"table entries must lie in 0..3, got {tuple(entries)}")
    return a | b << 2 | c << 4 | d << 6


# The unary table of each code, built once and shared.
UNARY_TABLES = tuple(
    FuncTable(1, tuple(ELEMENTS[code >> 2 * x & 3] for x in range(4))) for code in range(256)
)


def unpack(packed: int | bytes, arity: int) -> FuncTable:
    """The table of a packed form; a unary one is the shared table of its code."""
    if isinstance(packed, int):
        packed = packed.to_bytes(4**arity, "little")
    if arity == 1:
        return UNARY_TABLES[unary_code(packed)]
    return FuncTable(arity, tuple(map(ELEMENTS.__getitem__, packed)))


@functools.lru_cache(maxsize=None)
def projection_packed(arity: int, index: int) -> int:
    return pack(projection(arity, index))


@functools.lru_cache(maxsize=None)
def packed_masks(arity: int) -> tuple[int, int, int]:
    """(both bits, low bit, high bit) of every entry at this arity."""
    lo = int.from_bytes(b"\x01" * 4**arity, "little")
    return 3 * lo, lo, lo << 1


def compose_lanes(flat: bytes, args: Sequence[int], width: int) -> bytes:
    """g(t1, ..., tm) on each of width lanes, flat holding g's 4**m entries.

    Up to four arguments, each lane's argument tuple has its linear index
    in one byte, and g is one translate.  A wider g is split on its first
    argument into four slices; each lane keeps the one that argument picks.
    """
    if len(args) <= 4:
        index = 0
        for t in args:
            index = index << 2 | t
        return index.to_bytes(width, "little").translate(flat.ljust(256, b"\0"))
    quarter = len(flat) // 4
    out = 0
    for v in range(4):
        part = compose_lanes(flat[v * quarter : (v + 1) * quarter], args[1:], width)
        pick = compose_lanes(bytes(3 * (x == v) for x in range(4)), args[:1], width)
        out |= int.from_bytes(part, "little") & int.from_bytes(pick, "little")
    return out.to_bytes(width, "little")


def compose_codes(flat: bytes, lanes: Sequence[bytes], count: int) -> bytes:
    """compose_lanes on unary tables by their codes: lane i holds the code of
    the i-th argument of each of count compositions, and the result holds
    the code of each composition, in the same order.  The four entries run
    side by side through one compose_lanes call, entry x in the lanes from
    x * count on."""
    bits = 8 * count
    low = (1 << bits) // 255 * 3  # the low two bits of each of count bytes
    args = []
    for lane in lanes:
        code = int.from_bytes(lane, "little")
        args.append(code & low | (code >> 2 & low) << bits
                    | (code >> 4 & low) << 2 * bits | (code >> 6 & low) << 3 * bits)
    value = int.from_bytes(compose_lanes(flat, args, 4 * count), "little")
    code = (value & low | (value >> bits & low) << 2
            | (value >> 2 * bits & low) << 4 | (value >> 3 * bits & low) << 6)
    return code.to_bytes(count, "little")
