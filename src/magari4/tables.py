"""Extensional n-ary operations on the four-element carrier.

A table lists all 4**n values in a fixed row-major enumeration: argument
tuples run through (0, r, s, 1) per position with the first argument most
significant.  The text format is `<arity>:<entries>` with entries a string
over {0, r, s, 1}, e.g. the delta operation is `1:ss11`.

A table holds its entries packed, one byte each, entry k in byte k: as
bytes for `bytes.translate`, and read as a little-endian int for bitwise
work.  A "lane" is one byte position; several tables laid end to end are
evaluated lane by lane at once.  The packed projections, the bitwise
masks and `compose_lanes`, the one composition kernel, live here; the
formula module's bitwise walk works on the same form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import ELEMENTS, Element


def points(arity: int) -> Iterator[tuple[Element, ...]]:
    """All argument tuples of the given arity, in enumeration order."""
    return itertools.product(ELEMENTS, repeat=arity)


def linear_index(args: Sequence[Element]) -> int:
    idx = 0
    for a in args:
        idx = idx * 4 + int(a)
    return idx


_ENTRY_BYTES = b"\0\1\2\3"
_TO_TOKENS = bytes.maketrans(_ENTRY_BYTES, b"0rs1")
# Entry tokens to their bytes, and every other byte to 255, which is no entry.
_FROM_TOKENS = bytes(b"0rs1".find(c) % 256 for c in range(256))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class FuncTable:
    """An arity-ary table with its entries packed in `packed`.  entries may
    be Elements, ints or bytes, each in 0..3."""

    arity: int
    packed: bytes

    def __init__(self, arity: int, entries: bytes | Iterable[int]) -> None:
        if arity < 0:
            raise ValueError("arity must be >= 0")
        # tuple() refuses an int, which bytes() would take as a length
        packed = entries if type(entries) is bytes else bytes(tuple(entries))
        # 4**arity entries is 1 followed by 2*arity zero bits: no power of
        # a huge arity is built to refuse it
        n = len(packed)
        if n.bit_length() != 2 * arity + 1 or n & (n - 1):
            raise ValueError(f"arity {arity} needs 4**{arity} entries, got {n}")
        if packed.strip(_ENTRY_BYTES):  # what is left is not an entry
            raise ValueError(f"table entries must lie in 0..3, got {max(packed)}")
        _set_arity(self, arity)
        _set_packed(self, packed)

    def __eq__(self, other: object) -> bool:
        # the length of packed fixes the arity
        return self.packed == other.packed if isinstance(other, FuncTable) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.packed)

    @property
    def entries(self) -> tuple[Element, ...]:
        """The entries as Elements, in enumeration order."""
        return tuple([ELEMENTS[v] for v in self.packed])

    def apply(self, args: Sequence[Element]) -> Element:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} argument(s), got {len(args)}")
        return ELEMENTS[self.packed[linear_index(args)]]

    __getitem__ = apply

    def to_text(self) -> str:
        return f"{self.arity}:{self.packed.translate(_TO_TOKENS).decode()}"

    @classmethod
    def from_text(cls, text: str) -> "FuncTable":
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError(f"table text must look like '<arity>:<entries>': {text!r}")
        try:
            arity = int(head)
        except ValueError:
            raise ValueError(f"bad table arity: {head!r}") from None
        # one byte per character: a non-ASCII one reads as "?", which is no token
        packed = body.encode("ascii", "replace").translate(_FROM_TOKENS)
        if 255 in packed:
            raise ValueError(f"bad table entry character: {body[packed.index(255)]!r}")
        return cls(arity, packed)

    __str__ = to_text


# The slots' own setters, as the frozen FuncTable refuses assignment.
_set_arity, _set_packed = FuncTable.arity.__set__, FuncTable.packed.__set__


def constant_table(value: Element, arity: int = 1) -> FuncTable:
    return FuncTable(arity, bytes((value,)) * 4**arity)


def projection(arity: int, index: int) -> FuncTable:
    """The arity-ary table returning its index-th argument (0-based)."""
    if not 0 <= index < arity:
        raise ValueError(f"projection index {index} out of range for arity {arity}")
    stride = 4 ** (arity - 1 - index)
    return FuncTable(arity, b"".join(bytes((v,)) * stride for v in range(4)) * 4**index)


@functools.lru_cache(maxsize=None)
def projection_packed(arity: int, index: int) -> int:
    return int.from_bytes(projection(arity, index).packed, "little")


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


def unary_code(entries: Sequence[int]) -> int:
    """The code of a unary table, the form the closure oracle composes:
    one byte, entry x in bits 2x..2x+1, so the identity is 0xE4 and the
    constant c is c * 0x55."""
    a, b, c, d = entries
    return a | b << 2 | c << 4 | d << 6


@functools.cache  # at most 256 codes; a unary fragment builds up to 64 tables
def unary_entries(code: int) -> bytes:
    """The packed entries of a unary table's code: bits 2x..2x+1 go to byte x."""
    return ((code | code << 6 | code << 12 | code << 18) & 0x03030303).to_bytes(4, "little")


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
