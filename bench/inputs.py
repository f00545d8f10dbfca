"""Seeded inputs for the benchmark, built without the library.

Everything here is the benchmark's own copy of the algebra's rules, so
the inputs (and the digests printed with every run) stay the same even
when a change rewrites the library's samplers or relations.

Elements are the ints 0, 1, 2, 3 for 0, rho, sigma, 1; the bit encoding
is the algebra's: meet is `&`, join is `|`, complement is `^ 3`, and an
element's delta class is its high bit.  A table of arity n is a tuple of
4**n ints in row-major order, first argument most significant, and its
text is the library's `<arity>:<entries>` format over "0rs1".
"""

from __future__ import annotations

import hashlib
import itertools
import random

TOKENS = "0rs1"
LOW, HIGH = (0, 1), (2, 3)


def table_text(table: tuple[int, ...]) -> str:
    arity = (len(table).bit_length() - 1) // 2
    return f"{arity}:{''.join(TOKENS[e] for e in table)}"


def index(args) -> int:
    idx = 0
    for a in args:
        idx = idx * 4 + a
    return idx


def class_blocks(arity: int) -> list[list[int]]:
    """Table positions grouped by the delta classes of their arguments."""
    blocks: dict[tuple[int, ...], list[int]] = {}
    for k, pt in enumerate(itertools.product(range(4), repeat=arity)):
        blocks.setdefault(tuple(x >> 1 for x in pt), []).append(k)
    return [blocks[key] for key in sorted(blocks)]


def representable(table: tuple[int, ...]) -> bool:
    """The class-vector rule: a formula realizes the table iff its output
    class is constant on every block of same-class arguments."""
    arity = (len(table).bit_length() - 1) // 2
    return all(
        len({table[k] >> 1 for k in block}) == 1 for block in class_blocks(arity)
    )


# R1..R10 as element sets; R11 is the graph of x -> x ^ 1 and R12 pairs
# elements of distinct delta classes.
UNARY_RELATIONS = {
    1: (0, 1), 2: (2, 3), 3: (0, 2), 4: (0, 3), 5: (1, 2),
    6: (1, 3), 7: (0, 1, 2), 8: (0, 1, 3), 9: (0, 2, 3), 10: (1, 2, 3),
}


def relation_columns(i: int) -> tuple[tuple[int, ...], ...]:
    if i in UNARY_RELATIONS:
        return tuple((x,) for x in UNARY_RELATIONS[i])
    if i == 11:
        return tuple((x, x ^ 1) for x in range(4))
    return tuple((x, y) for x in range(4) for y in range(4) if x >> 1 != y >> 1)


def preserves(table: tuple[int, ...], i: int) -> bool:
    """Whether the table preserves R_i, by a rule specific to each shape."""
    arity = (len(table).bit_length() - 1) // 2
    if i in UNARY_RELATIONS:
        keep = UNARY_RELATIONS[i]
        return all(
            table[index(pt)] in keep
            for pt in itertools.product(keep, repeat=arity)
        )
    if i == 11:
        flip = (4**arity - 1) // 3  # toggles the low bit of every argument
        return all(table[k ^ flip] == table[k] ^ 1 for k in range(4**arity))
    # R12: argument blocks with opposite class vectors must each map to a
    # single class, and to opposite ones
    out = {}
    for k, pt in enumerate(itertools.product(range(4), repeat=arity)):
        out.setdefault(tuple(x >> 1 for x in pt), set()).add(table[k] >> 1)
    return all(
        len(cls) == 1 and out[tuple(1 - c for c in key)] == {1 - next(iter(cls))}
        for key, cls in out.items()
    )


def classify(table: tuple[int, ...]) -> frozenset[int]:
    return frozenset(i for i in range(1, 13) if preserves(table, i))


def random_representable(arity: int, rng: random.Random) -> tuple[int, ...]:
    """A table drawn uniformly from those obeying the class-vector rule."""
    table = [0] * 4**arity
    for block in class_blocks(arity):
        values = HIGH if rng.random() < 0.5 else LOW
        for k in block:
            table[k] = rng.choice(values)
    return tuple(table)


def break_classes(table: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Move one entry into the other class, so its block mixes classes."""
    k = rng.randrange(len(table))
    out = list(table)
    out[k] = rng.choice(LOW if table[k] >> 1 else HIGH)
    return tuple(out)


def random_twelve(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Twelve representable tables of arity 1 or 2, the i-th breaking R_i."""
    members = []
    for i in range(1, 13):
        while True:
            table = random_representable(rng.choice((1, 2)), rng)
            if not preserves(table, i):
                members.append(table)
                break
    return tuple(members)


# ---------------------------------------------------------------------------
# Formulas: tuples ("v", name), ("c", value), (op, child) for ~ # [], and
# (op, left, right) for & | -> <->
# ---------------------------------------------------------------------------

VARIABLES = ("p", "q", "u", "v")
CONST_TEXT = ("0", "rho", "sigma", "1")
_OPS = ("~", "#", "[]", "&", "|", "->", "<->")
_OP_WEIGHTS = (2, 3, 1, 4, 4, 3, 1)
# Size of the tree the library's parser builds, which expands [] and <->.
# The cap is a chosen bound, not taken from measured traffic: it keeps the
# reference checks' walk short, and narrows the depth-8 distribution.
MAX_PARSED_NODES = 160
MAX_DEPTH = 8


def formula_text(f) -> str:
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag == "c":
        return CONST_TEXT[f[1]]
    if len(f) == 2:
        return tag + formula_text(f[1])
    return f"({formula_text(f[1])} {tag} {formula_text(f[2])})"


def parsed_nodes(f) -> int:
    tag = f[0]
    if tag in ("v", "c"):
        return 1
    if tag == "[]":
        return 2 + 2 * parsed_nodes(f[1])
    if tag == "<->":
        return 3 + 2 * (parsed_nodes(f[1]) + parsed_nodes(f[2]))
    return 1 + sum(parsed_nodes(c) for c in f[1:])


def formula_vars(f) -> tuple[str, ...]:
    if f[0] == "v":
        return (f[1],)
    if f[0] == "c":
        return ()
    return tuple(sorted(set(itertools.chain.from_iterable(formula_vars(c) for c in f[1:]))))


def _grow(rng: random.Random, names: tuple[str, ...], depth: int):
    if depth == MAX_DEPTH or rng.random() < 0.15 + 0.1 * depth:
        if rng.random() < 0.85:
            return ("v", rng.choice(names))
        return ("c", rng.randrange(4))
    op = rng.choices(_OPS, _OP_WEIGHTS)[0]
    if op in ("~", "#", "[]"):
        return (op, _grow(rng, names, depth + 1))
    return (op, _grow(rng, names, depth + 1), _grow(rng, names, depth + 1))


def random_formula(rng: random.Random, nvars: int):
    """A formula over the first nvars of VARIABLES, depth at most 8."""
    names = VARIABLES[:nvars]
    while True:
        f = _grow(rng, names, 0)
        if f[0] not in ("v", "c") and parsed_nodes(f) <= MAX_PARSED_NODES:
            return f


def evaluate(f, env: dict[str, int]) -> int:
    tag = f[0]
    if tag == "v":
        return env[f[1]]
    if tag == "c":
        return f[1]
    a = evaluate(f[1], env)
    if tag == "~":
        return a ^ 3
    if tag == "#":
        return 2 | (a >> 1)
    if tag == "[]":
        return a & (2 | (a >> 1))
    b = evaluate(f[2], env)
    if tag == "&":
        return a & b
    if tag == "|":
        return a | b
    if tag == "->":
        return (a ^ 3) | b
    return ((a ^ 3) | b) & ((b ^ 3) | a)


def tabulate(f, names: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(
        evaluate(f, dict(zip(names, pt)))
        for pt in itertools.product(range(4), repeat=len(names))
    )


def selector_text(table: tuple[int, ...], names: tuple[str, ...]) -> str:
    """Formula text realizing a representable table: one selector
    `[](p1 <-> a1) & ... & d` per argument tuple whose value d is not 0."""
    parts = []
    for k, pt in enumerate(itertools.product(range(4), repeat=len(names))):
        if table[k]:
            clauses = " & ".join(
                f"[]({n} <-> {CONST_TEXT[a]})" for n, a in zip(names, pt)
            )
            parts.append(f"({clauses} & {CONST_TEXT[table[k]]})")
    return " | ".join(parts) or f"({' & '.join(names)} & 0)"


def digest(items) -> str:
    """sha256 of the texts of a sequence of inputs, one per line."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
