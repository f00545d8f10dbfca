"""Formulas over the four-element algebra: AST, parser, printer, evaluator.

Concrete syntax (EBNF):

    formula := equiv
    equiv   := impl ("<->" impl)*
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("~" | "#" | "[]") unary | atom
    atom    := "0" | "1" | "rho" | "sigma" | ident | "(" formula ")"

Precedence is {~, #, []} > & > | > -> > <->; `->` associates to the right,
`&`, `|` and `<->` to the left.  The derived connectives are expanded at
parse time and never appear as AST nodes: `[]A` becomes `(A & #A)` and
`A <-> B` becomes `((A -> B) & (B -> A))`.

Variables are identifiers (letter, then letters/digits/underscore); `rho`
and `sigma` are reserved for the constants, so `r` and `s` remain usable as
variables.  Equivalence of formulas is semantic: identical value under
every valuation over the four elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .algebra import Connective, Element, apply
from .tables import FuncTable, packed_masks, points, projection_packed, unpack


class ParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """Raised when evaluation meets a variable the valuation does not bind."""


_RESERVED = {"rho", "sigma"}
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        if self.name in _RESERVED:
            raise ValueError(f"{self.name!r} is reserved for a constant")
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"not a valid variable name: {self.name!r}")


@dataclass(frozen=True)
class Const:
    value: Element


def _dag_repr(f: Formula) -> str:
    """Each distinct compound node of f once, as `%k = <op> <operands>`
    over leaves and names, f first: `p & #p` reads `Binary(%0 = p & %1,
    %1 = #p)`.  The text is linear in the distinct nodes, not the tree."""
    names, order, out = {id(f): "%0"}, [f], []
    for node in order:  # order grows as nodes are named, breadth first
        ops = []
        for sub in (node.child,) if isinstance(node, Unary) else (node.left, node.right):
            if isinstance(sub, (Unary, Binary)) and id(sub) not in names:
                names[id(sub)] = f"%{len(order)}"
                order.append(sub)
            ops.append(names.get(id(sub)) or format_formula(sub))
        text = node.op.value + ops[0] if len(ops) == 1 else f" {node.op.value} ".join(ops)
        out.append(f"{names[id(node)]} = {text}")
    return f"{type(f).__name__}({', '.join(out)})"


@dataclass(frozen=True, repr=False)
class Unary:
    op: Connective
    child: "Formula"

    __repr__ = _dag_repr


@dataclass(frozen=True, repr=False)
class Binary:
    op: Connective
    left: "Formula"
    right: "Formula"

    __repr__ = _dag_repr


Formula = Union[Var, Const, Unary, Binary]


def box_formula(f: Formula) -> Formula:
    """The parse-time expansion of []f, namely (f & #f)."""
    return Binary(Connective.AND, f, Unary(Connective.DELTA, f))


def iff_formula(a: Formula, b: Formula) -> Formula:
    """The parse-time expansion of a <-> b, namely ((a -> b) & (b -> a))."""
    return Binary(
        Connective.AND, Binary(Connective.IMP, a, b), Binary(Connective.IMP, b, a)
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(<->|->|\[\]|[~#&|()])|([A-Za-z][A-Za-z0-9_]*)|([01])")
_WS_RE = re.compile(r"\s*")

_CONST_TEXT = {
    Element.ZERO: "0",
    Element.ONE: "1",
    Element.RHO: "rho",
    Element.SIGMA: "sigma",
}
_CONST_WORDS = {text: value for value, text in _CONST_TEXT.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok: str | None = None
        self.tok_pos = 0
        self._advance()

    def _advance(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()
        self.tok_pos = self.pos
        if self.pos >= len(self.text):
            self.tok = None
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        self.tok = m.group(0)
        self.pos = m.end()

    def _expect(self, tok: str) -> None:
        if self.tok != tok:
            raise ParseError(f"expected {tok!r}", self.tok_pos)
        self._advance()

    def formula(self) -> Formula:
        f = self.impl()
        while self.tok == "<->":
            self._advance()
            f = iff_formula(f, self.impl())
        return f

    def impl(self) -> Formula:
        f = self.disj()
        if self.tok == "->":
            self._advance()
            return Binary(Connective.IMP, f, self.impl())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.tok == "|":
            self._advance()
            f = Binary(Connective.OR, f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.tok == "&":
            self._advance()
            f = Binary(Connective.AND, f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.tok == "~":
            self._advance()
            return Unary(Connective.NOT, self.unary())
        if self.tok == "#":
            self._advance()
            return Unary(Connective.DELTA, self.unary())
        if self.tok == "[]":
            self._advance()
            return box_formula(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.tok
        if tok is None:
            raise ParseError("unexpected end of input", self.tok_pos)
        if tok == "(":
            self._advance()
            f = self.formula()
            self._expect(")")
            return f
        if tok in _CONST_WORDS:
            self._advance()
            return Const(_CONST_WORDS[tok])
        if _IDENT_RE.match(tok):
            self._advance()
            return Var(tok)
        raise ParseError(f"unexpected token {tok!r}", self.tok_pos)


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with a position."""
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.tok_pos) from None
    if p.tok is not None:
        raise ParseError(f"trailing input {p.tok!r}", p.tok_pos)
    return f


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {Connective.IMP: 1, Connective.OR: 2, Connective.AND: 3}


def format_formula(f: Formula) -> str:
    """Canonical text; re-parsing yields a structurally identical AST."""
    return _fmt(f, 0)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return _CONST_TEXT[f.value]
    if isinstance(f, Unary):
        return f.op.value + _fmt(f.child, 4)
    prec = _PREC[f.op]
    if f.op is Connective.IMP:
        s = f"{_fmt(f.left, prec + 1)} -> {_fmt(f.right, prec)}"
    else:
        s = f"{_fmt(f.left, prec)} {f.op.value} {_fmt(f.right, prec + 1)}"
    return f"({s})" if ctx > prec else s


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Valuation = Mapping[str, Element]


def evaluate(f: Formula, valuation: Valuation) -> Element:
    """Structural fold through the algebra's operations; a shared operand
    (as `[]` and `<->` make) is evaluated once."""
    return _evaluate(f, valuation, {})


def _evaluate(f: Formula, valuation: Valuation, memo: dict[int, Element]) -> Element:
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {f.name!r}") from None
    if isinstance(f, Const):
        return f.value
    cached = memo.get(id(f))
    if cached is not None:
        return cached
    if isinstance(f, Unary):
        value = apply(f.op, (_evaluate(f.child, valuation, memo),))
    else:
        left = _evaluate(f.left, valuation, memo)
        value = apply(f.op, (left, _evaluate(f.right, valuation, memo)))
    memo[id(f)] = value
    return value


def free_vars(f: Formula) -> frozenset[str]:
    nodes: dict[int, Formula] = {}  # the distinct nodes of f, by identity
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if isinstance(node, Unary):
                stack.append(node.child)
            elif isinstance(node, Binary):
                stack += (node.left, node.right)
    return frozenset(node.name for node in nodes.values() if isinstance(node, Var))


# A table over n variables has 4**n entries: at 8 variables a conjunction
# takes about a second to tabulate, and each further variable costs ten times
# as much, so truth_table refuses more.
MAX_TABLE_VARS = 8


# The truth table of a formula is computed in one AST walk over packed
# tables (see tables.pack): entry k occupies the low two bits of byte k, so
# the boolean connectives are single bitwise operations on the whole table
# and delta is a shift plus two masks.
def _packed_walk(f: Formula, env: Mapping[str, int], n: int, memo: dict[int, int]) -> int:
    # substitution shares subtree objects, so memoize per walk by identity;
    # trees produced by composing formulas would otherwise cost exponential
    key = id(f)
    cached = memo.get(key)
    if cached is not None:
        return cached
    ones, lo, hi = packed_masks(n)
    if isinstance(f, Var):
        value = env[f.name]
    elif isinstance(f, Const):
        value = lo * int(f.value)
    elif isinstance(f, Unary):
        x = _packed_walk(f.child, env, n, memo)
        value = x ^ ones if f.op is Connective.NOT else hi | ((x >> 1) & lo)
    else:
        left = _packed_walk(f.left, env, n, memo)
        right = _packed_walk(f.right, env, n, memo)
        if f.op is Connective.AND:
            value = left & right
        elif f.op is Connective.OR:
            value = left | right
        else:
            value = (left ^ ones) | right
    memo[key] = value
    return value


def truth_table(f: Formula, var_order: Sequence[str]) -> FuncTable:
    """Tabulate f over all valuations of var_order, first variable most
    significant.

    var_order must cover every free variable of f, contain no duplicates
    and hold at most MAX_TABLE_VARS variables.
    """
    var_order = tuple(var_order)
    if len(set(var_order)) != len(var_order):
        raise ValueError("duplicate variable in var_order")
    n = len(var_order)
    if n > MAX_TABLE_VARS:
        raise ValueError(
            f"a truth table over {n} variables exceeds the cap of {MAX_TABLE_VARS}"
        )
    env = {name: projection_packed(n, i) for i, name in enumerate(var_order)}
    try:
        return unpack(_packed_walk(f, env, n, {}), n)
    except KeyError:  # a variable outside var_order; name every one of them
        missing = sorted(free_vars(f) - set(var_order))
        raise ValueError(f"var_order misses free variable(s): {missing}") from None


def _joint_vars(f: Formula, g: Formula) -> tuple[str, ...]:
    return tuple(sorted(free_vars(f) | free_vars(g)))


def equivalent(f: Formula, g: Formula) -> bool:
    """True iff f and g agree under every valuation of their joint variables."""
    vs = _joint_vars(f, g)
    return truth_table(f, vs) == truth_table(g, vs)


def counterexample(f: Formula, g: Formula) -> dict[str, Element] | None:
    """A valuation on which f and g differ, or None if they are equivalent.

    The first differing valuation in enumeration order is returned.
    """
    vs = _joint_vars(f, g)
    tf = truth_table(f, vs)
    tg = truth_table(g, vs)
    for pt, a, b in zip(points(len(vs)), tf.entries, tg.entries):
        if a != b:
            return dict(zip(vs, pt))
    return None


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute(a: Formula, p: str, b: Formula) -> Formula:
    """Replace every occurrence of the variable p in a by b."""
    return substitute_all(a, {p: b})


def substitute_all(a: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace variables of a per mapping; shared nodes stay shared."""
    return _subst(a, mapping, {})


def _subst(a: Formula, mapping: Mapping[str, Formula], memo: dict) -> Formula:
    if isinstance(a, Var):
        return mapping.get(a.name, a)
    if isinstance(a, Const):
        return a
    cached = memo.get(id(a))
    if cached is not None:
        return cached
    if isinstance(a, Unary):
        result = Unary(a.op, _subst(a.child, mapping, memo))
    else:
        result = Binary(a.op, _subst(a.left, mapping, memo), _subst(a.right, mapping, memo))
    memo[id(a)] = result
    return result
