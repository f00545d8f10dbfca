"""Formulas over the four-element algebra: AST, parser, printer, evaluator;
and the composition terms over a system's members.

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
`A <-> B` becomes `((A -> B) & (B -> A))`.  `parse` reads this syntax in
one operator-precedence loop over explicit stacks, and the walkers run on
explicit-stack folds, so no function here is limited by a formula's depth.

Node layout: `Var` and `Const` are frozen dataclasses, while the compound
nodes `Unary(op, child)` and `Binary(op, left, right)` are immutable tuple
subclasses (`typing.NamedTuple`), so building one is a C-level
`tuple.__new__`.  The terms of the constant-derivation engine live here
too: a term application, `TermApply`, is the same kind of node, `(label,
*args)`, over `Var` leaves, and `term_subst`, `term_text` and `term_table`
are its substitution, printer and tabulator.  All three node types share
one DAG protocol (`_dag_node`) on one generic fold, `_dag_fold`, whose
operands are `node[1:]`.  Their contract is the named fields, `==`, `!=`,
`hash` and `repr`, which walk the DAG (a node compared with itself is
equal at once) and never compare with a plain tuple or with another node
type, immutability (`copy.copy` returns the node), and `copy.deepcopy` and
`pickle`, which go through a flat list of the distinct nodes, so both
kinds take any depth; ordering (`<`) raises TypeError.  The tuple
behaviours they inherit (`len`, iteration, indexing, unpacking, `+`) are
not part of the contract.  The evaluators, printer and substitution run
on `_fold` instead, which knows the two formula node types: it reads a
node's fields once on the visit that values it, and revisits only a node
whose compound operands were still waiting.

`truth_table` keeps one private slot: the var_order, root and memo of its
last successful call.  The next call over the same var_order takes the
table of each compound node found there instead of walking below it, so
a node that the previous call valued is not valued again; the four
expanded constants of one system, tabulated in turn, share most of their
nodes.  Holding the root keeps the last tabulated formula, and the tables
of its nodes, alive until the next successful call replaces the slot.
Atlas nodes of `synthesize` may sit in the slot; its checks go through
`_tabulate`, which never reads or replaces the slot.

Variables are identifiers (letter, then letters/digits/underscore); `rho`
and `sigma` are reserved for the constants, so `r` and `s` remain usable as
variables.  Equivalence of formulas is semantic: identical value under
every valuation over the four elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .algebra import Connective, Element, apply
from .tables import FuncTable, compose_lanes, packed_masks, points, projection_packed


class ParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """Raised when evaluation meets a variable the valuation does not bind."""


# module names, so that the folds' callbacks look up no enum attribute per node
_AND, _OR, _IMP, _NOT = Connective.AND, Connective.OR, Connective.IMP, Connective.NOT

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


_WAITING = object()  # the memo's answer for an operand not valued yet
_NOTHING: dict = {}  # known values of a fold that has none; never written


def _fold(
    f: Formula, leaf: Callable, unary: Callable, binary: Callable,
    known: Mapping = _NOTHING, memo: dict | None = None,
):
    """Fold f bottom-up: leaf(node) values a Var or Const, unary(op, x) a
    Unary and binary(op, x, y) a Binary from its connective and operand
    values.

    A compound node is valued on the visit that finds its operands valued.
    Otherwise it goes back on the explicit stack, under its waiting compound
    operands, and the walk goes on into the leftmost of them; so any depth
    is taken.  A leaf operand is valued where it is met, unless an operand
    to its left is still waiting, so leaves are valued left to right.  Each
    distinct node (by identity) is valued once, also when it sits on the
    stack twice.

    known maps id(node) to a value that an earlier fold with the same
    callbacks gave, and the caller keeps those nodes alive, so no id in it
    names another node.  A compound operand found there takes that value
    and is not descended into.  known is read only where the fold would
    otherwise descend, so a miss costs one lookup per compound node, and it
    is never written.  memo, if given, is the dict the fold fills: id(node)
    to value, for each node it valued or took from known; a memo that comes
    pre-filled on known's terms values its nodes, f too, without a walk.
    i, j and k hold the ids of a node and of its left (or only) and right
    operands, each taken once per visit."""
    memo = {} if memo is None else memo
    get = memo.get
    stack = [f]
    push = stack.append
    while stack:
        node = stack.pop()
        while (i := id(node)) not in memo:
            if type(node) is Binary:
                left, right = node.left, node.right
                x = get(j := id(left), _WAITING)
                if x is _WAITING:
                    if type(left) is Binary or type(left) is Unary:
                        if j not in known:
                            push(node)
                            k = id(right)
                            if (k not in memo and (type(right) is Binary or type(right) is Unary)
                                    and k not in known):
                                push(right)
                            node = left
                            continue
                        x = memo[j] = known[j]
                    else:
                        x = memo[j] = leaf(left)
                y = get(k := id(right), _WAITING)
                if y is _WAITING:
                    if type(right) is Binary or type(right) is Unary:
                        if k not in known:
                            push(node)
                            node = right
                            continue
                        y = memo[k] = known[k]
                    else:
                        y = memo[k] = leaf(right)
                memo[i] = binary(node.op, x, y)
            elif type(node) is Unary:
                child = node.child
                x = get(j := id(child), _WAITING)
                if x is _WAITING:
                    if type(child) is Binary or type(child) is Unary:
                        if j not in known:
                            push(node)
                            node = child
                            continue
                        x = memo[j] = known[j]
                    else:
                        x = memo[j] = leaf(child)
                memo[i] = unary(node.op, x)
            else:
                memo[i] = leaf(node)
            break
    return memo[id(f)]


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


def _dag_fold(root, leaf: Callable, apply: Callable, _known: dict | None = None):
    """Fold any DAG of tuple nodes bottom-up, a formula or a term: a node's
    operands are node[1:], and anything that is not a tuple is a leaf.
    leaf(x) values a leaf and apply(node, values) a node from its operands'
    values.  Each distinct node (by identity) is valued once, and the
    explicit stack takes any depth; on it, a plain tuple (node,) marks a
    node whose operands sit above it.  _known maps id(node) to (node,
    value) for the nodes valued by earlier folds with the same callbacks:
    the fold takes such a value without descending below its node, and
    records each node it values.  An entry holds its node, so its id is not
    reused while it lives, and the identity check covers a copied dict."""
    memo = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,) is popped after its operands
            (node,) = node
            value = memo[id(node)] = apply(node, [memo[id(x)] for x in node[1:]])
            if _known is not None:
                _known[id(node)] = (node, value)
        elif id(node) not in memo:
            if not isinstance(node, tuple):
                memo[id(node)] = leaf(node)
                continue
            if _known is not None:
                hit = _known.get(id(node))
                if hit is not None and hit[0] is node:
                    memo[id(node)] = hit[1]
                    continue
            stack.append((node,))
            stack += node[1:]
    return memo[id(root)]


def _dag_hash(node: tuple) -> int:
    return _dag_fold(node, hash, lambda n, values: hash((n[0], *values)))


def _dag_eq(f: tuple, g: object) -> bool:
    """Structural equality: roots that differ in head (node[0]) or length
    differ at once; otherwise each distinct shape of either side is numbered
    once, in one dict, so the sides are equal iff their roots' numbers are.
    A node never equals a plain tuple, which would compare it by elements."""
    if g is f:
        return True
    if type(g) is not type(f):
        return False if isinstance(g, tuple) else NotImplemented
    if g[0] != f[0] or len(g) != len(f):
        return False
    shapes: dict = {}

    def number(key) -> int:
        return shapes.setdefault(key, len(shapes))

    def shape(root: tuple) -> int:
        return _dag_fold(root, number, lambda n, values: number((n[0], *values)))

    return shape(f) == shape(g)


def _dag_ne(f: tuple, g: object) -> bool:
    # without it, != would be tuple's, which compares field by field
    equal = _dag_eq(f, g)
    return equal if equal is NotImplemented else not equal


def _unordered(f: tuple, g: object):
    raise TypeError(f"nodes are not ordered: {type(f).__name__} and {type(g).__name__}")


def _flatten(root: tuple) -> list:
    """The distinct nodes of root in post-order, root last: a leaf as
    itself, a node as its type, its node[0] and its operands' positions."""
    nodes: list = []

    def add(entry) -> int:
        nodes.append(entry)
        return len(nodes) - 1

    _dag_fold(root, add, lambda node, values: add((type(node), node[0], *values)))
    return nodes


def _rebuild(nodes: list) -> tuple:
    """New nodes from _flatten's list, one per entry, so sharing survives."""
    built: list = []
    for entry in nodes:
        if type(entry) is tuple:
            kind, head, *at = entry
            entry = tuple.__new__(kind, (head, *[built[k] for k in at]))
        built.append(entry)
    return built[-1]


def _dag_reduce(root: tuple):
    return _rebuild, (_flatten(root),)


def _dag_node(cls: type) -> type:
    """Give a tuple node class the DAG protocol that Unary, Binary and
    TermApply share (see the module docstring): a tower of shared operands
    costs its distinct nodes, not its tree, and any depth is taken."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _dag_eq, _dag_ne, _dag_hash
    cls.__copy__ = lambda node: node  # immutable, so its own shallow copy, as a tuple is
    # copy.deepcopy goes through __reduce__ too: it deep-copies the flat node list
    cls.__reduce__ = _dag_reduce
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    return cls


@_dag_node
class Unary(NamedTuple):
    op: Connective
    child: "Formula"

    __repr__ = _dag_repr


@_dag_node
class Binary(NamedTuple):
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
# Terms: weak-substitution trees over the members of a system
# ---------------------------------------------------------------------------


# a tuple node (label, *args) whose leaves are Vars; its repr too runs on
# _dag_fold
@_dag_node
class TermApply(tuple):
    __slots__ = ()

    def __new__(cls, label: str, args: tuple["Term", ...]) -> "TermApply":
        return tuple.__new__(cls, (label, *args))

    @property
    def label(self) -> str:
        return self[0]

    @property
    def args(self) -> tuple["Term", ...]:
        return self[1:]

    def __repr__(self) -> str:
        """Each distinct application once, as `%k = label[args]`, innermost
        first: F1[t, t] over one shared t = F2[p] reads
        `TermApply(%0 = F2[p], %1 = F1[%0,%0])`."""
        lines: list[str] = []

        def name(node: TermApply, args: list[str]) -> str:
            lines.append(f"%{len(lines)} = {node.label}[{','.join(args)}]")
            return f"%{len(lines) - 1}"

        _dag_fold(self, lambda v: v.name, name)
        return f"TermApply({', '.join(lines)})"


Term = Union[Var, TermApply]


def term_subst(term: Term, mapping: Mapping[str, Term]) -> Term:
    return _dag_fold(
        term,
        lambda v: mapping.get(v.name, v),
        lambda node, args: TermApply(node.label, args),
    )


def term_text(term: Term) -> str:
    return _dag_fold(
        term,
        lambda v: v.name,
        lambda node, args: f"{node.label}[{','.join(args)}]",
    )


def term_table(
    term: Term, var_order: Sequence[str], tables: Mapping[str, FuncTable],
    known: dict | None = None,
) -> FuncTable:
    """Tabulate term over all valuations of var_order, first variable most
    significant, composing the members' tables.

    var_order must cover every variable of term, contain no duplicates and
    hold at most MAX_TABLE_VARS variables, as for truth_table, and tables
    must name every member term applies.  var_order is checked, and its
    projections are built, once per order, by the walker truth_table uses.
    known, if given, holds the packed tables of term nodes already
    tabulated over the same var_order and tables, and takes the ones this
    call tabulates (see _dag_fold)."""
    var_order = tuple(var_order)
    env = _walker(var_order)[0]
    size = 4 ** len(var_order)

    def compose(node: TermApply, args: list[int]) -> int:
        table = tables[node.label]
        if len(args) != table.arity:
            raise ValueError(f"{node.label} expects {table.arity} argument(s)")
        return int.from_bytes(compose_lanes(table.packed, args, size), "little")

    try:
        packed = _dag_fold(term, lambda v: env[v.name], compose, known)
    except KeyError:  # a variable outside var_order or an unknown member
        names: set[str] = set()
        labels: set[str] = set()
        _dag_fold(term, lambda v: names.add(v.name), lambda node, _: labels.add(node.label))
        missing, unknown = sorted(names - set(var_order)), sorted(labels - set(tables))
        problems = [f"var_order misses term variable(s): {missing}"] if missing else []
        problems += [f"no table for member(s): {unknown}"] if unknown else []
        raise ValueError("; ".join(problems)) from None
    return FuncTable(len(var_order), packed.to_bytes(size, "little"))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# a token, or in the second group the stray character where none starts
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|\[\]|[~#&|()]|[A-Za-z][A-Za-z0-9_]*|[01])|(\S))")

_CONST_TEXT = {
    Element.ZERO: "0",
    Element.ONE: "1",
    Element.RHO: "rho",
    Element.SIGMA: "sigma",
}
_CONST_WORDS = {text: value for value, text in _CONST_TEXT.items()}

# (binding power, node builder) of each connective.  The prefix ones bind
# tightest; an open parenthesis binds least, so that it stays on the stack
# as a marker until its ")" arrives.
_PREFIX_POWER = 5
_PREFIX = {
    "~": (_PREFIX_POWER, partial(Unary, _NOT)),
    "#": (_PREFIX_POWER, partial(Unary, Connective.DELTA)),
    "[]": (_PREFIX_POWER, box_formula),
}
_INFIX = {
    "&": (4, partial(Binary, _AND)),
    "|": (3, partial(Binary, _OR)),
    "->": (2, partial(Binary, _IMP)),
    "<->": (1, iff_formula),
}
_OPEN = (0, None)


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with a position.

    One operator-precedence loop: `out` holds the operands built so far and
    `ops` the pending connectives and open parentheses, so nesting costs
    stack entries, not Python frames, and any depth is taken."""
    out: list[Formula] = []
    ops: list[tuple] = []

    def reduce(power: int) -> None:
        # build each pending connective on top of ops that binds at least power
        while ops and ops[-1][0] >= power:
            op_power, build = ops.pop()
            if op_power == _PREFIX_POWER:
                out[-1] = build(out[-1])
            else:
                right = out.pop()
                out[-1] = build(out[-1], right)

    operand = True  # the next token must start an operand
    for m in _TOKEN_RE.finditer(text):
        tok, pos = m[1], m.start(m.lastindex)
        if tok is None:
            raise ParseError(f"unexpected character {m[2]!r}", pos)
        if operand:
            if tok in _PREFIX:
                ops.append(_PREFIX[tok])
            elif tok == "(":
                ops.append(_OPEN)
            elif tok in _INFIX or tok == ")":
                raise ParseError(f"unexpected token {tok!r}", pos)
            else:
                out.append(Const(_CONST_WORDS[tok]) if tok in _CONST_WORDS else Var(tok))
                operand = False
        elif tok in _INFIX:
            power = _INFIX[tok][0]
            reduce(power + (tok == "->"))  # an equal power stays: `->` groups right
            ops.append(_INFIX[tok])
            operand = True
        elif tok == ")":
            reduce(1)
            if not ops:
                raise ParseError("trailing input ')'", pos)
            ops.pop()
        else:
            raise ParseError("expected ')'" if _OPEN in ops else f"trailing input {tok!r}", pos)
    if operand:
        raise ParseError("unexpected end of input", len(text))
    reduce(1)
    if ops:
        raise ParseError("expected ')'", len(text))
    return out[0]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {Connective.IMP: 1, Connective.OR: 2, Connective.AND: 3}
_TIGHT = 4  # atoms and unary nodes, which never take parentheses
_JOINED = 256


def format_formula(f: Formula) -> str:
    """Canonical text; re-parsing yields a structurally identical AST."""

    # a node's value is (precedence, text).  The fold keeps every value, so
    # past _JOINED characters a text stays nested tuples, joined at the end
    def text(*pieces):
        try:
            joined = "".join(pieces)
        except TypeError:  # a piece is itself nested
            return pieces
        return joined if len(joined) <= _JOINED else pieces

    def operand(value: tuple, ctx: int):
        return value[1] if value[0] >= ctx else text("(", value[1], ")")

    def binary(op: Connective, x: tuple, y: tuple) -> tuple:
        prec = _PREC[op]
        left, right = (prec + 1, prec) if op is _IMP else (prec, prec + 1)
        return prec, text(operand(x, left), f" {op.value} ", operand(y, right))

    _, pieces = _fold(
        f,
        lambda node: (_TIGHT, node.name if type(node) is Var else _CONST_TEXT[node.value]),
        lambda op, x: (_TIGHT, text(op.value, operand(x, _TIGHT))),
        binary,
    )
    out, stack = [], [pieces]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack += reversed(piece)
    return "".join(out)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Valuation = Mapping[str, Element]


def evaluate(f: Formula, valuation: Valuation) -> Element:
    """Structural fold through the algebra's operations; a shared operand
    (as `[]` and `<->` make) is evaluated once."""
    try:
        return _fold(
            f,
            lambda node: node.value if type(node) is Const else valuation[node.name],
            lambda op, x: apply(op, (x,)),
            lambda op, x, y: apply(op, (x, y)),
        )
    except KeyError as exc:  # a variable the valuation does not bind
        raise EvaluationError(f"unbound variable {exc.args[0]!r}") from None


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


# (var_order, root, memo) of the last successful truth_table call.  Holding
# the root keeps alive every node the memo names, so none of its ids is
# reused while it is here; the tuple is replaced whole and its memo is never
# written again, so a concurrent call reads a complete memo.
_last: tuple = ((), None, _NOTHING)


def truth_table(f: Formula, var_order: Sequence[str]) -> FuncTable:
    """Tabulate f over all valuations of var_order, first variable most
    significant.

    var_order must cover every free variable of f, contain no duplicates
    and hold at most MAX_TABLE_VARS variables.  Those checks, the packed
    projections and the leaf callback are set up once per var_order, and
    the connectives once per arity (see _tabulate); a refused var_order is
    refused on every call.

    A call over the same var_order as the last successful call takes the
    table of each compound node that call valued instead of walking below
    it.  So the last tabulated formula and its nodes' tables stay alive
    until the next successful call replaces them.
    """
    global _last
    var_order = tuple(var_order)
    last = _last  # held for the call, so its root outlives a replacement
    memo: dict = {}
    known = last[2] if last[0] == var_order else _NOTHING
    packed = _tabulate(f, var_order, known, memo).to_bytes(4 ** len(var_order), "little")
    _last = (var_order, f, memo)
    return FuncTable(len(var_order), packed)


# The truth table of a formula is computed in one fold over packed tables
# (see tables): entry k occupies the low two bits of byte k, so the
# boolean connectives are single bitwise operations on the whole table and
# delta is a shift plus two masks, as packed_connectives gives them.
@lru_cache(maxsize=MAX_TABLE_VARS + 1)
def packed_connectives(n: int) -> tuple[Callable, Callable]:
    ones, lo, hi = packed_masks(n)
    return (lambda op, x: x ^ ones if op is _NOT else hi | ((x >> 1) & lo),
            lambda op, x, y: x & y if op is _AND else x | y if op is _OR else (x ^ ones) | y)


# Variable orders whose walker _walker keeps; a walker holds no table of
# its own, only references to the shared projections.
_WALKERS = 256


@lru_cache(maxsize=_WALKERS)
def _walker(var_order: tuple[str, ...]) -> tuple[Mapping[str, int], Callable]:
    """The set-up of a walk over var_order, made once per order while
    cached: var_order checked for a repeated name and against
    MAX_TABLE_VARS, the packed projection of each name (read-only, as every
    caller shares it), and the leaf callback that reads them.  A refused
    order raises on every call, as nothing is cached for it."""
    if len(set(var_order)) != len(var_order):
        raise ValueError("duplicate variable in var_order")
    n = len(var_order)
    if n > MAX_TABLE_VARS:
        raise ValueError(
            f"a truth table over {n} variables exceeds the cap of {MAX_TABLE_VARS}"
        )
    env = {name: projection_packed(n, i) for i, name in enumerate(var_order)}
    lo = packed_masks(n)[1]
    return MappingProxyType(env), (
        lambda node: env[node.name] if type(node) is Var else lo * node.value)


def _tabulate(
    f: Formula, var_order: tuple[str, ...], known: Mapping = _NOTHING, memo: dict | None = None
) -> int:
    """truth_table's table, packed, without reading or replacing its last
    call's memo; known and memo go to _fold.  The checks of var_order, its
    projections and the leaf callback are set up once per order (_walker)
    and the connectives once per arity, so a call pays for its fold."""
    leaf = _walker(var_order)[1]
    try:
        return _fold(f, leaf, *packed_connectives(len(var_order)), known, memo)
    except KeyError:  # a variable outside var_order; name every one of them
        missing = sorted(free_vars(f) - set(var_order))
        raise ValueError(f"var_order misses free variable(s): {missing}") from None


def equivalent(f: Formula, g: Formula) -> bool:
    """True iff f and g agree under every valuation of their joint variables."""
    return counterexample(f, g) is None


def counterexample(f: Formula, g: Formula) -> dict[str, Element] | None:
    """A valuation on which f and g differ, or None if they are equivalent.

    The first differing valuation in enumeration order is returned.
    """
    vs = tuple(sorted(free_vars(f) | free_vars(g)))
    tf = truth_table(f, vs)
    tg = truth_table(g, vs)
    for pt, a, b in zip(points(len(vs)), tf.packed, tg.packed):
        if a != b:
            return dict(zip(vs, pt))
    return None


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute_all(a: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace variables of a per mapping; shared nodes stay shared."""
    return _fold(
        a, lambda node: mapping.get(node.name, node) if type(node) is Var else node, Unary, Binary
    )


def tree_size(f: Formula) -> int:
    """The number of nodes of f as a tree, counted on its DAG."""
    return _fold(f, lambda node: 1, lambda op, x: x + 1, lambda op, x, y: x + y + 1)
