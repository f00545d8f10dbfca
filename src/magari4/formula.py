"""Formulas over the four-element algebra, and the composition terms over
the members of a system: nodes, parser, printer, evaluator, tabulators and
substitution.

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
`A <-> B` becomes `((A -> B) & (B -> A))`.  Variables are identifiers
(letter, then letters/digits/underscore); `rho` and `sigma` are reserved
for the constants, so `r` and `s` remain usable as variables.  Equivalence
is semantic: the same value under every valuation over the four elements.

Nodes.  The leaves `Var` and `Const` are frozen dataclasses, and one rule,
`_leaf_text`, prints them everywhere.  The compound nodes are immutable
tuple subclasses `(head, *operands)`: `Unary(op, child)`, `Binary(op,
left, right)` and the term application `TermApply(label, *args)`.  They
share one DAG protocol (`_dag_node`): `==`, `!=`, `hash`, `repr`,
`copy.deepcopy` and `pickle` walk the distinct nodes, so a node costs its
DAG, not its tree, and any depth is taken.  A node compared with itself is
equal at once, and never equals a plain tuple or another node type;
`copy.copy` returns the node and ordering (`<`) raises TypeError.  The
tuple behaviours they inherit (`len`, iteration, indexing, unpacking, `+`)
are not part of the contract.

The fold.  One explicit-stack fold, `_fold`, values each distinct node of
a formula, a term or a mix of the two once, and every walk that values
nodes runs on it: `truth_table`, `evaluate`, `format_formula`,
`substitute_all`, `tree_size`, the DAG protocol, `term_table` and the
engine's `Derivation.expand`.  `evaluate` and `truth_table` refuse a term
application wherever it sits.  `free_vars` and `repr` walk any node on
their own.  A walk over packed tables takes its set-up, the checks of
var_order and the leaf, unary and binary callbacks, from `_walker`, once
per var_order while cached.  The one memo form is id(node) to value; a
memo kept past its fold comes with roots that hold every node it names,
as the slot below and a system's kept expansions and tables do.

The slot.  `truth_table` keeps the var_order, root and memo of its last
successful call.  The next call over the same var_order takes the table of
each compound node found there instead of walking below it, so the four
expanded constants of one system, tabulated in turn, value their shared
nodes once.  The slot keeps the last tabulated formula and its nodes'
tables alive until the next successful call replaces it.  `_tabulate`,
under `synthesize`'s checks, never reads or replaces the slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
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


_CONST_TEXT = {Element.ZERO: "0", Element.ONE: "1", Element.RHO: "rho", Element.SIGMA: "sigma"}


def _leaf_text(leaf: Var | Const) -> str:
    return leaf.name if type(leaf) is Var else _CONST_TEXT[leaf.value]


_WAITING = object()  # the memo's answer for an operand not valued yet
_NOTHING: dict = {}  # known values of a fold that has none; never written


def _no_term(label: str, *args):
    raise TypeError(f"{label}[...] is a term application: tabulate it with term_table")


def _fold(
    f: Formula | Term, leaf: Callable, unary: Callable, binary: Callable,
    apply: Callable = _no_term, known: Mapping = _NOTHING, memo: dict | None = None,
):
    """Fold any node bottom-up, a formula, a term or a mix: leaf(node)
    values a Var or Const, and a compound node is valued from its head and
    its operand values, unary(op, x), binary(op, x, y) or apply(label,
    *args).  The default apply raises TypeError, so evaluate and
    truth_table refuse a term application wherever it sits.

    A compound node is valued on the visit that finds its operands valued.
    Otherwise it goes back on the explicit stack (a Binary under its waiting
    right operand too), and the walk goes on into its leftmost waiting
    operand; so any depth is taken.  A leaf operand is valued where it is
    met, unless an operand to its left is still waiting, so leaves are
    valued left to right.  Each distinct node (by identity) is valued once.

    memo, if given, is the dict the fold reads and fills, id(node) to value:
    a node found there, f too, is not walked.  known holds the values of an
    earlier fold with the same callbacks and is never written; it is read
    only where the fold would otherwise descend.  A dict that outlives the
    fold must hold, or come with a root that holds, every node it names, so
    that no id in it names another node.  i, j and k hold the ids of a node
    and of its left (or only) and right operands."""
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
                    if type(left) is Var or type(left) is Const:
                        x = memo[j] = leaf(left)
                    elif j in known:
                        x = memo[j] = known[j]
                    else:
                        push(node)
                        k = id(right)
                        if (k not in memo and type(right) is not Var and type(right) is not Const
                                and k not in known):
                            push(right)
                        node = left
                        continue
                y = get(k := id(right), _WAITING)
                if y is _WAITING:
                    if type(right) is Var or type(right) is Const:
                        y = memo[k] = leaf(right)
                    elif k in known:
                        y = memo[k] = known[k]
                    else:
                        push(node)
                        node = right
                        continue
                memo[i] = binary(node.op, x, y)
            elif type(node) is Unary:
                child = node.child
                x = get(j := id(child), _WAITING)
                if x is _WAITING:
                    if type(child) is Var or type(child) is Const:
                        x = memo[j] = leaf(child)
                    elif j in known:
                        x = memo[j] = known[j]
                    else:
                        push(node)
                        node = child
                        continue
                memo[i] = unary(node.op, x)
            elif type(node) is TermApply:
                for arg in node[1:]:
                    if (j := id(arg)) not in memo:
                        if type(arg) is Var or type(arg) is Const:
                            memo[j] = leaf(arg)
                        elif j in known:
                            memo[j] = known[j]
                        else:
                            break
                else:
                    memo[i] = apply(node[0], *[memo[id(arg)] for arg in node[1:]])
                    break
                push(node)
                node = arg
                continue
            else:
                memo[i] = leaf(node)
            break
    return memo[id(f)]


def _dag_repr(f: tuple) -> str:
    """Each distinct node of f once, as `%k = <shown>` over leaves and
    names, breadth first from f as %0: `p & #p` reads `Binary(%0 = p & %1,
    %1 = #p)`.  The text is linear in the distinct nodes, not the tree."""
    names, order, out = {id(f): "%0"}, [f], []
    for node in order:  # order grows as nodes are named
        ops = []
        for sub in node[1:]:
            if isinstance(sub, tuple) and id(sub) not in names:
                names[id(sub)] = f"%{len(order)}"
                order.append(sub)
            ops.append(names.get(id(sub)) or _leaf_text(sub))
        out.append(f"{names[id(node)]} = {node._show(node[0], ops)}")
    return f"{type(f).__name__}({', '.join(out)})"


def _dag_hash(node: tuple) -> int:
    def hashed(*key) -> int:
        return hash(key)

    return _fold(node, hash, hashed, hashed, hashed)


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

    def number(*key) -> int:
        return shapes.setdefault(key, len(shapes))

    return _fold(f, number, number, number, number) == _fold(g, number, number, number, number)


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

    _fold(root, add, lambda op, x: add((Unary, op, x)), lambda op, x, y: add((Binary, op, x, y)),
          lambda *entry: add((TermApply, *entry)))
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
    costs its distinct nodes, not its tree, and any depth is taken.  The
    class's _show(head, operand texts) gives a node's line of the repr."""
    cls.__eq__, cls.__ne__, cls.__hash__, cls.__repr__ = _dag_eq, _dag_ne, _dag_hash, _dag_repr
    cls.__copy__ = lambda node: node  # immutable, so its own shallow copy, as a tuple is
    # copy.deepcopy goes through __reduce__ too: it deep-copies the flat node list
    cls.__reduce__ = _dag_reduce
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = _unordered
    return cls


@_dag_node
class Unary(NamedTuple):
    op: Connective
    child: "Formula"

    _show = staticmethod(lambda op, operands: op.value + operands[0])


@_dag_node
class Binary(NamedTuple):
    op: Connective
    left: "Formula"
    right: "Formula"

    _show = staticmethod(lambda op, operands: f" {op.value} ".join(operands))


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


# a tuple node (label, *args) over Var and Const leaves
@_dag_node
class TermApply(tuple):
    __slots__ = ()
    _show = staticmethod(lambda label, args: f"{label}[{','.join(args)}]")

    def __new__(cls, label: str, args: tuple["Term", ...]) -> "TermApply":
        return tuple.__new__(cls, (label, *args))

    @property
    def label(self) -> str:
        return self[0]

    @property
    def args(self) -> tuple["Term", ...]:
        return self[1:]


Term = Union[Var, Const, TermApply]


def term_table(
    term: Term, var_order: Sequence[str], tables: Mapping[str, FuncTable],
    memo: dict | None = None,
) -> FuncTable:
    """Tabulate term over all valuations of var_order, first variable most
    significant, composing the members' tables.  The term may hold formula
    nodes, which tabulate as in truth_table.

    var_order must cover every variable of term, contain no duplicates and
    hold at most MAX_TABLE_VARS variables, as for truth_table, and tables
    must name every member term applies.  var_order is checked, and its
    projections are built, once per order, by the walker truth_table uses.
    memo, if given, holds the packed tables of nodes already tabulated over
    the same var_order and tables, and takes the ones this call tabulates;
    the caller keeps their nodes alive (see _fold)."""
    var_order = tuple(var_order)
    size = 4 ** len(var_order)

    def compose(label: str, *args: int) -> int:
        table = tables[label]
        if len(args) != table.arity:
            raise ValueError(f"{label} expects {table.arity} argument(s)")
        return int.from_bytes(compose_lanes(table.packed, args, size), "little")

    try:
        packed = _fold(term, *_walker(var_order), compose, memo=memo)
    except KeyError:  # a variable outside var_order or an unknown member
        nodes = _flatten(term)  # a leaf as itself, an application as (TermApply, label, ...)
        missing = sorted({x.name for x in nodes if type(x) is Var} - set(var_order))
        labels = {x[1] for x in nodes if type(x) is tuple and x[0] is TermApply}
        unknown = sorted(labels - set(tables))
        problems = [f"var_order misses term variable(s): {missing}"] if missing else []
        problems += [f"no table for member(s): {unknown}"] if unknown else []
        raise ValueError("; ".join(problems)) from None
    return FuncTable(len(var_order), packed.to_bytes(size, "little"))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# a token, or in the second group the stray character where none starts
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|\[\]|[~#&|()]|[A-Za-z][A-Za-z0-9_]*|[01])|(\S))")

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


def format_formula(f: Formula | Term) -> str:
    """Canonical text; re-parsing a formula yields a structurally identical
    AST.  A term application prints as the atom `label[a,b]`, which parse
    does not read."""

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

    def apply(label: str, *args: tuple) -> tuple:
        texts = [","] * (2 * len(args) - 1)  # the argument texts between commas
        texts[::2] = [value[1] for value in args]
        return _TIGHT, text(label, "[", *texts, "]")

    _, pieces = _fold(
        f,
        lambda node: (_TIGHT, _leaf_text(node)),
        lambda op, x: (_TIGHT, text(op.value, operand(x, _TIGHT))),
        binary,
        apply,
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
    (as `[]` and `<->` make) is evaluated once.  A term application
    anywhere in f raises TypeError."""
    try:
        return _fold(
            f,
            lambda node: node.value if type(node) is Const else valuation[node.name],
            lambda op, x: apply(op, (x,)),
            lambda op, x, y: apply(op, (x, y)),
        )
    except KeyError as exc:  # a variable the valuation does not bind
        raise EvaluationError(f"unbound variable {exc.args[0]!r}") from None


def free_vars(f: Formula | Term) -> frozenset[str]:
    """The names of the Var leaves of any node, a formula or a term."""
    nodes: dict[int, Formula | Term] = {}  # the distinct nodes of f, by identity
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if isinstance(node, tuple):
                stack += node[1:]
    return frozenset(node.name for node in nodes.values() if type(node) is Var)


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
    and hold at most MAX_TABLE_VARS variables.  Those checks and the walk's
    callbacks are set up once per var_order (see _walker); a refused
    var_order is refused on every call.  A term application anywhere in f
    raises TypeError: term_table, which has the member tables, takes it.

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


# Variable orders whose walker _walker keeps; a walker holds no table of
# its own, only references to the shared projections.
_WALKERS = 256


@lru_cache(maxsize=_WALKERS)
def _walker(var_order: tuple[str, ...]) -> tuple[Callable, Callable, Callable]:
    """The set-up of a walk over var_order, made once per order while
    cached: var_order checked for a repeated name and against
    MAX_TABLE_VARS, then the (leaf, unary, binary) callbacks of a fold over
    packed tables (see tables).  Entry k occupies the low two bits of byte
    k, so the boolean connectives are single bitwise operations on the
    whole table and delta is a shift plus two masks; a leaf reads its
    variable's packed projection, or spreads its constant.  A refused
    order raises on every call, as nothing is cached for it."""
    if len(set(var_order)) != len(var_order):
        raise ValueError("duplicate variable in var_order")
    n = len(var_order)
    if n > MAX_TABLE_VARS:
        raise ValueError(
            f"a truth table over {n} variables exceeds the cap of {MAX_TABLE_VARS}"
        )
    env = {name: projection_packed(n, i) for i, name in enumerate(var_order)}
    ones, lo, hi = packed_masks(n)
    return (lambda node: env[node.name] if type(node) is Var else lo * node.value,
            lambda op, x: x ^ ones if op is _NOT else hi | ((x >> 1) & lo),
            lambda op, x, y: x & y if op is _AND else x | y if op is _OR else (x ^ ones) | y)


def _tabulate(
    f: Formula, var_order: tuple[str, ...], known: Mapping = _NOTHING, memo: dict | None = None
) -> int:
    """truth_table's table, packed, without reading or replacing its last
    call's memo; known and memo go to _fold.  The walk's set-up is made
    once per var_order (_walker), so a call pays for its fold."""
    try:
        return _fold(f, *_walker(var_order), known=known, memo=memo)
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


def substitute_all(a: Formula | Term, mapping: Mapping[str, Formula | Term]) -> Formula | Term:
    """Simultaneously replace variables of any node, a formula, a term or a
    mix, per mapping; shared nodes stay shared."""
    return _fold(
        a, lambda node: mapping.get(node.name, node) if type(node) is Var else node,
        Unary, Binary, lambda label, *args: TermApply(label, args),
    )


def tree_size(f: Formula | Term) -> int:
    """The number of nodes of any node as a tree, counted on its DAG."""
    return _fold(f, lambda leaf: 1, lambda op, x: x + 1, lambda op, x, y: x + y + 1,
                 lambda label, *sizes: sum(sizes, 1))
