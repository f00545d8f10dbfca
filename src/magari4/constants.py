"""Derivation of the four constant tables from a twelve-member system.

Given formulas F1..F12 that each break the corresponding built-in relation
R1..R12, the engine composes them by weak substitution into terms that
realize the constant tables for 0, r, s and 1.  The pipeline:

  * lemma1_A   collapses F1 to one variable; the result sends 0 into {s, 1}.
  * lemma2_B   dually collapses F2; the result sends 1 into {0, r}.
  * lemma3     turns A and B into a constant in {0, r} when B agrees on
               s and 1, routing through F12 when B maps 0 upward.
  * lemma4     handles B disagreeing on s and 1, building correctors from
               F3/F4/F7/F11 until lemma3's entry conditions hold.
  * lemma5     bootstraps one low constant into all four via F3..F10.

A TwelveSystem verifies each member's representability and violation
witness when it is built, so the engine trusts the type.  Every step's
claim is verified on the realized table before the engine proceeds; a
failed check is a hard error, never a fallback.
Derivations record the term (leaves are the variable p, or q inside
binary intermediates; applications name system members), the realized
table (recomputed from the term, never trusted), and the ordered claim
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .algebra import ELEMENTS, HIGH, LOW, Element, delta
from .formula import Formula, Var, free_vars, parse, substitute_all, truth_table
from .preservation import (
    ViolationWitness,
    builtin_relation,
    find_violation,
    preserves_delta_pairing,
)
from .synthesis import synthesize
from .tables import (
    FuncTable,
    compose_packed,
    constant_table,
    projection_packed,
    unpack,
)
from .closure import SystemSigma


class PreconditionViolated(ValueError):
    """An input fails a stated entry condition (e.g. F_i preserves R_i)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InternalProofCheckFailed(RuntimeError):
    """A derivation-step claim failed on the realized table.  This signals
    an implementation bug, never an input problem."""


_Z, _R, _S, _O = ELEMENTS


# ---------------------------------------------------------------------------
# Terms: weak-substitution trees over system members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermVar:
    name: str


@dataclass(frozen=True)
class TermApply:
    label: str
    args: tuple["Term", ...]


Term = Union[TermVar, TermApply]


def term_subst(term: Term, mapping: Mapping[str, Term]) -> Term:
    return _subst(term, mapping, {})


def _subst(term: Term, mapping: Mapping[str, Term], memo: dict[int, Term]) -> Term:
    # keep shared input subtrees shared in the output
    if isinstance(term, TermVar):
        return mapping.get(term.name, term)
    key = id(term)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = TermApply(
        term.label, tuple(_subst(a, mapping, memo) for a in term.args)
    )
    memo[key] = result
    return result


def term_text(term: Term) -> str:
    if isinstance(term, TermVar):
        return term.name
    return f"{term.label}[{','.join(term_text(a) for a in term.args)}]"


def term_table(
    term: Term, var_order: Sequence[str], tables: Mapping[str, FuncTable]
) -> FuncTable:
    var_order = tuple(var_order)
    n = len(var_order)
    env = {name: projection_packed(n, i) for i, name in enumerate(var_order)}
    return unpack(_fold(term, env, tables, 4**n, {}), n)


def _fold(
    term: Term,
    env: Mapping[str, int],
    tables: Mapping[str, FuncTable],
    size: int,
    memo: dict[int, int],
) -> int:
    # substitution shares subtree objects, so memoize by identity; composed
    # terms would otherwise re-walk shared branches
    if isinstance(term, TermVar):
        return env[term.name]
    key = id(term)
    cached = memo.get(key)
    if cached is not None:
        return cached
    table = tables[term.label]
    if len(term.args) != table.arity:
        raise ValueError(f"{term.label} expects {table.arity} argument(s)")
    args = [_fold(a, env, tables, size, memo) for a in term.args]
    value = compose_packed(table.entries, args, size)
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# The twelve-member system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemMember:
    label: str
    formula: Formula
    table: FuncTable
    var_order: tuple[str, ...]
    witness: ViolationWitness


@dataclass(frozen=True)
class TwelveSystem:
    """Members F1..F12.  Every way of building one (the constructor, the
    factories, dataclasses.replace) checks each member's representability
    and witness here, once; the engine relies on that."""

    members: tuple[SystemMember, ...]

    def __post_init__(self) -> None:
        if len(self.members) != 12:
            raise ValueError("a twelve-system needs exactly 12 members")
        for i, m in enumerate(self.members, start=1):
            # the step justifications lean on members being realizable as
            # formulas, i.e. on their tables respecting the delta classes
            if not preserves_delta_pairing(m.table):
                raise ValueError(
                    f"F{i}'s table breaks the delta pairing; no formula realizes it"
                )
            _verify_witness(m, i)

    def member(self, i: int) -> SystemMember:
        if not 1 <= i <= 12:
            raise ValueError(f"member index out of range: {i}")
        return self.members[i - 1]

    def by_label(self, label: str) -> SystemMember:
        for m in self.members:
            if m.label == label:
                return m
        raise KeyError(label)

    def tables(self) -> dict[str, FuncTable]:
        return {m.label: m.table for m in self.members}

    def sigma(self) -> SystemSigma:
        return SystemSigma(tuple((m.label, m.table) for m in self.members))

    @classmethod
    def from_formulas(
        cls, formulas: Sequence[Formula | str] | Mapping[int, Formula | str]
    ) -> "TwelveSystem":
        """Build a system from twelve formulas (index 1..12).

        Tables are recomputed from the formulas; each witness is the first
        violation in enumeration order.  Raises PreconditionViolated
        naming the first index whose formula preserves its relation.
        """
        members = []
        for i, item in enumerate(_twelve(formulas), start=1):
            formula = parse(item) if isinstance(item, str) else item
            var_order = tuple(sorted(free_vars(formula)))
            if not var_order:
                raise ValueError(f"F{i} has no variables")
            table = truth_table(formula, var_order)
            witness = find_violation(table, builtin_relation(i))
            if witness is None:
                raise PreconditionViolated(f"F{i} preserves R{i}", index=i)
            members.append(SystemMember(f"F{i}", formula, table, var_order, witness))
        return cls(tuple(members))

    @classmethod
    def from_tables(
        cls, tables: Sequence[FuncTable] | Mapping[int, FuncTable]
    ) -> "TwelveSystem":
        """Build a system from twelve tables by synthesizing a realizing
        formula for each (so the tables must respect the delta pairing)."""
        formulas = []
        for t in _twelve(tables):
            formula = synthesize(t, simplify=True)
            if not free_vars(formula):  # all-zero table simplified to `0`
                formula = synthesize(t, simplify=False)
            formulas.append(formula)
        return cls.from_formulas(formulas)


def _twelve(items: Sequence | Mapping[int, object]) -> list:
    """Members 1..12 in order, from a sequence or a mapping keyed by index."""
    if isinstance(items, Mapping):
        missing = [i for i in range(1, 13) if i not in items]
        if missing:
            raise ValueError("missing members: " + ", ".join(f"F{i}" for i in missing))
        return [items[i] for i in range(1, 13)]
    items = list(items)
    if len(items) != 12:
        raise ValueError(f"expected 12 members, got {len(items)}")
    return items


def _verify_witness(m: SystemMember, i: int) -> None:
    relation = builtin_relation(i)
    colset = set(relation.columns)
    w = m.witness
    if len(w.selected_columns) != m.table.arity:
        raise PreconditionViolated(
            f"F{i} witness has {len(w.selected_columns)} column(s) "
            f"for an arity-{m.table.arity} table",
            index=i,
        )
    if any(col not in colset for col in w.selected_columns):
        raise PreconditionViolated(f"F{i} witness uses non-columns of R{i}", index=i)
    image = tuple(
        m.table.apply(tuple(col[r] for col in w.selected_columns))
        for r in range(relation.arity)
    )
    if image != w.image or image in colset:
        raise PreconditionViolated(f"F{i} does not violate R{i} as claimed", index=i)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

TraceStep = tuple[str, str]


@dataclass(frozen=True)
class Derivation:
    term: Term
    var_order: tuple[str, ...]
    realized: FuncTable
    trace: tuple[TraceStep, ...]
    system: TwelveSystem = field(repr=False, compare=False)

    def term_text(self) -> str:
        return term_text(self.term)

    def expand(self) -> Formula:
        """The term as a plain formula, member applications substituted out.

        Shared term nodes expand to shared formula objects, so the result
        is compact in memory even when its printed text would not be.
        """
        return _expand(self.term, self.system, {})

    def is_constant(self) -> bool:
        return len(set(self.realized.entries)) == 1


def _expand(term: Term, system: TwelveSystem, memo: dict[int, Formula]) -> Formula:
    if isinstance(term, TermVar):
        return Var(term.name)
    key = id(term)
    cached = memo.get(key)
    if cached is not None:
        return cached
    member = system.by_label(term.label)
    mapping = {
        name: _expand(arg, system, memo)
        for name, arg in zip(member.var_order, term.args)
    }
    result = substitute_all(member.formula, mapping)
    memo[key] = result
    return result


class _Runner:
    """Shared plumbing for one engine run over a fixed system."""

    def __init__(self, system: TwelveSystem):
        self.system = system
        self.tables = system.tables()

    def tabulate(self, term: Term) -> FuncTable:
        return term_table(term, ("p",), self.tables)

    def unary(self, term: Term, realized: FuncTable, trace: list[TraceStep]) -> Derivation:
        return Derivation(term, ("p",), realized, tuple(trace), self.system)

    def check(self, cond: bool, trace: list[TraceStep], step: str, claim: str) -> None:
        if not cond:
            raise InternalProofCheckFailed(f"{step}: {claim}")
        trace.append((step, claim))


def _gate(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionViolated(message)


def lemma1_A(system: TwelveSystem) -> Derivation:
    """Collapse F1 onto one variable; the result maps 0 into {s, 1}."""
    return _collapse(system, 1, "A", _Z, HIGH)


def lemma2_B(system: TwelveSystem) -> Derivation:
    """Collapse F2 onto one variable; the result maps 1 into {0, r}."""
    return _collapse(system, 2, "B", _O, LOW)


def _collapse(
    system: TwelveSystem, i: int, name: str, x: Element, allowed: frozenset[Element]
) -> Derivation:
    """F_i with every variable set to p, checked to map x into allowed."""
    r = _Runner(system)
    m = system.member(i)
    w = m.witness
    cols = ";".join("".join(e.token for e in col) for col in w.selected_columns)
    img = "".join(e.token for e in w.image)
    trace: list[TraceStep] = [
        (f"lemma{i}.witness", f"F{i} maps columns ({cols}) of R{i} to ({img}) outside")
    ]
    term = TermApply(m.label, (TermVar("p"),) * m.table.arity)
    realized = r.tabulate(term)
    v = realized.entries[x]
    within = ",".join(e.token for e in ELEMENTS if e in allowed)
    r.check(
        v in allowed,
        trace,
        f"lemma{i}.{name}",
        f"{name} := F{i} with every variable set to p; "
        f"{name}[{x.token}] = {v.token}, in {{{within}}}",
    )
    return r.unary(term, realized, trace)


def lemma3(A: Derivation, B: Derivation, system: TwelveSystem) -> Derivation:
    """A constant in {0, r} from A, B with B[sigma] = B[1] (and F12 when
    B maps 0 upward)."""
    r = _Runner(system)
    a = A.realized.entries
    b = B.realized.entries
    _gate(a[0] in HIGH, f"A[0] = {a[0].token} must lie in {{s,1}}")
    _gate(b[3] in LOW, f"B[1] = {b[3].token} must lie in {{0,r}}")
    _gate(b[2] is b[3], f"B[sigma] = {b[2].token} must equal B[1] = {b[3].token}")
    trace: list[TraceStep] = list(A.trace) + list(B.trace)
    trace.append(
        (
            "lemma3.entry",
            f"A[0]={a[0].token} in {{s,1}}; B[1]={b[3].token} in {{0,r}}; "
            f"B[sigma]=B[1]",
        )
    )

    if b[0] in LOW:
        trace.append(("lemma3.case1", f"B[0] = {b[0].token} stays in {{0,r}}"))
        inner = term_subst(A.term, {"p": B.term})
        final = term_subst(B.term, {"p": inner})
        realized = r.tabulate(final)
        v = realized.entries[0]
        r.check(
            len(set(realized.entries)) == 1 and v in LOW,
            trace,
            "lemma3.case1",
            f"B[A[B(p)]] is constant {v.token}, in {{0,r}}",
        )
        return r.unary(final, realized, trace)

    trace.append(("lemma3.case2", f"B[0] = {b[0].token} lands in {{s,1}}; use F12"))
    m12 = system.member(12)
    w = m12.witness
    img_a, img_b = w.image
    r.check(
        delta(img_a) is delta(img_b),
        trace,
        "lemma3.D",
        f"F12's witness images {img_a.token},{img_b.token} share a delta class",
    )
    pair_order = builtin_relation(12).columns
    slots = [pair_order.index(col) + 1 for col in w.selected_columns]
    trace.append(
        (
            "lemma3.D",
            "D := F12 over p1..p8 keyed by witness pairs; positions "
            + ",".join(f"p{s}" for s in slots),
        )
    )
    dstar_term = TermApply(
        m12.label, tuple(TermVar("p" if s <= 4 else "q") for s in slots)
    )
    dstar = term_table(dstar_term, ("p", "q"), r.tables)
    d01 = dstar.entries[3]  # at (0, 1)
    d10 = dstar.entries[12]  # at (1, 0)
    r.check(
        delta(d01) is delta(d10),
        trace,
        "lemma3.D*",
        f"D* := D[p,p,p,p,q,q,q,q]; D*[0,1]={d01.token} and D*[1,0]={d10.token} "
        "share a delta class",
    )
    if d01 in LOW:
        dprime_term = dstar_term
        trace.append(("lemma3.D'", "D' := D* (D*[0,1] already in {0,r})"))
    else:
        dprime_term = term_subst(B.term, {"p": dstar_term})
        trace.append(("lemma3.D'", "D' := B[D*] (D*[0,1] in {s,1})"))
    dprime = term_table(dprime_term, ("p", "q"), r.tables)
    r.check(
        dprime.entries[3] in LOW and dprime.entries[12] in LOW,
        trace,
        "lemma3.D'",
        f"D'[0,1]={dprime.entries[3].token}, D'[1,0]={dprime.entries[12].token}, "
        "both in {0,r}",
    )
    inner_term = term_subst(dprime_term, {"q": B.term})
    inner = r.tabulate(inner_term)
    r.check(
        all(v in LOW for v in inner.entries),
        trace,
        "lemma3.case2",
        "D'[p, B(p)] ranges in {0,r}",
    )
    mid_term = term_subst(B.term, {"p": inner_term})
    mid = r.tabulate(mid_term)
    r.check(
        all(v in HIGH for v in mid.entries),
        trace,
        "lemma3.case2",
        "B[D'[p, B(p)]] ranges in {s,1}",
    )
    final = term_subst(B.term, {"p": mid_term})
    realized = r.tabulate(final)
    v = realized.entries[0]
    r.check(
        len(set(realized.entries)) == 1 and v in LOW,
        trace,
        "lemma3.case2",
        f"B[B[D'[p, B(p)]]] is constant {v.token}, in {{0,r}}",
    )
    return r.unary(final, realized, trace)


def lemma4(A: Derivation, B: Derivation, system: TwelveSystem) -> Derivation:
    """A constant in {0, r} from A, B with B[sigma] != B[1], via correctors
    built from F3, F4, F7, F11 (and F12 through the lemma3 hand-off)."""
    a = A.realized.entries
    b = B.realized.entries
    _gate(a[0] in HIGH, f"A[0] = {a[0].token} must lie in {{s,1}}")
    _gate(b[3] in LOW, f"B[1] = {b[3].token} must lie in {{0,r}}")
    _gate(
        b[2] is not b[3],
        f"B[sigma] = B[1] = {b[3].token}: lemma3 applies, not lemma4",
    )
    r = _Runner(system)
    # A's own steps enter once, in the closing lemma3 call.
    trace: list[TraceStep] = list(B.trace)
    trace.append(
        ("lemma4.entry", f"B[sigma]={b[2].token} differs from B[1]={b[3].token}")
    )
    return _resolve(r, A, r.unary(B.term, B.realized, trace))


def _resolve(r: _Runner, A: Derivation, cand: Derivation) -> Derivation:
    """Route a candidate with cand[1] in {0, r} to the closing construction."""
    c = cand.realized.entries
    if c[2] is c[3]:
        return lemma3(A, cand, r.system)
    if c[3] is _R:
        return _case_low_one(r, A, cand)
    if c[3] is _Z:
        return _case_low_zero(r, A, cand)
    raise InternalProofCheckFailed(
        f"candidate maps 1 to {c[3].token}, expected a value in {{0,r}}"
    )


def _witness_values(m: SystemMember) -> tuple[list[Element], Element]:
    """Unary-relation witness: selected element per position plus the image."""
    return [col[0] for col in m.witness.selected_columns], m.witness.image[0]


def _case_low_one(r: _Runner, A: Derivation, cand: Derivation) -> Derivation:
    """Candidate profile [sigma]=0, [1]=r: correct through F3, then F7/F11
    as needed, and close with lemma3."""
    c = cand.realized.entries
    trace = list(cand.trace)
    r.check(
        c[3] is _R and c[2] is _Z,
        trace,
        "lemma4.case1",
        "candidate maps sigma to 0 and 1 to r",
    )

    m3 = r.system.member(3)
    alphas, img3 = _witness_values(m3)
    r.check(
        img3 in (_R, _O),
        trace,
        "lemma4.E",
        f"F3's witness over {{0,s}} has image {img3.token} in {{r,1}}",
    )
    e_term = TermApply(
        m3.label, tuple(cand.term if a is _Z else TermVar("p") for a in alphas)
    )
    e_tab = r.tabulate(e_term)
    r.check(
        e_tab.entries[2] in (_R, _O),
        trace,
        "lemma4.E",
        f"E := F3 with B(p) at the 0-slots, p at the s-slots; "
        f"E[sigma] = {e_tab.entries[2].token}",
    )
    if e_tab.entries[2] is _R:
        estar_term = e_term
        trace.append(("lemma4.E*", "E* := E (E[sigma] = r)"))
    else:
        estar_term = term_subst(cand.term, {"p": e_term})
        trace.append(("lemma4.E*", "E* := B[E] (E[sigma] = 1)"))
    estar = r.tabulate(estar_term)
    r.check(estar.entries[2] is _R, trace, "lemma4.E*", "E*[sigma] = r")
    e1 = estar.entries[3]
    r.check(
        e1 in LOW, trace, "lemma4.E*", f"E*[1] = {e1.token}, in {{0,r}}"
    )
    if e1 is _R:
        trace.append(("lemma4.case1", "E*[sigma] = E*[1] = r: close via lemma3"))
        return lemma3(A, r.unary(estar_term, estar, trace), r.system)

    m7 = r.system.member(7)
    betas, img7 = _witness_values(m7)
    r.check(
        img7 is _O,
        trace,
        "lemma4.H",
        f"F7's witness over {{0,r,s}} has image {img7.token} = 1",
    )
    h_args = tuple(
        cand.term if b is _Z else (estar_term if b is _R else TermVar("p"))
        for b in betas
    )
    h_term = TermApply(m7.label, h_args)
    h_tab = r.tabulate(h_term)
    r.check(
        h_tab.entries[2] is _O,
        trace,
        "lemma4.H",
        "H := F7 with B at 0-slots, E* at r-slots, p at s-slots; H[sigma] = 1",
    )
    h1 = h_tab.entries[3]
    r.check(h1 in HIGH, trace, "lemma4.H", f"H[1] = {h1.token}, in {{s,1}}")
    if h1 is _O:
        bh_term = term_subst(cand.term, {"p": h_term})
        bh = r.tabulate(bh_term)
        r.check(
            bh.entries[2] is bh.entries[3] and bh.entries[3] in LOW,
            trace,
            "lemma4.case1",
            f"B[H(p)] maps sigma and 1 alike to {bh.entries[3].token}: "
            "close via lemma3",
        )
        return lemma3(A, r.unary(bh_term, bh, trace), r.system)

    m11 = r.system.member(11)
    img_g, img_d = m11.witness.image
    r.check(
        img_g is img_d,
        trace,
        "lemma4.J",
        f"F11 at paired tuples yields equal values {img_g.token} = {img_d.token}",
    )
    j_slot = {
        (_Z, _R): cand.term,
        (_R, _Z): estar_term,
        (_S, _O): TermVar("p"),
        (_O, _S): h_term,  # the only available profile with [sigma]=1, [1]=s
    }
    j_term = TermApply(
        m11.label, tuple(j_slot[col] for col in m11.witness.selected_columns)
    )
    j_tab = r.tabulate(j_term)
    r.check(
        j_tab.entries[2] is j_tab.entries[3],
        trace,
        "lemma4.J",
        "J := F11 over {B, E*, p, H} keyed by witness pairs; J[sigma] = J[1]",
    )
    if j_tab.entries[3] in LOW:
        jstar_term = j_term
        trace.append(("lemma4.J*", "J* := J (J[1] already in {0,r})"))
    else:
        jstar_term = term_subst(cand.term, {"p": j_term})
        trace.append(("lemma4.J*", "J* := B[J] (J[1] in {s,1})"))
    jstar = r.tabulate(jstar_term)
    r.check(
        jstar.entries[2] is jstar.entries[3] and jstar.entries[3] in LOW,
        trace,
        "lemma4.J*",
        f"J*[sigma] = J*[1] = {jstar.entries[3].token}, in {{0,r}}: close via lemma3",
    )
    return lemma3(A, r.unary(jstar_term, jstar, trace), r.system)


def _case_low_zero(r: _Runner, A: Derivation, cand: Derivation) -> Derivation:
    """Candidate profile [sigma]=r, [1]=0: correct through F4 into a
    candidate with [1]=r and resolve again."""
    c = cand.realized.entries
    trace = list(cand.trace)
    r.check(
        c[3] is _Z and c[2] is _R,
        trace,
        "lemma4.case2",
        "candidate maps sigma to r and 1 to 0",
    )
    m4 = r.system.member(4)
    eps, img4 = _witness_values(m4)
    r.check(
        img4 in (_R, _S),
        trace,
        "lemma4.S",
        f"F4's witness over {{0,1}} has image {img4.token} in {{r,s}}",
    )
    s_term = TermApply(
        m4.label, tuple(cand.term if e is _Z else TermVar("p") for e in eps)
    )
    s_tab = r.tabulate(s_term)
    r.check(
        s_tab.entries[3] in (_R, _S),
        trace,
        "lemma4.S",
        f"S := F4 with B(p) at the 0-slots, p at the 1-slots; "
        f"S[1] = {s_tab.entries[3].token}",
    )
    if s_tab.entries[3] is _R:
        sstar_term = s_term
        trace.append(("lemma4.S*", "S* := S (S[1] = r)"))
    else:
        sstar_term = term_subst(cand.term, {"p": s_term})
        trace.append(("lemma4.S*", "S* := B[S] (S[1] = s)"))
    sstar = r.tabulate(sstar_term)
    r.check(sstar.entries[3] is _R, trace, "lemma4.S*", "S*[1] = r")
    r.check(
        sstar.entries[2] in LOW,
        trace,
        "lemma4.S*",
        f"S*[sigma] = {sstar.entries[2].token}, in {{0,r}}",
    )
    return _resolve(r, A, r.unary(sstar_term, sstar, trace))


# ---------------------------------------------------------------------------
# From one low constant to all four
# ---------------------------------------------------------------------------

_PAIR_TO_MEMBER = {
    (_Z, _S): 3,
    (_Z, _O): 4,
    (_R, _S): 5,
    (_R, _O): 6,
}
_TRIPLE_TO_MEMBER = {
    frozenset({_Z, _R, _S}): 7,
    frozenset({_Z, _R, _O}): 8,
    frozenset({_Z, _S, _O}): 9,
    frozenset({_R, _S, _O}): 10,
}


def lemma5(
    k: Derivation, A: Derivation, system: TwelveSystem
) -> dict[Element, Derivation]:
    """All four constants from one constant in {0, r}, A, and F3..F10."""
    r = _Runner(system)
    _gate(
        k.is_constant() and k.realized.entries[0] in LOW,
        "k must realize a constant in {0,r}",
    )
    _gate(A.realized.entries[0] in HIGH, "A[0] must lie in {s,1}")
    trace: list[TraceStep] = list(k.trace)
    kval = k.realized.entries[0]

    c2_term = term_subst(A.term, {"p": k.term})
    c2_tab = r.tabulate(c2_term)
    c2 = c2_tab.entries[0]
    r.check(
        len(set(c2_tab.entries)) == 1 and c2 in HIGH,
        trace,
        "lemma5.pair",
        f"A at the constant {kval.token} is the constant {c2.token}, in {{s,1}}",
    )
    consts: dict[Element, Term] = {kval: k.term, c2: c2_term}

    i = _PAIR_TO_MEMBER[(kval, c2)]
    _extend(r, i, consts, trace)
    j = _TRIPLE_TO_MEMBER[frozenset(consts)]
    _extend(r, j, consts, trace)
    if set(consts) != set(ELEMENTS):
        raise InternalProofCheckFailed("constant bootstrap did not reach all four")

    out: dict[Element, Derivation] = {}
    for value in ELEMENTS:
        term = consts[value]
        realized = r.tabulate(term)
        if realized != constant_table(value, 1):
            raise InternalProofCheckFailed(
                f"term for constant {value.token} realizes {realized.to_text()}"
            )
        done = ("lemma5.done", f"constant {value.token} realized")
        out[value] = r.unary(term, realized, trace + [done])
    return out


def _extend(
    r: _Runner, i: int, consts: dict[Element, Term], trace: list[TraceStep]
) -> None:
    """Substitute already-derived constants into F_i's witness positions,
    producing the constant the witness image names."""
    m = r.system.member(i)
    vals, img = _witness_values(m)
    if any(v not in consts for v in vals):
        raise InternalProofCheckFailed(
            f"F{i} witness needs constants not yet derived"
        )
    term = TermApply(m.label, tuple(consts[v] for v in vals))
    tab = r.tabulate(term)
    r.check(
        len(set(tab.entries)) == 1 and tab.entries[0] is img and img not in consts,
        trace,
        f"lemma5.F{i}",
        f"F{i} at constants ({','.join(v.token for v in vals)}) yields the new "
        f"constant {img.token}",
    )
    consts[img] = term


def derive_all_constants(system: TwelveSystem) -> dict[Element, Derivation]:
    """Run the full pipeline; returns verified derivations for 0, r, s, 1."""
    A = lemma1_A(system)
    B = lemma2_B(system)
    b = B.realized.entries
    k = lemma3(A, B, system) if b[2] is b[3] else lemma4(A, B, system)
    return lemma5(k, A, system)
