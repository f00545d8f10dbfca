"""The twelve-member system, and the lemma engine that derives the four
constant tables from it.

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
Derivations record the term (a formula.TermApply whose applications name
system members and whose leaves are the formula variable p, or q inside
binary intermediates), the realized table over p (recomputed from the
term, never trusted), and the ordered claim trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .algebra import ELEMENTS, HIGH, LOW, Element, delta
from .formula import (
    Binary, Formula, Term, TermApply, Unary, Var, _fold, format_formula, free_vars, parse,
    substitute_all, term_table, truth_table,
)
from .preservation import (
    ViolationWitness,
    builtin_relation,
    column_text,
    find_violation,
    preserves_delta_pairing,
)
from .synthesis import default_var_names, synthesize
from .tables import FuncTable, constant_table
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
_P, _Q = Var("p"), Var("q")  # the variables of the engine's terms


# ---------------------------------------------------------------------------
# The twelve-member system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemMember:
    label: str
    given: Formula | None  # None: synthesized from the table on first read
    table: FuncTable
    var_order: tuple[str, ...]
    witness: ViolationWitness

    @cached_property
    def formula(self) -> Formula:
        return self.given or synthesize(self.table, self.var_order)


class _Memo(dict):
    """A dict keyed by id(node) that a system keeps (see formula._fold).  A
    copy, deep or unpickled, starts empty, as its ids would name the
    original's nodes."""

    def __reduce__(self):
        return _Memo, ()


@dataclass(frozen=True)
class TwelveSystem:
    """Members F1..F12.  Every way of building one (the constructor, the
    factories, dataclasses.replace) checks each member's representability
    and witness here, once; the engine relies on that."""

    members: tuple[SystemMember, ...]
    # id(term node) -> formula, filled by Derivation.expand, and id(term
    # node) -> packed table over p, filled by the engine's checks, with the
    # term roots they were filled from, id(root) -> root, which hold every
    # node they name; not part of the value, and dataclasses.replace starts
    # new ones empty
    _expansions: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)
    _tabulated: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)
    _roots: _Memo = field(default_factory=_Memo, init=False, repr=False, compare=False)

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

    @cached_property
    def _members_by_label(self) -> dict[str, SystemMember]:
        return {m.label: m for m in self.members}

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
            members.append(_member(i, formula, table, var_order))
        return cls(tuple(members))

    @classmethod
    def from_tables(
        cls, tables: Sequence[FuncTable] | Mapping[int, FuncTable]
    ) -> "TwelveSystem":
        """Build a system from twelve tables, which must respect the delta
        pairing.  F_i keeps its table over p1..pn and synthesizes its
        formula, a constant for an all-zero table, when first read."""
        return cls(tuple(_member(i, None, t, default_var_names(t.arity))
                         for i, t in enumerate(_twelve(tables), start=1)))


def _member(
    i: int, formula: Formula | None, table: FuncTable, var_order: tuple[str, ...]
) -> SystemMember:
    witness = find_violation(table, builtin_relation(i))
    if witness is None:
        raise PreconditionViolated(f"F{i} preserves R{i}", index=i)
    return SystemMember(f"F{i}", formula, table, var_order, witness)


def _twelve(items: Sequence | Mapping[int, object]) -> list:
    """Members 1..12 in order, from a sequence or a mapping keyed by index."""
    if isinstance(items, Mapping):
        missing = [i for i in range(1, 13) if i not in items]
        if missing:
            raise ValueError("missing members: " + ", ".join(f"F{i}" for i in missing))
        extra = sorted(k for k in items if k not in range(1, 13))
        if extra:
            raise ValueError("unexpected members: " + ", ".join(f"F{k}" for k in extra))
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
    selection = w.selected_columns
    image = tuple(m.table.apply([c[i] for c in selection]) for i in range(relation.arity))
    if image != w.image or image in colset:
        raise PreconditionViolated(f"F{i} does not violate R{i} as claimed", index=i)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

TraceStep = tuple[str, str]


@dataclass(frozen=True)
class Derivation:
    term: Term
    realized: FuncTable
    trace: tuple[TraceStep, ...]
    system: TwelveSystem = field(repr=False, compare=False)

    def term_text(self) -> str:
        return format_formula(self.term)

    def expand(self) -> Formula:
        """The term as a plain formula, member applications substituted out.

        Each term node is substituted into its member's formula once per
        system: the system keeps a dict that lives as long as the system and
        holds one entry per term node expanded against it, so the four
        constants of one engine run share the expansions of the subterms
        they share.  Shared term nodes expand to shared formula objects, and
        substitution keeps shared member nodes (a synthesized formula's
        clauses) shared, so the result is compact in memory even when its
        printed text is not.
        """
        system = self.system

        def substitute(label: str, *args: Formula) -> Formula:
            member = system._members_by_label[label]
            return substitute_all(member.formula, dict(zip(member.var_order, args)))

        system._roots[id(self.term)] = self.term
        return _fold(self.term, lambda v: v, Unary, Binary, substitute, memo=system._expansions)

    def is_constant(self) -> bool:
        return len(set(self.realized.entries)) == 1


def _tabulate(term: Term, system: TwelveSystem) -> FuncTable:
    """term_table over p alone, reusing the system's tables of the term
    nodes tabulated against it."""
    system._roots[id(term)] = term
    return term_table(term, ("p",), system.tables(), system._tabulated)


def _check(cond: bool, trace: list[TraceStep], step: str, claim: str) -> None:
    if not cond:
        raise InternalProofCheckFailed(f"{step}: {claim}")
    trace.append((step, claim))


def _lower(
    keep: bool, term: Term, B: Term, trace: list[TraceStep], step: str, kept: str, lowered: str
) -> Term:
    """term itself when keep holds, else B[term]; the trace records which."""
    trace.append((step, kept if keep else lowered))
    return term if keep else substitute_all(B, {"p": term})


def _apply_witness(m: SystemMember, slot: Mapping[tuple[Element, ...], Term]) -> Term:
    """The member applied to slot[col] at each position, col being the
    witness column selected there."""
    return TermApply(m.label, tuple(slot[col] for col in m.witness.selected_columns))


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
    m = system.member(i)
    w = m.witness
    cols = ";".join(map(column_text, w.selected_columns))
    img = column_text(w.image)
    trace: list[TraceStep] = [
        (f"lemma{i}.witness", f"F{i} maps columns ({cols}) of R{i} to ({img}) outside")
    ]
    term = TermApply(m.label, (_P,) * m.table.arity)
    realized = _tabulate(term, system)
    v = realized.entries[x]
    within = ",".join(e.token for e in ELEMENTS if e in allowed)
    _check(
        v in allowed,
        trace,
        f"lemma{i}.{name}",
        f"{name} := F{i} with every variable set to p; "
        f"{name}[{x.token}] = {v.token}, in {{{within}}}",
    )
    return Derivation(term, realized, tuple(trace), system)


def lemma3(A: Derivation, B: Derivation, system: TwelveSystem) -> Derivation:
    """A constant in {0, r} from A, B with B[sigma] = B[1] (and F12 when
    B maps 0 upward)."""
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
        inner = substitute_all(A.term, {"p": B.term})
        final = substitute_all(B.term, {"p": inner})
        realized = _tabulate(final, system)
        v = realized.entries[0]
        _check(
            len(set(realized.entries)) == 1 and v in LOW,
            trace,
            "lemma3.case1",
            f"B[A[B(p)]] is constant {v.token}, in {{0,r}}",
        )
        return Derivation(final, realized, tuple(trace), system)

    trace.append(("lemma3.case2", f"B[0] = {b[0].token} lands in {{s,1}}; use F12"))
    m12 = system.member(12)
    w = m12.witness
    img_a, img_b = w.image
    _check(
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
    dstar_term = _apply_witness(
        m12, {col: _P if k < 4 else _Q for k, col in enumerate(pair_order)}
    )
    dstar = term_table(dstar_term, ("p", "q"), system.tables())
    d01 = dstar.entries[3]  # at (0, 1)
    d10 = dstar.entries[12]  # at (1, 0)
    _check(
        delta(d01) is delta(d10),
        trace,
        "lemma3.D*",
        f"D* := D[p,p,p,p,q,q,q,q]; D*[0,1]={d01.token} and D*[1,0]={d10.token} "
        "share a delta class",
    )
    dprime_term = _lower(
        d01 in LOW, dstar_term, B.term, trace, "lemma3.D'",
        "D' := D* (D*[0,1] already in {0,r})", "D' := B[D*] (D*[0,1] in {s,1})",
    )
    dprime = term_table(dprime_term, ("p", "q"), system.tables())
    _check(
        dprime.entries[3] in LOW and dprime.entries[12] in LOW,
        trace,
        "lemma3.D'",
        f"D'[0,1]={dprime.entries[3].token}, D'[1,0]={dprime.entries[12].token}, "
        "both in {0,r}",
    )
    inner_term = substitute_all(dprime_term, {"q": B.term})
    inner = _tabulate(inner_term, system)
    _check(
        all(v in LOW for v in inner.entries),
        trace,
        "lemma3.case2",
        "D'[p, B(p)] ranges in {0,r}",
    )
    mid_term = substitute_all(B.term, {"p": inner_term})
    mid = _tabulate(mid_term, system)
    _check(
        all(v in HIGH for v in mid.entries),
        trace,
        "lemma3.case2",
        "B[D'[p, B(p)]] ranges in {s,1}",
    )
    final = substitute_all(B.term, {"p": mid_term})
    realized = _tabulate(final, system)
    v = realized.entries[0]
    _check(
        len(set(realized.entries)) == 1 and v in LOW,
        trace,
        "lemma3.case2",
        f"B[B[D'[p, B(p)]]] is constant {v.token}, in {{0,r}}",
    )
    return Derivation(final, realized, tuple(trace), system)


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
    # A's own steps enter once, in the closing lemma3 call.
    trace: list[TraceStep] = list(B.trace)
    trace.append(
        ("lemma4.entry", f"B[sigma]={b[2].token} differs from B[1]={b[3].token}")
    )
    return _resolve(A, B.term, B.realized, trace, system)


def _resolve(
    A: Derivation, term: Term, realized: FuncTable, trace: list[TraceStep], system: TwelveSystem
) -> Derivation:
    """Route a candidate with [1] in {0, r} to the closing construction:
    lemma3 once [sigma] = [1], else the corrector for its profile."""
    cand = Derivation(term, realized, tuple(trace), system)
    c = realized.entries
    if c[2] is c[3]:
        return lemma3(A, cand, system)
    if c[3] is _R:
        return _case_low_one(A, cand, system)
    if c[3] is _Z:
        return _case_low_zero(A, cand, system)
    raise InternalProofCheckFailed(
        f"candidate maps 1 to {c[3].token}, expected a value in {{0,r}}"
    )


def _case_low_one(A: Derivation, cand: Derivation, system: TwelveSystem) -> Derivation:
    """Candidate profile [sigma]=0, [1]=r: correct through F3, then F7/F11
    as needed, and close with lemma3."""
    c = cand.realized.entries
    trace = list(cand.trace)
    _check(
        c[3] is _R and c[2] is _Z,
        trace,
        "lemma4.case1",
        "candidate maps sigma to 0 and 1 to r",
    )
    m3 = system.member(3)
    img3 = m3.witness.image[0]
    _check(
        img3 in (_R, _O),
        trace,
        "lemma4.E",
        f"F3's witness over {{0,s}} has image {img3.token} in {{r,1}}",
    )
    e_term = _apply_witness(m3, {(_Z,): cand.term, (_S,): _P})
    e_tab = _tabulate(e_term, system)
    _check(
        e_tab.entries[2] in (_R, _O),
        trace,
        "lemma4.E",
        f"E := F3 with B(p) at the 0-slots, p at the s-slots; "
        f"E[sigma] = {e_tab.entries[2].token}",
    )
    estar_term = _lower(
        e_tab.entries[2] is _R, e_term, cand.term, trace, "lemma4.E*",
        "E* := E (E[sigma] = r)", "E* := B[E] (E[sigma] = 1)",
    )
    estar = _tabulate(estar_term, system)
    _check(estar.entries[2] is _R, trace, "lemma4.E*", "E*[sigma] = r")
    e1 = estar.entries[3]
    _check(
        e1 in LOW, trace, "lemma4.E*", f"E*[1] = {e1.token}, in {{0,r}}"
    )
    if e1 is _R:
        trace.append(("lemma4.case1", "E*[sigma] = E*[1] = r: close via lemma3"))
        return _resolve(A, estar_term, estar, trace, system)

    m7 = system.member(7)
    img7 = m7.witness.image[0]
    _check(
        img7 is _O,
        trace,
        "lemma4.H",
        f"F7's witness over {{0,r,s}} has image {img7.token} = 1",
    )
    h_term = _apply_witness(m7, {(_Z,): cand.term, (_R,): estar_term, (_S,): _P})
    h_tab = _tabulate(h_term, system)
    _check(
        h_tab.entries[2] is _O,
        trace,
        "lemma4.H",
        "H := F7 with B at 0-slots, E* at r-slots, p at s-slots; H[sigma] = 1",
    )
    h1 = h_tab.entries[3]
    _check(h1 in HIGH, trace, "lemma4.H", f"H[1] = {h1.token}, in {{s,1}}")
    if h1 is _O:
        bh_term = substitute_all(cand.term, {"p": h_term})
        bh = _tabulate(bh_term, system)
        _check(
            bh.entries[2] is bh.entries[3] and bh.entries[3] in LOW,
            trace,
            "lemma4.case1",
            f"B[H(p)] maps sigma and 1 alike to {bh.entries[3].token}: "
            "close via lemma3",
        )
        return _resolve(A, bh_term, bh, trace, system)

    m11 = system.member(11)
    img_g, img_d = m11.witness.image
    _check(
        img_g is img_d,
        trace,
        "lemma4.J",
        f"F11 at paired tuples yields equal values {img_g.token} = {img_d.token}",
    )
    j_slot = {
        (_Z, _R): cand.term,
        (_R, _Z): estar_term,
        (_S, _O): _P,
        (_O, _S): h_term,  # the only available profile with [sigma]=1, [1]=s
    }
    j_term = _apply_witness(m11, j_slot)
    j_tab = _tabulate(j_term, system)
    _check(
        j_tab.entries[2] is j_tab.entries[3],
        trace,
        "lemma4.J",
        "J := F11 over {B, E*, p, H} keyed by witness pairs; J[sigma] = J[1]",
    )
    jstar_term = _lower(
        j_tab.entries[3] in LOW, j_term, cand.term, trace, "lemma4.J*",
        "J* := J (J[1] already in {0,r})", "J* := B[J] (J[1] in {s,1})",
    )
    jstar = _tabulate(jstar_term, system)
    _check(
        jstar.entries[2] is jstar.entries[3] and jstar.entries[3] in LOW,
        trace,
        "lemma4.J*",
        f"J*[sigma] = J*[1] = {jstar.entries[3].token}, in {{0,r}}: close via lemma3",
    )
    return _resolve(A, jstar_term, jstar, trace, system)


def _case_low_zero(A: Derivation, cand: Derivation, system: TwelveSystem) -> Derivation:
    """Candidate profile [sigma]=r, [1]=0: correct through F4 into a
    candidate with [1]=r and resolve again."""
    c = cand.realized.entries
    trace = list(cand.trace)
    _check(
        c[3] is _Z and c[2] is _R,
        trace,
        "lemma4.case2",
        "candidate maps sigma to r and 1 to 0",
    )
    m4 = system.member(4)
    img4 = m4.witness.image[0]
    _check(
        img4 in (_R, _S),
        trace,
        "lemma4.S",
        f"F4's witness over {{0,1}} has image {img4.token} in {{r,s}}",
    )
    s_term = _apply_witness(m4, {(_Z,): cand.term, (_O,): _P})
    s_tab = _tabulate(s_term, system)
    _check(
        s_tab.entries[3] in (_R, _S),
        trace,
        "lemma4.S",
        f"S := F4 with B(p) at the 0-slots, p at the 1-slots; "
        f"S[1] = {s_tab.entries[3].token}",
    )
    sstar_term = _lower(
        s_tab.entries[3] is _R, s_term, cand.term, trace, "lemma4.S*",
        "S* := S (S[1] = r)", "S* := B[S] (S[1] = s)",
    )
    sstar = _tabulate(sstar_term, system)
    _check(sstar.entries[3] is _R, trace, "lemma4.S*", "S*[1] = r")
    _check(
        sstar.entries[2] in LOW,
        trace,
        "lemma4.S*",
        f"S*[sigma] = {sstar.entries[2].token}, in {{0,r}}",
    )
    return _resolve(A, sstar_term, sstar, trace, system)


# ---------------------------------------------------------------------------
# From one low constant to all four
# ---------------------------------------------------------------------------

def lemma5(
    k: Derivation, A: Derivation, system: TwelveSystem
) -> dict[Element, Derivation]:
    """All four constants from one constant in {0, r}, A, and F3..F10."""
    _gate(
        k.is_constant() and k.realized.entries[0] in LOW,
        "k must realize a constant in {0,r}",
    )
    _gate(A.realized.entries[0] in HIGH, "A[0] must lie in {s,1}")
    trace: list[TraceStep] = list(k.trace)
    kval = k.realized.entries[0]

    c2_term = substitute_all(A.term, {"p": k.term})
    c2_tab = _tabulate(c2_term, system)
    c2 = c2_tab.entries[0]
    _check(
        len(set(c2_tab.entries)) == 1 and c2 in HIGH,
        trace,
        "lemma5.pair",
        f"A at the constant {kval.token} is the constant {c2.token}, in {{s,1}}",
    )
    consts: dict[Element, Term] = {kval: k.term, c2: c2_term}

    _extend(system, consts, trace)  # through one of F3..F6
    _extend(system, consts, trace)  # through one of F7..F10
    if set(consts) != set(ELEMENTS):
        raise InternalProofCheckFailed("constant bootstrap did not reach all four")

    out: dict[Element, Derivation] = {}
    for value in ELEMENTS:
        term = consts[value]
        realized = _tabulate(term, system)
        if realized != constant_table(value, 1):
            raise InternalProofCheckFailed(
                f"term for constant {value.token} realizes {realized.to_text()}"
            )
        done = ("lemma5.done", f"constant {value.token} realized")
        out[value] = Derivation(term, realized, tuple(trace + [done]), system)
    return out


def _extend(
    system: TwelveSystem, consts: dict[Element, Term], trace: list[TraceStep]
) -> None:
    """Substitute the derived constants into the witness positions of the F_i
    whose R_i holds exactly them, producing the constant the image names."""
    slot = {(v,): term for v, term in consts.items()}
    i = next(j for j in range(3, 11) if set(builtin_relation(j).columns) == slot.keys())
    m = system.member(i)
    cols = m.witness.selected_columns
    term = _apply_witness(m, slot)
    tab = _tabulate(term, system)
    img = m.witness.image[0]
    _check(
        len(set(tab.entries)) == 1 and tab.entries[0] is img and img not in consts,
        trace,
        f"lemma5.F{i}",
        f"F{i} at constants ({','.join(map(column_text, cols))}) yields the new "
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
