"""The timed ops: the library calls each workload makes, and nothing else.

This module imports only the library, so that a set-up child that
imports it and runs one op measures the library's start-up cost and not
the benchmark's.  An op's input is plain data (table and formula texts,
ints); `prepare` turns it into library objects outside the timed
interval and `run` drives it through the library.  Library calls go
through a tracer (`tr.call(span_name, fn, ...)`), which records a span in
traced runs and does nothing else in untraced ones.
"""

from __future__ import annotations

from magari4.algebra import ELEMENTS, Element
from magari4.closure import SystemSigma, closure_fragment, expressible_constants
from magari4.constants import TwelveSystem, derive_all_constants
from magari4.formula import (
    counterexample,
    evaluate,
    format_formula,
    free_vars,
    parse,
    truth_table,
)
from magari4.preservation import builtin_relation, classify, find_violation
from magari4.synthesis import NotRepresentable, synthesize
from magari4.tables import FuncTable


SYNTH_NAMES = ("p1", "p2")


def prepare_synth(text):
    return FuncTable.from_text(text)


def run_synth(table, tr):
    """Synthesize a formula for a binary table and tabulate it again; None
    for a table the library refuses as not representable."""
    try:
        f = tr.call("synthesis.synthesize", synthesize, table, SYNTH_NAMES)
    except NotRepresentable:
        return None
    return f, tr.call("formula.truth_table", truth_table, f, SYNTH_NAMES)


def prepare_derive(texts):
    return {i: FuncTable.from_text(t) for i, t in enumerate(texts, start=1)}


def run_derive(tables, tr):
    """Build the twelve-system, derive the four constants, expand and
    tabulate each, and ask the closure oracle which constants it reaches."""
    system = tr.call("constants.TwelveSystem.from_tables",
                     TwelveSystem.from_tables, tables)
    derived = tr.call("constants.derive_all_constants", derive_all_constants, system)
    expanded = {}
    for value, d in derived.items():
        f = tr.call("constants.Derivation.expand", d.expand)
        expanded[value] = (f, tr.call("formula.truth_table", truth_table, f, ("p",)))
    reached = tr.call("closure.expressible_constants",
                      expressible_constants, system.sigma())
    return system, derived, expanded, reached


def prepare_query(encoded):
    kind, payload = encoded
    if kind == "eval":
        text, env = payload
        return kind, (text, {n: Element(v) for n, v in env.items()})
    return kind, payload


def run_query(args, tr):
    kind, payload = args
    return _QUERIES[kind](payload, tr)


def _eval(payload, tr):
    text, env = payload
    f = tr.call("formula.parse", parse, text)
    return f, tr.call("formula.evaluate", evaluate, f, env)


def _table(text, tr):
    f = tr.call("formula.parse", parse, text)
    names = tuple(sorted(tr.call("formula.free_vars", free_vars, f)))
    return f, names, tr.call("formula.truth_table", truth_table, f, names)


def _equiv(texts, tr):
    left = tr.call("formula.parse", parse, texts[0])
    right = tr.call("formula.parse", parse, texts[1])
    diff = tr.call("formula.counterexample", counterexample, left, right)
    if diff is None:
        return left, right, None, None
    values = (tr.call("formula.evaluate", evaluate, left, diff),
              tr.call("formula.evaluate", evaluate, right, diff))
    return left, right, diff, values


def _classify(text, tr):
    f, names, table = _table(text, tr)
    return f, names, table, tr.call("preservation.classify", classify, table)


def _violations(text, tr):
    f, names, table = _table(text, tr)
    witnesses = [
        tr.call("preservation.find_violation", find_violation, table, builtin_relation(i))
        for i in range(1, 13)
    ]
    return f, names, table, witnesses


def _synthesize(text, tr):
    table = FuncTable.from_text(text)
    try:
        f = tr.call("synthesis.synthesize", synthesize, table, simplify=True)
    except NotRepresentable:
        return table, None, None
    return table, f, tr.call("formula.format_formula", format_formula, f)


def _closure(texts, tr):
    sigma = SystemSigma(tuple(
        (f"g{i}", FuncTable.from_text(t)) for i, t in enumerate(texts, start=1)
    ))
    fragment = tr.call("closure.closure_fragment", closure_fragment, sigma, 1)
    constants = [e for e in ELEMENTS if FuncTable(1, (e,) * 4) in fragment.tables]
    return fragment, constants


_QUERIES = {
    "eval": _eval, "table": _table, "equiv": _equiv, "classify": _classify,
    "violations": _violations, "synthesize": _synthesize, "closure": _closure,
}
PREPARE = {"synth-binary": prepare_synth, "derive-random": prepare_derive,
           "query-mix": prepare_query}
RUN = {"synth-binary": run_synth, "derive-random": run_derive, "query-mix": run_query}


def warmup(name: str, encoded_inputs, tr) -> None:
    """Run one op per input, as a fresh process's first calls."""
    for encoded in encoded_inputs:
        RUN[name](PREPARE[name](encoded), tr)
