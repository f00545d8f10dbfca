"""The workloads: seeded inputs, the op each input drives through the
library (in ops.py), and a check of the op's output against references
that share no code with the timed calls.

Each workload is closed-loop with one caller: the next op starts when the
previous one and its check are done.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from magari4.algebra import ELEMENTS, Element
from magari4.closure import closure_fragment
from magari4.formula import evaluate
from magari4.preservation import delta_pairing_relation, find_violation

import inputs
import ops

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
SPANS = (
    "op",
    "formula.parse",
    "formula.free_vars",
    "formula.evaluate",
    "formula.truth_table",
    "formula.counterexample",
    "formula.format_formula",
    "preservation.classify",
    "preservation.find_violation",
    "preservation.find_violation.delta_pairing",
    "synthesis.synthesize",
    "closure.closure_fragment",
    "closure.expressible_constants",
    "constants.TwelveSystem.from_tables",
    "constants.derive_all_constants",
    "constants.Derivation.expand",
)
COUNTS = (
    "formula.parse.nodes",
    "synthesis.nodes_tree",
    "synthesis.nodes_dag",
    "closure.fragment_size",
    "closure.saturated_share",
    "constants.term_nodes_dag",
    "constants.expand_nodes_dag",
    "constants.expand_nodes_tree_log10",
    "constants.lemma4_share",
    "constants.lemma3_case2_share",
)
# All 64 representable unary tables: a unary fragment of this size has
# saturated, since every member respects the delta classes.
SATURATED_UNARY = (2 * 2**2) ** 2


def _elements(values) -> tuple[int, ...]:
    return tuple(int(e) for e in values)


def node_counts(roots, children) -> tuple[int, int]:
    """(summed size as trees, distinct node objects) of graphs that may
    share nodes, within and between the roots."""
    size: dict[int, int] = {}
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            size[id(node)] = 1 + sum(size[id(c)] for c in children(node))
        elif id(node) not in size:
            stack.append((node, True))
            stack.extend((c, False) for c in children(node))
    return sum(size[id(root)] for root in roots), len(size)


def formula_children(f):
    if hasattr(f, "child"):
        return (f.child,)
    if hasattr(f, "left"):
        return (f.left, f.right)
    return ()


def term_children(term):
    return getattr(term, "args", ())


def eval_term(term, p: int, members, memo) -> int:
    """Value of a constant-derivation term at p, from the raw member tables."""
    if not hasattr(term, "args"):
        if term.name != "p":
            raise ValueError(f"unexpected term variable {term.name!r}")
        return p
    key = id(term)
    if key not in memo:
        args = [eval_term(a, p, members, memo) for a in term.args]
        memo[key] = members[int(term.label[1:]) - 1][inputs.index(args)]
    return memo[key]


class DeriveRandom:
    """Random twelve-systems: build, derive the four constants, expand and
    tabulate each, and ask the closure oracle which constants it reaches."""

    name = "derive-random"
    tail_pct = 90.0
    constant_cost = False
    deadline_ms = 2000.0

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield inputs.random_twelve(rng)

    def text(self, raw) -> str:
        return " ".join(inputs.table_text(t) for t in raw)

    def warmup(self, seed: int):
        return [next(self.inputs(seed))]

    def kind(self, raw) -> str:
        return "derive"

    def encode(self, raw):
        return [inputs.table_text(t) for t in raw]

    def prepare(self, raw):
        return ops.prepare_derive(self.encode(raw))

    run = staticmethod(ops.run_derive)

    def check(self, raw, out) -> bool:
        _, derived, expanded, reached = out
        if set(derived) != set(ELEMENTS) or reached != frozenset(ELEMENTS):
            return False
        for value, d in derived.items():
            want = (int(value),) * 4
            if _elements(d.realized.entries) != want:
                return False
            if _elements(expanded[value][1].entries) != want:
                return False
            if tuple(eval_term(d.term, p, raw, {}) for p in range(4)) != want:
                return False
        return True

    def observe(self, tables, out, tr) -> None:
        system, derived, expanded, _ = out
        terms = [d.term for d in derived.values()]
        tr.count("constants.term_nodes_dag", node_counts(terms, term_children)[1])
        tree, dag = node_counts([f for f, _ in expanded.values()], formula_children)
        tr.count("constants.expand_nodes_dag", dag)
        tr.count("constants.expand_nodes_tree_log10", math.log10(tree))
        steps = {step for step, _ in derived[Element.ZERO].trace}
        tr.count("constants.lemma4_share", "lemma4.entry" in steps)
        tr.count("constants.lemma3_case2_share", "lemma3.case2" in steps)
        size = len(closure_fragment(system.sigma(), 1))
        tr.count("closure.fragment_size", size)
        tr.count("closure.saturated_share", size == SATURATED_UNARY)


# ---------------------------------------------------------------------------
# synth-binary
# ---------------------------------------------------------------------------

# The share of tables that break the delta classes, here and in query-mix's
# synthesize calls, is chosen, not taken from measured traffic.
REFUSED_SHARE = 1 / 8


class SynthBinary:
    """Binary tables, uniform over the representable ones, through
    synthesize and back through truth_table; one in eight breaks the delta
    classes and must be refused."""

    name = "synth-binary"
    # Every represented table costs about the same, so the op times follow
    # the host's speed (see run.op_tail).  Read beyond p90, the tail depends
    # on how often the host switched speed during the run.
    tail_pct = 90.0
    constant_cost = True
    deadline_ms = 2000.0

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            table = inputs.random_representable(2, rng)
            if rng.random() < REFUSED_SHARE:
                table = inputs.break_classes(table, rng)
            yield table

    def text(self, raw) -> str:
        return inputs.table_text(raw)

    def warmup(self, seed: int):
        return [next(self.inputs(seed))]

    def kind(self, raw) -> str:
        return "represented" if inputs.representable(raw) else "refused"

    def encode(self, raw):
        return inputs.table_text(raw)

    def prepare(self, raw):
        return ops.prepare_synth(self.encode(raw))

    run = staticmethod(ops.run_synth)

    def check(self, raw, out) -> bool:
        if not inputs.representable(raw):
            return out is None
        return out is not None and _elements(out[1].entries) == raw

    def observe(self, table, out, tr) -> None:
        # the representability check inside synthesize, timed on its own
        tr.call("preservation.find_violation.delta_pairing", find_violation,
                table, delta_pairing_relation())
        if out is not None:
            tree, dag = node_counts([out[0]], formula_children)
            tr.count("synthesis.nodes_tree", tree)
            tr.count("synthesis.nodes_dag", dag)


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

QUERY_KINDS = ("eval", "table", "equiv", "classify", "violations", "synthesize", "closure")
# The weights are chosen, not taken from measured CLI traffic; none has
# been recorded.
QUERY_WEIGHTS = (20, 20, 15, 10, 10, 15, 10)
PROBE_DEADLINE_S = 3.0
PROBE_MEMORY_BYTES = 512 * 2**20
PROBE_OUTPUT_BYTES = 16 * 2**20
DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)


def _equivalent_variant(f, rng):
    return rng.choice((
        ("~", ("~", f)),
        ("&", f, f),
        ("|", f, ("c", 0)),
        ("->", ("c", 3), f),
    ))


class QueryMix:
    """The library calls behind the CLI's eval, table, equiv, classify,
    violations, synthesize --simplify and closure --arity 1, drawn with
    fixed weights; one synthesize table in eight breaks the delta classes
    and must be refused.  Plus three robustness probes through the CLI."""

    name = "query-mix"
    tail_pct = 99.0
    constant_cost = False
    deadline_ms = 2000.0

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            kind = rng.choices(QUERY_KINDS, QUERY_WEIGHTS)[0]
            if kind == "synthesize":
                table = inputs.random_representable(rng.choice((1, 2)), rng)
                if rng.random() < REFUSED_SHARE:
                    table = inputs.break_classes(table, rng)
                yield kind, table
            elif kind == "closure":
                yield kind, tuple(
                    inputs.random_representable(rng.choice((1, 2)), rng)
                    for _ in range(rng.randint(1, 3))
                )
            else:
                f = inputs.random_formula(rng, rng.randint(2, 4))
                if kind == "eval":
                    yield kind, (f, {n: rng.randrange(4) for n in inputs.formula_vars(f)})
                elif kind == "equiv":
                    g = (_equivalent_variant(f, rng) if rng.random() < 0.5
                         else inputs.random_formula(rng, rng.randint(2, 4)))
                    yield kind, (f, g)
                else:
                    yield kind, f

    def warmup(self, seed: int):
        """The first input of each kind, so that set-up reaches every layer."""
        first = {}
        for kind, payload in self.inputs(seed):
            first.setdefault(kind, (kind, payload))
            if len(first) == len(QUERY_KINDS):
                return list(first.values())

    def text(self, raw) -> str:
        kind, payload = raw
        if kind == "synthesize":
            return f"{kind} {inputs.table_text(payload)}"
        if kind == "closure":
            return f"{kind} " + " ".join(inputs.table_text(t) for t in payload)
        if kind == "eval":
            f, env = payload
            return f"{kind} {inputs.formula_text(f)} {sorted(env.items())}"
        if kind == "equiv":
            return f"{kind} " + " ; ".join(inputs.formula_text(f) for f in payload)
        return f"{kind} {inputs.formula_text(payload)}"

    def kind(self, raw) -> str:
        return raw[0]

    def encode(self, raw):
        kind, payload = raw
        if kind == "synthesize":
            return kind, inputs.table_text(payload)
        if kind == "closure":
            return kind, [inputs.table_text(t) for t in payload]
        if kind == "eval":
            f, env = payload
            return kind, (inputs.formula_text(f), env)
        if kind == "equiv":
            return kind, [inputs.formula_text(f) for f in payload]
        return kind, inputs.formula_text(payload)

    def prepare(self, raw):
        return ops.prepare_query(self.encode(raw))

    run = staticmethod(ops.run_query)

    # -- checks ------------------------------------------------------------

    def check(self, raw, out) -> bool:
        kind, payload = raw
        if kind == "eval":
            f, env = payload
            return int(out[1]) == inputs.evaluate(f, env)
        if kind == "equiv":
            return _check_equiv(payload, out)
        if kind == "synthesize":
            if not inputs.representable(payload):
                return out[1] is None
            arity = (len(payload).bit_length() - 1) // 2
            names = tuple(f"p{i + 1}" for i in range(arity))
            return out[1] is not None and _reference_table(out[1], names) == payload
        if kind == "closure":
            return _check_closure(payload, out)
        f = payload
        _, names, table = out[:3]
        ref = _reference_table(out[0], names)
        if names != inputs.formula_vars(f) or _elements(table.entries) != ref:
            return False
        if ref != inputs.tabulate(f, names):
            return False  # the parser built another formula than the text's
        if kind == "classify":
            return out[3] == inputs.classify(ref)
        if kind == "violations":
            return _check_witnesses(ref, out[3])
        return True

    def observe(self, args, out, tr) -> None:
        kind = args[0]
        parsed = {"eval": out[:1], "equiv": out[:2], "table": out[:1],
                  "classify": out[:1], "violations": out[:1]}.get(kind, ())
        for f in parsed:
            tr.count("formula.parse.nodes", node_counts([f], formula_children)[0])
        if kind == "synthesize":
            # the representability check inside synthesize, timed on its own
            tr.call("preservation.find_violation.delta_pairing", find_violation,
                    out[0], delta_pairing_relation())
            if out[1] is not None:
                tree, dag = node_counts([out[1]], formula_children)
                tr.count("synthesis.nodes_tree", tree)
                tr.count("synthesis.nodes_dag", dag)
        if kind == "closure":
            tr.count("closure.fragment_size", len(out[0]))
            tr.count("closure.saturated_share", len(out[0]) == SATURATED_UNARY)

    # -- robustness probes ----------------------------------------------------

    def probes(self, seed: int, root: Path, out_dir: Path):
        """Three inputs the CLI is known to mishandle, each in a child with a
        wall-clock deadline and an address-space limit.  Yields (name,
        passed, detail)."""
        closure_sigma = out_dir / "probe-closure.txt"
        closure_sigma.write_text("p -> q\n# p\n~ p\n", encoding="utf-8")
        twelve = inputs.random_twelve(random.Random(f"{self.name}/probe/{seed}"))
        twelve_sigma = out_dir / "probe-twelve.txt"
        twelve_sigma.write_text("".join(
            f"F{i}: {inputs.selector_text(t, ('p', 'q')[: (len(t).bit_length() - 1) // 2])}\n"
            for i, t in enumerate(twelve, start=1)
        ), encoding="utf-8")
        deep = "(" * 500 + "p" + ")" * 500
        cases = (
            ("closure-arity-2", ["closure", "--arity", "2", "--sigma", str(closure_sigma)],
             _closure_output_ok),
            ("derive-constants-random", ["derive-constants", "--sigma", str(twelve_sigma)],
             _constants_output_ok),
            ("parens-500", ["eval", deep, "--env", "p=0"], None),
        )
        for name, argv, output_ok in cases:
            code, stdout, stderr = _run_cli(root, argv, out_dir)
            if code is None:
                yield name, False, f"no exit within {PROBE_DEADLINE_S:g} s"
            elif "Traceback" in stderr:
                yield name, False, f"traceback, exit {code}"
            elif code not in DOCUMENTED_EXIT_CODES:
                yield name, False, f"undocumented exit {code}"
            elif output_ok is None:
                yield name, code == 2, f"exit {code}, want 2"
            else:
                yield name, code == 0 and output_ok(stdout), f"exit {code}"


def _reference_table(f, names) -> tuple[int, ...]:
    """The table by formula.evaluate, the library's reference evaluator."""
    return tuple(
        int(evaluate(f, dict(zip(names, pt))))
        for pt in itertools.product(ELEMENTS, repeat=len(names))
    )


def _check_equiv(payload, out) -> bool:
    f, g = payload
    names = tuple(sorted(set(inputs.formula_vars(f)) | set(inputs.formula_vars(g))))
    same = inputs.tabulate(f, names) == inputs.tabulate(g, names)
    diff, values = out[2], out[3]
    if diff is None:
        return same
    env = {n: int(v) for n, v in diff.items()}
    want = (inputs.evaluate(f, env), inputs.evaluate(g, env))
    return not same and want[0] != want[1] and _elements(values) == want


def _check_witnesses(table, witnesses) -> bool:
    for i, w in enumerate(witnesses, start=1):
        if (w is None) != inputs.preserves(table, i):
            return False
        if w is None:
            continue
        columns = inputs.relation_columns(i)
        chosen = [_elements(c) for c in w.selected_columns]
        image = tuple(
            table[inputs.index([c[r] for c in chosen])] for r in range(len(columns[0]))
        )
        if any(c not in columns for c in chosen) or image in columns:
            return False
        if _elements(w.image) != image:
            return False
    return True


def _check_closure(members, out) -> bool:
    fragment, constants = out
    want = {(0, 1, 2, 3)}
    frontier = set(want)
    while frontier:
        new = set()
        for g in members:
            arity = (len(g).bit_length() - 1) // 2
            for args in itertools.product(want, repeat=arity):
                if frontier.isdisjoint(args):
                    continue
                h = tuple(g[inputs.index([a[j] for a in args])] for j in range(4))
                if h not in want:
                    new.add(h)
        want |= new
        frontier = new
    got = {_elements(t.entries) for t in fragment.tables}
    return got == want and _elements(constants) == tuple(
        c for c in range(4) if (c,) * 4 in want
    )


def _closure_output_ok(stdout: str) -> bool:
    try:
        return json.loads(stdout)["arity"] == 2
    except (ValueError, KeyError, TypeError):
        return False


def _constants_output_ok(stdout: str) -> bool:
    try:
        payload = json.loads(stdout)["constants"]
        return all(payload[t]["table"] == f"1:{t * 4}" for t in inputs.TOKENS)
    except (ValueError, KeyError, TypeError):
        return False


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    # a larger write kills the child with SIGXFSZ, an undocumented exit
    resource.setrlimit(resource.RLIMIT_FSIZE, (PROBE_OUTPUT_BYTES, PROBE_OUTPUT_BYTES))


def _run_cli(root: Path, argv, out_dir: Path):
    """(exit code or None on a missed deadline, stdout, stderr) of the CLI.
    Output goes through files, so a runaway printer cannot fill memory."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_path, err_path = out_dir / "probe-stdout.txt", out_dir / "probe-stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        try:
            code = subprocess.run(
                [sys.executable, "-m", "magari4.cli", *argv],
                cwd=root, env=env, stdout=out, stderr=err,
                timeout=PROBE_DEADLINE_S, preexec_fn=_limit_child,
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
    return (code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


WORKLOADS = {w.name: w for w in (SynthBinary(), DeriveRandom(), QueryMix())}
