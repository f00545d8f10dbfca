"""Batch command-line front end.

Every subcommand is a thin adapter over the library: parse flags, call the
corresponding function, format the result.  Exit codes: 0 success, 1
negative answer (not equivalent, nothing violated, precondition not met),
2 usage error (bad flags or input, or a computation past its cap or
budget or out of memory), 3 internal check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import ELEMENTS, Element
from .closure import SystemSigma, closure_fragment
from .constants import (
    InternalProofCheckFailed,
    PreconditionViolated,
    TwelveSystem,
    derive_all_constants,
)
from .formula import (
    counterexample,
    evaluate,
    format_formula,
    free_vars,
    parse,
    tree_size,
    truth_table,
)
from .preservation import classify, column_text, find_violation, lookup_relation
from .selftest import DEFAULT_SEED, run_selftest
from .synthesis import NotRepresentable, synthesize
from .tables import FuncTable, constant_table

USAGE_ERROR = 2
INTERNAL_ERROR = 3
# derive-constants prints an expanded constant only up to this many tree
# nodes; the expansions of members with larger formulas reach 10**12
MAX_PRINTED_NODES = 10**5


class _UsageError(ValueError):
    pass


def _parse_env(text: str | None) -> dict[str, Element]:
    if not text:
        return {}
    env: dict[str, Element] = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"bad binding {item!r}, expected name=value")
        try:
            env[name.strip()] = Element.from_token(value.strip())
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return env


def _parse_vars(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(json.dumps(payload, sort_keys=True) if as_json else text)


def _witness_payload(witness) -> dict:
    return {
        "columns": [column_text(col) for col in witness.selected_columns],
        "image": column_text(witness.image),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    value = evaluate(parse(args.formula), _parse_env(args.env))
    _emit({"value": value.token}, args.json, value.token)
    return 0


def _formula_table(text: str, names: tuple[str, ...] | None = None) -> FuncTable:
    """The formula's table over names, by default its sorted free variables."""
    f = parse(text)
    return truth_table(f, tuple(sorted(free_vars(f))) if names is None else names)


def _cmd_table(args) -> int:
    table = _formula_table(args.formula, _parse_vars(args.vars))
    _emit(
        {"arity": table.arity, "entries": table.to_text().split(":", 1)[1]},
        args.json,
        table.to_text(),
    )
    return 0


def _cmd_equiv(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    diff = counterexample(left, right)
    if diff is None:
        _emit({"equivalent": True}, args.json, "equivalent")
        return 0
    binding = ",".join(f"{name}={value.token}" for name, value in diff.items())
    lv = evaluate(left, diff).token
    rv = evaluate(right, diff).token
    _emit(
        {
            "equivalent": False,
            "counterexample": {name: v.token for name, v in diff.items()},
            "left": lv,
            "right": rv,
        },
        args.json,
        f"not equivalent at {binding}: {lv} vs {rv}",
    )
    return 1


def _input_table(args) -> FuncTable:
    if args.table is not None:
        return FuncTable.from_text(args.table)
    if args.formula is None:
        raise _UsageError("give a formula or --table")
    return _formula_table(args.formula)


def _cmd_classify(args) -> int:
    table = _input_table(args)
    preserved = sorted(classify(table))
    text = " ".join(f"P{i}" for i in preserved) if preserved else "(none)"
    _emit({"classes": preserved}, args.json, text)
    return 0


def _cmd_violations(args) -> int:
    table = _input_table(args)
    if args.relations:
        specs = [item.strip() for item in args.relations.split(",")]
    else:
        specs = [f"R{i}" for i in range(1, 13)]
    results = []
    lines = []
    found = False
    for spec in specs:
        relation = lookup_relation(spec)
        label = relation.name or spec
        witness = find_violation(table, relation)
        if witness is None:
            results.append({"relation": label, "preserved": True})
            lines.append(f"{label}: preserved")
        else:
            found = True
            payload = _witness_payload(witness)
            results.append({"relation": label, "preserved": False, "witness": payload})
            cols = ";".join(payload["columns"])
            img = payload["image"]
            lines.append(f"{label}: violated by columns ({cols}) -> image ({img})")
    _emit({"results": results}, args.json, "\n".join(lines))
    return 0 if found else 1


def _cmd_synthesize(args) -> int:
    table = FuncTable.from_text(args.table)
    if table.arity > 4:
        raise _UsageError("synthesis capped at arity 4 on the command line")
    formula = synthesize(table)
    text = format_formula(formula)
    _emit({"formula": text, "table": table.to_text()}, args.json, text)
    return 0


def _read_sigma_lines(path: str) -> list[tuple[str | None, str]]:
    """Sigma files: one `<arity>:<entries>` table or formula per line, with
    an optional `label:` prefix; blank lines are skipped."""
    entries: list[tuple[str | None, str]] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            label: str | None = None
            head, sep, tail = line.partition(":")
            if sep and not (head.isdigit() and tail and tail[0] in "0rs1"):
                label, line = head.strip(), tail.strip()
            entries.append((label, line))
    return entries


def _sigma_member(body: str) -> FuncTable:
    if ":" in body and body.split(":", 1)[0].isdigit():
        return FuncTable.from_text(body)
    table = _formula_table(body)
    if table.arity == 0:
        raise _UsageError(f"system member {body!r} has no variables")
    return table


def _cmd_closure(args) -> int:
    members = []
    for idx, (label, body) in enumerate(_read_sigma_lines(args.sigma)):
        members.append((label or f"g{idx + 1}", _sigma_member(body)))
    if not members:
        raise _UsageError(f"no system members in {args.sigma}")
    sigma = SystemSigma(tuple(members))
    fragment = closure_fragment(sigma, args.arity)
    constants = sorted(
        e.token
        for e in ELEMENTS
        if constant_table(e, args.arity) in fragment.tables
    )
    print(
        json.dumps(
            {"arity": args.arity, "size": len(fragment), "constants": constants},
            sort_keys=True,
        )
    )
    return 0


def _printed(f) -> str | None:
    """The text of f, or None when it has more than MAX_PRINTED_NODES tree nodes."""
    return format_formula(f) if tree_size(f) <= MAX_PRINTED_NODES else None


def _cmd_derive_constants(args) -> int:
    formulas: dict[int, str] = {}
    for label, body in _read_sigma_lines(args.sigma):
        if not label or not label.upper().startswith("F") or not label[1:].isdigit():
            line = body if label is None else f"{label}: {body}"
            raise _UsageError(f"expected lines like 'F3: <formula>', got {line!r}")
        index = int(label[1:])
        if index in formulas:
            raise _UsageError(f"duplicate member F{index}")
        formulas[index] = body
    system = TwelveSystem.from_formulas(formulas)
    result = derive_all_constants(system)
    payload = {
        value.token: {
            "constant": value.token,
            "term": derivation.term_text(),
            "formula": _printed(derivation.expand()),
            "table": derivation.realized.to_text(),
            "trace": [
                {"step": step, "claim": claim} for step, claim in derivation.trace
            ],
        }
        for value, derivation in result.items()
    }
    print(json.dumps({"constants": payload}, sort_keys=True))
    return 0


def _cmd_selftest(args) -> int:
    seed = int(os.environ.get("MAGARI4_SEED", str(DEFAULT_SEED)))
    checks = run_selftest(seed=seed)
    if args.json:
        print(
            json.dumps(
                {
                    "checks": [
                        {"name": name, "passed": passed} for name, passed in checks
                    ],
                    "passed": all(passed for _, passed in checks),
                },
                sort_keys=True,
            )
        )
    else:
        for name, passed in checks:
            print(f"{'ok  ' if passed else 'FAIL'}  {name}")
        good = sum(1 for _, passed in checks if passed)
        print(f"{good}/{len(checks)} checks passed")
    return 0 if all(passed for _, passed in checks) else INTERNAL_ERROR


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magari4",
        description="The four-element Magari algebra: evaluation, preservation "
        "analysis, synthesis, and constant derivation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula under a valuation")
    p.add_argument("formula")
    p.add_argument("--env", help="comma-separated bindings, e.g. p=0,q=s")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("table", help="print a formula's truth table")
    p.add_argument("formula")
    p.add_argument("--vars", help="variable order (default: sorted free variables)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("equiv", help="decide semantic equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("classify", help="which built-in relations are preserved")
    p.add_argument("formula", nargs="?")
    p.add_argument("--table", help="table text <arity>:<entries> instead of a formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("violations", help="find violation witnesses per relation")
    p.add_argument("formula", nargs="?")
    p.add_argument("--table", help="table text <arity>:<entries> instead of a formula")
    p.add_argument(
        "--relations",
        help="comma-separated relations (R1..R12 or matrix text); default all",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_violations)

    p = sub.add_parser("synthesize", help="build a formula realizing a table")
    p.add_argument("--table", required=True, help="table text <arity>:<entries>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("closure", help="composition closure of a system file")
    p.add_argument("--sigma", required=True, help="one formula or table per line")
    p.add_argument("--arity", type=int, default=1, choices=(1, 2, 3))
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser(
        "derive-constants", help="derive 0, r, s, 1 from a twelve-member system"
    )
    p.add_argument("--sigma", required=True, help="lines 'F1: <formula>' .. 'F12: ...'")
    p.set_defaults(fn=_cmd_derive_constants)

    p = sub.add_parser("selftest", help="re-verify the package's checkable claims")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return USAGE_ERROR
    except NotRepresentable as exc:
        print(f"not representable: {exc}", file=sys.stderr)
        return 1
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # parse, evaluation and usage errors too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalProofCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
