"""Command-line front end: golden outputs, exit codes, JSON round-trips."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magari4
from magari4 import cli
from magari4.cli import run
from magari4.closure import COMPOSE_BUDGET
from magari4.constants import TwelveSystem
from magari4.formula import format_formula, parse, truth_table
from magari4.preservation import SEARCH_BUDGET, random_delta_preserving_table
from magari4.selftest import CANNED_FORMULAS, random_twelve_tables
from magari4.tables import FuncTable


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_child(*argv, timeout=60, module="magari4.cli"):
    """The CLI, run as `python -m module`, in a child process that imports
    the package this process imported, installed or not."""
    src = str(Path(magari4.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# eval / table / equiv
# ---------------------------------------------------------------------------


def test_eval_golden(capsys):
    code, out, _ = invoke(capsys, "eval", "p -> p", "--env", "p=s")
    assert code == 0
    assert out == "1\n"


def test_eval_accepts_long_tokens_and_json(capsys):
    code, out, _ = invoke(capsys, "eval", "~ # (p & ~p)", "--env", "p=sigma", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "r"}


def test_eval_unbound_variable_is_usage_error(capsys):
    code, _, err = invoke(capsys, "eval", "p & q", "--env", "p=0")
    assert code == 2
    assert "q" in err


def test_eval_bad_binding(capsys):
    code, _, err = invoke(capsys, "eval", "p", "--env", "p=x")
    assert code == 2


def test_table_golden(capsys):
    code, out, _ = invoke(capsys, "table", "# p")
    assert code == 0
    assert out == "1:ss11\n"


def test_table_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "table", "p & q", "--json")
    payload = json.loads(out)
    table = FuncTable.from_text(f"{payload['arity']}:{payload['entries']}")
    assert table == truth_table(parse("p & q"), ("p", "q"))


def test_table_respects_var_order(capsys):
    _, out_pq, _ = invoke(capsys, "table", "p -> q", "--vars", "p,q")
    _, out_qp, _ = invoke(capsys, "table", "p -> q", "--vars", "q,p")
    assert out_pq != out_qp


def test_table_missing_variable_is_usage_error(capsys):
    # an explicit order is used as given, even one that names no variable
    for order, missing in (("p", ["q"]), ("", ["p", "q"]), (" , ", ["p", "q"])):
        code, out, err = invoke(capsys, "table", "p & q", "--vars", order)
        assert (code, out) == (2, "")
        assert err == f"error: var_order misses free variable(s): {missing}\n"
    assert invoke(capsys, "table", "1", "--vars", "") == (0, "0:1\n", "")


def test_equiv_negative_with_counterexample(capsys):
    code, out, _ = invoke(capsys, "equiv", "p", "q")
    assert code == 1
    assert out == "not equivalent at p=0,q=r: 0 vs r\n"


def test_equiv_positive(capsys):
    code, out, _ = invoke(capsys, "equiv", "# # (p & ~p)", "1")
    assert code == 0
    assert out == "equivalent\n"


def test_parse_error_is_usage_error(capsys):
    code, _, err = invoke(capsys, "eval", "p &")
    assert code == 2
    assert "error" in err


def test_deeply_nested_formula_evaluates():
    # one argument string is capped at 128 KiB on Linux
    for depth in (500, 50_000):
        deep = "(" * depth + "p" + ")" * depth
        done = invoke_child("eval", deep, "--env", "p=0", timeout=5)
        assert done.returncode == 0
        assert done.stdout == "0\n"
        assert done.stderr == ""


def test_table_over_too_many_variables_is_usage_error(capsys):
    wide = " & ".join(f"p{i}" for i in range(13))
    for argv in (("table", wide), ("equiv", wide, "p0")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: a truth table over 13 variables exceeds the cap of 8\n"


def test_long_conjunction_chain_tabulates(capsys):
    # neither the parser nor the table walk recurses on a chain
    code, out, err = invoke(capsys, "table", " & ".join(["p"] * 3000))
    assert code == 0
    assert out == "1:0rs1\n"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# classify / violations
# ---------------------------------------------------------------------------


def test_classify_table_golden(capsys):
    code, out, _ = invoke(capsys, "classify", "--table", "1:ss11")
    assert code == 0
    assert out == "P2 P9 P10\n"


def test_classify_formula_and_json(capsys):
    code, out, _ = invoke(capsys, "classify", "p", "--json")
    assert code == 0
    assert json.loads(out) == {"classes": list(range(1, 13))}


def three_rows(keep) -> str:
    """Matrix text of the columns of three rows that keep holds of."""
    cols = [col for col in itertools.product("0rs1", repeat=3) if keep(col)]
    return ";".join("".join(col[i] for col in cols) for i in range(3))


FULL_3_ROWS = three_rows(lambda col: True)
NO_111_3_ROWS = three_rows(lambda col: col != ("1", "1", "1"))
# the first two rows share a delta class, {0, r} or {s, 1}
SHARED_CLASS_3_ROWS = three_rows(lambda col: (col[0] in "0r") == (col[1] in "0r"))


def test_classify_an_eight_variable_table_that_preserves_everything():
    # R12 alone has 8**8 column selections at arity 8, none violating
    text = "p1 & " + " & ".join(f"(p{i} | 1)" for i in range(2, 9))
    done = invoke_child("classify", text, timeout=5)
    assert done.returncode == 0
    assert done.stdout == " ".join(f"P{i}" for i in range(1, 13)) + "\n"
    done = invoke_child("violations", text, "--relations", "R12", timeout=5)
    assert done.returncode == 1
    assert done.stdout == "R12: preserved\n"
    # every column of three rows: 64**8 selections, few distinct blocks
    conjunction = " & ".join(f"p{i}" for i in range(1, 9))
    done = invoke_child("violations", conjunction, "--relations", FULL_3_ROWS, timeout=5)
    assert done.returncode == 1
    assert done.stdout == f"{FULL_3_ROWS}: preserved\n"
    # without `111` the relation is not full, so the search runs
    done = invoke_child("violations", conjunction, "--relations", NO_111_3_ROWS, timeout=5)
    assert done.returncode == 1
    assert done.stdout == f"{NO_111_3_ROWS}: preserved\n"


def test_a_full_relation_is_preserved_without_search():
    # the 5-ary table the search refuses below; every image is a column here
    table = random_delta_preserving_table(5, random.Random(1)).to_text()
    done = invoke_child("violations", "--table", table, "--relations", FULL_3_ROWS, timeout=5)
    assert done.returncode == 1
    assert done.stdout == f"{FULL_3_ROWS}: preserved\n"


def test_preservation_search_past_its_budget_is_usage_error():
    # every delta-preserving table preserves this relation, but a random
    # 5-ary one has too many distinct blocks for the memo
    table = random_delta_preserving_table(5, random.Random(1)).to_text()
    done = invoke_child("violations", "--table", table, "--relations", SHARED_CLASS_3_ROWS,
                        timeout=5)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: the preservation search needs more than {SEARCH_BUDGET} steps\n"
    )


def test_violations_single_relation(capsys):
    code, out, _ = invoke(capsys, "violations", "--table", "1:ss11", "--relations", "R1")
    assert code == 0
    assert out == "R1: violated by columns (0) -> image (s)\n"
    # a constant's one selection is empty; its image still has one entry per row
    code, out, _ = invoke(capsys, "violations", "--table", "0:s", "--relations", "R11")
    assert code == 0
    assert out == "R11: violated by columns () -> image (ss)\n"


def test_violations_preserved_is_negative_answer(capsys):
    code, out, _ = invoke(capsys, "violations", "--table", "1:ss11", "--relations", "R2")
    assert code == 1
    assert out == "R2: preserved\n"


def test_violations_all_relations_json(capsys):
    code, out, _ = invoke(capsys, "violations", "# p", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 12
    first = payload["results"][0]
    assert first == {
        "relation": "R1",
        "preserved": False,
        "witness": {"columns": ["0"], "image": "s"},
    }


def test_violations_matrix_text_relation(capsys):
    code, out, _ = invoke(
        capsys, "violations", "--table", "1:1sr0", "--relations", "0rs1;r01s"
    )
    assert code == 1  # negation commutes with the swap, so it preserves
    assert "preserved" in out


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_round_trips_through_the_grammar(capsys):
    code, out, _ = invoke(capsys, "synthesize", "--table", "1:ss11")
    assert code == 0
    assert truth_table(parse(out.strip()), ("p1",)) == FuncTable.from_text("1:ss11")


def test_synthesize_rejects_breaker_with_exit_1(capsys):
    code, _, err = invoke(capsys, "synthesize", "--table", "1:0s00")
    assert code == 1
    assert "not representable" in err


def test_synthesize_arity_cap_is_usage_error(capsys):
    entries = "0" * (4**5)
    code, _, _ = invoke(capsys, "synthesize", "--table", f"5:{entries}")
    assert code == 2


def test_synthesize_bad_table_text(capsys):
    code, _, _ = invoke(capsys, "synthesize", "--table", "1:ssx1")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "synthesize"])
def test_huge_table_arity_is_usage_error(capsys, command):
    for arity in ("100000", "99999999999"):
        start = time.perf_counter()
        code, _, err = invoke(capsys, command, "--table", f"{arity}:0")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"error: arity {arity} needs" in err


# ---------------------------------------------------------------------------
# closure / derive-constants
# ---------------------------------------------------------------------------


def test_closure_json_schema(tmp_path, capsys):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("~ p\n# p\n")
    code, out, _ = invoke(capsys, "closure", "--sigma", str(sigma), "--arity", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"arity": 1, "size": 10, "constants": ["0", "1", "r", "s"]}


def test_closure_accepts_tables_and_labels(tmp_path, capsys):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("neg: 1:1sr0\n")
    code, out, _ = invoke(capsys, "closure", "--sigma", str(sigma))
    assert code == 0
    assert json.loads(out) == {"arity": 1, "size": 2, "constants": []}


def test_closure_missing_file_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "closure", "--sigma", "/nonexistent/sigma.txt")
    assert code == 2


def test_closure_binary_fragment(tmp_path, capsys):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("meet: p & q\n")
    code, out, _ = invoke(capsys, "closure", "--sigma", str(sigma), "--arity", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 2
    assert payload["size"] == 3  # p, q, p & q
    assert payload["constants"] == []


def test_closure_past_the_budget_is_usage_error(tmp_path):
    # the binary fragment of this system would need over 10**8 compositions
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("p -> q\n# p\n~ p\n")
    done = invoke_child("closure", "--arity", "2", "--sigma", str(sigma))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: the arity-2 closure needs more than {COMPOSE_BUDGET} "
        "table compositions\n"
    )


def test_running_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    # exit 1 would claim a negative answer
    def exhausted(sigma, k):
        raise MemoryError

    monkeypatch.setattr(cli, "closure_fragment", exhausted)
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("~ p\n")
    code, out, err = invoke(capsys, "closure", "--sigma", str(sigma))
    assert (code, out, err) == (2, "", "error: out of memory\n")


def _write_canned(tmp_path):
    lines = [f"F{i}: {CANNED_FORMULAS[i]}" for i in range(1, 13)]
    path = tmp_path / "twelve.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_derive_constants_end_to_end(tmp_path, capsys):
    path = _write_canned(tmp_path)
    code, out, _ = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert code == 0
    # the exact stdout, pinned by its size and sha256
    assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == (
        5919, "8dcbfe1f3f26761693243e029b08b81289f9286244d0f980be19693c6ed1bf89"
    )
    payload = json.loads(out)["constants"]
    assert sorted(payload) == ["0", "1", "r", "s"]
    for token, entry in payload.items():
        assert entry["constant"] == token
        assert entry["table"] == "1:" + token * 4
        assert entry["trace"]
        # the reported formula really realizes the constant table
        assert truth_table(parse(entry["formula"]), ("p",)).entries == tuple(
            [FuncTable.from_text(entry["table"]).entries[0]] * 4
        )


def test_derive_constants_leaves_huge_expansions_unprinted(tmp_path):
    # the expanded constants of this system have 1.3e9 to 9.6e11 tree nodes
    system = TwelveSystem.from_tables(random_twelve_tables(random.Random(5)))
    path = tmp_path / "sigma.txt"
    path.write_text(
        "".join(f"{m.label}: {format_formula(m.formula)}\n" for m in system.members),
        encoding="utf-8",
    )
    result = invoke_child("derive-constants", "--sigma", str(path), timeout=10)
    assert result.returncode == 0
    out = result.stdout.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        6649, "4f3a178d927c970f4e6136fa0ed88b5efc72c97ba9efe1fa7de93051373bf4fd"
    )
    payload = json.loads(result.stdout)["constants"]
    assert {token: (entry["table"], entry["formula"]) for token, entry in payload.items()} == {
        token: (f"1:{token * 4}", None) for token in ("0", "r", "s", "1")
    }


def test_derive_constants_projection_is_negative(tmp_path, capsys):
    lines = [f"F{i}: {CANNED_FORMULAS[i]}" for i in range(1, 13)]
    lines[4] = "F5: p"
    path = tmp_path / "twelve.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert code == 1
    assert "F5 preserves R5" in err


def test_derive_constants_missing_member(tmp_path, capsys):
    path = tmp_path / "eleven.txt"
    path.write_text("\n".join(f"F{i}: # p" for i in range(1, 12)) + "\n")
    code, _, err = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert code == 2
    assert err == "error: missing members: F12\n"


def test_derive_constants_unexpected_member(tmp_path, capsys):
    path = _write_canned(tmp_path)
    path.write_text(path.read_text() + "F13: p\n")
    code, out, err = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: unexpected members: F13\n"


def test_derive_constants_duplicate_member(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("F1: # p\nF1: ~ p\n")
    code, _, err = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("line", ["# p", "G1: p"])
def test_derive_constants_names_a_line_without_an_f_label(tmp_path, capsys, line):
    path = tmp_path / "sigma.txt"
    path.write_text(line + "\n")
    code, out, err = invoke(capsys, "derive-constants", "--sigma", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: expected lines like 'F3: <formula>', got {line!r}\n"


# ---------------------------------------------------------------------------
# selftest and dispatch
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys, monkeypatch):
    monkeypatch.setenv("MAGARI4_SEED", "7")
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
    assert "(seed 7)" in out


def test_selftest_json(capsys):
    code, out, _ = invoke(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_console_entry_point():
    import shutil

    exe = shutil.which("magari4")
    if exe is None:
        pytest.skip("package not installed with console scripts")
    proc = subprocess.run(
        [exe, "eval", "p -> p", "--env", "p=s"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_package_runs_as_a_module():
    proc = invoke_child("eval", "p -> p", "--env", "p=s", module="magari4")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_derivation_output_identical_across_processes(tmp_path):
    # object identities differ between interpreter runs; the payload must not
    path = _write_canned(tmp_path)
    outs = [invoke_child("derive-constants", "--sigma", str(path)).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["constants"]


# ---------------------------------------------------------------------------
# The exit-code contract on drawn inputs
# ---------------------------------------------------------------------------

_VARIABLES = ("p", "q", "r", "s")


def _formula_texts(names=_VARIABLES):
    """Small formulas in the concrete syntax, or text over its alphabet
    that is mostly not a formula."""
    atoms = st.sampled_from((*names, "0", "1", "rho", "sigma"))
    formulas = st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(("~", "#", "[]")), sub).map("".join),
            st.tuples(sub, st.sampled_from((" & ", " | ", " -> ", " <-> ")), sub).map(
                lambda t: f"({''.join(t)})"
            ),
        ),
        max_leaves=6,
    )
    junk = st.text(alphabet="pq01~#&|()-<>[] rs_é", max_size=12)
    return st.one_of(formulas, formulas, formulas, junk)


@st.composite
def _table_texts(draw, max_arity=3):
    """Table text of arity max_arity or less, or a near miss of it."""
    if draw(st.booleans()):
        arity = draw(st.integers(0, max_arity))
        entries = draw(st.text(alphabet="0rs1", min_size=4**arity, max_size=4**arity))
        return f"{arity}:{entries}"
    return draw(st.text(alphabet="0123rs1x:-", max_size=10))


_ENV = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(_VARIABLES), st.sampled_from(("0", "r", "s", "1", "sigma"))),
        max_size=4,
    ).map(lambda pairs: ",".join(f"{name}={value}" for name, value in pairs)),
    st.text(alphabet="pqx=0rs12,", max_size=8),
)
_VARS = st.lists(st.sampled_from((*_VARIABLES, "t", "rho", "1x", " ")), max_size=4).map(",".join)
_RELATIONS = st.lists(
    st.one_of(
        st.integers(0, 13).map(lambda i: f"R{i}"),
        st.lists(st.text(alphabet="0rs1", min_size=1, max_size=4), min_size=1, max_size=3).map(
            ";".join
        ),
        st.text(alphabet="0rs1R;x", max_size=6),
    ),
    min_size=1,
    max_size=3,
).map(",".join)


@st.composite
def _system_files(draw):
    """System file bytes: members of arity 2 or less, as formulas over p, q
    or as table text, under optional labels; or a near miss of one."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    if draw(st.booleans()):  # the canned system, some lines replaced
        lines = [f"F{i}: {CANNED_FORMULAS[i]}" for i in range(1, 13)]
        for _ in range(draw(st.integers(0, 2))):
            replaced = draw(st.sampled_from(("F5: p", "# p", "G1: ~p", "F13: p")))
            lines[draw(st.integers(0, 11))] = replaced
    else:
        member = st.one_of(_formula_texts(("p", "q")), _table_texts(max_arity=2))
        label = st.sampled_from(("", "g1: ", "F1: ", "F12: ", "G1: ", ": "))
        lines = draw(st.lists(st.tuples(label, member).map("".join), max_size=4))
    return "\n".join(lines).encode()


@st.composite
def _invocations(draw):
    """argv for one subcommand, without the system file of closure and
    derive-constants, and the bytes of that file (or None)."""
    command = draw(st.sampled_from(
        ("eval", "table", "equiv", "classify", "violations", "synthesize", "closure",
         "derive-constants")
    ))
    json_flag = draw(st.sampled_from(((), ("--json",))))
    if command == "eval":
        return [command, draw(_formula_texts()), f"--env={draw(_ENV)}", *json_flag], None
    if command == "table":
        vars_flag = draw(st.sampled_from(((), (f"--vars={draw(_VARS)}",))))
        return [command, draw(_formula_texts()), *vars_flag, *json_flag], None
    if command == "equiv":
        return [command, draw(_formula_texts()), draw(_formula_texts()), *json_flag], None
    if command in ("classify", "violations"):
        if draw(st.booleans()):
            argv = [command, f"--table={draw(_table_texts())}"]
        else:
            argv = [command, draw(_formula_texts())]
        if command == "violations" and draw(st.booleans()):
            argv.append(f"--relations={draw(_RELATIONS)}")
        return argv + list(json_flag), None
    if command == "synthesize":
        return [command, f"--table={draw(_table_texts())}", *json_flag], None
    if command == "closure":
        return [command, "--arity", "1"], draw(_system_files())
    return [command], draw(_system_files())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_invocations())
def test_every_drawn_invocation_keeps_the_exit_code_contract(invocation):
    argv, sigma = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if sigma is not None:
            path = Path(tmp) / "sigma.txt"
            path.write_bytes(sigma)
            argv = [*argv, "--sigma", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
