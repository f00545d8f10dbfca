"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from magari4.formula import parse, truth_table  # noqa: E402
from magari4.preservation import builtin_relation, preserves, preserves_delta_pairing  # noqa: E402
from magari4.tables import FuncTable  # noqa: E402


# -- tail percentile -----------------------------------------------------------


def test_tail_latency_is_read_at_the_fixed_percentile():
    samples = [float(k) for k in range(1, 2001)]
    random.Random(0).shuffle(samples)
    assert run.beyond(2000, 99.0) == 20
    assert run.tail_latency(samples, 99.0) == 1980.0
    assert run.tail_latency(samples[:100], 90.0) == run.percentile(samples[:100], 90.0)


def test_tail_latency_refuses_fewer_than_ten_samples_beyond():
    # 500 samples leave only five beyond p99
    with pytest.raises(SystemExit, match="only 5 of 500"):
        run.tail_latency([float(k) for k in range(500)], 99.0)


def test_constant_cost_tail_scales_the_wall_tail_by_the_pace_at_the_same_percentile():
    from types import SimpleNamespace

    ref = run.REFERENCE_S
    tally = run.Tally()
    tally.lat = [float(k) for k in range(1, 2001)]
    tally.close_window(ref, ref)
    tally.paces = [ref] * 80 + [2 * ref] * 20  # slow for a fifth of the run
    constant, varied = (SimpleNamespace(tail_pct=99.0, constant_cost=flag)
                        for flag in (True, False))
    assert run.op_tail(constant, tally) == 1980.0 / 2
    assert run.op_tail(varied, tally) == 1980.0


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("probe", 11.0, 12.5, -1),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 3.0, 1.0, 1.5]
    assert spans.layer_totals(recorded + [("a", 13.0, 14.0, -1)])["a"] == (2, 4.0)


def test_tracer_records_parents_and_survives_a_raise():
    tr = spans.Tracer()

    def fails():
        raise KeyError("x")

    def op():
        tr.call("inner", lambda: None)
        with pytest.raises(KeyError):
            tr.call("raises", fails)
        return 7

    assert tr.call("op", op) == 7
    assert [(name, parent) for name, _, _, parent in tr.spans] == [
        ("op", -1), ("inner", 0), ("raises", 0)
    ]
    assert all(start <= end for _, start, end, _ in tr.spans)
    tr.count("n", 2)
    tr.count("n", True)
    assert tr.counts["n"] == [3.0, 2]


def test_node_counts_share_nodes_within_and_between_roots():
    from magari4.algebra import Connective
    from magari4.formula import Binary, Var

    p = Var("p")
    twice = Binary(Connective.AND, p, p)
    four = Binary(Connective.OR, twice, twice)
    assert workloads.node_counts([four], workloads.formula_children) == (7, 3)
    assert workloads.node_counts([four, twice], workloads.formula_children) == (10, 3)


# -- failure counting ------------------------------------------------------------


class _Fake:
    """Inputs name their outcome: ok, wrong, raise or late."""

    deadline_ms = 50.0

    def run(self, outcome, tr):
        if outcome == "raise":
            raise RuntimeError("boom")
        if outcome == "late":
            import time

            time.sleep(0.06)
        return outcome

    def check(self, raw, out):
        return out != "wrong"

    def text(self, raw):
        return raw

    def kind(self, raw):
        return raw

    def observe(self, args, out, tr):
        tr.count("seen", 1)


def test_each_failure_kind_is_counted_once(capsys):
    tally, tracer = run.Tally(), spans.Tracer()
    fake = _Fake()
    for outcome in ("ok", "wrong", "raise", "late", "ok"):
        run._run_op(fake, outcome, outcome, spans.NullTracer(), tally, traced=False)
    run._run_op(fake, "ok", "ok", tracer, tally, traced=True)
    assert (tally.ok, tally.wrong, tally.errors, tally.late, tally.ok_traced) == (2, 1, 1, 1, 1)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert len(tally.lat) == 5 and len(tally.traced_lat) == 1
    assert set(tally.by_kind) == {"ok", "wrong", "raise", "late"}
    assert tracer.counts["seen"] == [1.0, 1]
    assert "boom" in capsys.readouterr().err


# -- pace scaling ------------------------------------------------------------------


def test_each_window_scales_only_its_own_ops_by_its_mean_pace():
    ref = run.REFERENCE_S
    tally = run.Tally()
    tally.lat += [1.0, 2.0]
    tally.close_window(ref, 3 * ref)  # twice as slow as the reference
    tally.lat += [4.0]
    tally.close_window(3 * ref, ref / 2)  # 1.75 times as slow
    assert tally.scaled == pytest.approx([0.5, 1.0, 4.0 / 1.75])
    assert tally.paces == [3 * ref, ref / 2]
    tally.close_window(ref, ref)  # no ops since the last window
    assert len(tally.scaled) == 3


def test_pace_work_is_fixed():
    import pace

    assert pace.work() == pace.work() == 196
    assert 0 < pace.pace() < 1


# -- inputs ------------------------------------------------------------------------


DIGESTS_SEED_1 = {
    "synth-binary": "0528abf71614e682",
    "derive-random": "383292afebc1b6de",
    "query-mix": "777b8e884fe1700f",
}


@pytest.mark.parametrize("name", sorted(DIGESTS_SEED_1))
def test_input_digest_is_fixed_by_the_seed(name):
    workload = workloads.WORKLOADS[name]
    assert run.input_digest(workload, 1) == DIGESTS_SEED_1[name]
    assert run.input_digest(workload, 1) == run.input_digest(workload, 1)
    assert run.input_digest(workload, 2) != DIGESTS_SEED_1[name]


def _lib(table):
    return FuncTable.from_text(inputs.table_text(table))


def test_class_vector_rule_matches_the_library():
    for table in itertools.product(range(4), repeat=4):
        assert inputs.representable(table) == preserves_delta_pairing(_lib(table))


def test_relations_match_the_library():
    rng = random.Random(5)
    tables = [tuple(rng.randrange(4) for _ in range(4 ** rng.choice((1, 2))))
              for _ in range(300)]
    tables += [inputs.random_representable(rng.choice((1, 2, 3)), rng) for _ in range(300)]
    for table in tables:
        for i in range(1, 13):
            assert inputs.preserves(table, i) == preserves(_lib(table), builtin_relation(i))
            columns = {tuple(int(e) for e in c) for c in builtin_relation(i).columns}
            assert set(inputs.relation_columns(i)) == columns


def test_breaking_a_table_makes_it_unrepresentable():
    rng = random.Random(3)
    for _ in range(200):
        table = inputs.random_representable(rng.choice((1, 2)), rng)
        assert inputs.representable(table)
        assert not inputs.representable(inputs.break_classes(table, rng))


def test_twelve_members_break_their_relations():
    for table, i in zip(inputs.random_twelve(random.Random(9)), range(1, 13)):
        assert inputs.representable(table) and not inputs.preserves(table, i)


def test_formula_texts_parse_to_the_generated_formulas():
    rng = random.Random(11)
    for _ in range(200):
        f = inputs.random_formula(rng, rng.randint(2, 4))
        names = inputs.formula_vars(f)
        parsed = parse(inputs.formula_text(f))
        want = tuple(int(e) for e in truth_table(parsed, names).entries)
        assert inputs.tabulate(f, names) == want


def test_selector_text_realizes_the_table():
    rng = random.Random(13)
    for arity, names in ((1, ("p",)), (2, ("p", "q"))):
        for _ in range(50):
            table = inputs.random_representable(arity, rng)
            formula = parse(inputs.selector_text(table, names))
            assert tuple(int(e) for e in truth_table(formula, names).entries) == table


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tally, tracer = run.Tally(), spans.Tracer()
    tracer.call("op", lambda: None)
    tally.lat, tally.traced_lat, tally.ok, tally.ok_traced = [1.0], [1.0], 1, 1
    printed = run.per_layer(workloads, tally, tracer, probes_failed=0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in printed.items()
    ]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


# -- set-up child ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_child_runs_the_warmup_without_the_harness(name):
    import subprocess

    workload = workloads.WORKLOADS[name]
    encoded = json.dumps([workload.encode(raw) for raw in workload.warmup(1)])
    harness = ("argparse", "statistics", "hashlib", "inputs", "workloads", "run")
    script = run.SETUP_CHILD + f"; assert not set({harness!r}) & set(sys.modules)"
    subprocess.run([sys.executable, "-c", script, str(BENCH.parent / "src"), str(BENCH),
                    name, encoded], check=True)
