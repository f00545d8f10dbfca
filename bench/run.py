"""magari4 benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload derive-random --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  Workloads: synth-binary, derive-random and query-mix (see
workloads.py).  The report goes to stdout, metric by metric with units;
its last line is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each input runs twice, once inside spans, and the metrics are
the per-layer ones; the spans are written to bench/out/.

An op fails when it raises, when its output disagrees with the reference,
or when it takes longer than the workload's deadline; `correct` is false
if any op raised or gave a wrong output.  query-mix also sends three known
bad inputs through the CLI once per run.  These robustness probes are not
ops: each is reported as pass or FAIL on its own line, a traced run counts
the failed ones in robustness.probes_failed, and they count in neither
attempted nor failed, which cover the workload's ops only.

The host's speed drifts, so op times are scaled to a fixed host speed
(see pace.py): every PACE_EVERY_S seconds the run times a fixed
piece of work, and each op's wall time is multiplied by
pace.REFERENCE_S / (mean pace at the two ends of its window).  The report
prints the wall-time figures next to the scaled ones.  The host also
switches speed within a window, faster than a pace can follow.  Where
every op costs about the same (synth-binary), that alone spreads the op
times, and the tail of op-by-op scaled times measures the switching, not
the library; such a workload reads its tail from the wall times instead
and scales it by the pace at the same percentile (see op_tail).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import digest
from pace import REFERENCE_S, pace
from spans import NullTracer, Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "out"
SETUP_REPEATS = 11
DIGEST_INPUTS = 64
MIN_BEYOND_TAIL = 10
PACE_EVERY_S = 0.25
MEMORY_LIMIT_BYTES = 4 * 2**30
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile
    (p with at most one decimal)."""
    return n - max(1, -(-round(n * p * 10) // 1000))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of samples."""
    ordered = sorted(samples)
    return ordered[len(ordered) - beyond(len(ordered), p) - 1]


def tail_latency(samples, p: float) -> float:
    """Latency at the workload's fixed tail percentile p.  Fewer than ten
    samples beyond p make it noise, so the run ends in an error instead."""
    n = beyond(len(samples), p)
    if n < MIN_BEYOND_TAIL:
        raise SystemExit(f"error: only {n} of {len(samples)} op latencies lie beyond "
                         f"p{p:g}; op_tail_ms needs {MIN_BEYOND_TAIL}")
    return percentile(samples, p)


def op_tail(workload, tally) -> float:
    """Seconds at the workload's tail percentile p, scaled to the reference
    pace.  Ops are scaled one by one, except where every op costs about the
    same: the op times then follow the host's speed, so the p-th percentile
    of the wall times is scaled by the p-th percentile of the paces."""
    p = workload.tail_pct
    if workload.constant_cost:
        return tail_latency(tally.lat, p) * REFERENCE_S / percentile(tally.paces, p)
    return tail_latency(tally.scaled, p)


def load_workload(name: str):
    if not (ROOT / "src" / "magari4" / "__init__.py").is_file():
        sys.exit(f"error: run from the root of a magari4 checkout; {ROOT / 'src'} "
                 "holds no magari4 package")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads, workloads.WORKLOADS[name]


# The set-up child imports only the library (through ops), spans' null
# tracer and json; its input comes ready-made on the command line.
SETUP_CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import ops, spans; "
               "ops.warmup(sys.argv[3], json.loads(sys.argv[4]), spans.NullTracer())")


def measure_setup(workload, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports the library and
    completes one warm-up op (for query-mix, one call of each kind); one
    untimed start first fills the bytecode caches.  It is not scaled by
    the pace: the child may run on the other processor, whose speed the
    parent's pace does not show.  No timeout: waiting with one polls in
    steps of up to 50 ms, which would quantize the time."""
    encoded = json.dumps([workload.encode(raw) for raw in workload.warmup(seed)])
    cmd = [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(BENCH),
           workload.name, encoded]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i:
            times.append(perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Latencies and outcomes of the ops of one run."""

    def __init__(self) -> None:
        self.lat: list[float] = []  # seconds, untraced ops
        self.scaled: list[float] = []  # the same, scaled to the reference pace
        self.paces: list[float] = []  # at each window's end
        self.traced_lat: list[float] = []
        self.ok = self.ok_traced = self.wrong = self.errors = self.late = 0
        self.by_kind: dict[str, float] = {}  # seconds of untraced op time

    @property
    def attempted(self) -> int:
        return len(self.lat) + len(self.traced_lat)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.late

    def close_window(self, before: float, after: float) -> None:
        """Scale the untraced ops since the last window by the mean of the
        paces taken at the window's two ends."""
        factor = REFERENCE_S / ((before + after) / 2)
        self.scaled.extend(t * factor for t in self.lat[len(self.scaled):])
        self.paces.append(after)


def measure(workload, seed: int, seconds: float, tracer=None) -> Tally:
    """Closed loop for `seconds` of wall time.  Only the op itself is timed;
    input generation, checks and counters run between ops.  With a tracer,
    each input goes through twice, with and without spans, alternating
    which goes first, so both timings cover the same inputs."""
    tally, null = Tally(), NullTracer()
    source = workload.inputs(seed)
    gc.collect()
    before = pace()
    stop = perf_counter() + seconds
    window_end = perf_counter() + PACE_EVERY_S
    i = 0
    while perf_counter() < stop:
        if perf_counter() >= window_end:
            tally.close_window(before, after := pace())
            before, window_end = after, perf_counter() + PACE_EVERY_S
        raw = next(source)
        args = workload.prepare(raw)
        if tracer is None:
            passes = (null,)
        else:
            passes = (tracer, null) if i % 2 else (null, tracer)
        i += 1
        for tr in passes:
            _run_op(workload, raw, args, tr, tally, traced=tr is tracer)
    tally.close_window(before, pace())
    return tally


def _run_op(workload, raw, args, tr, tally: Tally, traced: bool) -> None:
    """One timed op, then its check and its counters."""
    start = perf_counter()
    try:
        out, raised = tr.call("op", workload.run, args, tr), None
    except Exception as exc:  # any raise is a failed op, reported below
        out, raised = None, exc
    elapsed = perf_counter() - start
    if traced:
        tally.traced_lat.append(elapsed)
    else:
        tally.lat.append(elapsed)
        kind = workload.kind(raw)
        tally.by_kind[kind] = tally.by_kind.get(kind, 0.0) + elapsed
    if raised is not None:
        tally.errors += 1
        print(f"op error: {type(raised).__name__}: {raised}"[:300], file=sys.stderr)
        return
    try:
        good = workload.check(raw, out)
    except Exception as exc:
        print(f"check error: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
        good = False
    if not good:
        tally.wrong += 1
        print(f"wrong output for input: {workload.text(raw)}"[:300], file=sys.stderr)
    elif elapsed * 1000 > workload.deadline_ms:
        tally.late += 1
    elif traced:
        tally.ok_traced += 1
    else:
        tally.ok += 1
    if traced:
        workload.observe(args, out, tr)


def input_digest(workload, seed: int) -> str:
    source = workload.inputs(seed)
    return digest(workload.text(next(source)) for _ in range(DIGEST_INPUTS))


def per_layer(wl_module, tally: Tally, tracer, probes_failed: int) -> dict:
    ops = len(tally.traced_lat)
    op_time = sum(tally.traced_lat)
    totals = layer_totals(tracer.spans)
    metrics = {}
    for name in wl_module.SPANS:
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count/op")
        metrics[f"{name}.self_ms"] = (own * 1000 / ops, "ms/op")
        metrics[f"{name}.share"] = (own / op_time, "ratio")
    for name in wl_module.COUNTS:
        total, n = tracer.counts.get(name, (0.0, 0))
        unit = "ratio" if name.endswith("share") else (
            "log10" if name.endswith("log10") else "count")
        metrics[name] = (total / n if n else 0.0, unit)
    metrics["robustness.probes_failed"] = (probes_failed, "count")
    metrics["span_coverage"] = (1 - totals["op"][1] / op_time, "ratio")
    untraced_rate = tally.ok / sum(tally.lat)
    metrics["trace_overhead"] = (
        (tally.ok_traced / op_time) / untraced_rate if untraced_rate else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-binary", "derive-random", "query-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # an op that allocates without bound raises MemoryError (a failed op)
    # instead of exhausting the machine
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (min(hard, MEMORY_LIMIT_BYTES), hard))
    wl_module, workload = load_workload(args.workload)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    print(f"workload {workload.name}  seed {args.seed}  "
          f"inputs sha256 {input_digest(workload, args.seed)} (first {DIGEST_INPUTS})")
    setup_s = None if tracer else measure_setup(workload, args.seed)

    tally = measure(workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = list(workload.probes(args.seed, ROOT, OUT)) if hasattr(workload, "probes") else []
    probes_failed = sum(1 for _, passed, _ in probes if not passed)

    attempted, failed = tally.attempted, tally.failed
    print(f"ops {attempted}: {tally.wrong} wrong, {tally.errors} raised, "
          f"{tally.late} over the {workload.deadline_ms:g} ms deadline")
    print(f"fail_ratio {failed / attempted:.6f}: {failed} of {attempted} ops failed")
    for name, passed, detail in probes:
        print(f"robustness probe {name}: {'pass' if passed else 'FAIL'} ({detail})")
    if probes:
        print(f"robustness probes: {probes_failed} of {len(probes)} failed "
              "(not ops: counted in neither attempted nor failed)")
    op_time = sum(tally.by_kind.values())
    print("untraced op time by kind: " + ", ".join(
        f"{kind} {seconds / op_time:.3f}" for kind, seconds in sorted(tally.by_kind.items())))

    if tracer:
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        metrics = per_layer(wl_module, tally, tracer, probes_failed)
        notes = {}
    else:
        p = workload.tail_pct
        values = {
            "ops_per_s": tally.ok / sum(tally.scaled),
            "op_p50_ms": statistics.median(tally.scaled) * 1000,
            "op_tail_ms": op_tail(workload, tally) * 1000,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        paces = sorted(tally.paces)
        print(f"host pace {statistics.median(paces) * 1000:.3f} ms (range "
              f"{paces[0] * 1000:.3f}-{paces[-1] * 1000:.3f} over {len(paces)} windows), "
              f"reference {REFERENCE_S * 1000:g} ms; times below are scaled to it")
        notes = {
            "ops_per_s": f"wall {tally.ok / sum(tally.lat):.3f}",
            "op_p50_ms": f"wall {statistics.median(tally.lat) * 1000:.4f}",
            "op_tail_ms": f"p{p:g}, {beyond(len(tally.lat), p)} of {len(tally.lat)} "
                          f"samples beyond it; wall {percentile(tally.lat, p) * 1000:.4f}"
                          + (f"; scaled by the p{p:g} pace {percentile(paces, p) * 1000:.3f} ms"
                             if workload.constant_cost else ""),
            "ok_ratio": "1 - fail_ratio",
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, wall time",
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6f} {unit:8s} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
