"""Benchmark of the upg command line, one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Each operation is one in-process call of ``upg.cli.main(argv)`` with its
stdout and stderr captured, run back to back by one client (a closed
loop; no threads, no pools).  The timed phase cycles through the
workload's operation list until ``--seconds`` have passed, and at least
once.  Every output is checked by ``oracle.py``, which does not use
``upg``; an operation that raises, exits with an unexpected code, writes
to stderr or fails its check counts as failed and as missing every
latency limit, and the run goes on.

``--trace 0`` prints the end-to-end metrics, with every time converted
to a fixed reference speed of the host (``reference.py``).  ``--trace 1`` alternates
untraced passes with passes traced by ``spans.py`` and prints the
per-layer metrics.  Either way the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from reference import REFERENCE_S, SpeedProbe
from spans import OUTCOMES, SOLVERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_PROBES = 5
REPEAT_S = 0.15
REPEAT_MAX = 4
SHOWN_FAILURES = 10


def _solver_metrics():
    for short in SOLVERS.values():
        if short in ("girth", "eccentricity"):
            moves = "wall_s, items_per_s on sweep; op_p90_ms on analyze"
        else:
            moves = "op_p50_ms on analyze"
        yield (f"invariants.{short}_s", "s", moves)
        yield (f"invariants.{short}_calls", "count", f"as invariants.{short}_s")


# (name, unit, the end-to-end metric it should move)
LAYER_METRICS = [
    ("rings.parse_s", "s", "setup_s; wall_s on sweep"),
    ("rings.units_s", "s", "op_p50_ms, op_p90_ms, items_per_s on build_ring; op_p50_ms on analyze"),
    ("rings.units_calls", "count", "as rings.units_s"),
    ("rings.mul_calls", "count", "as rings.units_s"),
    ("graphs.build_s", "s", "latency and peak_rss_mb on build_dense"),
    ("graphs.edges_built", "count", "as graphs.build_s"),
    ("graphs.recognize_s", "s", "op_p50_ms, op_p90_ms on analyze"),
    ("graphs.export_s", "s", "latency and peak_rss_mb on build_dense"),
    ("graphs.export_bytes", "bytes", "as graphs.export_s"),
    *_solver_metrics(),
    ("invariants.report_self_s", "s", "op_p50_ms on analyze"),
    ("invariants.input_vertices", "count", "none; work offered to the solvers"),
    ("invariants.input_edges", "count", "none; work offered to the solvers"),
    ("invariants.refusals", "count", "success_rate everywhere"),
    ("claims.sweep_self_s", "s", "wall_s, items_per_s on sweep"),
    ("claims.render_s", "s", "wall_s on sweep"),
    *((f"claims.{o}", "count", "none; exact verdict count") for o in OUTCOMES),
    ("cli.self_s", "s", "every latency; should stay near zero"),
    ("trace.overhead_ratio", "ratio", "none; traced over untraced pass time"),
]


@dataclass
class Outcome:
    op: workloads.Op
    start: float  # time.perf_counter() around the call
    end: float
    items: int
    reason: str | None  # why the operation failed; None when it passed

    @property
    def seconds(self) -> float:
        return self.end - self.start


def check_output(op: workloads.Op, text: str) -> tuple[str | None, int]:
    """(failure reason or None, items) for one operation's stdout."""
    if op.output == "csv":
        return oracle.check_sweep(text)
    units, self_inverse = oracle.unit_counts(op.ring)
    if op.output == "report":
        return oracle.check_report(text, units, self_inverse, op.graph), 1
    edges = oracle.expected_edges(units, self_inverse, op.graph)
    check = oracle.check_dot if op.output == "dot" else oracle.check_graph_json
    return check(text, units, edges), 1


def run_op(op: workloads.Op, call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    reason = None
    # A command line call starts in a fresh process; collecting what the
    # previous operations and their checks left keeps their garbage from
    # being collected, at random, inside this one.
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any escape is a failed operation
        code = None
        reason = f"raised {type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
    end = time.perf_counter()
    items = 0
    if reason is None and code != op.expect_exit:
        reason = f"exit code {code}, want {op.expect_exit}"
    if reason is None and err.getvalue():
        reason = f"stderr: {err.getvalue().splitlines()[0]}"
    if reason is None:
        reason, items = check_output(op, out.getvalue())
    return Outcome(op, start, end, 0 if reason else items, reason)


def run_pass(ops: list[workloads.Op], call) -> list[Outcome]:
    return [run_op(op, call) for op in ops]


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, interpolated between the two nearest ranks, so that
    it rests on two operations; an infinite neighbour (a failed
    operation) makes it infinite."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    if rank == low:
        return ordered[low]
    if math.isinf(ordered[low + 1]):
        return math.inf
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC_DIR), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
    return float(probe.stdout)


def best_times(samples: list[list[Outcome]]) -> list[float]:
    """Each operation's best time over its samples.

    The host's speed drifts by tens of percent with other tenants' load,
    which only ever slows an operation down; the best of several samples
    is the program's own cost.
    """
    return [min(o.seconds for o in runs) for runs in samples]


def failures_of(outcomes: list[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if o.reason is not None]


def print_failures(failed: list[Outcome]) -> None:
    for o in failed[:SHOWN_FAILURES]:
        print(f"  FAILED {' '.join(o.op.argv)}: {o.reason}")
    if len(failed) > SHOWN_FAILURES:
        print(f"  ... and {len(failed) - SHOWN_FAILURES} more failed operations")


def result_line(outcomes: list[Outcome], metrics: dict) -> str:
    failed = len(failures_of(outcomes))
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def end_to_end(name: str, ops: list[workloads.Op], seed: int, seconds: float) -> int:
    import upg.cli

    # The run always completes one pass, then ends before an operation
    # whose best time so far would overrun the deadline.  A set-up probe
    # follows each pass, so that their median spans the run.
    deadline = time.perf_counter() + seconds
    samples: list[list[Outcome]] = [[] for _ in ops]
    setup: list[tuple[float, float, float]] = []  # (start, end, probe's own seconds)
    speed = SpeedProbe()

    def probe() -> None:
        with speed.paused():
            start = time.perf_counter()
            own = setup_probe(name, seed)
            setup.append((start, time.perf_counter(), own))

    done = 0
    with speed:
        while True:
            i = done % len(ops)
            if done >= len(ops) and time.perf_counter() + min(o.seconds for o in samples[i]) >= deadline:
                break
            # a short operation runs several times in a row, so that
            # its median rests on more samples
            spent = repeats = 0
            while repeats < REPEAT_MAX and spent < REPEAT_S:
                samples[i].append(run_op(ops[i], upg.cli.main))
                spent += samples[i][-1].seconds
                repeats += 1
            done += 1
            if i == len(ops) - 1:
                probe()
        while len(setup) < SETUP_PROBES:
            probe()
    outcomes = [o for runs in samples for o in runs]
    failed = failures_of(outcomes)
    # each operation's median time at the reference speed; one that
    # failed in any pass misses every latency limit
    op_s = [statistics.median(speed.at_reference(o.start, o.end) for o in runs) for runs in samples]
    op_ms = [math.inf if failures_of(runs) else t * 1000 for runs, t in zip(samples, op_s)]
    wall = sum(op_s)
    measured_wall = sum(statistics.median(o.seconds for o in runs) for runs in samples)
    items = sum(min(o.items for o in runs) for runs in samples)
    n = len(op_ms)
    error_rate = len(failed) / len(outcomes)
    over = f"median times of {n} operations ({len(outcomes)} samples, {done / n:.1f} passes)"
    p50, p90 = percentile(op_ms, 0.5), percentile(op_ms, 0.9)
    setup_s = statistics.median(own * speed.scale(start, end) for start, end, own in setup)
    measured_setup = statistics.median(own for _, _, own in setup)
    rows = [
        ("setup_s", setup_s, "s", f"median of {len(setup)} fresh-interpreter set-ups; measured {measured_setup:.6g} s"),
        ("wall_s", wall, "s", f"sum of the {over}; measured {measured_wall:.6g} s"),
        ("items_per_s", items / wall, "1/s", f"{items} items per pass over wall_s"),
        ("op_p50_ms", p50, "ms", f"of the {over}"),
        ("op_p90_ms", p90, "ms", f"of the {over}, {sum(t > p90 for t in op_ms)} beyond it"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss of this process"),
        ("success_rate", 1 - error_rate, "ratio", f"{len(outcomes) - len(failed)} of {len(outcomes)} operations passed"),
    ]
    factors = sorted(REFERENCE_S / t for t in speed.times)
    print(f"workload {name}  seed {seed}  untraced")
    print(
        f"  times at the reference speed, from {len(factors)} kernel samples: measured x "
        f"{statistics.median(factors):.4f} (median; quartiles {percentile(factors, 0.25):.4f}, {percentile(factors, 0.75):.4f})"
    )
    for metric, value, unit, note in rows:
        print(f"  {metric:<14} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<14} {error_rate:>14.6g} {'ratio':<6} {len(failed)} of {len(outcomes)} operations failed")
    print_failures(failed)
    print(result_line(outcomes, {metric: (value, unit) for metric, value, unit, _ in rows}))
    return 0


def per_layer(name: str, ops: list[workloads.Op], seed: int, seconds: float) -> int:
    import upg.cli

    tracer = Tracer()
    traced_main = lambda argv: tracer.span("cli.self", upg.cli.main, argv)  # noqa: E731
    untraced, traced = [], []
    # after the first pair of passes, the run ends before a pair that
    # would overrun the deadline
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not traced or time.perf_counter() + pair_s < deadline:
        pair_start = time.perf_counter()
        untraced.append(run_pass(ops, upg.cli.main))
        tracer.install()
        try:
            traced.append(run_pass(ops, traced_main))
        finally:
            tracer.uninstall()
        pair_s = time.perf_counter() - pair_start
    outcomes = [o for p in untraced + traced for o in p]
    traced_s = sum(o.seconds for p in traced for o in p) / len(traced)
    overhead = sum(best_times(zip(*traced))) / sum(best_times(zip(*untraced)))
    values = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric == "trace.overhead_ratio":
            values[metric] = overhead
        elif unit == "s":
            values[metric] = tracer.self_s.get(metric[: -len("_s")], 0.0) / len(traced)
        else:
            values[metric] = tracer.counts.get(metric, 0) / len(traced)
    print(f"workload {name}  seed {seed}  traced: per pass, mean of {len(traced)} traced passes")
    print(f"  traced pass {traced_s:.4g} s; share is of that")
    for metric, unit, moves in LAYER_METRICS:
        value = values[metric]
        share = f"{value / traced_s:6.1%}" if unit == "s" else ""
        shown = f"{value:14.6g}" if unit in ("s", "ratio") else f"{value:14,.0f}"
        print(f"  {metric:<32} {shown} {unit:<6} {share:>6}  moves: {moves}")
    print_failures(failures_of(outcomes))
    units = {metric: unit for metric, unit, _ in LAYER_METRICS}
    print(result_line(outcomes, {m: (v, units[m]) for m, v in values.items()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "upg" / "cli.py").is_file():
        print(f"error: no upg sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import upg

    if Path(upg.__file__).resolve().parent != SRC_DIR / "upg":
        print(f"error: imported upg from {upg.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    run = per_layer if args.trace else end_to_end
    return run(args.workload, ops, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
