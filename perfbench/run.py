"""The repository benchmark: seeded, single-process, closed-loop workloads
over the scalars -> qalgebras -> lens stack, with a traced per-layer mode.
``BENCHMARK.json`` names the two that make up the benchmark, ``relcheck-all``
and ``lens-warm``; ``qcomb-deep`` and ``sphere-powers`` isolate single layers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload is a fresh
interpreter (``workloads.py``) that imports ``heegaard`` from ``src``, makes
its inputs from the seed, and times one operation at a time.  Rounds repeat
until ``--seconds`` is used up (at least ``MIN_ROUNDS``); the report gives
medians over rounds, the median latency over all timed operations, and the
latency tail of each round, median over rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates three
untraced and two traced rounds on the same inputs (``--seconds`` is not
used) and reports the per-layer metrics of ``layers.json`` from the first
traced round; it fails if a boundary that the layer map ties to this
workload recorded no calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("relcheck-all", "qcomb-deep", "sphere-powers", "lens-warm")
MIN_ROUNDS = 3
MAX_ROUNDS = 200
# a run, from its start to its result line, ends within this many seconds
RUN_DEADLINE_S = 170
TRACE_PATTERN = (False, True, False, True, False)


def layer_map() -> dict:
    with open(HERE / "layers.json") as fh:
        return json.load(fh)


def tail(samples: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  With twenty samples or fewer no such
    percentile lies above the median, and the maximum is reported instead,
    with percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def round_seed(workload: str, seed: int, i: int) -> int:
    # relcheck-all repeats one seed so its JSON reports can be compared
    # byte for byte; the other workloads draw fresh inputs every round
    return seed if workload == "relcheck-all" else seed * 1_000_003 + i


def spawn_round(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, deadline: float) -> list:
    rounds, durations = [], []
    start = time.monotonic()
    while len(rounds) < MAX_ROUNDS:
        t0 = time.monotonic()
        rounds.append(spawn_round(workload, round_seed(workload, seed, len(rounds)), False,
                                  deadline))
        durations.append(time.monotonic() - t0)
        now, next_round = time.monotonic(), statistics.median(durations)
        if len(rounds) >= MIN_ROUNDS and now - start + next_round > seconds:
            break
        if now + next_round > deadline:
            break
    return rounds


def check_rounds(workload: str, rounds: list) -> list:
    problems = [p for r in rounds for p in r["problems"]]
    if workload == "relcheck-all" and len({r["digest"] for r in rounds}) != 1:
        problems.append("relcheck all --json differs between runs of one seed")
    return problems


def end_to_end(rounds: list) -> dict:
    ops = [x for r in rounds for x in r["ops_ms"]]
    if all(len(r["ops_ms"]) == 1 for r in rounds):
        # the whole round is the operation: its tail is taken over the run
        p_tail, pct, n = tail(ops)
        tail_note = f"p{pct:.2f} of {n} rounds"
    else:
        # the tail of each round's operations, median over rounds: a tail
        # over the whole run would sit at p99.8 or beyond and follow the
        # shared machine's rare stalls rather than the program's slow operations
        tails = [tail(r["ops_ms"]) for r in rounds]
        p_tail = statistics.median(t[0] for t in tails)
        _, pct, n = tails[0]
        tail_note = f"p{pct:.2f} of each round's {n} operations, median over {len(rounds)} rounds"
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_tail_ms": (p_tail, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }, (f"op_tail_ms is {tail_note}; wall_s by round: "
        + " ".join(f"{r['wall_s']:.3f}" for r in rounds))


def per_layer(workload: str, rounds: list) -> tuple:
    spec = layer_map()
    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    values = dict(traced[0]["layers"])
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    metrics, problems = {}, []
    for group in spec["layers"]:
        for name, unit in group["metrics"].items():
            metrics[name] = (values[name], unit)
        if workload in group["moves"]:
            for boundary in group["boundaries"]:
                if traced[0]["calls"].get(boundary, 0) == 0:
                    problems.append(f"coverage: {boundary} recorded 0 calls on {workload}")
    return metrics, problems, f"trace written to {traced[0]['trace_file']}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Run one workload and print its metrics by name and unit."""
    if trace:
        # untraced and traced rounds alternate on the same inputs, so that
        # trace.overhead_s compares medians taken over the same stretch of time
        s = round_seed(workload, seed, 0)
        rounds = [spawn_round(workload, s, traced, deadline) for traced in TRACE_PATTERN]
        metrics, problems, note = per_layer(workload, rounds)
    else:
        rounds = run_rounds(workload, seed, seconds, deadline)
        metrics, note = end_to_end(rounds)
        problems = []
    problems = check_rounds(workload, rounds) + problems
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    print(f"workload {workload}, seed {seed}, {len(rounds)} rounds, trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    print(f"  {note}")
    for p in problems:
        print(f"  FAIL {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heegaard" / "__init__.py").is_file():
        print(f"error: no heegaard package under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    # compile the package's bytecode once, so no round pays for it in setup_s
    subprocess.run([sys.executable, "-c", "import heegaard"], check=True, cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=RUN_DEADLINE_S)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for w in workloads:
            # with "all", each workload gets the deadline of a run of its own
            deadline = (start if len(workloads) == 1 else time.monotonic()) + RUN_DEADLINE_S
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        # one object for the whole set, metrics keyed "<workload>.<metric>"
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
