"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload sphere-powers --seeds 1 2 3 4 5
    python3 perfbench/spread.py --all --seeds 1 2 3 4 5 6 7 8 9 10 --out FILE
    python3 perfbench/spread.py --all --seeds 1 --trace 1 --out FILE

Run from the root of a checkout.  Each run is ``BENCHMARK.json``'s command
with ``--seconds run_seconds``; a spread above a third of the metric's bound
is flagged.  ``--out`` writes every value and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload of BENCHMARK.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--commit", default=None, help="commit id of the measured tree, recorded in --out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report, ok = {}, True
    for workload in workloads:
        values: dict = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {name: summarize(v) for name, v in values.items()}
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, s in report[workload].items():
            bound = bounds.get(name)
            flag = "  > bound/3" if bound and s["spread"] > bound / 3 else ""
            print(f"  {name:44s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}{flag}")
    if args.out:
        meta = {"commit": args.commit, "python": platform.python_version(),
                "nproc": os.cpu_count(), "machine": platform.processor() or platform.machine(),
                "run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace}
        args.out.write_text(json.dumps({"meta": meta, "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
