"""Repeat the benchmark and summarize it: the "before" or "after" side of a comparison.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload this makes --runs untraced runs, seeds 1..runs, then one
traced run, all through perfbench/run.py with BENCHMARK.json's run_seconds.
It writes the median, quartiles and spread (quartile distance over the
median, as statistics.quantiles gives them) of every end-to-end metric, the
bound it is held to, the traced per-layer table, every run's result line and
the environment records. Two summaries of the same commit should agree
within the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}): {out.stderr[-2000:]}")
    records = [json.loads(line) for line in lines if line.startswith("{")]
    table = [line for line in lines if line.startswith("# ")]
    env = next((r["environment"] for r in records if "environment" in r), None)
    return records[-1], env, table


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in workloads:
        results, envs = [], []
        for seed in range(1, args.runs + 1):
            result, env, _ = run_once(name, seed, bench["run_seconds"], 0)
            results.append(result)
            envs.append(env)
            print(name, seed, json.dumps(result), flush=True)
        traced, env, table = run_once(name, args.runs + 1, bench["run_seconds"], 1)
        envs.append(env)
        print("\n".join(table), flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
            if len(values) >= 2:
                metrics[metric] = {**spread(values), "bound": bound}
                print(f"  {metric:<14} median {metrics[metric]['median']:.4f} spread {metrics[metric]['spread']:.4f} bound {bound}")
        summary["workloads"][name] = {
            "end_to_end": metrics,
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
            "per_layer": traced["metrics"],
            "traced_table": table,
            "runs": results,
            "environment": envs,
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
