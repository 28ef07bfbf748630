"""Self-tests of the benchmark's own checks, on a tiny graph (a few seconds).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A CSV with one digit of `benefit_mean` changed fails the output check,
   so run.py counts that sweep as failed.
2. A wrapped name that ebmax no longer has makes its metric absent; the
   traced sweep and the set-up probe still run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run
import tracing

TMP = os.path.join(run.WORK, "selftest")
RUN_ARGS = ["--prob", "uniform:0.1", "--econ", "random", "--budgets", "60", "--samples", "20", "--reps", "2", "--seed", "3"]


def tiny_graph():
    path = os.path.join(TMP, "tiny.txt")
    cmd = [sys.executable, "-m", "ebmax.cli", "gen", "--kind", "preferential", "--nodes", "120", "--param", "2", "--out", path]
    subprocess.run(cmd, env=run.child_env(), check=True)
    return path


def test_changed_digit_fails(graph):
    csv = os.path.join(TMP, "good.csv")
    cmd = [sys.executable, "-m", "ebmax.cli", "run", "--graph", graph, *RUN_ARGS, "--algos", "igaip,maxdeg", "--out", csv]
    code = subprocess.run(cmd, env=run.child_env()).returncode
    header, rows = run.read_csv(csv)
    digest = run.csv_digest(header, rows)
    rows = len(rows)
    assert code == 0 and rows == 2, (code, rows)
    assert run.Checker(rows, digest).check(code, csv) is None

    with open(csv, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    col = lines[0].split(",").index("benefit_mean")
    parts = lines[1].split(",")
    digit = next(i for i, ch in enumerate(parts[col]) if ch.isdigit() and ch != "0")
    parts[col] = parts[col][:digit] + str(int(parts[col][digit]) - 1) + parts[col][digit + 1 :]
    lines[1] = ",".join(parts)
    bad = os.path.join(TMP, "bad.csv")
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    reason = run.Checker(rows, digest).check(0, bad)
    assert reason and "digest" in reason, reason
    # without a recorded digest, the sweep still has to match the run's first one
    checker = run.Checker(rows, None)
    assert checker.check(0, csv) is None
    assert "earlier sweeps" in checker.check(0, bad)
    assert "rows" in run.Checker(rows + 1, digest).check(0, csv)
    assert "exit code 3" in run.Checker(rows, digest).check(3, csv)


def test_removed_name_is_absent(graph):
    modules = tracing.import_ebmax()
    # as if a later change had deleted these two names
    del modules["baselines"].single_discount_select
    del modules["greedy"].lazy_greedy_select
    args = ["run", "--graph", graph, *RUN_ARGS, "--algos", "igaag,hbh,maxdeg", "--out", os.path.join(TMP, "traced.csv")]

    tracer = tracing.Tracer()
    wrapped = tracer.install(modules)
    assert modules["cli"].main(args) == 0
    metrics = tracing.summarize(tracer.spans, wrapped)
    assert "baselines.sindis_s" not in metrics and "greedy.igaip_s" not in metrics, sorted(metrics)
    for present in ("greedy.igaag_s", "hop.score_calls", "baselines.maxdeg_s", "diffusion.draw_s", "harness.self_s"):
        assert present in metrics, present
    assert metrics["hop.score_calls"]["value"] == 1
    assert metrics["greedy.evals"]["value"] > 0
    table, wall = tracing.layer_table(tracer.spans)
    assert wall > 0 and {row[0] for row in table} >= {"graph", "diffusion", "greedy", "hop", "baselines"}

    # a fresh interpreter, so the probe sees unwrapped names
    code = subprocess.run(
        [sys.executable, "-c", PROBE_WITHOUT_NAMES, graph, *RUN_ARGS],
        env=run.child_env(),
        cwd=os.path.dirname(os.path.abspath(__file__)),
    ).returncode
    assert code == 0, code


PROBE_WITHOUT_NAMES = """
import sys, tracing
modules = tracing.import_ebmax()
del modules["greedy"].lazy_greedy_select
times = tracing.probe_setup(modules, ["run", "--graph", sys.argv[1], *sys.argv[2:], "--algos", "hbh", "--out", "unused.csv"], 2, 0.0)
assert len(times) == 2 and all(t > 0 for t in times), times
"""


def main():
    if not os.path.isfile(os.path.join(run.SRC, "ebmax", "cli.py")):
        print(f"error: no ebmax source under {run.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    graph = tiny_graph()
    for test in (test_changed_digit_fails, test_removed_name_is_absent):
        test(graph)
        print(f"ok {test.__name__}")
    shutil.rmtree(TMP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
