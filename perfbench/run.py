"""Sweep benchmark for ebmax: end-to-end metrics of `ebmax run`, and per-layer
metrics from a traced copy of the same sweep.

Run from the root of a source checkout (the program is taken from ./src):

    python3 perfbench/run.py --workload pa2k-mc --seed 1 --seconds 40 --trace 0

--trace 0 first runs one process that times set-up repeatedly (see
tracing.py), then spawns one untraced `ebmax run` process at a time until
--seconds have passed (at least MIN_SWEEPS of them). It reports the medians
of sweep_s, setup_s, select_s, peak_rss_mb and benefit_sum.

--trace 1 runs the sweep once in a process that wraps every layer's public
names (see tracing.py), then untraced sweeps for the rest of --seconds, and
reports the per-layer metrics, the sweep's CPU time and the tracing overhead.
The spans go to perfbench/.work/spans-<workload>.json.

Timings are in reference seconds. On a shared host a core's speed changes
by up to 1.8x within seconds to minutes, and each core changes on its own.
So the run and its children are pinned to one core, a fixed piece of work
like the program's own (Speed.reference_time) is timed on that core before
and after every timed process, and each time the process reports is scaled by
REFERENCE_S over the mean of those two reference times: the seconds it would
have taken on a core that does the reference work in REFERENCE_S. The raw
wall times and the scale are printed with every sweep.

Every sweep's CSV is checked: exit code 0, the expected row count, and the
sha256 of the CSV without its `seconds` column, which must equal the digest
recorded below (for the default graph and master seeds) and be the same for
every sweep of the run, traced or not. A sweep that fails the check adds no
timings and counts in `failed`.

The workload is fixed by --graph-seed and --master-seed, whose defaults are
the recorded ones. --seed only labels the run and does not change the
inputs, so that every run can be checked against the recorded digest.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
SRC = os.path.join(ROOT, "src")

MIN_SWEEPS = 3
# each run must end within 180 s; stop waiting for a child well before that
RUN_DEADLINE_S = 165.0
# the reference work's time on a core that counts as speed 1
REFERENCE_S = 0.3

COMMON_ARGS = ("--hop", "2", "--alpha", "0.1")
DEFAULT_MASTER_SEED = 7


@dataclass(frozen=True)
class Workload:
    kind: str
    nodes: int
    param: int
    graph_seed: int
    args: tuple
    digest: str  # sha256 of the CSV without `seconds`, at the default seeds

    def rows(self):
        budgets = self.args[self.args.index("--budgets") + 1].split(",")
        algos = self.args[self.args.index("--algos") + 1].split(",")
        return len(budgets) * len(algos)


WORKLOADS = {
    "pa2k-mc": Workload(
        kind="preferential",
        nodes=2000,
        param=3,
        graph_seed=0,
        args=(
            "--prob", "uniform:0.1", "--econ", "random", "--budgets", "400,800",
            "--algos", "igaip,hbh,maxdeg,degdis,sindis", "--samples", "50", "--reps", "5",
        ),
        digest="7d18d22036946b2800105e789c64ca6ae9835328b8e161854a55933be8e5f007",
    ),
    "er10k-hop": Workload(
        kind="random",
        nodes=10000,
        param=15,
        graph_seed=7,
        args=(
            "--prob", "trivalency", "--econ", "random", "--budgets", "400,1600",
            "--algos", "hbh,maxdeg,degdis,sindis", "--samples", "32", "--reps", "2",
        ),
        digest="f18d106b6950cfe9e7f65f4a720a0199195297f4e61cb4c5c0753de9ab07c8ec",
    ),
    "pa1k-tri-guard": Workload(
        kind="preferential",
        nodes=1000,
        param=3,
        graph_seed=0,
        args=(
            "--prob", "trivalency", "--econ", "degprop", "--budgets", "10,20",
            "--algos", "igaag,igaip,hbh,maxdeg", "--samples", "50", "--reps", "3",
        ),
        digest="56add557f2b8bd6c3b20ba0ff5faeffcfde06aba97bc189e934188cb68f1e7da",
    ),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd, deadline, stdout=subprocess.DEVNULL):
    """Run one child to exit; return (exit code, wall seconds, rusage, stderr tail).

    The rusage is the child's own, from wait4, so its ru_maxrss is the peak
    resident size of that one process. A child still running at the
    deadline is killed.
    """
    err_path = os.path.join(WORK, "child.err")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=stdout, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode("utf-8", "replace").strip().splitlines()[-3:]
    return proc.returncode, wall, usage, " | ".join(tail)


def graph_path(workload, seed):
    """Generate the workload's edge list once per (kind, nodes, param, seed)."""
    name = f"{workload.kind}-n{workload.nodes}-p{workload.param}-s{seed}.txt"
    path = os.path.join(WORK, "graphs", name)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        cmd = [
            sys.executable, "-m", "ebmax.cli", "gen", "--kind", workload.kind,
            "--nodes", str(workload.nodes), "--param", str(workload.param),
            "--seed", str(seed), "--out", tmp,
        ]
        code, _, _, err = spawn(cmd, time.monotonic() + RUN_DEADLINE_S)
        if code != 0:
            raise SystemExit(f"graph generation failed ({code}): {err}")
        os.replace(tmp, path)
    return path


def read_csv(path):
    """Header and rows of a results CSV, as lists of fields."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} fields under a {len(header)}-field header")
    return header, rows


def csv_digest(header, rows):
    """sha256 of the CSV with its `seconds` column removed."""
    col = header.index("seconds")
    kept = [",".join(row[:col] + row[col + 1 :]) for row in [header, *rows]]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def column(header, rows, name):
    col = header.index(name)
    return [float(row[col]) for row in rows]


class Checker:
    """Output check shared by every sweep of one run."""

    def __init__(self, rows, expected_digest):
        self.rows = rows
        self.expected = expected_digest or None
        self.seen = None

    def check(self, code, csv_path, err=""):
        """None if the sweep's output is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}: {err}"
        try:
            header, rows = read_csv(csv_path)
            digest = csv_digest(header, rows)
            seconds = column(header, rows, "seconds")
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable CSV: {exc}"
        if len(rows) != self.rows:
            return f"{len(rows)} rows, expected {self.rows}"
        if not all(math.isfinite(s) and s >= 0.0 for s in seconds):
            return "seconds column holds a negative or non-finite value"
        if self.expected is not None and digest != self.expected:
            return f"digest {digest} differs from the recorded {self.expected}"
        if self.seen is not None and digest != self.seen:
            return f"digest {digest} differs from this run's earlier sweeps ({self.seen})"
        self.seen = digest
        return None


def read_text(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def loadavg():
    text = read_text("/proc/loadavg")
    return text.strip() if text else None


def pin_to_one_core():
    """Run this process and every child it starts on one core; return the core."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Speed:
    """Times a fixed piece of work on the pinned core between timed processes.

    The work has one part for each kind of interpreted work in a sweep: dict
    updates, and set-based reachability over adjacency lists (the
    selectors' queries). Both slow down with the program's own work when the
    host is busy. It uses no numpy: a child's ru_maxrss starts from this
    process's resident size at the fork, so this process must stay smaller
    than any sweep.
    """

    NODES = 20_000

    def __init__(self):
        rng = random.Random(12345)
        self.adjacency = [[rng.randrange(self.NODES) for _ in range(3)] for _ in range(self.NODES)]
        self.last = self.reference_time()
        self.first = self.last

    def reference_time(self):
        """Seconds the reference work takes now."""
        start = time.perf_counter()
        for _ in range(4):
            table = {}
            for i in range(300_000):
                table[i & 1023] = table.get(i & 1023, 0) + i
        adjacency = self.adjacency
        for source in range(20):
            seen = {source}
            stack = [source]
            while stack:
                for w in adjacency[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return time.perf_counter() - start

    def scale_after(self):
        """Factor for the process that just ended: REFERENCE_S over the mean
        of the reference times before and after it."""
        before, self.last = self.last, self.reference_time()
        return 2.0 * REFERENCE_S / (before + self.last)


def environment():
    """Where and on what the run happens, so a run slowed by a busy machine shows."""

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name")), None)
    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "loadavg_start": loadavg(),
    }


def median(values):
    return statistics.median(values) if values else None


def traced_sweep(name, run_args, checker, deadline, speed):
    """Run the sweep once with every layer wrapped; (reason it failed, per-layer record)."""
    spans = os.path.join(WORK, f"spans-{name}.json")
    layers = os.path.join(WORK, f"layers-{name}.json")
    csv = os.path.join(WORK, "traced.csv")
    for stale in (layers, csv):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [
        sys.executable, os.path.join(HERE, "tracing.py"), "trace", "--spans", spans,
        "--metrics", layers, "--", *run_args, "--out", csv,
    ]
    code, wall, _, err = spawn(cmd, deadline)
    scale = speed.scale_after()
    reason = checker.check(code, csv, err)
    if reason:
        return f"traced sweep: {reason}", None
    with open(layers, encoding="utf-8") as handle:
        traced = json.load(handle)
    traced["child_wall_s"] = wall
    return None, scale_traced(traced, scale)


def scale_traced(traced, scale):
    """The traced record with every time in it turned into reference seconds."""
    for metric in traced["metrics"].values():
        if metric["unit"] in ("s", "us"):
            metric["value"] *= scale
    traced["table"] = [(layer, self_s * scale, calls, share) for layer, self_s, calls, share in traced["table"]]
    for key in ("wall_s", "child_wall_s"):
        traced[key] *= scale
    if traced["shares"].get("setup_s") is not None:
        traced["shares"]["setup_s"] *= scale
    traced["scale"] = scale
    return traced


def setup_probe(run_args, deadline, speed):
    """Set-up times from one probe process, in reference seconds; (reason it failed, times)."""
    cmd = [
        sys.executable, os.path.join(HERE, "tracing.py"), "setup",
        "--", *run_args, "--out", os.devnull,
    ]
    with open(os.path.join(WORK, "setup.out"), "w+b") as out:
        code, _, _, err = spawn(cmd, deadline, stdout=out)
        scale = speed.scale_after()
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").strip().splitlines()
    if code == 0 and lines:
        try:
            return None, [t * scale for t in json.loads(lines[-1])["setup_s"]]
        except (ValueError, KeyError, TypeError):
            pass
    return f"setup probe: exit code {code}: {err}", []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="run seed (recorded; the workload is fixed by the two seeds below)")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--graph-seed", type=int, help="seed of `ebmax gen` (default: the workload's)")
    parser.add_argument("--master-seed", type=int, default=DEFAULT_MASTER_SEED, help="seed of `ebmax run`")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ebmax", "cli.py")):
        print(f"error: no ebmax source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    graph_seed = workload.graph_seed if args.graph_seed is None else args.graph_seed
    default_seeds = graph_seed == workload.graph_seed and args.master_seed == DEFAULT_MASTER_SEED
    os.makedirs(WORK, exist_ok=True)
    env = environment()
    deadline = time.monotonic() + RUN_DEADLINE_S
    graph = graph_path(workload, graph_seed)
    env["core"] = pin_to_one_core()
    speed = Speed()

    run_args = ["--graph", graph, *workload.args, *COMMON_ARGS, "--seed", str(args.master_seed)]
    checker = Checker(workload.rows(), workload.digest if default_seeds else None)
    failures = []

    def note(reason):
        if reason:
            failures.append(reason)
            print(json.dumps({"failed": reason}))

    measure_start = time.monotonic()
    attempted = 1
    traced, setup_times = None, []
    if args.trace:
        reason, traced = traced_sweep(args.workload, run_args, checker, deadline, speed)
    else:
        reason, setup_times = setup_probe(run_args, deadline, speed)
    note(reason)

    sweeps = []
    csv = os.path.join(WORK, "sweep.csv")
    cmd = [sys.executable, "-m", "ebmax.cli", "run", *run_args, "--out", csv]
    min_sweeps = 1 if args.trace else MIN_SWEEPS
    while len(failures) < MIN_SWEEPS:
        elapsed = time.monotonic() - measure_start
        typical = (median([s["wall_s"] for s in sweeps]) or 0.0) + speed.last
        if len(sweeps) + len(failures) >= min_sweeps and elapsed + typical > args.seconds:
            break
        if time.monotonic() + 2 * typical > deadline:
            break
        if os.path.exists(csv):
            os.remove(csv)
        attempted += 1
        code, wall, usage, err = spawn(cmd, deadline)
        scale = speed.scale_after()
        reason = checker.check(code, csv, err)
        if reason:
            note(f"sweep: {reason}")
            continue
        header, rows = read_csv(csv)
        select = math.fsum(column(header, rows, "seconds"))
        sweeps.append(
            {
                "sweep_s": wall * scale,
                "select_s": select * scale,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "benefit_sum": math.fsum(column(header, rows, "benefit_mean")),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "wall_s": wall,
                "raw_select_s": select,
                "scale": scale,
            }
        )

    env.update(
        loadavg_end=loadavg(),
        reference_start_s=speed.first,
        reference_end_s=speed.last,
        seed=args.seed,
        graph_seed=graph_seed,
        master_seed=args.master_seed,
        digest_checked=checker.expected is not None,
        digest=checker.seen,
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({"sweeps": sweeps, "setup_s": setup_times}))

    metrics = {}
    if args.trace:
        if traced is not None:
            metrics.update(traced["metrics"])
            print_table(args.workload, traced)
        if sweeps:
            sweep_s = median([s["sweep_s"] for s in sweeps])
            metrics["run.cpu_s"] = {"value": median([s["cpu_s"] for s in sweeps]), "unit": "s"}
            if traced is not None:
                metrics["run.trace_overhead_s"] = {"value": traced["child_wall_s"] - sweep_s, "unit": "s"}
    else:
        if sweeps:
            units = {"sweep_s": "s", "select_s": "s", "peak_rss_mb": "MB", "benefit_sum": "benefit"}
            for key, unit in units.items():
                metrics[key] = {"value": median([s[key] for s in sweeps]), "unit": unit}
        if setup_times:
            metrics["setup_s"] = {"value": median(setup_times), "unit": "s"}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def print_table(name, traced):
    wall = traced["wall_s"]
    print(
        f"# {name}: traced run_experiment {wall:.3f} s, traced process {traced['child_wall_s']:.3f} s"
        f" (reference seconds; scale {traced['scale']:.3f})"
    )
    print(f"# {'layer':<16} {'self_s':>9} {'calls':>8} {'share':>7}")
    for layer, self_s, calls, share in traced["table"]:
        print(f"# {layer:<16} {self_s:9.3f} {calls:8d} {share:7.1%}")
    print("# " + ", ".join(f"{k} {v:.3f}" for k, v in traced["shares"].items() if v is not None))


if __name__ == "__main__":
    sys.exit(main())
