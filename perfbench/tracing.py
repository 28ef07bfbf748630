"""Spans around the layers of one ebmax sweep, recorded from outside the program.

The sweep runs in this process through ``ebmax.cli.main`` with the same
arguments as an untraced ``ebmax run``. Before the call, the public names that
the harness and the selectors look up through module attributes are replaced
by wrappers that record one span per call: name, start, end and parent.
Nothing in ``ebmax`` is edited. A wrapped name that no longer exists is
skipped, and every metric that depends on it is left out of the result.

Usage (normally started by run.py, one sweep per process):

    python3 perfbench/tracing.py trace --spans OUT.json --metrics OUT.json -- RUN-ARGS...
    python3 perfbench/tracing.py setup -- RUN-ARGS...

``trace`` runs the sweep once with every wrapper installed. ``setup`` times
``run_experiment`` from its entry to its first selector call, at least
SETUP_PROBES times and for at least SETUP_SECONDS, and stops each run there;
it installs no other wrapper.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

# Names each layer's module exposes and the harness or a selector calls
# through a module attribute, so replacing the attribute intercepts the call.
HARNESS_NAMES = ("load_edge_list", "assign_probabilities", "assign_economics", "write_csv")
GREEDY_NAMES = (
    "lazy_greedy_select",
    "modified_greedy_select",
    "greedy_ratio_select",
    "best_single_node",
)
HOP_NAMES = ("hop_based_select", "compute_scores")

# set-up is probed at least this often and for at least this long, so a
# set-up of a few tens of milliseconds still gets a steady median
SETUP_PROBES = 5
SETUP_SECONDS = 2.0

ROOT = "harness.run_experiment"
DRAW = "diffusion.BenefitEstimator.__init__"
ESTIMATE = "diffusion.BenefitEstimator.estimate"
MARGINAL = "diffusion.BenefitEstimator.marginal_gain"


def import_ebmax():
    from ebmax import baselines, cli, greedy, harness, hop

    return {"baselines": baselines, "cli": cli, "greedy": greedy, "harness": harness, "hop": hop}


def baseline_selectors(baselines):
    """The public ``*_select`` functions of ebmax.baselines, whatever they are now."""
    return [a for a in sorted(vars(baselines)) if a.endswith("_select") and not a.startswith("_")]


def _resident_bytes():
    """Resident set size of this process, or None where /proc is missing."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class Tracer:
    """Spans of one sweep, kept in memory until the sweep ends.

    A span is (name, start, end, parent index, extra); the parent is the span
    that was open when the call began, or -1 at the top.
    """

    def __init__(self):
        self.spans = []
        self.wrapped = set()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        evaluations = getattr(result, "evaluations", None)
        seeds = getattr(result, "seeds", None)
        if isinstance(evaluations, int) and seeds is not None:
            span[4] = {"evaluations": evaluations, "seeds": len(seeds)}
        return result

    def timed(self, name, fn):
        """`fn` wrapped to record a span called `name` per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_function(self, module, attr, name):
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, self.timed(name, fn))
            self.wrapped.add(name)

    def wrap_estimator(self, harness):
        base = getattr(harness, "BenefitEstimator", None)
        if not isinstance(base, type):
            return
        tracer = self
        methods = {}

        def __init__(self, *args, **kwargs):
            index = len(tracer.spans)
            before = _resident_bytes()
            tracer.call(DRAW, base.__init__, self, *args, **kwargs)
            after = _resident_bytes()
            if before is not None and after is not None:
                tracer.spans[index][4] = {"rss_growth": after - before}

        methods["__init__"] = __init__
        for attr, name in (("estimate", ESTIMATE), ("marginal_gain", MARGINAL)):
            fn = getattr(base, attr, None)
            if callable(fn):
                methods[attr] = self.timed(name, fn)
                self.wrapped.add(name)
        harness.BenefitEstimator = type("TimedBenefitEstimator", (base,), methods)
        self.wrapped.add(DRAW)

    def install(self, modules):
        """Wrap every layer name that exists; return the names wrapped."""
        harness = modules["harness"]
        self.wrap_function(modules["cli"], "run_experiment", ROOT)
        for attr in HARNESS_NAMES:
            layer = "harness" if attr == "write_csv" else "graph"
            self.wrap_function(harness, attr, f"{layer}.{attr}")
        self.wrap_estimator(harness)
        for attr in GREEDY_NAMES:
            self.wrap_function(modules["greedy"], attr, f"greedy.{attr}")
        for attr in HOP_NAMES:
            self.wrap_function(modules["hop"], attr, f"hop.{attr}")
        for attr in baseline_selectors(modules["baselines"]):
            self.wrap_function(modules["baselines"], attr, f"baselines.{attr}")
        return self.wrapped


def layer_of(name):
    return name.split(".", 1)[0]


class Spans:
    """A finished sweep's spans, indexed for the per-layer metrics.

    A span's self time is its duration minus its direct children's
    durations; calls run one at a time, so children never overlap.
    """

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                self.child_time[parent] += end - start
            self.by_name.setdefault(name, []).append(i)
        self.wall = self.total(ROOT)

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.dur(i) - self.child_time[i]

    def parent_name(self, i):
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else ""

    def total(self, name):
        return math.fsum(self.dur(i) for i in self.by_name.get(name, ()))

    def is_heldout(self, i):
        """An estimator query the harness makes itself, outside any selector."""
        return self.parent_name(i) in ("", ROOT)

    def layer(self, i):
        name = self.spans[i][0]
        return "harness.heldout" if name == ESTIMATE and self.is_heldout(i) else layer_of(name)


def summarize(spans, wrapped):
    """Per-layer metrics of one sweep, keyed by metric name.

    A metric is left out when a name it is computed from was not wrapped.
    """
    t = Spans(spans)
    metrics = {}

    def put(key, unit, needs, value):
        if all(n in wrapped for n in needs):
            metrics[key] = {"value": value, "unit": unit}

    load, prob, econ = "graph.load_edge_list", "graph.assign_probabilities", "graph.assign_economics"
    put("graph.load_s", "s", [load], t.total(load))
    put("graph.assign_s", "s", [prob, econ], t.total(prob) + t.total(econ))
    put("diffusion.draw_s", "s", [DRAW], t.total(DRAW))
    growth = [spans[i][4]["rss_growth"] for i in t.by_name.get(DRAW, ()) if spans[i][4]]
    if growth:
        put("diffusion.world_mb", "MB", [DRAW], sum(growth) / 2**20)

    # the selectors' queries; the harness's own estimates are held-out evaluation
    calls, seconds = {}, {}
    for name in (ESTIMATE, MARGINAL):
        mine = [i for i in t.by_name.get(name, ()) if not t.is_heldout(i)]
        calls[name] = len(mine)
        seconds[name] = math.fsum(t.dur(i) for i in mine)
    put("diffusion.marginal_gain_calls", "count", [MARGINAL], calls[MARGINAL])
    put("diffusion.marginal_gain_s", "s", [MARGINAL], seconds[MARGINAL])
    put("diffusion.estimate_calls", "count", [ESTIMATE], calls[ESTIMATE])
    put("diffusion.estimate_s", "s", [ESTIMATE], seconds[ESTIMATE])
    queries = calls[ESTIMATE] + calls[MARGINAL]
    query_s = seconds[ESTIMATE] + seconds[MARGINAL]
    put("diffusion.query_us", "us", [ESTIMATE, MARGINAL], query_s / queries * 1e6 if queries else 0.0)

    put("greedy.igaip_s", "s", ["greedy.lazy_greedy_select"], t.total("greedy.lazy_greedy_select"))
    put("greedy.igaag_s", "s", ["greedy.modified_greedy_select"], t.total("greedy.modified_greedy_select"))
    greedy = [i for i in range(len(spans)) if layer_of(spans[i][0]) == "greedy"]
    if any(f"greedy.{attr}" in wrapped for attr in GREEDY_NAMES):
        # the results the harness receives, not those of a greedy call inside another
        results = [spans[i][4] for i in greedy if spans[i][4] and layer_of(t.parent_name(i)) != "greedy"]
        evals = sum(r["evaluations"] for r in results)
        seeds = sum(r["seeds"] for r in results)
        metrics["greedy.self_s"] = {"value": math.fsum(t.self_time(i) for i in greedy), "unit": "s"}
        metrics["greedy.evals"] = {"value": evals, "unit": "count"}
        metrics["greedy.evals_per_seed"] = {"value": evals / seeds if seeds else 0.0, "unit": "count"}

    put("hop.select_s", "s", ["hop.hop_based_select"], t.total("hop.hop_based_select"))
    put("hop.score_s", "s", ["hop.compute_scores"], t.total("hop.compute_scores"))
    put("hop.score_calls", "count", ["hop.compute_scores"], len(t.by_name.get("hop.compute_scores", ())))
    for short, attr in (
        ("maxdeg", "max_degree_select"),
        ("degdis", "degree_discount_select"),
        ("sindis", "single_discount_select"),
    ):
        put(f"baselines.{short}_s", "s", [f"baselines.{attr}"], t.total(f"baselines.{attr}"))

    heldout = [i for i in t.by_name.get(ESTIMATE, ()) if t.is_heldout(i)]
    put("harness.heldout_eval_s", "s", [ESTIMATE], math.fsum(t.dur(i) for i in heldout))
    put("harness.write_s", "s", ["harness.write_csv"], t.total("harness.write_csv"))
    put("harness.self_s", "s", [ROOT], math.fsum(t.self_time(i) for i in t.by_name.get(ROOT, ())))
    return metrics


LAYER_ORDER = ("graph", "diffusion", "greedy", "hop", "baselines", "harness.heldout", "harness")


def layer_table(spans):
    """Rows (layer, self seconds, calls, share of wall), and the wall.

    The harness's own estimator queries form the row ``harness.heldout``,
    apart from the selectors' queries in ``diffusion``.
    """
    t = Spans(spans)
    rows = {}
    for i in range(len(spans)):
        row = rows.setdefault(t.layer(i), [0.0, 0])
        row[0] += t.self_time(i)
        row[1] += 1
    rank = {layer: k for k, layer in enumerate(LAYER_ORDER)}
    table = [
        (layer, self_s, count, self_s / t.wall if t.wall else 0.0)
        for layer, (self_s, count) in sorted(rows.items(), key=lambda kv: rank.get(kv[0], len(rank)))
    ]
    return table, t.wall


def stress_shares(spans):
    """Shares that say whether a workload stresses the layer it was chosen for.

    setup_s: from run_experiment's entry to its first selector call.
    greedy_tree: greedy calls the harness makes, with their diffusion
    children, over the wall. hop_baselines_after_setup: hop and baseline
    selector calls over the wall after set-up. igaag: modified greedy over
    the wall.
    """
    t = Spans(spans)
    if not t.wall:
        return {}
    top = [i for i in range(len(spans)) if t.parent_name(i) == ROOT]
    selectors = [i for i in top if layer_of(spans[i][0]) in ("greedy", "hop", "baselines")]
    if not selectors:
        return {}
    setup = spans[selectors[0]][1] - spans[t.by_name[ROOT][0]][1]

    def share(layers, over):
        return math.fsum(t.dur(i) for i in top if layer_of(spans[i][0]) in layers) / over

    return {
        "setup_s": setup,
        "greedy_tree": share(("greedy",), t.wall),
        "hop_baselines_after_setup": share(("hop", "baselines"), t.wall - setup),
        "igaag": t.total("greedy.modified_greedy_select") / t.wall,
    }


class SetupDone(BaseException):
    """Raised at the first selector call to stop a set-up probe.

    A BaseException, so the command line's catch-all for runtime failures
    lets it through.
    """


def probe_setup(modules, run_args, min_probes, min_seconds, max_probes=200):
    """Seconds from run_experiment's entry to its first selector call.

    Probes until at least `min_probes` have run and `min_seconds` have
    passed, so a short set-up is timed many times.
    """
    cli = modules["cli"]
    inner = cli.run_experiment
    started = []

    def timed_run(config):
        started.append(time.perf_counter())
        return inner(config)

    def stop(*args, **kwargs):
        raise SetupDone(time.perf_counter())

    cli.run_experiment = timed_run
    stops = [(modules["greedy"], a) for a in GREEDY_NAMES if a != "best_single_node"]
    stops.append((modules["hop"], "hop_based_select"))
    stops += [(modules["baselines"], a) for a in baseline_selectors(modules["baselines"])]
    for module, attr in stops:
        if callable(getattr(module, attr, None)):
            setattr(module, attr, stop)
    times = []
    begin = time.perf_counter()
    while len(times) < max_probes and (len(times) < min_probes or time.perf_counter() - begin < min_seconds):
        started.clear()
        try:
            cli.main(list(run_args))
        except SetupDone as done:
            times.append(done.args[0] - started[0])
        else:
            raise RuntimeError("the sweep finished without calling any known selector")
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["trace", "setup"])
    parser.add_argument("--spans", help="trace: write the spans here as JSON")
    parser.add_argument("--metrics", help="trace: write the per-layer metrics here as JSON")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("give the arguments of `ebmax run` after --")
    cut = argv.index("--")
    args = parser.parse_args(argv[:cut])
    run_args = argv[cut + 1 :]
    modules = import_ebmax()

    if args.mode == "setup":
        print(json.dumps({"setup_s": probe_setup(modules, ["run", *run_args], SETUP_PROBES, SETUP_SECONDS)}))
        return 0

    tracer = Tracer()
    wrapped = tracer.install(modules)
    code = modules["cli"].main(["run", *run_args])
    spans = tracer.spans
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "extra"],
                    "wrapped": sorted(wrapped),
                    "spans": spans,
                },
                handle,
            )
    if args.metrics:
        table, wall = layer_table(spans)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "metrics": summarize(spans, wrapped),
                    "table": table,
                    "wall_s": wall,
                    "shares": stress_shares(spans),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
