"""Experiment runner: budget sweeps over selection algorithms with CSV output.

One master seed drives every random choice (probability assignment,
economics, selection samples, held-out evaluation samples), so a run is
reproducible end to end and every algorithm inside a sweep sees identical
inputs. Final benefits are always reported from held-out estimators whose
samples are disjoint from the selection-time ones. Every row is selected
first; then the held-out reps are built one at a time, each scoring every
row's seeds before the next is built.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, greedy, hop
from .diffusion import BenefitEstimator
from .graph import (
    AssignmentScheme,
    DegreeProportionalCosts,
    RandomBenefits,
    RandomCosts,
    TrivalencyProbability,
    UnitBenefits,
    UniformProbability,
    assign_economics,
    assign_probabilities,
    load_edge_list,
)

CSV_HEADER = (
    "dataset,algorithm,prob_setting,cost_setting,budget,seed_count,"
    "spent,benefit_mean,benefit_std,eval_count,seconds"
)

ALGORITHMS = ("igaag", "igaip", "hbh", "maxdeg", "degdis", "sindis")

# eager greedy is quadratic in evaluations; refuse it on big graphs unless forced
EAGER_NODE_LIMIT = 5000

DEFAULT_BUDGETS_RANDOM = tuple(range(2000, 16001, 2000))
DEFAULT_BUDGETS_DEGPROP = tuple(range(100, 801, 100))

# fixed tags for deriving independent seed streams from the master seed
_TAG_PROB, _TAG_ECON, _TAG_SELECT, _TAG_EVAL = 1, 2, 3, 4


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


def derive_seed(master_seed, tag, index=0):
    """Independent child seed stream for (master, tag, index)."""
    return np.random.SeedSequence([int(master_seed), int(tag), int(index)]).generate_state(1)[0]


@dataclass
class ExperimentConfig:
    graph_path: str
    directed: bool = False
    probability: str = "uniform:0.1"  # or "trivalency"
    economics: str = "random"  # or "degprop"
    target_fraction: float = 0.2
    budgets: tuple = ()
    algorithms: tuple = ALGORITHMS
    samples: int = 10000
    hops: int = 2
    cutoff: float = 0.1
    master_seed: int = 0
    repetitions: int = 5
    output_path: str = "results.csv"
    record_timing: bool = True
    allow_eager_on_large: bool = False
    skip_zero_scores: bool = False


@dataclass
class ResultRow:
    dataset: str
    algorithm: str
    prob_setting: str
    cost_setting: str
    budget: float
    seed_count: int
    spent: float
    benefit_mean: float
    benefit_std: float
    eval_count: int
    seconds: float

    def as_csv(self):
        def num(x):
            return repr(float(x))

        return ",".join(
            [
                self.dataset,
                self.algorithm,
                self.prob_setting,
                self.cost_setting,
                num(self.budget),
                str(self.seed_count),
                num(self.spent),
                num(self.benefit_mean),
                num(self.benefit_std),
                str(self.eval_count),
                num(self.seconds),
            ]
        )


def _parse_probability(text):
    if text == "trivalency":
        return TrivalencyProbability(), "T"
    if text.startswith("uniform:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad probability setting {text!r}") from None
        try:
            return UniformProbability(p), "U"
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown probability setting {text!r} (use uniform:P or trivalency)")


def _parse_economics(text):
    if text == "random":
        return RandomCosts(), RandomBenefits(), "R"
    if text == "degprop":
        return DegreeProportionalCosts(), UnitBenefits(), "D"
    raise ConfigError(f"unknown economics setting {text!r} (use random or degprop)")


def _validate(config):
    for name in config.algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r} (choose from {', '.join(ALGORITHMS)})")
    for flag, values in (("--algos", config.algorithms), ("--budgets", config.budgets)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{flag} lists {repeated[0]!r} more than once")
    if not config.algorithms:
        raise ConfigError("no algorithms requested")
    if config.samples < 1:
        raise ConfigError("sample count must be at least 1")
    if config.repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    if not (0.0 < config.target_fraction <= 1.0):
        raise ConfigError("target fraction must lie in (0, 1]")
    for b in config.budgets:
        if not (b > 0 and math.isfinite(b)):
            raise ConfigError(f"budgets must be positive and finite, got {b}")
    if config.master_seed < 0:
        raise ConfigError(f"master seed (--seed) must be non-negative, got {config.master_seed}")


def run_experiment(config):
    """Run the full sweep and write the CSV atomically. Returns the rows."""
    _validate(config)
    out_dir = os.path.dirname(os.path.abspath(config.output_path))
    if os.path.isdir(config.output_path) or not os.path.isdir(out_dir):
        raise ConfigError(f"--out {config.output_path}: not a file in an existing directory")
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {config.output_path}: directory {out_dir} is not writable")
    prob_scheme, prob_code = _parse_probability(config.probability)
    cost_scheme, benefit_scheme, cost_code = _parse_economics(config.economics)
    try:
        hop_config = hop.HopConfig(hops=config.hops, cutoff=config.cutoff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        graph = load_edge_list(config.graph_path, directed=config.directed)
    except OSError as exc:
        raise ConfigError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad graph file: {exc}") from exc

    if (
        "igaag" in config.algorithms
        and graph.node_count > EAGER_NODE_LIMIT
        and not config.allow_eager_on_large
    ):
        raise ConfigError(
            f"igaag on {graph.node_count} nodes is prohibitively slow; "
            "pass --allow-igaag-large to force it"
        )

    graph = assign_probabilities(graph, prob_scheme, seed=derive_seed(config.master_seed, _TAG_PROB))
    scheme = AssignmentScheme(
        cost=cost_scheme,
        benefit=benefit_scheme,
        target_fraction=config.target_fraction,
    )
    if scheme.target_count(graph.node_count) == 0:
        raise ConfigError(
            f"--target-frac {config.target_fraction} of {graph.node_count} nodes selects no "
            "targets, so every benefit would be 0"
        )
    economics = assign_economics(graph, scheme, seed=derive_seed(config.master_seed, _TAG_ECON))

    budgets = tuple(config.budgets)
    if not budgets:
        budgets = DEFAULT_BUDGETS_RANDOM if cost_code == "R" else DEFAULT_BUDGETS_DEGPROP

    # only the greedy selectors query worlds while they select
    selection_estimator = None
    if {"igaag", "igaip"} & set(config.algorithms):
        selection_estimator = BenefitEstimator(
            graph,
            economics,
            samples=config.samples,
            master_seed=derive_seed(config.master_seed, _TAG_SELECT),
        )
    # the hop score table does not depend on the budget: the first hbh row
    # scores, the later budgets reuse its table
    hop_cache = {}

    def dispatch(name, budget):
        if name == "igaag":
            return greedy.modified_greedy_select(selection_estimator, economics, budget)
        if name == "igaip":
            return greedy.lazy_greedy_select(selection_estimator, economics, budget)
        if name == "hbh":
            return hop.hop_based_select(
                graph,
                economics,
                hop_config,
                budget,
                skip_zero=config.skip_zero_scores,
                cache=hop_cache,
            )
        if name == "maxdeg":
            return baselines.max_degree_select(graph, economics, budget)
        if name == "degdis":
            p = prob_scheme.p if isinstance(prob_scheme, UniformProbability) else None
            return baselines.degree_discount_select(graph, economics, budget, p=p)
        if name == "sindis":
            return baselines.single_discount_select(graph, economics, budget)
        raise ConfigError(f"unknown algorithm {name!r}")

    selected = []  # (name, budget, result, seconds), in row order
    for budget in budgets:
        for name in config.algorithms:
            start = time.perf_counter()
            result = dispatch(name, budget)
            selected.append((name, budget, result, time.perf_counter() - start))
    selection_estimator = None  # free its index before the held-out ones are built

    # held-out evaluation after selection, one rep's estimator alive at a time
    finals = [[] for _ in selected]
    for r in range(config.repetitions):
        heldout = BenefitEstimator(
            graph,
            economics,
            samples=config.samples,
            master_seed=derive_seed(config.master_seed, _TAG_EVAL, r),
        )
        for row_finals, (_, _, result, _) in zip(finals, selected):
            row_finals.append(heldout.estimate(result.seeds))
        del heldout

    dataset = os.path.splitext(os.path.basename(str(config.graph_path)))[0]
    rows = []
    for (name, budget, result, seconds), row_finals in zip(selected, finals):
        mean = math.fsum(row_finals) / len(row_finals)
        if len(row_finals) > 1:
            var = math.fsum((x - mean) ** 2 for x in row_finals) / (len(row_finals) - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        rows.append(
            ResultRow(
                dataset=dataset,
                algorithm=name,
                prob_setting=prob_code,
                cost_setting=cost_code,
                budget=float(budget),
                seed_count=len(result.seeds),
                spent=result.spent,
                benefit_mean=mean,
                benefit_std=std,
                eval_count=result.evaluations,
                seconds=seconds if config.record_timing else 0.0,
            )
        )

    write_csv(rows, config.output_path)
    return rows


def write_csv(rows, path):
    """Write result rows atomically (temp file + rename).

    When the write or the rename fails, the temp file is removed and the
    error re-raised.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(CSV_HEADER + "\n")
            for row in rows:
                handle.write(row.as_csv() + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def parse_csv(path):
    """Read a results CSV back into ResultRow objects (round-trip helper)."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in handle:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 11:
                raise ValueError(f"bad CSV row: {line!r}")
            rows.append(
                ResultRow(
                    dataset=parts[0],
                    algorithm=parts[1],
                    prob_setting=parts[2],
                    cost_setting=parts[3],
                    budget=float(parts[4]),
                    seed_count=int(parts[5]),
                    spent=float(parts[6]),
                    benefit_mean=float(parts[7]),
                    benefit_std=float(parts[8]),
                    eval_count=int(parts[9]),
                    seconds=float(parts[10]),
                )
            )
    return rows


# --- synthetic graphs -----------------------------------------------------------

def generate_synthetic(kind, n, param, seed, path):
    """Write a deterministic synthetic undirected edge list.

    kind "random": Erdos-Renyi style with expected average degree `param`.
    kind "preferential": preferential attachment, `param` arcs per new node.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(seed)
    if kind == "random":
        if not (param >= 0 and math.isfinite(param)):
            raise ValueError(f"a random graph needs a finite, non-negative average degree, got {param}")
        edges = _random_edges(n, float(param), rng)
    elif kind == "preferential":
        if not float(param).is_integer():
            raise ValueError(f"preferential attachment needs a whole number of arcs per node, got {param}")
        edges = _preferential_edges(n, int(param), rng)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# synthetic {kind} n={n} param={param} seed={seed}\n")
        for u, v in edges:
            handle.write(f"{u} {v}\n")
    return path


def _random_edges(n, avg_degree, rng):
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return []
    p = min(1.0, avg_degree / (n - 1))
    count = int(rng.binomial(total_pairs, p))
    count = min(count, total_pairs)
    seen = set()
    edges = []
    while len(edges) < count:
        need = count - len(edges)
        a = rng.integers(0, n, size=2 * need + 8)
        b = rng.integers(0, n, size=2 * need + 8)
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            if len(edges) == count:
                break
    return edges


def _preferential_edges(n, arcs_per_node, rng):
    if arcs_per_node < 1:
        raise ValueError("preferential attachment needs param >= 1")
    m0 = min(arcs_per_node, max(1, n - 1))
    edges = []
    endpoint_pool = list(range(m0))  # degree-weighted sampling pool
    for v in range(m0, n):
        chosen = set()
        while len(chosen) < m0:
            pick = endpoint_pool[int(rng.integers(0, len(endpoint_pool)))]
            chosen.add(pick)
        for u in sorted(chosen):
            edges.append((u, v))
            endpoint_pool.append(u)
        endpoint_pool.extend([v] * m0)
    return edges
