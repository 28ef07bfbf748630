"""Experiment runner: budget sweeps over selection algorithms with CSV output.

One master seed drives every random choice (probability assignment,
economics, selection samples, held-out evaluation samples), so a run is
reproducible end to end and every algorithm inside a sweep sees identical
inputs. Final benefits are always reported from held-out estimators whose
samples are disjoint from the selection-time ones. Every row is selected
first; then the held-out reps are built one at a time, each scoring every
row's seeds before the next is built. A held-out estimator indexes only the
union of the rows' seeds, each world's pass rooted at them, so its memory is
O(|union| x R), not O(n x R), and each row's value is the one the full index
gives.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import numbers
import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import baselines, greedy, hop
from .diffusion import BenefitEstimator
from .graph import assign_economics, assign_probabilities, load_edge_list, target_count

# the CSV code of each --econ setting
ECONOMICS_CODES = {"random": "R", "degprop": "D"}

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
    probability: str = "uniform:0.1"  # or "trivalency", or "file" for the edge list's column
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
    """One CSV record: its fields, in declaration order, are the columns."""

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
        """The row as one CSV record without its line end. A field declared
        float is written as `repr(float(value))`, whatever its value's type;
        any other field goes to the writer as it is. A field holding a comma,
        a quote or a line break is quoted, as the CSV format needs.
        The writer quotes a field holding a character of its line end, so
        the record ends in both CR and LF, which are then cut off."""
        record = io.StringIO()
        csv.writer(record, lineterminator="\r\n").writerow(
            # the annotations are strings under `from __future__ import annotations`
            repr(float(value)) if field.type == "float" else value
            for field, value in zip(fields(self), astuple(self))
        )
        return record.getvalue()[:-2]


CSV_HEADER = ",".join(field.name for field in fields(ResultRow))


def _parse_probability(text):
    """(setting, CSV code): the setting `assign_probabilities` takes, or None
    for "file", whose probabilities are the edge list's own."""
    if text == "file":
        return None, "F"
    if text == "trivalency":
        return text, "T"
    if text.startswith("uniform:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad probability setting --prob {text!r}") from None
        if not (0.0 < p <= 1.0):  # NaN fails both
            raise ConfigError(f"--prob {text!r}: uniform probability must lie in (0, 1]")
        return p, "U"
    raise ConfigError(f"unknown probability setting --prob {text!r} (use uniform:P, trivalency or file)")


def _check_file_probabilities(graph, setting):
    """Under `--prob file` every edge must carry a probability; under any
    other setting none may, since the setting would silently replace it.
    The error names the first offending edge by its original ids."""
    given = graph.prob > 0.0  # 0.0 marks an edge listed without one
    bad = ~given if setting == "file" else given
    if not bad.any():
        return
    a = int(np.argmax(bad))
    edge = f"{graph.original_ids[graph.src[a]]} {graph.original_ids[graph.dst[a]]}"
    if setting == "file":
        raise ConfigError(f"--prob file: edge {edge} has no probability in the graph file")
    raise ConfigError(
        f"the graph file gives edge probabilities (edge {edge}), which --prob {setting} "
        "would replace; pass --prob file to use them"
    )


def _validate(config):
    for name in config.algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r} in --algos (choose from {', '.join(ALGORITHMS)})")
    for flag, values in (("--algos", config.algorithms), ("--budgets", config.budgets)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{flag} lists {repeated[0]!r} more than once")
    if not config.algorithms:
        raise ConfigError("--algos names no algorithm")
    if config.economics not in ECONOMICS_CODES:
        raise ConfigError(f"unknown economics setting --econ {config.economics!r} (use random or degprop)")
    for name, value in (
        ("sample count (--samples)", config.samples),
        ("repetitions (--reps)", config.repetitions),
        ("master seed (--seed)", config.master_seed),
    ):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if config.samples < 1:
        raise ConfigError(f"sample count (--samples) must be at least 1, got {config.samples}")
    if config.repetitions < 1:
        raise ConfigError(f"repetitions (--reps) must be at least 1, got {config.repetitions}")
    if not (0.0 < config.target_fraction <= 1.0):
        raise ConfigError(f"target fraction (--target-frac) must lie in (0, 1], got {config.target_fraction}")
    for b in config.budgets:
        if not (b > 0 and math.isfinite(b)):
            raise ConfigError(f"--budgets must be positive and finite, got {b}")
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
    prob_setting, prob_code = _parse_probability(config.probability)
    try:
        hop_config = hop.HopConfig(hops=config.hops, cutoff=config.cutoff)
    except ValueError as exc:
        raise ConfigError(f"--hop {config.hops}, --alpha {config.cutoff}: {exc}") from None

    try:
        graph = load_edge_list(config.graph_path, directed=config.directed)
    except OSError as exc:
        raise ConfigError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad graph file: {exc}") from exc
    _check_file_probabilities(graph, config.probability)

    if (
        "igaag" in config.algorithms
        and graph.node_count > EAGER_NODE_LIMIT
        and not config.allow_eager_on_large
    ):
        raise ConfigError(
            f"igaag on {graph.node_count} nodes is prohibitively slow; "
            "pass --allow-igaag-large to force it"
        )

    if prob_setting is not None:
        graph = assign_probabilities(graph, prob_setting, seed=derive_seed(config.master_seed, _TAG_PROB))
    if target_count(graph.node_count, config.target_fraction) == 0:
        raise ConfigError(
            f"--target-frac {config.target_fraction} of {graph.node_count} nodes selects no "
            "targets, so every benefit would be 0"
        )
    economics = assign_economics(
        graph, config.economics, config.target_fraction, seed=derive_seed(config.master_seed, _TAG_ECON)
    )

    budgets = tuple(config.budgets)
    if not budgets:
        budgets = DEFAULT_BUDGETS_RANDOM if config.economics == "random" else DEFAULT_BUDGETS_DEGPROP

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
            return baselines.degree_discount_select(graph, economics, budget)
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

    # held-out evaluation after selection, one rep's estimator alive at a
    # time, indexing only the nodes that some row seeds
    finals = [[] for _ in selected]
    seeded = {s for _, _, result, _ in selected for s in result.seeds}
    for r in range(config.repetitions):
        heldout = BenefitEstimator(
            graph,
            economics,
            samples=config.samples,
            master_seed=derive_seed(config.master_seed, _TAG_EVAL, r),
            nodes=seeded,
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
                cost_setting=ECONOMICS_CODES[config.economics],
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


# --- synthetic graphs -----------------------------------------------------------

def generate_synthetic(kind, n, param, seed, path):
    """Write a deterministic synthetic undirected edge list.

    kind "random": Erdos-Renyi style with expected average degree `param`.
    kind "preferential": preferential attachment, `param` arcs per new node.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
        raise ValueError(f"preferential attachment needs param >= 1, got {arcs_per_node}")
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
