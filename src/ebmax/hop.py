"""Hop-bounded expected-benefit scoring and rank-based seed selection.

Scores every node by the benefit it can be expected to earn from targets
within a fixed hop radius, divides by selection cost, and fills the budget
by scanning the ranked list. Runs in time proportional to the target count
times the hop-neighborhood size, with no Monte Carlo sampling.

The depth-1 walk of a node (its in-neighbors' direct influence) does not
depend on the target, so one scoring pass computes it once per node and
shares it across all targets; deeper levels are kept per target. The table
does not depend on the budget either: a sweep hands `hop_based_select` one
`cache` dict, and the first call's table serves every later budget.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .greedy import fill_by_rank


# each hop adds two frames to the walk's recursion, which must stay well
# inside the interpreter's default limit of 1000 frames
MAX_HOPS = 100


def _check_hops(hops):
    if isinstance(hops, bool) or not isinstance(hops, numbers.Integral) or not 1 <= hops <= MAX_HOPS:
        raise ValueError(f"hop count must be an integer in [1, {MAX_HOPS}], got {hops!r}")


@dataclass(frozen=True)
class HopConfig:
    hops: int = 2
    cutoff: float = 0.1  # minimum influence probability for a contribution to count

    def __post_init__(self):
        _check_hops(self.hops)
        if not (0.0 <= self.cutoff <= 1.0):
            raise ValueError(f"cutoff probability must lie in [0, 1], got {self.cutoff}")


@dataclass
class ScoreTable:
    """Per-node expected earned benefit, before and after dividing by cost."""

    expected_benefit: np.ndarray
    score: np.ndarray


def _in_arcs(graph):
    """The graph's in-arcs as lists `(offsets, tails, probs)`: node v's
    in-arcs in input order come from `tails[offsets[v]:offsets[v + 1]]`
    with the matching arc probabilities."""
    offsets, arcs = graph.in_csr
    return offsets.tolist(), graph.src[arcs].tolist(), graph.prob[arcs].tolist()


def _walk_influence(in_arcs, target, hops, first):
    """Influence probability onto `target` for every node within `hops` reverse arcs.

    Combines walks independently: the probability that a source reaches a
    node is one minus the product, over the node's in-neighbors, of the
    complement of (probability the source reaches the in-neighbor) times the
    arc probability. Recursion is bounded by the hop budget, with the source
    itself as the certain base case. Walks sharing arcs are treated as
    independent, so on graphs with overlapping paths this overestimates;
    it is exact when all source-target paths are arc-disjoint.

    `in_arcs` is the graph's in-arc triple from `_in_arcs`. `first` maps a
    node to its depth-1 walk and is filled here; it is the same for every
    target, so callers scoring many targets pass one dict to all of them.
    Deeper walks are memoized for this target only, and the top-level walk
    is not stored at all.
    """
    offsets, tails, probs = in_arcs
    memo = {}

    def walk(node, budget):
        if budget == 0:
            return {node: 1.0}
        cache, key = (first, node) if budget == 1 else (memo, (node, budget))
        got = cache.get(key)
        if got is None:
            got = cache[key] = spread(node, budget)
        return got

    def spread(node, budget):
        survive = {}
        lo, hi = offsets[node], offsets[node + 1]
        for nbr, p_arc in zip(tails[lo:hi], probs[lo:hi]):
            for s, q in walk(nbr, budget - 1).items():
                survive[s] = survive.get(s, 1.0) * (1.0 - q * p_arc)
        out = {s: 1.0 - v for s, v in survive.items()}
        out[node] = 1.0
        return out

    result = spread(target, hops)
    del result[target]
    return result


def compute_scores(graph, economics, config):
    """Expected earned benefit of every node, cost-scaled.

    Each node starts from its own benefit. Every target then adds
    P(node influences target) * target benefit to each node in its hop
    neighborhood whose influence probability clears the cutoff. Finally all
    values are divided by selection cost. A node gets at most one
    contribution per target and targets are processed in ascending id, so
    each node's accumulation order is deterministic.
    """
    graph.require_probabilities()
    if economics.node_count != graph.node_count:
        raise ValueError("economics sized for a different graph")
    eb = economics.benefit.astype(np.float64).tolist()
    benefit = economics.benefit
    cutoff = config.cutoff
    in_arcs = _in_arcs(graph)
    first = {}
    for t in economics.targets.tolist():
        bt = float(benefit[t])
        for w, p in _walk_influence(in_arcs, t, config.hops, first).items():
            if p >= cutoff:
                eb[w] += p * bt
    eb = np.array(eb, dtype=np.float64)
    score = eb / economics.cost
    return ScoreTable(expected_benefit=eb, score=score)


def hop_based_select(graph, economics, config, budget, *, skip_zero=False, cache=None):
    """Fill the budget greedily down the cost-scaled score ranking.

    Scans the ranking once, adding every node whose cost still fits
    (unaffordable nodes are skipped, the scan continues). With ``skip_zero``
    the fill stops at the first affordable node whose score is not positive
    instead of seeding zero-score nodes.

    ``cache`` is a dict shared by calls on the same graph, economics and
    config, such as the budgets of one sweep: the first call stores its
    score table there and later calls reuse it.
    """
    table = None if cache is None else cache.get("table")
    if table is None:
        table = compute_scores(graph, economics, config)
        if cache is not None:
            cache["table"] = table
    return fill_by_rank(economics, budget, table.score, stop_on_zero_gain=skip_zero)
