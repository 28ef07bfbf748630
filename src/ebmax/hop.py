"""Hop-bounded expected-benefit scoring and rank-based seed selection.

Scores every node by the benefit it can be expected to earn from targets
within a fixed hop radius, divides by selection cost, and fills the budget
by scanning the ranked list. Runs in time proportional to the target count
times the hop-neighborhood size, with no Monte Carlo sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greedy import SelectionResult, TraceEntry


@dataclass(frozen=True)
class HopConfig:
    hops: int = 2
    cutoff: float = 0.1  # minimum influence probability for a contribution to count

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hop count must be at least 1")
        if not (0.0 <= self.cutoff <= 1.0):
            raise ValueError("cutoff probability must lie in [0, 1]")


@dataclass
class ScoreTable:
    """Per-node expected earned benefit, before and after dividing by cost."""

    expected_benefit: np.ndarray
    score: np.ndarray


def _walk_influence(graph, target, hops):
    """Influence probability onto `target` for every node within `hops` reverse arcs.

    Combines walks independently: the probability that a source reaches a
    node is one minus the product, over the node's in-neighbors, of the
    complement of (probability the source reaches the in-neighbor) times the
    arc probability. Recursion is bounded by the hop budget, with the source
    itself as the certain base case. Walks sharing arcs are treated as
    independent, so on graphs with overlapping paths this overestimates;
    it is exact when all source-target paths are arc-disjoint.
    """
    in_nbrs = graph.in_nbrs
    in_arcs = graph.in_arcs
    prob = graph.prob
    memo = {}

    def walk(node, budget):
        if budget == 0:
            return {node: 1.0}
        key = (node, budget)
        got = memo.get(key)
        if got is not None:
            return got
        survive = {}
        nbrs = in_nbrs[node]
        arcs = in_arcs[node]
        for i in range(len(nbrs)):
            p_arc = prob[arcs[i]]
            for s, q in walk(nbrs[i], budget - 1).items():
                survive[s] = survive.get(s, 1.0) * (1.0 - q * p_arc)
        out = {s: 1.0 - v for s, v in survive.items()}
        out[node] = 1.0
        memo[key] = out
        return out

    result = dict(walk(target, hops))
    result.pop(target, None)
    return result


def influence_probability(graph, source, target, hops):
    """Hop-bounded probability that `source` influences `target`.

    Returns 0.0 when the source lies outside the reverse hop neighborhood.
    """
    graph.require_probabilities()
    source = graph.check_node(source)
    target = graph.check_node(target)
    return _walk_influence(graph, target, hops).get(source, 0.0)


def compute_scores(graph, economics, config):
    """Expected earned benefit of every node, cost-scaled.

    Each node starts from its own benefit. Every target then adds
    P(node influences target) * target benefit to each node in its hop
    neighborhood whose influence probability clears the cutoff. Finally all
    values are divided by selection cost. Targets are processed in ascending
    id so accumulation order is deterministic.
    """
    graph.require_probabilities()
    if economics.node_count != graph.node_count:
        raise ValueError("economics sized for a different graph")
    eb = economics.benefit.astype(np.float64).copy()
    benefit = economics.benefit
    cutoff = config.cutoff
    for t in economics.targets.tolist():
        bt = float(benefit[t])
        influence = _walk_influence(graph, t, config.hops)
        for w in sorted(influence):
            p = influence[w]
            if p >= cutoff:
                eb[w] += p * bt
    score = eb / economics.cost
    return ScoreTable(expected_benefit=eb, score=score)


def hop_based_select(graph, economics, config, budget, *, estimator=None, skip_zero=False):
    """Fill the budget greedily down the cost-scaled score ranking.

    Scans the ranking once, adding every node whose cost still fits
    (unaffordable nodes are skipped, the scan continues). With ``skip_zero``
    the scan stops at the first non-positive score instead of seeding
    zero-score nodes. The estimator, when given, is used only to report the
    final seed set's estimated benefit.
    """
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    table = compute_scores(graph, economics, config)
    n = graph.node_count
    order = np.lexsort((np.arange(n), -table.score))
    cost = economics.cost
    seeds = []
    trace = []
    remaining = float(budget)
    for v in order.tolist():
        if skip_zero and table.score[v] <= 0.0:
            break
        c = float(cost[v])
        if c <= remaining:
            seeds.append(v)
            remaining -= c
            trace.append(
                TraceEntry(node=v, gain=float(table.score[v]), budget_left=remaining, evaluations=0)
            )
    benefit = estimator.estimate(seeds) if estimator is not None else math.nan
    return SelectionResult(
        seeds=seeds,
        spent=float(budget) - remaining,
        estimated_benefit=benefit,
        trace=trace,
        evaluations=0,
        stop_reason="scan_complete",
    )
