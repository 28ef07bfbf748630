"""Degree-based baseline selectors: plain max-degree and two discount variants.

All three score nodes by degree alone (costs and benefits play no role in the
ranking) but respect the budget during selection. For undirected graphs the
degree is the neighbor count; for directed graphs it is in-degree plus
out-degree.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .greedy import SelectionResult, TraceEntry


def _check_budget(budget):
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")


def _base_degree(graph):
    deg = graph.degree
    return deg if graph.directed else deg // 2


def _neighbor_probs(graph):
    """Per-node dict neighbor -> arc probability, preferring the outgoing arc."""
    nbr = [dict() for _ in range(graph.node_count)]
    src = graph.src.tolist()
    dst = graph.dst.tolist()
    prob = graph.prob.tolist()
    for a in range(graph.arc_count):
        nbr[src[a]][dst[a]] = prob[a]
    for a in range(graph.arc_count):
        nbr[dst[a]].setdefault(src[a], prob[a])
    return nbr


def _finish(seeds, trace, budget, remaining, estimator):
    benefit = estimator.estimate(seeds) if estimator is not None else math.nan
    return SelectionResult(
        seeds=seeds,
        spent=float(budget) - remaining,
        estimated_benefit=benefit,
        trace=trace,
        evaluations=0,
        stop_reason="scan_complete",
    )


def max_degree_select(graph, economics, budget, *, estimator=None):
    """Scan nodes by descending degree (ties to lower id), adding every one
    that still fits the budget."""
    _check_budget(budget)
    deg = _base_degree(graph)
    n = graph.node_count
    order = np.lexsort((np.arange(n), -deg))
    cost = economics.cost
    seeds = []
    trace = []
    remaining = float(budget)
    for v in order.tolist():
        c = float(cost[v])
        if c <= remaining:
            seeds.append(v)
            remaining -= c
            trace.append(TraceEntry(node=v, gain=float(deg[v]), budget_left=remaining, evaluations=0))
    return _finish(seeds, trace, budget, remaining, estimator)


def _discounted_select(graph, economics, budget, discount, estimator):
    """Shared loop: repeatedly seed the affordable node with the highest
    effective degree, then rescore its non-seed neighbors via `discount`.

    `discount(original_degree, seeded_neighbors, arc_prob)` returns the
    amount subtracted from the original degree. Effective degrees only ever
    decrease, so a stale heap entry is always an upper bound and lazy
    deletion is safe. Unaffordable nodes are dropped for good (budgets only
    shrink). `seeded_neighbors` never exceeds a node's original degree.
    """
    n = graph.node_count
    deg = _base_degree(graph).astype(np.float64)
    effective = deg.copy()
    seeded_neighbors = np.zeros(n, dtype=np.int64)
    neighbor_prob = _neighbor_probs(graph)
    cost = economics.cost

    heap = [(-effective[v], v) for v in range(n)]
    heapq.heapify(heap)
    chosen = set()
    seeds = []
    trace = []
    remaining = float(budget)

    while heap and remaining > 0.0:
        neg_eff, v = heapq.heappop(heap)
        if v in chosen or -neg_eff != effective[v]:
            continue
        if cost[v] > remaining:
            continue
        chosen.add(v)
        seeds.append(v)
        remaining -= float(cost[v])
        trace.append(TraceEntry(node=v, gain=float(effective[v]), budget_left=remaining, evaluations=0))
        for w, p in neighbor_prob[v].items():
            if w in chosen:
                continue
            seeded_neighbors[w] += 1
            effective[w] = deg[w] - discount(deg[w], seeded_neighbors[w], p)
            heapq.heappush(heap, (-effective[w], w))
    return _finish(seeds, trace, budget, remaining, estimator)


def degree_discount_select(graph, economics, budget, p=None, *, estimator=None):
    """Degree-discount selection: a node with t seeded neighbors loses
    2t + (d - t) * t * p from its original degree d.

    `p` is the uniform propagation probability; when None the probability of
    the triggering arc is used (its reverse arc when only that exists).
    """
    _check_budget(budget)

    def discount(d, t, arc_p):
        prop = arc_p if p is None else p
        return 2.0 * t + (d - t) * t * prop

    return _discounted_select(graph, economics, budget, discount, estimator)


def single_discount_select(graph, economics, budget, *, estimator=None):
    """Single-discount selection: each seeded neighbor costs one degree unit."""
    _check_budget(budget)

    def discount(d, t, arc_p):
        return float(t)

    return _discounted_select(graph, economics, budget, discount, estimator)
