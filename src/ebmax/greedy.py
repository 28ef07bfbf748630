"""Budgeted greedy seed selection: cost-ratio greedy, its guarantee-preserving
wrapper, and the lazy-evaluation variant, plus the commit loop that every
selector of the package fills its budget with.

All three maximize estimated earned benefit per unit cost. The lazy variant
exploits submodularity of the fixed-sample estimate: cached gains from earlier
iterations upper-bound current gains, so most candidates never need to be
re-evaluated. It is contractually required to return the same seed sequence
as the eager greedy on the same estimator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TraceEntry:
    node: int
    gain: float          # marginal benefit when the node was committed
    budget_left: float   # remaining budget after paying the node's cost
    evaluations: int     # estimator queries charged to this iteration


@dataclass
class SelectionResult:
    """Seed set with spend, estimated benefit, and a per-iteration trace."""

    seeds: list
    spent: float
    estimated_benefit: float
    trace: list = field(default_factory=list)
    evaluations: int = 0
    stop_reason: str = ""


def _check_budget(budget):
    if not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"budget must be positive and finite, got {budget}")


def _commit_loop(economics, budget, pick, stop_on_zero_gain, estimator=None):
    """Commit the nodes `pick` chooses until the budget or the gains run out.

    `pick(seeds, chosen, remaining)` returns the next (node, ratio, gain)
    among the affordable nodes not yet chosen, or None when there is none.
    With an `estimator`, each trace entry is charged the queries its pick
    made, the result carries the estimate of the seed set, and its
    evaluations are every query of the selection: the pick that stopped the
    loop and that estimate included. Without one, the estimate is NaN and
    nothing is charged.
    """
    _check_budget(budget)

    def queries():
        return 0 if estimator is None else estimator.evaluations

    cost = economics.cost
    seeds = []
    chosen = set()
    remaining = float(budget)
    trace = []
    start = queries()

    while True:
        before = queries()
        best = pick(seeds, chosen, remaining)
        if best is None:
            stop_reason = "no_affordable"
            break
        node, ratio, gain = best
        if stop_on_zero_gain and ratio <= 0.0:
            stop_reason = "zero_gain"
            break
        seeds.append(node)
        chosen.add(node)
        remaining -= float(cost[node])
        trace.append(
            TraceEntry(node=node, gain=gain, budget_left=remaining, evaluations=queries() - before)
        )
        if remaining <= 0.0:
            stop_reason = "budget_exhausted"
            break

    return SelectionResult(
        seeds=seeds,
        spent=float(budget) - remaining,
        estimated_benefit=math.nan if estimator is None else estimator.estimate(seeds),
        trace=trace,
        evaluations=queries() - start,
        stop_reason=stop_reason,
    )


def fill_by_rank(economics, budget, score, *, stop_on_zero_gain=False):
    """Scan the nodes by descending `score` (ties to the lower id), committing
    every one that still fits the budget; the score is each trace entry's
    gain. Unaffordable nodes are passed over for good, since budgets only
    shrink."""
    cost = economics.cost
    order = iter(np.argsort(-score, kind="stable").tolist())

    def pick(seeds, chosen, remaining):
        for v in order:
            if cost[v] <= remaining:
                s = float(score[v])
                return v, s, s
        return None

    return _commit_loop(economics, budget, pick, stop_on_zero_gain)


def greedy_ratio_select(estimator, economics, budget, *, stop_on_zero_gain=True):
    """Incremental greedy: each round add the affordable node with the best
    marginal gain per unit cost (ties to the lowest id).

    Stops when nothing is affordable or the budget hits zero. By default it
    also stops once the best available ratio is non-positive, since adding
    zero-gain nodes burns budget without benefit; pass
    ``stop_on_zero_gain=False`` for the literal always-spend loop.
    """
    cost = economics.cost.tolist()

    def pick(seeds, chosen, remaining):
        nodes = [v for v in range(economics.node_count) if v not in chosen and cost[v] <= remaining]
        best = None
        for v, gain in zip(nodes, estimator.marginal_gains(seeds, nodes)):
            ratio = gain / cost[v]
            if best is None or ratio > best[1]:
                best = (v, ratio, gain)
        return best

    return _commit_loop(economics, budget, pick, stop_on_zero_gain, estimator)


def best_single_node(estimator, economics, budget):
    """Affordable node with the highest single-node estimated benefit.

    Returns (node, benefit), or (None, 0.0) when nothing is affordable.
    """
    _check_budget(budget)
    cost = economics.cost
    best_node = None
    best_benefit = 0.0
    for v in range(economics.node_count):
        if cost[v] > budget:
            continue
        benefit = estimator.estimate((v,))
        if best_node is None or benefit > best_benefit:
            best_node = v
            best_benefit = benefit
    return best_node, best_benefit


def modified_greedy_select(estimator, economics, budget, *, stop_on_zero_gain=True):
    """Cost-ratio greedy safeguarded by the best affordable single node.

    Returns whichever of the two candidate answers has the larger estimated
    benefit (ties favor the greedy set). The safeguard is what turns the
    unbounded worst case of the plain ratio greedy into a
    (1 - 1/sqrt(e)) approximation.
    """
    greedy = greedy_ratio_select(
        estimator, economics, budget, stop_on_zero_gain=stop_on_zero_gain
    )
    before = estimator.evaluations
    node, benefit = best_single_node(estimator, economics, budget)
    guard = estimator.evaluations - before
    if node is not None and benefit > greedy.estimated_benefit:
        spent = float(economics.cost[node])
        return SelectionResult(
            seeds=[node],
            spent=spent,
            estimated_benefit=benefit,
            trace=[
                TraceEntry(node=node, gain=benefit, budget_left=float(budget) - spent, evaluations=guard)
            ],
            evaluations=greedy.evaluations + guard,
            stop_reason="single_node",
        )
    greedy.evaluations += guard
    return greedy


def lazy_greedy_select(estimator, economics, budget, *, stop_on_zero_gain=True):
    """Cost-ratio greedy with lazy re-evaluation of cached marginal gains.

    Keeps a max-heap of gain-per-cost values, each cached with the round it
    was computed in. A popped node whose cached value is from the current
    round is committed outright; otherwise its gain is recomputed against
    the present seed set and pushed back. Because stale values upper-bound
    true ones, the committed sequence is identical to greedy_ratio_select on
    the same estimator, at a fraction of the evaluations.
    """
    cost = economics.cost.tolist()
    # entries are (-ratio, node, gain, round computed); a popped node is
    # committed, dropped or pushed back refreshed, so no node has two entries
    # and a tie in ratio is broken by the node id alone
    heap = []

    def pick(seeds, chosen, remaining):
        if not seeds:  # first round: only now is the seed set empty
            nodes = [v for v in range(economics.node_count) if cost[v] <= remaining]
            gains = estimator.marginal_gains(seeds, nodes)
            heap.extend((-gain / cost[v], v, gain, 0) for v, gain in zip(nodes, gains))
            heapq.heapify(heap)
        while heap:
            neg_ratio, v, gain, computed = heapq.heappop(heap)
            if cost[v] > remaining:
                continue  # budgets only shrink, so this node is out for good
            if computed == len(seeds):
                return v, -neg_ratio, gain
            gain = estimator.marginal_gain(seeds, v)
            heapq.heappush(heap, (-gain / cost[v], v, gain, len(seeds)))
        return None

    return _commit_loop(economics, budget, pick, stop_on_zero_gain, estimator)
