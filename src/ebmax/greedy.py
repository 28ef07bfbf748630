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


def _commit_loop(economics, budget, pick, stop_on_zero_gain):
    """Commit the nodes `pick` chooses until the budget or the gains run out.

    `pick(seeds, chosen, remaining)` returns the next
    (node, ratio, gain, evaluations) among the affordable nodes not yet
    chosen, or None when there is none; `evaluations` counts the estimator
    queries the pick made and is charged to the node's trace entry. The
    result carries no estimate of its own (NaN), and its evaluations are
    those of every pick, the one that stopped the loop included.
    """
    _check_budget(budget)
    cost = economics.cost
    seeds = []
    chosen = set()
    remaining = float(budget)
    trace = []
    evaluations = 0

    while True:
        best = pick(seeds, chosen, remaining)
        if best is None:
            stop_reason = "no_affordable"
            break
        node, ratio, gain, spent_queries = best
        evaluations += spent_queries
        if stop_on_zero_gain and ratio <= 0.0:
            stop_reason = "zero_gain"
            break
        seeds.append(node)
        chosen.add(node)
        remaining -= float(cost[node])
        trace.append(
            TraceEntry(node=node, gain=gain, budget_left=remaining, evaluations=spent_queries)
        )
        if remaining <= 0.0:
            stop_reason = "budget_exhausted"
            break

    return SelectionResult(
        seeds=seeds,
        spent=float(budget) - remaining,
        estimated_benefit=math.nan,
        trace=trace,
        evaluations=evaluations,
        stop_reason=stop_reason,
    )


def _estimated_loop(estimator, economics, budget, pick, stop_on_zero_gain):
    """The commit loop over a `pick` that queries `estimator` and returns
    (node, ratio, gain). Adds the final estimate of the seed set; the result
    is charged every query of the selection, that estimate included."""
    start = estimator.evaluations

    def counted(seeds, chosen, remaining):
        before = estimator.evaluations
        best = pick(seeds, chosen, remaining)
        return None if best is None else (*best, estimator.evaluations - before)

    result = _commit_loop(economics, budget, counted, stop_on_zero_gain)
    result.estimated_benefit = estimator.estimate(result.seeds)
    result.evaluations = estimator.evaluations - start
    return result


def fill_by_rank(economics, budget, score, *, stop_on_zero_gain=False):
    """Scan the nodes by descending `score` (ties to the lower id), committing
    every one that still fits the budget; the score is each trace entry's
    gain. Unaffordable nodes are passed over for good, since budgets only
    shrink."""
    cost = economics.cost
    order = iter(np.lexsort((np.arange(len(score)), -score)).tolist())

    def pick(seeds, chosen, remaining):
        for v in order:
            if cost[v] <= remaining:
                s = float(score[v])
                return v, s, s, 0
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

    return _estimated_loop(estimator, economics, budget, pick, stop_on_zero_gain)


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
    evals_start = estimator.evaluations
    greedy = greedy_ratio_select(
        estimator, economics, budget, stop_on_zero_gain=stop_on_zero_gain
    )
    node, benefit = best_single_node(estimator, economics, budget)
    total_evals = estimator.evaluations - evals_start
    if node is not None and benefit > greedy.estimated_benefit:
        spent = float(economics.cost[node])
        return SelectionResult(
            seeds=[node],
            spent=spent,
            estimated_benefit=benefit,
            trace=[
                TraceEntry(
                    node=node,
                    gain=benefit,
                    budget_left=float(budget) - spent,
                    evaluations=total_evals - greedy.evaluations,
                )
            ],
            evaluations=total_evals,
            stop_reason="single_node",
        )
    greedy.evaluations = total_evals
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
    heap = []
    cached = {}  # node -> (ratio, gain, round computed); unaffordable nodes dropped

    def store(seeds, v, gain):
        ratio = gain / cost[v]
        cached[v] = (ratio, gain, len(seeds))
        return (-ratio, v)

    def pick(seeds, chosen, remaining):
        if not seeds:  # first round: only now is the seed set empty
            nodes = [v for v in range(economics.node_count) if cost[v] <= remaining]
            gains = estimator.marginal_gains(seeds, nodes)
            heap.extend(store(seeds, v, gain) for v, gain in zip(nodes, gains))
            heapq.heapify(heap)
        while heap:
            neg_ratio, v = heapq.heappop(heap)
            entry = cached.get(v)
            if v in chosen or entry is None or -neg_ratio != entry[0]:
                continue  # committed, dropped, or superseded by a fresher entry
            if cost[v] > remaining:
                # budgets only shrink, so this node is out for good
                del cached[v]
                continue
            ratio, gain, computed = entry
            if computed == len(seeds):
                return v, ratio, gain
            heapq.heappush(heap, store(seeds, v, estimator.marginal_gain(seeds, v)))
        return None

    return _estimated_loop(estimator, economics, budget, pick, stop_on_zero_gain)
