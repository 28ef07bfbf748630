"""Budgeted greedy seed selection: cost-ratio greedy, its guarantee-preserving
wrapper, and the lazy-evaluation variant.

All three maximize estimated earned benefit per unit cost. The lazy variant
exploits submodularity of the fixed-sample estimate: cached gains from earlier
iterations upper-bound current gains, so most candidates never need to be
re-evaluated. It is contractually required to return the same seed sequence
as the eager greedy on the same estimator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


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
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")


def _commit_loop(estimator, economics, budget, pick, stop_on_zero_gain):
    """Commit the nodes `pick` chooses until the budget or the gains run out.

    `pick(seeds, chosen, remaining)` returns the next (node, ratio, gain)
    among the affordable nodes not yet chosen, or None when there is none.
    Each trace entry is charged the estimator queries made since the
    previous commit; the final estimate of the seed set is charged to the
    result only.
    """
    _check_budget(budget)
    cost = economics.cost
    seeds = []
    chosen = set()
    remaining = float(budget)
    trace = []
    evals_start = estimator.evaluations

    while True:
        iter_start = estimator.evaluations
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
            TraceEntry(
                node=node,
                gain=gain,
                budget_left=remaining,
                evaluations=estimator.evaluations - iter_start,
            )
        )
        if remaining <= 0.0:
            stop_reason = "budget_exhausted"
            break

    benefit = estimator.estimate(seeds)
    return SelectionResult(
        seeds=seeds,
        spent=float(budget) - remaining,
        estimated_benefit=benefit,
        trace=trace,
        evaluations=estimator.evaluations - evals_start,
        stop_reason=stop_reason,
    )


def greedy_ratio_select(estimator, economics, budget, *, stop_on_zero_gain=True):
    """Incremental greedy: each round add the affordable node with the best
    marginal gain per unit cost (ties to the lowest id).

    Stops when nothing is affordable or the budget hits zero. By default it
    also stops once the best available ratio is non-positive, since adding
    zero-gain nodes burns budget without benefit; pass
    ``stop_on_zero_gain=False`` for the literal always-spend loop.
    """
    cost = economics.cost

    def pick(seeds, chosen, remaining):
        best = None
        for v in range(economics.node_count):
            if v in chosen or cost[v] > remaining:
                continue
            gain = estimator.marginal_gain(seeds, v)
            ratio = gain / cost[v]
            if best is None or ratio > best[1]:
                best = (v, ratio, gain)
        return best

    return _commit_loop(estimator, economics, budget, pick, stop_on_zero_gain)


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
    _check_budget(budget)
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
    cost = economics.cost
    heap = []
    cached = {}  # node -> (ratio, gain, round computed); unaffordable nodes dropped

    def refresh(seeds, v):
        gain = estimator.marginal_gain(seeds, v)
        ratio = gain / cost[v]
        cached[v] = (ratio, gain, len(seeds))
        return (-ratio, v)

    def pick(seeds, chosen, remaining):
        if not seeds:  # first round: only now is the seed set empty
            heap.extend(
                refresh(seeds, v) for v in range(economics.node_count) if cost[v] <= remaining
            )
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
            heapq.heappush(heap, refresh(seeds, v))
        return None

    return _commit_loop(estimator, economics, budget, pick, stop_on_zero_gain)
