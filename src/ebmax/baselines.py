"""Degree-based baseline selectors: plain max-degree and two discount variants.

All three score nodes by degree alone (costs and benefits play no role in the
ranking) but respect the budget during selection. For undirected graphs the
degree is the neighbor count; for directed graphs it is in-degree plus
out-degree.
"""

from __future__ import annotations

import heapq

import numpy as np

from .greedy import _commit_loop, fill_by_rank


def _base_degree(graph):
    deg = graph.degree
    return deg if graph.directed else deg // 2


def max_degree_select(graph, economics, budget):
    """Scan nodes by descending degree (ties to lower id), adding every one
    that still fits the budget."""
    return fill_by_rank(economics, budget, _base_degree(graph))


def _discounted_select(graph, economics, budget, discount):
    """Shared fill: repeatedly seed the affordable node with the highest
    effective degree, after rescoring the last seed's non-seed neighbors via
    `discount`.

    A seed's neighbors are looked up when the next pick follows its commit:
    each neighbor carries the probability of the arc from the seed (the last
    of parallel arcs), or, when there is none, of the first arc into the seed.

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
    dst, src, prob = graph.dst, graph.src, graph.prob
    out_offsets, out_arcs = graph.out_csr
    in_offsets, in_arcs = graph.in_csr
    cost = economics.cost

    heap = [(-effective[v], v) for v in range(n)]
    heapq.heapify(heap)

    def pick(seeds, chosen, remaining):
        if seeds:
            last = seeds[-1]
            out = out_arcs[out_offsets[last]:out_offsets[last + 1]]
            neighbor_prob = dict(zip(dst[out].tolist(), prob[out].tolist()))
            into = in_arcs[in_offsets[last]:in_offsets[last + 1]]
            for w, p in zip(src[into].tolist(), prob[into].tolist()):
                neighbor_prob.setdefault(w, p)
            for w, p in neighbor_prob.items():
                if w in chosen:
                    continue
                seeded_neighbors[w] += 1
                effective[w] = deg[w] - discount(deg[w], seeded_neighbors[w], p)
                heapq.heappush(heap, (-effective[w], w))
        while heap:
            neg_eff, v = heapq.heappop(heap)
            if v in chosen or -neg_eff != effective[v] or cost[v] > remaining:
                continue
            gain = float(effective[v])
            return v, gain, gain
        return None

    return _commit_loop(economics, budget, pick, stop_on_zero_gain=False)


def degree_discount_select(graph, economics, budget, p=None):
    """Degree-discount selection: a node with t seeded neighbors loses
    2t + (d - t) * t * p from its original degree d.

    `p` is the uniform propagation probability; when None the probability of
    the triggering arc is used (its reverse arc when only that exists).
    """
    if p is not None and not (0.0 <= p <= 1.0):  # NaN fails both
        raise ValueError(f"propagation probability p must lie in [0, 1], got {p}")

    def discount(d, t, arc_p):
        prop = arc_p if p is None else p
        return 2.0 * t + (d - t) * t * prop

    return _discounted_select(graph, economics, budget, discount)


def single_discount_select(graph, economics, budget):
    """Single-discount selection: each seeded neighbor costs one degree unit."""

    def discount(d, t, arc_p):
        return float(t)

    return _discounted_select(graph, economics, budget, discount)
