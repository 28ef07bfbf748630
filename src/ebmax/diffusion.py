"""Independent-cascade simulation and Monte Carlo estimation of earned benefit.

The estimator pre-draws a fixed list of live-edge worlds and reuses it for
every query. On a fixed world list the estimate is a coverage function, so it
is exactly monotone and submodular, which the lazy selection in
:mod:`ebmax.greedy` relies on. Per-world benefits are reduced with
``math.fsum`` (exactly rounded, order-independent), so results do not depend
on reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EMPTY = ()

# Philox draws come in 4-word blocks; per-sample offsets must stay aligned.
def _sample_stride(arc_count):
    return ((arc_count + 3) // 4) * 4


def _sample_rows(master_seed, first, count, arc_count):
    """Uniform draws for samples [first, first+count): row i is a pure function
    of (master_seed, first + i, arc position)."""
    stride = _sample_stride(arc_count)
    bit_gen = np.random.Philox(key=master_seed)
    if stride:
        bit_gen.advance(first * stride // 4)
        rows = np.random.Generator(bit_gen).random((count, stride))
        return rows[:, :arc_count]
    return np.zeros((count, 0), dtype=np.float64)


def _canonical_seeds(seeds, node_count):
    out = tuple(sorted({int(s) for s in seeds}))
    for s in out:
        if not (0 <= s < node_count):
            raise ValueError(f"seed {s} outside node range [0, {node_count})")
    return out


def _reach(adjacency, seeds):
    """Nodes reachable from the seed set over the given adjacency dict."""
    visited = set(seeds)
    stack = list(visited)
    pop = stack.pop
    push = stack.append
    get = adjacency.get
    while stack:
        for v in get(pop(), _EMPTY):
            if v not in visited:
                visited.add(v)
                push(v)
    return visited


def _reach_pruned(adjacency, start, blocked):
    """Nodes newly reachable from `start` when everything in `blocked` is already covered."""
    fresh = {start}
    stack = [start]
    pop = stack.pop
    push = stack.append
    get = adjacency.get
    while stack:
        for v in get(pop(), _EMPTY):
            if v in blocked or v in fresh:
                continue
            fresh.add(v)
            push(v)
    return fresh


def _benefit_of(covered, target_set, target_benefit):
    return math.fsum(target_benefit[t] for t in covered & target_set)


# --- cascade simulation -------------------------------------------------------

@dataclass
class CascadeResult:
    """Outcome of one cascade: the influenced set and rounds until quiescence."""

    influenced: set
    steps: int
    history: list = None  # cumulative active sets per round, when recorded


def simulate_cascade(graph, seeds, rng, record_history=False):
    """Run one independent-cascade realization from the seed set.

    Seeds are active at round 0. Each node activated in round t gets one
    activation attempt per still-inactive out-neighbor, succeeding with the
    arc probability; successes activate at round t+1. Nodes never
    deactivate. Attempt order is fixed (ascending node id, adjacency order)
    so a seeded generator reproduces the same cascade.
    """
    graph.require_probabilities()
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    active = set()
    for s in seeds:
        active.add(graph.check_node(s))
    frontier = sorted(active)
    history = [frozenset(active)] if record_history else None
    out_nbrs = graph.out_nbrs
    out_arcs = graph.out_arcs
    prob = graph.prob
    steps = 0
    while frontier:
        fresh = []
        for u in frontier:
            nbrs = out_nbrs[u]
            arcs = out_arcs[u]
            for i in range(len(nbrs)):
                v = nbrs[i]
                if v in active:
                    continue
                if rng.random() < prob[arcs[i]]:
                    active.add(v)
                    fresh.append(v)
        if not fresh:
            break
        steps += 1
        frontier = sorted(fresh)
        if record_history:
            history.append(frozenset(active))
    return CascadeResult(influenced=active, steps=steps, history=history)


# --- live-edge worlds ----------------------------------------------------------

def _build_adjacency(kept, src_list, dst_list):
    adjacency = {}
    for a in kept:
        u = src_list[a]
        lst = adjacency.get(u)
        if lst is None:
            adjacency[u] = [dst_list[a]]
        else:
            lst.append(dst_list[a])
    return adjacency


def draw_worlds(graph, master_seed, count, first=0):
    """Live-edge worlds first .. first+count-1, each an adjacency dict
    (node -> live out-neighbors in arc order).

    World i keeps arc a when the Philox draw at (master_seed, i, a) falls
    below the arc's probability, so a world does not depend on `first`,
    `count` or how the draws are chunked.
    """
    graph.require_probabilities()
    if first < 0:
        raise ValueError("world index must be non-negative")
    m = graph.arc_count
    src_list = graph.src.tolist()
    dst_list = graph.dst.tolist()
    worlds = []
    chunk = max(1, (4 << 20) // max(1, _sample_stride(m)))
    stop = first + count
    for lo in range(first, stop, chunk):
        hi = min(lo + chunk, stop)
        keep = _sample_rows(master_seed, lo, hi - lo, m) < graph.prob
        for row in keep:
            worlds.append(_build_adjacency(np.flatnonzero(row).tolist(), src_list, dst_list))
    return worlds


# --- Monte Carlo estimator ------------------------------------------------------

class BenefitEstimator:
    """Monte Carlo earned-benefit estimates over a fixed pre-drawn world list.

    The same R worlds back every query, so repeated calls with the same seed
    set return identical values, and marginal gains are exact differences of
    two estimates. `evaluations` counts estimate/marginal-gain queries; the
    selection algorithms report it to compare work done.

    The coverage of the last seed set queried is kept: the greedy selectors
    ask for the gains of many nodes against one seed set in a row.
    """

    def __init__(self, graph, economics, samples=10000, master_seed=0):
        if samples < 1:
            raise ValueError("sample count must be at least 1")
        if economics.node_count != graph.node_count:
            raise ValueError("economics sized for a different graph")
        graph.require_probabilities()
        self.graph = graph
        self.economics = economics
        self.samples = int(samples)
        self.master_seed = int(master_seed)
        self.evaluations = 0
        self._target_set = economics.target_set
        self._target_benefit = economics.target_benefit
        self._last = None
        self.worlds = draw_worlds(graph, self.master_seed, self.samples)

    def _coverage(self, key):
        """(key, per-world covered sets, covered-target benefit lists, values, mean)."""
        last = self._last
        if last is not None and last[0] == key:
            return last
        tset = self._target_set
        tb = self._target_benefit
        covered = [_reach(adjacency, key) for adjacency in self.worlds]
        bvals = [[tb[t] for t in cov & tset] for cov in covered]
        vals = [math.fsum(hit) for hit in bvals]
        self._last = (key, covered, bvals, vals, math.fsum(vals) / self.samples)
        return self._last

    def estimate(self, seeds):
        """Mean earned benefit of the seed set over the fixed worlds."""
        key = _canonical_seeds(seeds, self.graph.node_count)
        self.evaluations += 1
        return self._coverage(key)[4]

    def per_sample_benefits(self, seeds):
        """Per-world benefit values as a new array (for spread diagnostics)."""
        key = _canonical_seeds(seeds, self.graph.node_count)
        return np.array(self._coverage(key)[3], dtype=np.float64)

    def marginal_gain(self, seeds, u):
        """estimate(seeds + u) - estimate(seeds), reusing the cached coverage.

        Bit-identical to computing the two estimates separately: per-world
        covered sets are extended exactly, and fsum makes each per-world
        value independent of how the covered set was accumulated.
        """
        key = _canonical_seeds(seeds, self.graph.node_count)
        u = self.graph.check_node(u)
        if u in key:
            raise ValueError(f"node {u} is already in the seed set")
        self.evaluations += 1
        _, covered, bvals, vals, total = self._coverage(key)
        tset = self._target_set
        tb = self._target_benefit
        new_vals = list(vals)
        worlds = self.worlds
        for p in range(self.samples):
            cov = covered[p]
            if u in cov:
                continue
            fresh = _reach_pruned(worlds[p], u, cov)
            gained = [tb[t] for t in fresh & tset]
            if gained:
                new_vals[p] = math.fsum(bvals[p] + gained)
        return math.fsum(new_vals) / self.samples - total


# --- exact expectation ----------------------------------------------------------

def exact_benefit_bruteforce(graph, economics, seeds):
    """Exact expected earned benefit by enumerating every live-arc subset.

    Sums Pr[subset] * benefit(subset) over all 2^m subsets, so it is only
    usable on tiny graphs; refuses more than 20 arcs.
    """
    m = graph.arc_count
    if m > 20:
        raise ValueError(f"bruteforce enumeration refused for {m} arcs (limit 20)")
    graph.require_probabilities()
    key = _canonical_seeds(seeds, graph.node_count)
    src = graph.src.tolist()
    dst = graph.dst.tolist()
    prob = graph.prob.tolist()
    tset = economics.target_set
    tb = economics.target_benefit
    terms = []
    for mask in range(1 << m):
        pr = 1.0
        adjacency = {}
        for a in range(m):
            if (mask >> a) & 1:
                pr *= prob[a]
                u = src[a]
                lst = adjacency.get(u)
                if lst is None:
                    adjacency[u] = [dst[a]]
                else:
                    lst.append(dst[a])
            else:
                pr *= 1.0 - prob[a]
        covered = _reach(adjacency, key)
        terms.append(pr * _benefit_of(covered, tset, tb))
    return math.fsum(terms)


class ExactBenefitOracle:
    """Exact-expectation estimator for tiny graphs with the estimator interface.

    Precomputes reachability over every live-arc subset, then answers
    estimate/marginal-gain queries from the table. Matches
    exact_benefit_bruteforce bit for bit: same per-subset probability
    products, same per-subset benefit values, same fsum reduction.
    """

    MAX_ARCS = 16
    MAX_NODES = 16

    def __init__(self, graph, economics):
        m = graph.arc_count
        n = graph.node_count
        if m > self.MAX_ARCS or n > self.MAX_NODES:
            raise ValueError(f"oracle limited to {self.MAX_NODES} nodes / {self.MAX_ARCS} arcs")
        if economics.node_count != n:
            raise ValueError("economics sized for a different graph")
        graph.require_probabilities()
        self.graph = graph
        self.economics = economics
        self.evaluations = 0
        self._memo = {}

        subsets = 1 << m
        arcs = np.arange(m, dtype=np.int64)
        masks = np.arange(subsets, dtype=np.int64)
        keep = ((masks[:, None] >> arcs[None, :]) & 1).astype(bool) if m else np.zeros((1, 0), bool)

        prob = graph.prob
        pr = np.ones(subsets, dtype=np.float64)
        for a in range(m):
            pr *= np.where(keep[:, a], prob[a], 1.0 - prob[a])
        self._pr = pr

        reach = np.tile(np.int64(1) << np.arange(n, dtype=np.int64), (subsets, 1))
        src = graph.src.tolist()
        dst = graph.dst.tolist()
        changed = True
        while changed:
            changed = False
            for a in range(m):
                u, v = src[a], dst[a]
                merged = np.where(keep[:, a], reach[:, u] | reach[:, v], reach[:, u])
                if not np.array_equal(merged, reach[:, u]):
                    reach[:, u] = merged
                    changed = True
        self._reach = reach

        tb = economics.target_benefit
        bm = np.empty(1 << n, dtype=np.float64)
        for cover in range(1 << n):
            hit = []
            bits = cover
            while bits:
                low = bits & -bits
                t = low.bit_length() - 1
                val = tb.get(t)
                if val is not None:
                    hit.append(val)
                bits ^= low
            bm[cover] = math.fsum(hit)
        self._benefit_by_cover = bm

    def _beta(self, key):
        got = self._memo.get(key)
        if got is not None:
            return got
        if key:
            cover = self._reach[:, key[0]].copy()
            for s in key[1:]:
                cover |= self._reach[:, s]
            vals = self._benefit_by_cover[cover]
        else:
            vals = np.zeros(len(self._pr))
        beta = math.fsum((self._pr * vals).tolist())
        self._memo[key] = beta
        return beta

    def estimate(self, seeds):
        key = _canonical_seeds(seeds, self.graph.node_count)
        self.evaluations += 1
        return self._beta(key)

    def marginal_gain(self, seeds, u):
        key = _canonical_seeds(seeds, self.graph.node_count)
        u = self.graph.check_node(u)
        if u in key:
            raise ValueError(f"node {u} is already in the seed set")
        self.evaluations += 1
        joined = tuple(sorted(key + (u,)))
        return self._beta(joined) - self._beta(key)
