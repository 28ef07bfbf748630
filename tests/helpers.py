"""Shared instance builders for the test suite."""

import heapq
import math

import numpy as np
from hypothesis import strategies as st

from ebmax.baselines import _base_degree
from ebmax.diffusion import _canonical_seeds, _sample_rows, _sample_stride, _union
from ebmax.graph import NodeEconomics, SocialGraph
from ebmax.greedy import _commit_loop


def make_graph(n, arcs, directed=True):
    return SocialGraph(n, arcs, directed)


def make_economics(n, targets, benefits=None, costs=None):
    """Economics with unit costs and unit target benefits unless overridden.

    `benefits` maps target id -> value; `costs` maps node id -> value.
    """
    cost = np.ones(n, dtype=float)
    if costs:
        for v, c in costs.items():
            cost[v] = c
    benefit = np.zeros(n, dtype=float)
    for t in targets:
        benefit[t] = 1.0
    if benefits:
        for t, b in benefits.items():
            benefit[t] = b
    return NodeEconomics(cost=cost, benefit=benefit, targets=np.asarray(sorted(targets), dtype=np.int64))


def random_instance(rng, max_nodes=8, max_arcs=12, p_lo=0.05, p_hi=0.95):
    """Small random directed graph with random probabilities, costs, benefits."""
    n = int(rng.integers(2, max_nodes + 1))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = int(rng.integers(1, min(max_arcs, len(possible)) + 1))
    picks = rng.choice(len(possible), size=m, replace=False)
    arcs = [
        (possible[i][0], possible[i][1], float(rng.uniform(p_lo, p_hi)))
        for i in sorted(picks.tolist())
    ]
    graph = SocialGraph(n, arcs, True)
    k = max(1, n // 2)
    targets = np.sort(rng.choice(n, size=k, replace=False))
    benefit = np.zeros(n)
    benefit[targets] = rng.uniform(1.0, 10.0, size=k)
    cost = rng.uniform(0.5, 5.0, size=n)
    economics = NodeEconomics(cost=cost, benefit=benefit, targets=targets)
    return graph, economics


def isolated_vs_clique_instance(clique_size=4, eps=0.5):
    """One isolated cheap target plus an expensive all-certain clique.

    Node 0 is isolated with cost 1 - eps; nodes 1..clique_size form a clique
    with every arc probability 1 and per-node cost equal to clique_size.
    Every node is a target with benefit 1. The natural budget is clique_size:
    the ratio greedy grabs node 0 and strands the rest of the budget, while
    any single clique node earns the whole clique.
    """
    p = clique_size
    n = p + 1
    arcs = []
    for u in range(1, n):
        for v in range(1, n):
            if u != v:
                arcs.append((u, v, 1.0))
    graph = SocialGraph(n, arcs, True)
    cost = np.full(n, float(p))
    cost[0] = 1.0 - eps
    benefit = np.ones(n)
    economics = NodeEconomics(cost=cost, benefit=benefit, targets=np.arange(n))
    return graph, economics, float(p)


def random_subset_triple(rng, n):
    """Random S ⊆ T ⊂ nodes and u ∉ T."""
    size_t = int(rng.integers(0, n))  # keep at least one node outside T
    T = sorted(rng.choice(n, size=size_t, replace=False).tolist()) if size_t else []
    size_s = int(rng.integers(0, len(T) + 1))
    S = sorted(rng.choice(T, size=size_s, replace=False).tolist()) if size_s else []
    outside = [v for v in range(n) if v not in set(T)]
    u = int(outside[int(rng.integers(0, len(outside)))])
    return S, T, u


# --- references for rewritten kernels -------------------------------------------
# Each is the implementation the library used before a rewrite that must not
# change a single float, kept so property tests can compare bit for bit.


_EMPTY = ()


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


def reference_draw_worlds(graph, master_seed, count, first=0):
    """Yield live-edge worlds first .. first+count-1, each an adjacency dict
    (node -> live out-neighbors in arc order; a node with no live out-arc
    has no entry).

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
    chunk = max(1, (4 << 20) // max(1, _sample_stride(m)))
    stop = first + count
    for lo in range(first, stop, chunk):
        hi = min(lo + chunk, stop)
        keep = _sample_rows(master_seed, lo, hi - lo, m) < graph.prob
        for row in keep:
            yield _build_adjacency(np.flatnonzero(row).tolist(), src_list, dst_list)


def reference_target_masks(adjacency, bits):
    """Bitmask of the targets each node reaches in one world, indexed by node.

    `bits[v]` is node v's own target bit (0 for a non-target). One iterative
    Tarjan pass: strongly connected components close sinks first, so when a
    component closes, the masks its arcs lead out to are final, and its mask
    is their OR with its members' bits. The members of a component share one
    int, as does a node whose mask equals one it reaches. A node with no live
    out-arc is its own closed component at once: it is never pushed, and its
    own bit is ORed in.
    """
    masks = list(bits)
    closed = len(bits) + 1  # DFS number given to a node once its component closes
    number = [0] * len(bits)  # DFS number from 1; 0 = not visited yet
    low = [0] * len(bits)
    open_nodes = []
    counter = 0
    get = adjacency.get
    for root in adjacency:
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        open_nodes.append(root)
        path = [(root, iter(adjacency[root]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not number[w]:
                    out = get(w)
                    if out is not None:
                        counter += 1
                        number[w] = low[w] = counter
                        open_nodes.append(w)
                        path.append((w, iter(out)))
                        break
                    number[w] = closed  # a sink
                # w's component is closed (final mask) or is v's own (partial mask)
                elif number[w] < low[v]:
                    low[v] = number[w]
                masks[v] = _union(masks[v], masks[w])
            else:
                path.pop()
                if low[v] == number[v]:
                    mask = masks[v]
                    while True:
                        w = open_nodes.pop()
                        masks[w] = mask
                        number[w] = low[w] = closed
                        if w == v:
                            break
                if path:
                    u = path[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    masks[u] = _union(masks[u], masks[v])
    return masks


def _benefit_of(covered, target_set, target_benefit):
    return math.fsum(target_benefit[t] for t in covered & target_set)


def reference_exact_benefit(graph, economics, seeds):
    """Exact expected earned benefit by enumerating every live-arc subset.

    Sums Pr[subset] * benefit(subset) over all 2^m subsets, so it is only
    usable on tiny graphs; refuses more than 20 arcs. Searches each subset
    with `_reach`, independently of the oracle's target-mask kernel.
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


def reference_walk_influence(graph, target, hops):
    """Per-target hop recursion: a fresh memo for every target."""
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


def reference_scores(graph, economics, config):
    """(expected_benefit, score) from `reference_walk_influence`, targets in id order."""
    eb = economics.benefit.astype(np.float64).copy()
    benefit = economics.benefit
    for t in economics.targets.tolist():
        bt = float(benefit[t])
        influence = reference_walk_influence(graph, t, config.hops)
        for w in sorted(influence):
            p = influence[w]
            if p >= config.cutoff:
                eb[w] += p * bt
    return eb, eb / economics.cost


def reference_neighbor_probs(graph):
    """Per-node dict neighbor -> arc probability over the whole graph,
    preferring the outgoing arc."""
    nbr = [dict() for _ in range(graph.node_count)]
    src = graph.src.tolist()
    dst = graph.dst.tolist()
    prob = graph.prob.tolist()
    for a in range(graph.arc_count):
        nbr[src[a]][dst[a]] = prob[a]
    for a in range(graph.arc_count):
        nbr[dst[a]].setdefault(src[a], prob[a])
    return nbr


def reference_discounted_select(graph, economics, budget, discount):
    """The discount fill driven by `reference_neighbor_probs`, built up front."""
    n = graph.node_count
    deg = _base_degree(graph).astype(np.float64)
    effective = deg.copy()
    seeded_neighbors = np.zeros(n, dtype=np.int64)
    neighbor_prob = reference_neighbor_probs(graph)
    cost = economics.cost

    heap = [(-effective[v], v) for v in range(n)]
    heapq.heapify(heap)

    def pick(seeds, chosen, remaining):
        if seeds:
            for w, p in neighbor_prob[seeds[-1]].items():
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
            return v, gain, gain, 0
        return None

    return _commit_loop(economics, budget, pick, stop_on_zero_gain=False)


@st.composite
def tangled_instances(draw, max_nodes=7, max_pairs=10):
    """Small directed graph with cycles, reciprocal and parallel arcs, plus
    random economics; every arc probability is drawn on its own."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    prob = st.floats(0.01, 1.0)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda uv: uv[0] != uv[1]), max_size=max_pairs))
    arcs = []
    for u, v in pairs:
        arcs.append((u, v, draw(prob)))
        if draw(st.booleans()):  # reciprocal arc, its own probability
            arcs.append((v, u, draw(prob)))
        if draw(st.booleans()):  # parallel arc, its own probability
            arcs.append((u, v, draw(prob)))
    targets = sorted(draw(st.sets(node, max_size=n)))
    benefit = np.zeros(n)
    for t in targets:
        benefit[t] = draw(st.floats(1.0, 10.0))
    cost = np.array([draw(st.floats(0.5, 5.0)) for _ in range(n)])
    economics = NodeEconomics(cost=cost, benefit=benefit, targets=np.asarray(targets, dtype=np.int64))
    return SocialGraph(n, arcs, True), economics
