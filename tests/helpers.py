"""Shared instance builders for the test suite."""

import heapq
import math
import warnings

import numpy as np
from hypothesis import strategies as st

from ebmax.baselines import _base_degree
from ebmax.diffusion import (
    _bit_values,
    _canonical_seeds,
    _csr_worlds,
    _query_nodes,
    _sample_stride,
    _target_bits,
    _target_masks,
    _union,
)
from ebmax.graph import _MAX_NODE_ID, GraphParseError, NodeEconomics, SocialGraph
from ebmax.greedy import _commit_loop
from ebmax.hop import _check_hops, _in_arcs, _walks


def make_graph(n, arcs, directed=True, *, original_ids=None):
    """SocialGraph on n nodes from a list of `(src, dst, prob)` arcs."""
    arcs = list(arcs)
    src, dst, prob = ([a[i] for a in arcs] for i in range(3))
    return SocialGraph(n, src, dst, prob, directed, original_ids=original_ids)


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
    graph = make_graph(n, arcs, True)
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
    graph = make_graph(n, arcs, True)
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
    """Per-target hop recursion: a fresh memo for every target. Its in-lists
    are built here by a plain loop over the arcs, not read from the graph's
    index."""
    in_nbrs = [[] for _ in range(graph.node_count)]
    in_arcs = [[] for _ in range(graph.node_count)]
    for a, (u, v) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        in_nbrs[v].append(u)
        in_arcs[v].append(a)
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
            return v, gain, gain
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
    return make_graph(n, arcs, True), economics


# --- exact and hop-bounded references on the production kernels ---------------
# Test-only: no pipeline path runs these. Each calls the production kernels,
# imported privately, so a comparison with it checks those kernels.


class ExactBenefitOracle:
    """Exact expected earned benefit for tiny graphs, with the estimator interface.

    Every one of the 2^m live-arc subsets is a world, weighted by its
    probability (the product, in arc order, of p for a kept arc and 1 - p for
    a dropped one); the weighted sum over all worlds is the exact
    independent-cascade expectation (Kempe, Kleinberg & Tardos, KDD 2003).
    All 2^m worlds are built in one batch and searched by the estimator's own
    code (`_csr_worlds`, `_target_masks`), so the oracle is a check on the
    production world layout and coverage kernel. A query ORs its seeds' target
    masks in every world, reads each world's benefit from a table indexed by
    target mask and reduces the probability-weighted values with ``fsum``.
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

        subsets = np.arange(1 << m, dtype=np.int64)
        keep = ((subsets[:, None] >> np.arange(m, dtype=np.int64)) & 1).astype(bool)
        pr = np.ones(len(subsets), dtype=np.float64)
        for a, p in enumerate(graph.prob.tolist()):
            pr *= np.where(keep[:, a], p, 1.0 - p)
        self._pr = pr

        bits, units, scale = _target_bits(economics)
        worlds = _csr_worlds(keep, graph, economics.targets)
        self._masks = np.array([_target_masks(world, bits) for world in worlds], dtype=np.int64)
        self._benefit_by_mask = np.array(
            [sum(_bit_values(mask, units)) / scale for mask in range(1 << len(units))], dtype=np.float64
        )

    def _beta(self, key):
        got = self._memo.get(key)
        if got is None:
            cover = np.bitwise_or.reduce(self._masks[:, list(key)], axis=1)
            got = self._memo[key] = math.fsum((self._pr * self._benefit_by_mask[cover]).tolist())
        return got

    def estimate(self, seeds):
        key = _canonical_seeds(seeds, self.graph.node_count)
        self.evaluations += 1
        return self._beta(key)

    def marginal_gain(self, seeds, u):
        return self.marginal_gains(seeds, (u,))[0]

    def marginal_gains(self, seeds, nodes):
        key = _canonical_seeds(seeds, self.graph.node_count)
        nodes = _query_nodes(nodes, key, self.graph.node_count)
        self.evaluations += len(nodes)
        base = self._beta(key)
        return [self._beta(tuple(sorted(key + (u,)))) - base for u in nodes]


def influence_probability(graph, source, target, hops):
    """Hop-bounded probability that `source` influences `target`, from the
    production kernel (`hop._walks`) for this one target.

    Returns 0.0 when the source lies outside the reverse hop neighborhood,
    and 1.0 when the source is the target: a seed earns its own benefit.
    """
    _check_hops(hops)
    graph.require_probabilities()
    source, target = _query_nodes((source, target), (), graph.node_count)
    if source == target:
        return 1.0
    _, _, sources, probs = _walks(_in_arcs(graph), np.array([target]), hops)
    at = np.flatnonzero(sources == source)
    return float(probs[at[0]]) if len(at) else 0.0


def save_edge_list(graph, target):
    """Write the graph back out in loadable edge-list form.

    One line per input edge (undirected pairs collapse back to one line),
    original ids, probabilities at 17 significant digits. Arcs still carrying
    the unassigned sentinel are written without a probability column.
    """
    def _write(handle):
        step = 1 if graph.directed else 2
        orig = graph.original_ids
        for a in range(0, graph.arc_count, step):
            u = orig[int(graph.src[a])]
            v = orig[int(graph.dst[a])]
            p = float(graph.prob[a])
            if p > 0.0:
                handle.write(f"{u} {v} {p:.17g}\n")
            else:
                handle.write(f"{u} {v}\n")

    if hasattr(target, "write"):
        _write(target)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _write(handle)


def reference_parse_lines(lines, directed):
    """Collect deduplicated (orig_u, orig_v, prob_or_None); duplicates keep the last occurrence."""
    entries = {}  # key -> (position_of_last_occurrence, u, v, prob)
    counter = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(f"expected 'src dst [prob]', got {line!r}", line_no)
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphParseError(f"node ids must be integers, got {line!r}", line_no) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"node ids must be non-negative, got {line!r}", line_no)
        if u > _MAX_NODE_ID or v > _MAX_NODE_ID:
            raise GraphParseError(f"node id {max(u, v)} exceeds the int64 range", line_no)
        if u == v:
            raise GraphParseError(f"self-loop on node {u} rejected", line_no)
        p = None
        if len(parts) == 3:
            try:
                p = float(parts[2])
            except ValueError:
                raise GraphParseError(f"probability must be a number, got {parts[2]!r}", line_no) from None
            if not (0.0 < p <= 1.0):
                raise GraphParseError(f"probability {p} outside (0, 1]", line_no)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in entries:
            warnings.warn(f"duplicate edge {u}->{v} at line {line_no}; keeping the last occurrence")
        entries[key] = (counter, u, v, p)
        counter += 1
    ordered = sorted(entries.values())
    return [(u, v, p) for _, u, v, p in ordered]


def reference_load_edge_list(source, directed=True):
    """The line-at-a-time edge-list loader that `graph.load_edge_list`
    replaced, kept as the oracle of its differential test: one dict entry
    per edge and one tuple per arc."""
    if hasattr(source, "read"):
        edges = reference_parse_lines(source, directed)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            edges = reference_parse_lines(handle, directed)

    ids = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    remap = {orig: dense for dense, orig in enumerate(ids)}

    arcs = []
    for u, v, p in edges:
        du, dv = remap[u], remap[v]
        pv = 0.0 if p is None else p
        arcs.append((du, dv, pv))
        if not directed:
            arcs.append((dv, du, pv))
    return make_graph(len(ids), arcs, directed, original_ids=np.asarray(ids, dtype=np.int64))
