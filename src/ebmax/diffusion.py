"""Live-edge worlds, and the Monte Carlo expectation of earned benefit.

An estimator draws a fixed set of live-edge worlds once and reuses it for
every query. On a fixed set of worlds the estimate is a coverage function, so
it is exactly monotone and submodular, which the lazy selection in
:mod:`ebmax.greedy` relies on. Each world's benefit is an exact int, rounded
once, and ``math.fsum`` reduces only across worlds (exactly rounded,
order-independent), so results do not depend on reduction order.

Every query is answered from a target-reach index: for every world, the
bitmask of the targets each node reaches, built by one pass over the world's
strongly connected components (the condensation that Ohsaka et al. use in
*Pruned Monte-Carlo Simulations*, AAAI 2014). The estimator indexes each
world as it is drawn and keeps only the masks, never the worlds.

Worlds are live-edge worlds in the sense of Kempe, Kleinberg & Tardos (KDD
2003): world i keeps each arc independently with its probability, decided by
its own stretch of one Philox stream, so it is the same world however the
worlds are drawn. Each world's draws fill one reused float buffer and become
one row of boolean keep flags; a chunk of such rows is then turned into CSR
worlds of the live arcs only (`_csr_worlds`), built in numpy. An arc into a
non-target node with no live out-arc changes no mask and is dropped. The
test suite's exact oracle for tiny graphs runs the same builder and kernel:
it enumerates every live-arc subset as a world, weighted by its probability,
and reads each node's target mask from the same per-world pass.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from .graph import as_node_id

# set-bit offsets of each byte value, for reading wide target masks a byte at a time
_BYTE_BITS = [tuple(j for j in range(8) if byte >> j & 1) for byte in range(256)]

# A chunk of worlds holds about this many keep flags and per-node counts
# together, so that neither the arcs nor the nodes of a large graph make its
# CSR build large.
_CHUNK_ENTRIES = 4 << 20


# Philox draws come in 4-word blocks; per-sample offsets must stay aligned.
def _sample_stride(arc_count):
    return ((arc_count + 3) // 4) * 4


def _canonical_seeds(seeds, node_count):
    """The seed set as a sorted tuple of distinct int node ids."""
    seeds = tuple(seeds)
    if set(map(type, seeds)) <= {int}:  # the common case, checked without a call per seed
        out = tuple(sorted(set(seeds)))
    else:
        out = tuple(sorted({as_node_id(s) for s in seeds}))
    if out and (out[0] < 0 or out[-1] >= node_count):
        s = out[0] if out[0] < 0 else out[-1]
        raise ValueError(f"seed {s} outside node range [0, {node_count})")
    return out


def _query_nodes(nodes, key, node_count):
    """The queried nodes as a list of int ids, checked as one batch against
    the canonical seed set `key`: integers (no bools or floats), inside
    [0, node_count) and not seeds. The error names the first offending node."""
    nodes = list(nodes)
    if not set(map(type, nodes)) <= {int}:  # as in _canonical_seeds
        nodes = [as_node_id(u) for u in nodes]
    if nodes and (min(nodes) < 0 or max(nodes) >= node_count):
        u = next(u for u in nodes if not 0 <= u < node_count)
        raise ValueError(f"node id {u} outside [0, {node_count})")
    if key and not set(nodes).isdisjoint(key):
        u = next(u for u in nodes if u in key)
        raise ValueError(f"node {u} is already in the seed set")
    return nodes


def _union(a, b):
    """a | b, returned as a or b itself when it equals one of them, so that
    equal masks stay one shared int."""
    if not b or b is a:
        return a
    if not a:
        return b
    joined = a | b
    return a if joined == a else b if joined == b else joined


def _target_masks(world, bits):
    """Bitmask of the targets each node reaches in one world, indexed by node.

    `world` is a CSR world `(roots, heads, offsets)` from `_csr_worlds`: node
    v's live out-neighbours are `heads[offsets[v]:offsets[v + 1]]`, and
    `roots` lists the nodes that have any. `bits[v]` is node v's own target
    bit (0 for a non-target). One iterative Tarjan pass: strongly connected
    components close sinks first, so when a component closes, the masks its
    arcs lead out to are final, and its mask is their OR with its members'
    bits. The members of a component share one int, as does a node whose mask
    equals one it reaches. A node with no live out-arc is its own closed
    component at once: it is never pushed, and its own bit is ORed in.
    """
    roots, heads, off = world
    masks = list(bits)
    closed = len(bits) + 1  # DFS number given to a node once its component closes
    number = [0] * len(bits)  # DFS number from 1; 0 = not visited yet
    low = [0] * len(bits)
    open_nodes = []
    counter = 0
    for root in roots:
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        open_nodes.append(root)
        path = [(root, iter(heads[off[root]:off[root + 1]]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not number[w]:
                    lo, hi = off[w], off[w + 1]
                    if lo != hi:
                        counter += 1
                        number[w] = low[w] = counter
                        open_nodes.append(w)
                        path.append((w, iter(heads[lo:hi])))
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


def _bit_values(bits, values):
    """values[j] for every set bit j of the non-negative int `bits`."""
    if bits.bit_count() < 16:
        out = []
        while bits:
            low = bits & -bits
            out.append(values[low.bit_length() - 1])
            bits ^= low
        return out
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return [values[8 * i + j] for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def _target_bits(economics):
    """(bits, units, scale): `bits[v]` is node v's own target bit, 1 << j for the
    j-th target in ascending id order and 0 for a non-target; the j-th benefit is
    units[j] / scale, `scale` being the largest (power-of-two) denominator, so the
    sum of any targets' units / scale is exactly rounded, the float fsum gives."""
    targets = economics.targets.tolist()
    bits = [0] * economics.node_count
    for j, t in enumerate(targets):
        bits[t] = 1 << j
    ratios = [economics.target_benefit[t].as_integer_ratio() for t in targets]
    scale = max((den for _, den in ratios), default=1)
    return bits, [num * (scale // den) for num, den in ratios], scale


# --- live-edge worlds ----------------------------------------------------------

def _csr_worlds(keep, graph, targets):
    """Yield one CSR world `(roots, heads, offsets)` of the graph per row of
    the boolean `keep` matrix (worlds x arcs), as `_target_masks` reads it.

    Only live arcs are handled. An arc into a non-target head that has no
    live out-arc in its world is dropped: that head's mask is 0, so the arc
    changes no mask. The heads are grouped by (world, source) in arc order;
    `offsets` has node count + 1 entries, and `roots` lists the nodes with a
    kept out-arc in ascending id. One world is converted to lists at a time.
    """
    roots, heads, off, at_root, at_head = _csr_arrays(keep, graph, targets)
    for i in range(len(keep)):
        yield (
            roots[at_root[i] : at_root[i + 1]].tolist(),
            heads[at_head[i] : at_head[i + 1]].tolist(),
            off[i].tolist(),
        )


def _csr_arrays(keep, graph, targets):
    """(roots, heads, offsets, root starts, head starts) of a chunk of worlds.

    A function of its own so that its temporaries are freed before any
    world is converted, and worked in place where they can be: the heap
    that holds them is not given back under the lists built after them.
    Built out of place, they raised the median peak RSS of the benchmark
    sweeps by 0.4 MB on pa2k-mc and 1.5 MB on er10k-hop (pa1k-tri-guard
    unchanged).
    """
    count, n = len(keep), graph.node_count
    is_target = np.zeros(n, dtype=bool)
    is_target[targets] = True
    base, arc = np.divmod(np.flatnonzero(keep), max(1, keep.shape[1]))
    base *= n + 1  # key of (world w, node v) is w * (n + 1) + 1 + v: column 0 of a world stays empty
    base += 1
    key, heads = graph.src[arc] + base, graph.dst[arc]
    has_out = np.zeros(count * (n + 1), dtype=bool)
    has_out[key] = True
    base += heads  # now the key of each arc's head
    live = np.flatnonzero(has_out[base] | is_target[heads])
    live = live[np.argsort(key[live], kind="stable")]
    key, heads = key[live], heads[live]
    off = np.bincount(key, minlength=count * (n + 1)).reshape(count, n + 1)
    np.cumsum(off, axis=1, out=off)
    sources = key[np.diff(key, prepend=-1) != 0]
    bounds = np.arange(count + 1) * (n + 1)
    at_root = np.searchsorted(sources, bounds).tolist()
    at_head = np.searchsorted(key, bounds).tolist()
    return sources % (n + 1) - 1, heads, off, at_root, at_head


def _draw_worlds(graph, targets, master_seed, count, first=0):
    """Yield live-edge worlds first .. first+count-1 as CSR worlds
    (`_csr_worlds`), pruned for the given target ids.

    World i keeps arc a when the Philox draw at (master_seed, i, a) falls
    below the arc's probability: world i reads draws [i * stride, (i + 1) *
    stride) of the key's one stream, stride being `_sample_stride` of the
    arc count, so a world does not depend on `first`, `count` or how the
    worlds are chunked. One world's draws at a time fill one reused float
    buffer, and are compared into a row of one boolean keep block, which a
    chunk of worlds reuses in turn; no chunk of floats is ever held.
    """
    graph.require_probabilities()
    if first < 0:
        raise ValueError("world index must be non-negative")
    m, n = graph.arc_count, graph.node_count
    stride = _sample_stride(m)
    chunk = max(1, _CHUNK_ENTRIES // max(1, stride + n))
    bit_gen = np.random.Philox(key=master_seed)
    bit_gen.advance(first * stride // 4)
    draw = np.random.Generator(bit_gen).random
    draws = np.empty(stride)
    block = np.empty((min(chunk, count), m), dtype=bool)
    for lo in range(0, count, chunk):
        keep = block[: min(chunk, count - lo)]
        for row in keep:
            draw(out=draws)
            np.less(draws[:m], graph.prob, out=row)
        yield from _csr_worlds(keep, graph, targets)


# --- Monte Carlo estimator ------------------------------------------------------

class BenefitEstimator:
    """Monte Carlo earned-benefit estimates over a fixed set of R worlds.

    The same R worlds back every query, so repeated calls with the same seed
    set return identical values, and marginal gains are exact differences of
    two estimates. `evaluations` counts estimate/marginal-gain queries, each
    node of a `marginal_gains` batch as one; the selection algorithms report
    it to compare work done.

    The constructor draws the worlds a chunk at a time and indexes each as it
    is drawn: the index holds, for each node, its target mask in every world
    (bit j stands for the j-th target in ascending id order). The worlds
    themselves are not kept; every query reads the index.

    The coverage of the last seed set queried is kept, each world's benefit an
    exact int of `_target_bits` units, rounded once: the greedy selectors ask
    for the gains of many nodes against one seed set in one batch, and then
    about that set plus the node they committed, whose coverage is extended in
    place.

    On fixed worlds a gain is a pure function of (canonical seed set, node)
    and an estimate of the canonical seed set, so every answer is memoized
    for the estimator's lifetime: the budgets and selectors of a sweep share
    one estimator, and each asks again much of what an earlier one asked. A
    single seed's estimate is its gain against the empty set, bit for bit, so
    the two share one table. `evaluations` still counts every query, hit or
    not, so it stays the count of a run from scratch.
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
        bits, self._units, self._scale = _target_bits(economics)
        self._last = None  # (key, uncovered masks, covered units, values, mean)
        self._gains = {}  # canonical seeds -> {node: marginal gain}
        self._estimates = {}  # canonical seeds of two or more -> mean benefit
        # node -> its target mask in every world
        worlds = _draw_worlds(graph, economics.targets, self.master_seed, self.samples)
        self._rows = list(zip(*(_target_masks(world, bits) for world in worlds)))

    def _coverage(self, key):
        """(key, uncovered target masks, covered units, values, mean), per world.

        The masks are stored complemented (~cover), so the targets a node newly
        reaches are its mask & uncovered. Each changed world is settled once.
        """
        last = self._last
        if last is not None and last[0] == key:
            return last
        rows = self._rows
        worlds = range(self.samples)
        if last is not None and len(key) == len(last[0]) + 1 and set(key).issuperset(last[0]):
            _, uncovered, covered, vals, _ = last
            added = set(key).difference(last[0])
        else:
            uncovered, covered, vals = [-1] * self.samples, [0] * self.samples, [0.0] * self.samples
            added = key
        reached = [0] * self.samples
        for s in added:
            row = rows[s]
            for p in compress(worlds, row):
                reached[p] |= row[p]
        units, scale = self._units, self._scale
        for p in compress(worlds, reached):
            gained = reached[p] & uncovered[p]
            if gained:
                uncovered[p] ^= gained
                covered[p] += sum(_bit_values(gained, units))
                vals[p] = covered[p] / scale
        self._last = (key, uncovered, covered, vals, math.fsum(vals) / self.samples)
        return self._last

    def estimate(self, seeds):
        """Mean earned benefit of the seed set over the fixed worlds."""
        key = _canonical_seeds(seeds, self.graph.node_count)
        self.evaluations += 1
        if len(key) == 1:
            # the total of the empty set is 0.0, so its gain table holds the same floats
            return self._memo_gains((), key)[0]
        mean = self._estimates.get(key)
        if mean is None:
            mean = self._estimates[key] = self._coverage(key)[4]
        return mean

    def per_sample_benefits(self, seeds):
        """Per-world benefit values as a new array (for spread diagnostics)."""
        key = _canonical_seeds(seeds, self.graph.node_count)
        return np.array(self._coverage(key)[3], dtype=np.float64)

    def marginal_gain(self, seeds, u):
        """estimate(seeds + u) - estimate(seeds), read from the index."""
        return self.marginal_gains(seeds, (u,))[0]

    def marginal_gains(self, seeds, nodes):
        """[marginal_gain(seeds, u) for u in nodes]: the seeds, their coverage
        and the nodes are checked and looked up once for the whole batch, and
        only the gains not asked before are computed. A batch with a bad node
        raises before any query is charged or stored.
        """
        key = _canonical_seeds(seeds, self.graph.node_count)
        nodes = _query_nodes(nodes, key, self.graph.node_count)
        self.evaluations += len(nodes)
        return self._memo_gains(key, nodes)

    def _memo_gains(self, key, nodes):
        """The gains of checked `nodes` against the canonical `key`, each
        computed once per estimator."""
        known = self._gains.get(key)
        if known is None:
            known = self._gains[key] = {}
        missing = [u for u in dict.fromkeys(nodes) if u not in known]
        if missing:
            known.update(zip(missing, self._fresh_gains(key, missing)))
        return [known[u] for u in nodes]

    def _fresh_gains(self, key, nodes):
        """The gains of distinct nodes against `key`, computed from its coverage.

        Bit-identical to computing the two estimates separately: in each world
        where u reaches targets the seeds miss, their units are added to the
        world's exact int, which is rounded once, so the world's value does not
        depend on how its covered set was accumulated. Worlds where u reaches
        no target cost nothing.
        """
        _, uncovered, covered, vals, total = self._coverage(key)
        rows, units, scale, samples = self._rows, self._units, self._scale, self.samples
        worlds = range(samples)
        # the units of a gained mask depend on the mask alone, so one table
        # serves every node of the batch: nodes gain the same targets in many worlds
        gained_units = {}
        gains = []
        for u in nodes:
            row = rows[u]
            new_vals = None
            for p in compress(worlds, row):
                gained = row[p] & uncovered[p]
                if gained:
                    if new_vals is None:
                        new_vals = list(vals)
                    more = gained_units.get(gained)
                    if more is None:
                        more = gained_units[gained] = sum(_bit_values(gained, units))
                    new_vals[p] = (covered[p] + more) / scale
            gains.append(0.0 if new_vals is None else math.fsum(new_vals) / samples - total)
        return gains

