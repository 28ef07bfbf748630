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
world as it is drawn and keeps only the masks, never the worlds. An
estimator given the nodes it will be asked about (a held-out estimator: the
union of the rows' seeds) starts each world's pass from those nodes only and
keeps only their rows, so its index takes O(|nodes| x R) memory, not
O(n x R); every mask it keeps has the value the full pass gives.

Worlds are live-edge worlds in the sense of Kempe, Kleinberg & Tardos (KDD
2003): world i keeps each arc independently with its probability, decided by
its own stretch of one Philox stream, so it is the same world however the
worlds are drawn. Each world's draws fill one reused float buffer and become
one row of boolean keep flags; a chunk of such rows is then turned into CSR
worlds of the live arcs only (`_csr_worlds`), built in numpy. An arc into a
non-target node with no live out-arc changes no mask and is dropped. Chains
are contracted before the pass: a non-target with exactly one kept arc has
its head's mask, so it loses its arc, arcs into it lead to the end of its
chain, and it is listed as an alias that takes the end's mask, the same int,
once the pass is done. The pass starts from the nodes left with a kept arc,
in ascending id. So the Python pass walks a smaller world; every mask has
the value the pass over the whole world gives, and the members of a
strongly connected component share one int. The test suite's exact oracle
for tiny graphs runs the same builder and kernel: it enumerates every
live-arc subset as a world, weighted by its probability, and reads each
node's target mask from the same per-world pass.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from functools import reduce
from itertools import compress
from operator import is_, itemgetter, or_

import numpy as np

from .graph import as_node_id

# set-bit offsets of each byte value, for reading wide target masks a byte at a time
_BYTE_BITS = [tuple(j for j in range(8) if byte >> j & 1) for byte in range(256)]

# A chunk of worlds holds about this many keep flags and per-node counts
# together, so that neither the arcs nor the nodes of a large graph make its
# CSR build large.
_CHUNK_ENTRIES = 4 << 20
# ... and about this many live arcs by their expected count, since the CSR
# build's temporaries grow with those (several int64 arrays over them).
_CHUNK_ARCS = 1 << 18


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
    the seed set `key`, a tuple or a set: integers (no bools or floats),
    inside [0, node_count) and not seeds. The error names the first
    offending node."""
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

    `world` is a CSR world `(roots, heads, offsets, aliases)` from
    `_csr_worlds`: node v's kept out-neighbours are
    `heads[offsets[v]:offsets[v + 1]]`, and the searches start from `roots`
    in order. `bits[v]` is node v's own target bit (0 for a non-target). One
    iterative Tarjan pass: strongly connected components close sinks first,
    so when a component closes, the masks its arcs lead out to are final,
    and its mask is their OR with its members' bits. The members of a
    component share one int, as does a node whose mask equals one it
    reaches. A node with no kept out-arc is its own closed component at
    once: it is never pushed, and its own bit is ORed in. Then each alias
    node takes its rep's mask, the same int.
    """
    roots, heads, off, (nodes, reps) = world
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
    for v, rep in zip(nodes, reps):
        masks[v] = masks[rep]
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
    bits = [0] * economics.node_count
    for j, t in enumerate(economics.targets.tolist()):
        bits[t] = 1 << j
    ratios = [b.as_integer_ratio() for b in economics.benefit[economics.targets].tolist()]
    scale = max((den for _, den in ratios), default=1)
    return bits, [num * (scale // den) for num, den in ratios], scale


# --- live-edge worlds ----------------------------------------------------------

def _csr_worlds(keep, graph, targets, wanted=None):
    """Yield one CSR world `(roots, heads, offsets, aliases)` of the graph per
    row of the boolean `keep` matrix (worlds x arcs), as `_target_masks`
    reads it.

    Only live arcs are handled, and the world is contracted first
    (`_csr_arrays`): a node whose mask is plainly another node's loses its
    arcs and is listed in `aliases`, a pair of lists `(nodes, reps)`, so
    that `_target_masks` copies `masks[rep]` into it. The heads are grouped
    by (world, source) in arc order and `offsets` has node count + 1
    entries. `roots`, where the pass starts its searches, are the nodes
    with a kept arc in ascending id. One world is converted to lists at a
    time.

    Given `wanted`, a boolean array over the nodes, an alias is kept only if
    it is wanted, and the roots are the wanted nodes with a kept arc and the
    reps of the wanted aliases that have one. The pass then visits only what
    the wanted nodes reach, and gives each of them its mask: Tarjan's pass
    from any roots closes every component it visits with its exact mask.
    Which int a mask is may differ from the pass over every root.
    """
    off, fields = _csr_arrays(keep, graph, targets, wanted)
    for i in range(len(keep)):
        roots, heads, nodes, reps = (values[at[i] : at[i + 1]].tolist() for values, at in fields)
        yield roots, heads, off[i].tolist(), (nodes, reps)


def _csr_arrays(keep, graph, targets, wanted=None):
    """(offsets, [(roots, starts), (heads, starts), (alias nodes, starts),
    (alias reps, starts)]) of a chunk of worlds, each array holding every
    world's values in turn and its starts list giving world i's slice.

    An arc into a non-target head with no live out-arc in its world is
    dropped: that head's mask is 0, so the arc changes no mask. Then chains
    are contracted. A chain node is a non-target with exactly one kept arc,
    so its mask is its head's mask; following heads through chain nodes
    leads to the chain's end (a target, or a node with no kept arc or with
    two or more), found by pointer jumping over the chunk's chain nodes.
    Every chain node is an alias of its end, its arc is dropped, and an arc
    into it is redirected to the end, or dropped where the end is the arc's
    own source, since a loop changes no mask. Chain nodes that lead only
    round a cycle of chain nodes reach no target: they keep mask 0, and arcs
    into them are dropped. The roots are the nodes left with a kept arc, in
    ascending id; given `wanted`, only the wanted ones and the ends of the
    wanted aliases.

    A function of its own so that its temporaries are freed before any
    world is converted, and worked in place where they can be: the heap
    that holds them is not given back under the lists built after them.
    Built out of place, they raised the peak RSS of single runs of the
    benchmark sweeps by 0.3 MB on pa2k-mc and 2.6 MB on er10k-hop.
    """
    count, n = len(keep), graph.node_count
    width = n + 1  # key of (world w, node v) is w * width + 1 + v: column 0 of a world stays empty
    is_target = np.zeros(n, dtype=bool)
    is_target[targets] = True
    base, arc = np.divmod(np.flatnonzero(keep), max(1, keep.shape[1]))
    base *= width
    base += 1
    key = graph.src[arc]
    key += base
    heads = graph.dst[arc]
    del arc
    # by key: has a live arc; later, is a chain node; last, starts a search
    flag = np.zeros(count * width, dtype=bool)
    flag[key] = True
    base += heads  # now the key of each arc's head
    live = np.flatnonzero(flag[base] | is_target[heads])
    del heads
    key = key[live]  # in (world, arc) order
    head = base[live]
    del live, base
    index = np.bincount(key, minlength=count * width)  # kept arcs per key, until it is reused
    chain = np.flatnonzero(index == 1)
    chain = chain[~is_target[chain % width - 1]]
    flag[:] = False
    flag[chain] = True
    # chain nodes in (world, arc) order, with their head's key
    chain_arc = np.flatnonzero(flag[key])
    chain, nxt = key[chain_arc], head[chain_arc]
    is_last = ~flag[nxt]  # the head is the chain's end
    index[chain] = np.arange(len(chain))  # from now on: a chain node's key -> its position
    # last[i]: the last chain node on i's way to its end, by pointer jumping
    # over the chain nodes that have not reached one; a way is shorter than
    # n, and round k jumps 2^k steps, so what is still moving after
    # n.bit_length() rounds runs round a cycle
    last = np.arange(len(chain))
    active = np.flatnonzero(~is_last)
    last[active] = index[nxt[active]]
    for _ in range(n.bit_length()):
        if not len(active):
            break
        hop = last[active]
        last[active] = jump = last[hop]
        active = active[(jump != hop) & ~is_last[jump]]  # still moving, and not at a last node
    resolved = is_last[last]  # the rest lead into a cycle of chain nodes
    rep = nxt[last]  # the chain's end
    # every chain node's arc is dropped; an arc from outside the chain nodes
    # into one leads to its end, or is dropped if it leads round a cycle or
    # back to its source
    into = np.flatnonzero(flag[head])
    into = into[~flag[key[into]]]
    hit = index[head[into]]
    del index
    head[into] = rep[hit]
    kept = np.ones(len(key), dtype=bool)
    kept[chain_arc] = False
    kept[into[~resolved[hit] | (head[into] == key[into])]] = False
    key = key[kept]
    head = head[kept]
    del kept, into, hit, chain_arc, nxt, last
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = head[order]
    del order
    off = np.bincount(key, minlength=count * width)
    if wanted is not None:
        resolved &= wanted[chain % width - 1]  # resolved is read no more
    alias = np.flatnonzero(resolved)
    chain, rep = chain[alias], rep[alias]
    # the roots: the nodes with a kept arc; given `wanted`, the wanted ones
    # and the reps of the wanted aliases
    np.greater(off, 0, out=flag)
    if wanted is not None:
        flag.reshape(count, width)[:, 1:] &= wanted
        flag[rep] |= off[rep] > 0
    roots = np.flatnonzero(flag)
    off = off.reshape(count, width)
    np.cumsum(off, axis=1, out=off)
    # each array's world starts. Roots and heads are in key order, so theirs
    # are found on their keys, since a division over every kept arc raised
    # the peak RSS of er10k-hop by 4 MB; aliases are only in world order
    worlds = np.arange(count + 1)
    at_root, at_head = (np.searchsorted(keys, worlds * width).tolist() for keys in (roots, key))
    at_alias = np.searchsorted(chain // width, worlds).tolist()
    for keys in (roots, head, chain, rep):
        keys %= width
        keys -= 1
    return off, [(roots, at_root), (head, at_head), (chain, at_alias), (rep, at_alias)]


def _draw_worlds(graph, targets, master_seed, count, first=0, wanted=None):
    """Yield live-edge worlds first .. first+count-1 as CSR worlds
    (`_csr_worlds`), pruned for the given target ids and, given `wanted`,
    rooted at the wanted nodes.

    World i keeps arc a when the Philox draw at (master_seed, i, a) falls
    below the arc's probability: world i reads draws [i * stride, (i + 1) *
    stride) of the key's one stream, stride being `_sample_stride` of the
    arc count, so a world does not depend on `first`, `count` or how the
    worlds are chunked. One world's draws at a time fill one reused float
    buffer, and are compared into a row of one boolean keep block, which a
    chunk of worlds reuses in turn; no chunk of floats is ever held. A
    chunk's worlds are bounded by `_CHUNK_ENTRIES` and `_CHUNK_ARCS`.
    """
    graph.require_probabilities()
    if first < 0:
        raise ValueError("world index must be non-negative")
    m, n = graph.arc_count, graph.node_count
    stride = _sample_stride(m)
    live_arcs = max(1.0, float(graph.prob.sum()))  # expected per world
    chunk = max(1, min(_CHUNK_ENTRIES // max(1, stride + n), int(_CHUNK_ARCS // live_arcs)))
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
        yield from _csr_worlds(keep, graph, targets, wanted)


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

    Given `nodes`, the index holds the rows of those nodes only, and each
    world's pass starts from them alone, so the index takes O(|nodes| x R)
    memory, not O(n x R). Every query must then name indexed nodes only, as
    seeds and as gain nodes; any other node raises a ValueError before the
    query is charged or stored. A held-out estimator, which scores a known
    list of seed sets, is built over their union. `nodes=None` (the default)
    indexes every node.

    The coverage of the last seed set queried is kept, each world's benefit an
    exact int of `_target_bits` units, rounded once: the greedy selectors ask
    for the gains of many nodes against one seed set in one batch, and then
    about that set plus the node they committed, whose coverage is extended in
    place. An exact estimator, one whose target units sum to at most 2^53
    (every unit-benefit run), keeps with that coverage each node's gained
    units summed over the worlds, once asked. An extension by one seed drops
    only the nodes whose reach meets the targets the seed newly covers, so
    the next batch rescans those alone; every other gain is one division
    (`_fresh_gains`). Any other change of seed set drops them all.

    On fixed worlds a gain is a pure function of (canonical seed set, node)
    and an estimate of the canonical seed set, so every answer is memoized
    for the estimator's lifetime: the budgets and selectors of a sweep share
    one estimator, and each asks again much of what an earlier one asked. A
    single seed's estimate is its gain against the empty set, bit for bit, so
    the two share one table. `evaluations` still counts every query, hit or
    not, so it stays the count of a run from scratch.
    """

    def __init__(self, graph, economics, samples=10000, master_seed=0, nodes=None):
        for name, value in (("sample count", samples), ("master seed", master_seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if samples < 1:
            raise ValueError(f"sample count must be at least 1, got {samples!r}")
        if not 0 <= int(master_seed) < 1 << 128:  # Philox's key is 128 bits
            raise ValueError(f"master seed must lie in [0, 2**128), got {int(master_seed)}")
        if economics.node_count != graph.node_count:
            raise ValueError("economics sized for a different graph")
        graph.require_probabilities()
        self.graph = graph
        self.economics = economics
        self.samples = int(samples)
        self.master_seed = int(master_seed)
        self.evaluations = 0
        bits, self._units, self._scale = _target_bits(economics)
        # then no world's value is rounded, so the fsum of a set's world
        # values is the sum of their units over the worlds, divided by the
        # scale and rounded once
        self._exact = sum(self._units) <= 1 << 53
        self._reach = {}  # node -> the OR of its row, for an exact estimator
        # (key, uncovered masks, covered units, values, mean, units covered in
        # all worlds, {node: units it gains in all worlds} or None if not exact)
        self._last = None
        self._gains = {}  # canonical seeds -> {node: marginal gain}
        # the seeds `marginal_gains` was last given, as a tuple, with their
        # canonical key, its members and its gain table (None until stored)
        self._asked = ((), (), frozenset(), None)
        self._estimates = {}  # canonical seeds of two or more -> mean benefit
        wanted = None
        if nodes is not None:
            nodes = _canonical_seeds(nodes, graph.node_count)
            wanted = np.zeros(graph.node_count, dtype=bool)
            wanted[list(nodes)] = True
        self.nodes = nodes
        worlds = _draw_worlds(graph, economics.targets, self.master_seed, self.samples, wanted=wanted)
        masks = (_target_masks(world, bits) for world in worlds)
        # node -> its target mask in every world: a list over every node, or
        # a dict over the given nodes
        if nodes is None:
            self._rows = list(zip(*masks))
        else:
            pick = itemgetter(*nodes) if len(nodes) > 1 else lambda world: tuple(world[v] for v in nodes)
            self._rows = dict(zip(nodes, zip(*map(pick, masks))))

    def _require_indexed(self, nodes):
        """Raise a ValueError naming the first of `nodes` that the index of an
        estimator built with `nodes` holds no row for."""
        if not self._rows.keys() >= set(nodes):
            u = next(u for u in nodes if u not in self._rows)
            raise ValueError(f"node {u} is not indexed: this estimator holds the rows of {len(self.nodes)} nodes")

    def _coverage(self, key):
        """(key, uncovered target masks, covered units, values, mean), per
        world, then (units covered in all worlds, saved units).

        The masks are stored complemented (~cover), so the targets a node newly
        reaches are its mask & uncovered. Each changed world is settled once.

        The saved units of an exact estimator (None if not exact) map a node
        to the units it newly reaches over all worlds. They hold across an
        extension by one seed for every node whose reach (the OR of its row)
        misses all the targets the seed newly covers; the others are
        dropped. Any other new key starts with none saved.
        """
        last = self._last
        if last is not None and last[0] == key:
            return last
        rows = self._rows
        worlds = range(self.samples)
        if last is not None and len(key) == len(last[0]) + 1 and set(key).issuperset(last[0]):
            _, uncovered, covered, vals, _, held, saved = last
            added = set(key).difference(last[0])
        else:
            uncovered, covered, vals = [-1] * self.samples, [0] * self.samples, [0.0] * self.samples
            held, saved = 0, {} if self._exact else None
            added = key
        reached = [0] * self.samples
        for s in added:
            row = rows[s]
            for p in compress(worlds, row):
                reached[p] |= row[p]
        units, scale = self._units, self._scale
        newly = 0  # the targets newly covered in any world
        for p in compress(worlds, reached):
            gained = reached[p] & uncovered[p]
            if gained:
                uncovered[p] ^= gained
                more = sum(_bit_values(gained, units))
                covered[p] += more
                held += more
                vals[p] = covered[p] / scale
                newly |= gained
        if saved and newly:
            reach = self._reach
            for u in [u for u in saved if reach[u] & newly]:
                del saved[u]
        self._last = (key, uncovered, covered, vals, math.fsum(vals) / self.samples, held, saved)
        return self._last

    def estimate(self, seeds):
        """Mean earned benefit of the seed set over the fixed worlds."""
        key = _canonical_seeds(seeds, self.graph.node_count)
        if self.nodes is not None:
            self._require_indexed(key)
        self.evaluations += 1
        if len(key) == 1:
            # the total of the empty set is 0.0, so its gain table holds the same floats
            return self._memo_gains((), key, self._gains.setdefault((), {}))[0]
        mean = self._estimates.get(key)
        if mean is None:
            mean = self._estimates[key] = self._coverage(key)[4]
        return mean

    def marginal_gain(self, seeds, u):
        """estimate(seeds + u) - estimate(seeds), read from the index."""
        return self.marginal_gains(seeds, (u,))[0]

    def marginal_gains(self, seeds, nodes):
        """[marginal_gain(seeds, u) for u in nodes]: the seeds, their coverage
        and the nodes are checked and looked up once for the whole batch, and
        only the gains not asked before are computed. A batch with a bad node
        raises before any query is charged or stored.
        """
        key, members, known = self._seed_key(seeds)
        nodes = _query_nodes(nodes, members, self.graph.node_count)
        if self.nodes is not None:
            self._require_indexed(key + tuple(nodes))
        self.evaluations += len(nodes)
        if known is None:
            known = self._gains.setdefault(key, {})
            self._asked = self._asked[:3] + (known,)
        return self._memo_gains(key, nodes, known)

    def _seed_key(self, seeds):
        """`(key, members, gain table or None)` of the seeds.

        Lazy greedy asks one gain at a time against seeds that stay the same
        between commits and then grow by one. So the seeds last asked about
        are kept with their key: the same objects again, or those and one
        more plain int inside the node range, reuse it (a seed already among
        them leaves it as it is). Anything else is canonicalised from
        scratch, so it raises what `_canonical_seeds` raises.
        """
        seeds = tuple(seeds)
        asked, key, members, known = self._asked
        grown = len(seeds) - len(asked)
        reuse = 0 <= grown <= 1 and all(map(is_, seeds, asked))
        if reuse and grown:
            s = seeds[-1]
            reuse = type(s) is int and 0 <= s < self.graph.node_count
            if reuse and s not in members:
                at = bisect_left(key, s)
                key = key[:at] + (s,) + key[at:]
                members = members | {s}
                known = self._gains.get(key)
        if not reuse:
            key = _canonical_seeds(seeds, self.graph.node_count)
            members = frozenset(key)
            known = self._gains.get(key)
        self._asked = (seeds, key, members, known)
        return key, members, known

    def _memo_gains(self, key, nodes, known):
        """The gains of checked `nodes` against the canonical `key`, each
        computed once per estimator and stored in `known`, its gain table."""
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

        An exact estimator (all target units sum to at most 2^53) rounds no
        world value, so the fsum of u's world values is the sum of all
        covered units plus the units u gains, divided by the scale and
        rounded once, which Python's int division gives. It keeps each node's
        gained units with the coverage, and a node whose units are still
        saved costs one division, not a pass over its row.
        """
        _, uncovered, covered, vals, total, held, saved = self._coverage(key)
        rows, units, scale, samples = self._rows, self._units, self._scale, self.samples
        worlds = range(samples)
        # the units of a gained mask depend on the mask alone, so one table
        # serves every node of the batch: nodes gain the same targets in many worlds
        gained_units = {}
        gains = []
        if saved is not None:
            reach = self._reach
            for u in nodes:
                more = saved.get(u)
                if more is None:
                    row = rows[u]
                    more = 0
                    for p in compress(worlds, row):
                        gained = row[p] & uncovered[p]
                        if gained:
                            units_of = gained_units.get(gained)
                            if units_of is None:
                                units_of = gained_units[gained] = sum(_bit_values(gained, units))
                            more += units_of
                    saved[u] = more
                    if u not in reach:
                        reach[u] = reduce(or_, row, 0)
                gains.append((held + more) / scale / samples - total if more else 0.0)
            return gains
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

