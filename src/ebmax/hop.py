"""Hop-bounded expected-benefit scoring and rank-based seed selection.

Scores every node by the benefit it can be expected to earn from targets
within a fixed hop radius, divides by selection cost, and fills the budget
by scanning the ranked list. Runs in time proportional to the target count
times the hop-neighborhood size, with no Monte Carlo sampling.

A node's walk is the influence probability onto it of every node within a
given number of reverse arcs: one minus the product, over its in-arcs, of
one minus (the source's probability onto the in-neighbor) times the arc
probability, a node being certain to influence itself. Walks sharing arcs
are treated as independent, so on graphs with overlapping paths this
overestimates; it is exact when all source-target paths are arc-disjoint.

Walks are built a level at a time in numpy: each level expands its nodes'
in-arcs against the walks one level down and multiplies every (node,
source) pair's survival factors in in-arc order. A node's walk at a given
depth does not depend on which targets need it, so the levels below the
top are built once per run of targets, for every node the run needs, and
every batch of targets reads them to build its top level. The targets form
one run unless those levels would hold more than `_LEVEL_ENTRIES` (node,
source) entries, 16 bytes each: 48 MB at 3M entries. At two hops a level
holds about one entry per node plus one per arc, so one run covers graphs
of about 170k nodes of mean degree 15; at `--hop 3` a 10k-node graph of
that degree bounds 2.6M entries, one run that peaks at about 50 MB. Both
reductions, that product and each node's sum of gains over targets,
go through numpy's unbuffered `ufunc.at`, which applies its operands one
at a time in array order, so the floats are those of the per-target
recursion, bit for bit (tests/helpers.py keeps that recursion as the
reference). The table does not depend on the budget either: a sweep hands
`hop_based_select` one `cache` dict, and the first call's table serves
every later budget.

Only effective neighbours, the sources whose probability can clear the
cutoff, are multiplied out at the top level. Since 1 - prod(1 - x) <=
sum(x), a source whose `x = q * p_arc` summed over a whole batch of
targets misses the cutoff by more than a rounding allowance cannot clear
it at any of them, and all its entries are dropped before the pairs are
formed (`_level` derives the allowance). A kept source keeps every factor,
in order, so no float moves. On the er10k workload graph at two hops, with
cutoff 0.1, the top level multiplies out 33,721 pairs instead of 474,912;
230 of them clear the cutoff.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .greedy import fill_by_rank


# Scoring has no recursion, so this limit no longer guards the stack. It stays
# because every hop adds one level pass per run of targets, over walks that
# can hold every node, and deeper levels split the targets into more runs:
# a mistyped `--hop 100000` would run for hours rather than fail at the
# boundary.
MAX_HOPS = 100


def _check_hops(hops):
    if isinstance(hops, bool) or not isinstance(hops, numbers.Integral) or not 1 <= hops <= MAX_HOPS:
        raise ValueError(f"hop count must be an integer in [1, {MAX_HOPS}], got {hops!r}")


@dataclass(frozen=True)
class HopConfig:
    hops: int = 2
    cutoff: float = 0.1  # minimum influence probability for a contribution to count

    def __post_init__(self):
        _check_hops(self.hops)
        cutoff = self.cutoff
        if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Real) or not 0.0 <= cutoff <= 1.0:
            raise ValueError(f"cutoff probability must lie in [0, 1], got {cutoff!r}")


@dataclass
class ScoreTable:
    """Per-node expected earned benefit, before and after dividing by cost."""

    expected_benefit: np.ndarray
    score: np.ndarray


# Top-level walks are built in batches of targets whose (node, source)
# entries, as bounded by `_walk_entries` over each target's whole walk tree
# and summed over the batch, stay within this many; lower levels are built
# in batches of nodes whose expanded entries do. So the transient memory of
# scoring does not grow with the node or target count. A target or node
# whose own count is larger is a batch by itself.
_BATCH_ENTRIES = 50_000

# The walks kept below the top level, as bounded by `_walk_entries`: the
# targets are split into ascending-id runs whose lower levels hold at most
# this many (node, source) entries, 16 bytes each, while a level and the one
# below it are kept; each run builds its lower levels once. A target whose
# own bound is larger is a run by itself.
_LEVEL_ENTRIES = 3_000_000


def _ranges(starts, lengths):
    """Concatenated `arange(s, s + l)` over the pairs of `starts`, `lengths`."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _in_arcs(graph):
    """The graph's in-arcs as arrays `(offsets, tails, probs)`: node v's
    in-arcs in input order come from `tails[offsets[v]:offsets[v + 1]]`
    with the matching arc probabilities."""
    offsets, arcs = graph.in_csr
    return offsets, graph.src[arcs], graph.prob[arcs]


def _in_range(offsets, nodes):
    """`(arcs, degree)`: the positions in `_in_arcs` of the in-arcs of
    `nodes`, node by node, and each node's in-degree."""
    lo = offsets[nodes]
    degree = offsets[nodes + 1] - lo
    return _ranges(lo, degree), degree


def _walk_entries(graph, hops):
    """Upper bounds per node, as `(held, work)`: `held[d]` on the sources
    of its depth-d walk, at most n, and `work` on the (node, source) entries
    building its depth-`hops` walk from scratch expands: the entries of
    each in-neighbor's walk one level down, plus theirs, and so on."""
    n = graph.node_count
    src, dst = graph.src, graph.dst
    held = [np.ones(n)]  # walk of depth 0: the node alone
    work = np.zeros(n)
    for _ in range(hops):
        work = np.bincount(dst, weights=held[-1][src] + work[src], minlength=n)
        held.append(np.minimum(n, 1.0 + np.bincount(dst, weights=held[-1][src], minlength=n)))
    return held, work


def _level(in_arcs, nodes, below, top, cutoff=0):
    """Walks of `nodes` one level above the walks `below`.

    A level's walks are `(nodes, offsets, sources, probs)`: node
    `nodes[i]` is reached from `sources[offsets[i]:offsets[i + 1]]`, in
    ascending id, with the matching probabilities. `below` must hold every
    in-neighbor of `nodes`, in ascending id.

    For each (node, source) pair, the survival factors `1 - x`, with
    `x = q * p_arc`, of the node's in-arcs are generated in in-arc order,
    and `np.multiply.at` multiplies them, in that order, into a product
    that starts at 1.0: the same IEEE operations in the same order as a
    loop over the arcs. The probability is one minus the product. A node's
    own entry is 1.0, or, at the `top` level, dropped.

    At the `top` level, a positive `cutoff` drops every source whose pairs
    cannot reach it before any product is formed, so only the sources that
    can be effective neighbours are multiplied out. The bound is the union
    bound, 1 - prod(1 - x) <= sum(x) for x in [0, 1], summed over all of the
    source's E_s entries in the batch (`np.bincount`). A source is dropped
    when that float sum S is below `float(cutoff) - (E + 1) * 2**-51`, E the
    batch's entry count. Why that allowance suffices, with u = 2**-53: every
    operation here has a result in [0, 2) and so errs by at most u.
    - Each of a pair's k <= E factors errs by at most u, each of its k
      products by at most u more (all values lie in [0, 1]), and the final
      `1 - product` by u: the float probability is at most sum(x) +
      (2k + 1)u over the pair's own x, which the source's exact sum bounds.
    - The bincount's E_s <= E additions err by at most u each, since their
      partial sums only grow and stay below S < 1: the exact sum is at most
      S + Eu.
    - `float(cutoff)` is within u of the cutoff (exact for an int, a float
      or a numpy float, correctly rounded for a `Fraction`), and subtracting
      the allowance errs by u more: the float threshold is at most
      cutoff - (4E + 2)u.
    So a dropped source's float probability at every target of the batch is
    below S + (3E + 1)u < cutoff, and the comparison with the cutoff would
    drop it anyway. A kept source keeps every entry, in order, so each kept
    pair's product is the same float. Below the top every pair is kept,
    since a kept pair's product above reads them, and a `cutoff` of 0 drops
    nothing.
    """
    offsets, tails, probs = in_arcs
    n = len(offsets) - 1
    under, under_off, under_src, under_p = below
    row = np.empty(n, dtype=np.int64)
    row[under] = np.arange(len(under))
    arc, degree = _in_range(offsets, nodes)
    tail = row[tails[arc]]
    lo = under_off[tail]
    size = under_off[tail + 1] - lo
    entry = _ranges(lo, size)
    head = np.repeat(np.repeat(np.arange(len(nodes)), degree), size)
    source = under_src[entry]
    x = under_p[entry] * np.repeat(probs[arc], size)
    del entry  # freed before the kept entries are copied out
    keep = source != nodes[head]
    if top and cutoff > 0:
        x *= keep  # the node's own entries, dropped below, add nothing
        floor = float(cutoff) - (np.count_nonzero(keep) + 1) * 2.0**-51
        keep &= (np.bincount(source, weights=x, minlength=n) >= floor)[source]
    head, source, x = head[keep], source[keep], x[keep]
    factor = np.subtract(1.0, x, out=x)
    if not top:
        # each node's own entry, as a lone factor 0.0: 1.0 - 0.0 is 1.0
        head = np.concatenate([head, np.arange(len(nodes))])
        source = np.concatenate([source, nodes])
        factor = np.concatenate([factor, np.zeros(len(nodes))])
    pairs, pair = np.unique(head * n + source, return_inverse=True)
    survive = np.ones(len(pairs))
    np.multiply.at(survive, pair, factor)
    head, source = np.divmod(pairs, n)
    node_off = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(head, minlength=len(nodes)), out=node_off[1:])
    return nodes, node_off, source, 1.0 - survive


def _levels(in_arcs, targets, hops):
    """The nodes each level needs, top-down: `targets`, their in-neighbors,
    theirs, and so on, `hops + 1` arrays in all, each below the first in
    ascending id. Level k holds walks of depth `hops - k`."""
    offsets, tails, _ = in_arcs
    levels = [targets]
    for _ in range(hops):
        needed = np.zeros(len(offsets) - 1, dtype=bool)
        needed[tails[_in_range(offsets, levels[-1])[0]]] = True
        levels.append(np.flatnonzero(needed))
    return levels


def _batches(nodes, entries):
    """Split `nodes`, in order, into batches whose `entries` sum to at most
    `_BATCH_ENTRIES`, every batch holding at least one node."""
    cap = _BATCH_ENTRIES
    first, held = 0, 0.0
    for i, e in enumerate(entries.tolist()):
        if i > first and held + e > cap:
            yield nodes[first:i]
            first, held = i, 0.0
        held += e
    if first < len(nodes):
        yield nodes[first:]


def _runs(in_arcs, targets, hops, held):
    """Split `targets`, in order, into runs whose lower levels fit
    `_LEVEL_ENTRIES`, and yield each run's `_levels`. A run's lower levels
    hold, as bounded by `held`, the entries of levels k and k + 1 while
    level k is built; a run that does not fit is halved until it does or
    holds one target."""
    first = 0
    while first < len(targets):
        end = len(targets)
        while True:
            levels = _levels(in_arcs, targets[first:end], hops)
            sizes = [held[hops - k][levels[k]].sum() for k in range(1, hops + 1)]
            kept = max(a + b for a, b in zip(sizes, sizes[1:] + [0.0]))
            if end - first == 1 or kept <= _LEVEL_ENTRIES:
                break
            end = first + (end - first) // 2
        yield levels
        first = end


def _expanded(in_arcs, nodes, below):
    """The entries `_level` expands for each of `nodes` from the walks
    `below`: the sources of each in-neighbor's walk, plus its own."""
    offsets, tails, _ = in_arcs
    size = np.zeros(len(offsets) - 1)
    size[below[0]] = np.diff(below[1])
    arc, degree = _in_range(offsets, nodes)
    return 1.0 + np.bincount(np.repeat(np.arange(len(nodes)), degree), weights=size[tails[arc]], minlength=len(nodes))


def _lower(in_arcs, levels, held):
    """Walks of `levels[1]`, built bottom-up from the depth-0 walks of the
    last level. Each level is built once, in batches of nodes whose entries
    `_level` expands (each in-neighbor's walk one level down, plus the
    node's own) stay within `_BATCH_ENTRIES`, into arrays sized by its bound
    in `held`, and is kept only while the level above it is built."""
    ground = levels[-1]
    walks = (ground, np.arange(len(ground) + 1), ground, np.ones(len(ground)))
    for depth in range(1, len(levels) - 1):
        nodes = levels[-1 - depth]
        entries = _expanded(in_arcs, nodes, walks)
        bound = int(held[depth][nodes].sum())
        node_off = np.zeros(len(nodes) + 1, dtype=np.int64)
        sources, probs = np.empty(bound, dtype=np.int64), np.empty(bound)
        first = 0
        for batch in _batches(nodes, entries):
            _, off, source, p = _level(in_arcs, batch, walks, top=False)
            at, end = node_off[first], node_off[first] + off[-1]
            node_off[first + 1:first + 1 + len(batch)] = at + off[1:]
            sources[at:end], probs[at:end] = source, p
            first += len(batch)
        walks = (nodes, node_off, sources[:node_off[-1]], probs[:node_off[-1]])
    return walks


def compute_scores(graph, economics, config):
    """Expected earned benefit of every node, cost-scaled.

    Each node starts from its own benefit. Every target then adds
    P(node influences target) * target benefit to each node in its hop
    neighborhood whose influence probability clears the cutoff. Finally all
    values are divided by selection cost. A node gets at most one
    contribution per target and the contributions are added in ascending
    target order, so each node's accumulation order is deterministic.

    The targets form ascending-id runs (`_runs`; one run unless their lower
    levels would exceed `_LEVEL_ENTRIES`). For each run, the nodes every
    level needs are found top-down (`_levels`), the levels below the top
    are built once, bottom-up (`_lower`), and the top level is built in
    batches of targets (`_batches`) that all read them. A node's walk at a
    given depth does not depend on which targets needed it, so the runs and
    batches change no float. Each top batch multiplies out only the sources
    that can clear the cutoff by the union bound (`_level`), and a dropped
    source would have missed the cutoff at every target of the batch.
    """
    graph.require_probabilities()
    if economics.node_count != graph.node_count:
        raise ValueError("economics sized for a different graph")
    in_arcs = _in_arcs(graph)
    held, work = _walk_entries(graph, config.hops)
    benefit = economics.benefit.astype(np.float64)
    eb = benefit.copy()
    for levels in _runs(in_arcs, economics.targets, config.hops, held):
        run = levels[0]
        below = _lower(in_arcs, levels, held)
        # top batches are bounded by each target's whole walk tree, as when
        # every batch built its own lower levels, so no top batch holds more
        for batch in _batches(run, 1.0 + work[run]):
            _, node_off, source, p = _level(in_arcs, batch, below, top=True, cutoff=config.cutoff)
            keep = p >= config.cutoff
            gain = p[keep] * np.repeat(benefit[batch], np.diff(node_off))[keep]
            # entries run by (target, source), so each source's gains are
            # added one target at a time in ascending id
            np.add.at(eb, source[keep], gain)
        # free this run's levels before the next run builds its own, so
        # no two runs' levels are held at once
        del below
    score = eb / economics.cost
    return ScoreTable(expected_benefit=eb, score=score)


def hop_based_select(graph, economics, config, budget, *, skip_zero=False, cache=None):
    """Fill the budget greedily down the cost-scaled score ranking.

    Scans the ranking once, adding every node whose cost still fits
    (unaffordable nodes are skipped, the scan continues). With ``skip_zero``
    the fill stops at the first affordable node whose score is not positive
    instead of seeding zero-score nodes.

    ``cache`` is a dict shared by calls on the same graph, economics and
    config, such as the budgets of one sweep: the first call stores its
    score table there and later calls reuse it.
    """
    table = None if cache is None else cache.get("table")
    if table is None:
        table = compute_scores(graph, economics, config)
        if cache is not None:
            cache["table"] = table
    return fill_by_rank(economics, budget, table.score, stop_on_zero_gain=skip_zero)
