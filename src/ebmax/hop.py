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

Walks are built a level at a time in numpy, for a batch of targets at once:
each level expands its nodes' in-arcs against the walks one level down and
multiplies every (node, source) pair's survival factors in in-arc order.
Both reductions, that product and each node's sum of gains over targets,
go through numpy's unbuffered `ufunc.at`, which applies its operands one
at a time in array order, so the floats are those of the per-target
recursion, bit for bit (tests/helpers.py keeps that recursion as the
reference). The table does not depend on the budget either: a sweep hands
`hop_based_select` one `cache` dict, and the first call's table serves
every later budget.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .greedy import fill_by_rank


# Scoring has no recursion, so this limit no longer guards the stack. It stays
# because every hop adds one level pass per batch of targets, over walks that
# can hold every node: a mistyped `--hop 100000` would run for hours rather
# than fail at the boundary.
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
        if not (0.0 <= self.cutoff <= 1.0):
            raise ValueError(f"cutoff probability must lie in [0, 1], got {self.cutoff}")


@dataclass
class ScoreTable:
    """Per-node expected earned benefit, before and after dividing by cost."""

    expected_benefit: np.ndarray
    score: np.ndarray


# Targets are scored in batches whose (node, source) entries, as bounded by
# `_walk_entries` and summed over the batch, stay within this many, so the
# peak memory of scoring does not grow with the target count. A target
# whose own bound is larger is a batch by itself.
_BATCH_ENTRIES = 50_000


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
    """Upper bound, per node, on the (node, source) entries its hop walk
    expands: the entries of each in-neighbor's walk one level down, plus
    theirs, and so on. A walk holds at most n sources."""
    n = graph.node_count
    src, dst = graph.src, graph.dst
    held = np.ones(n)  # walk of depth 0: the node alone
    work = np.zeros(n)
    for _ in range(hops):
        work = np.bincount(dst, weights=held[src] + work[src], minlength=n)
        held = np.minimum(n, 1.0 + np.bincount(dst, weights=held[src], minlength=n))
    return work


def _level(in_arcs, nodes, below, top):
    """Walks of `nodes` one level above the walks `below`.

    A level's walks are `(nodes, offsets, sources, probs)`: node
    `nodes[i]` is reached from `sources[offsets[i]:offsets[i + 1]]`, in
    ascending id, with the matching probabilities. `below` must hold every
    in-neighbor of `nodes`, in ascending id.

    For each (node, source) pair, the survival factors `1 - q * p_arc` of
    the node's in-arcs are generated in in-arc order, and `np.multiply.at`
    multiplies them, in that order, into a product that starts at 1.0: the
    same IEEE operations in the same order as a loop over the arcs. The
    probability is one minus the product. A node's own entry is 1.0, or, at
    the `top` level, dropped.
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
    factor = 1.0 - under_p[entry] * np.repeat(probs[arc], size)
    foreign = source != nodes[head]
    head, source, factor = head[foreign], source[foreign], factor[foreign]
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


def _walks(in_arcs, targets, hops):
    """Walks of `targets` (in their order) within `hops` reverse arcs, each
    without its target: the nodes each level needs are found top-down (the
    targets, their in-neighbors, theirs, ...) and their walks are built
    bottom-up with `_level`."""
    offsets, tails, _ = in_arcs
    levels = [targets]
    for _ in range(hops):
        needed = np.zeros(len(offsets) - 1, dtype=bool)
        needed[tails[_in_range(offsets, levels[-1])[0]]] = True
        levels.append(np.flatnonzero(needed))
    ground = levels.pop()
    walks = (ground, np.arange(len(ground) + 1), ground, np.ones(len(ground)))
    while levels:
        nodes = levels.pop()
        walks = _level(in_arcs, nodes, walks, top=not levels)
    return walks


def _batches(targets, entries):
    """Split `targets`, in order, into runs whose `entries` sum to at most
    `_BATCH_ENTRIES`, every run holding at least one target."""
    cap = _BATCH_ENTRIES
    first, held = 0, 0.0
    for i, e in enumerate(entries.tolist()):
        if i > first and held + e > cap:
            yield targets[first:i]
            first, held = i, 0.0
        held += e
    if first < len(targets):
        yield targets[first:]


def compute_scores(graph, economics, config):
    """Expected earned benefit of every node, cost-scaled.

    Each node starts from its own benefit. Every target then adds
    P(node influences target) * target benefit to each node in its hop
    neighborhood whose influence probability clears the cutoff. Finally all
    values are divided by selection cost. A node gets at most one
    contribution per target and the contributions are added in ascending
    target order, so each node's accumulation order is deterministic.

    Targets are scored in ascending-id batches (`_batches`), each batch's
    walks at once (`_walks`).
    """
    graph.require_probabilities()
    if economics.node_count != graph.node_count:
        raise ValueError("economics sized for a different graph")
    in_arcs = _in_arcs(graph)
    benefit = economics.benefit.astype(np.float64)
    eb = benefit.copy()
    targets = economics.targets
    for batch in _batches(targets, 1.0 + _walk_entries(graph, config.hops)[targets]):
        _, node_off, source, p = _walks(in_arcs, batch, config.hops)
        keep = p >= config.cutoff
        gain = p[keep] * np.repeat(benefit[batch], np.diff(node_off))[keep]
        # entries run by (target, source), so each source's gains are added
        # one target at a time in ascending id
        np.add.at(eb, source[keep], gain)
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
