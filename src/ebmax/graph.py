"""Directed weighted graph model, edge-list I/O, and probability/cost/benefit assignment."""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Floor applied to degree-proportional costs so isolated nodes keep a positive cost.
MIN_COST = 1e-6

_MAX_NODE_ID = np.iinfo(np.int64).max  # original ids are kept as int64


def as_node_id(value):
    """`value` as a Python int node id. Python and numpy integers pass; bools,
    floats (even integral ones) and anything else are rejected by value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"node id {value!r} is not an integer")


class GraphParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _arc_index(keys, n):
    """CSR index of arcs grouped by `keys`: `(offsets, arcs)` such that
    `arcs[offsets[v]:offsets[v + 1]]` are the arcs keyed v, in input order,
    which score accumulation relies on."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets, np.argsort(keys, kind="stable")


class SocialGraph:
    """Immutable directed graph whose arcs carry influence probabilities.

    Node ids are dense integers in [0, n). The arcs are the numpy arrays
    `src`, `dst` and `prob`, indexed per direction by `out_csr` and `in_csr`:
    each is an `(offsets, arcs)` pair of int64 arrays, so that
    `arcs[offsets[v]:offsets[v + 1]]` are the ids of v's out- (in-) arcs in
    input order. An undirected input edge is stored as two adjacent opposing
    arcs that share a single probability value. Probability 0.0 is a
    sentinel meaning "not assigned yet"; diffusion code refuses to run until
    every arc has a probability in (0, 1].
    """

    def __init__(self, node_count, arcs, directed=True, *, original_ids=None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = int(node_count)
        self.directed = bool(directed)

        arcs = list(arcs)
        m = len(arcs)
        self.src = np.fromiter((a[0] for a in arcs), dtype=np.int64, count=m)
        self.dst = np.fromiter((a[1] for a in arcs), dtype=np.int64, count=m)
        self.prob = np.fromiter((a[2] for a in arcs), dtype=np.float64, count=m)

        if m:
            bad = (self.src < 0) | (self.src >= node_count) | (self.dst < 0) | (self.dst >= node_count)
            if bad.any():
                a = int(np.argmax(bad))
                raise ValueError(
                    f"arc ({self.src[a]}, {self.dst[a]}) outside node range [0, {node_count})"
                )
            loops = self.src == self.dst
            if loops.any():
                raise ValueError(f"self-loop on node {self.src[int(np.argmax(loops))]}")
        self._check_probabilities(self.prob)

        if original_ids is None:
            original_ids = np.arange(node_count, dtype=np.int64)
        self.original_ids = np.asarray(original_ids, dtype=np.int64)

        self.out_csr = _arc_index(self.src, self.node_count)
        self.in_csr = _arc_index(self.dst, self.node_count)
        self.degree = np.diff(self.out_csr[0]) + np.diff(self.in_csr[0])

    def _check_probabilities(self, prob):
        """Reject a per-arc probability outside [0, 1] or NaN, and on an
        undirected graph, arcs that are not adjacent mirror pairs sharing one
        probability."""
        bad_p = ~((prob >= 0.0) & (prob <= 1.0))  # NaN fails both
        if bad_p.any():
            a = int(np.argmax(bad_p))
            raise ValueError(f"probability {prob[a]} outside [0, 1] on arc ({self.src[a]}, {self.dst[a]})")
        if not self.directed:
            # undirected edges are stored as adjacent mirror arcs sharing one probability
            paired = (
                len(prob) % 2 == 0
                and np.array_equal(self.src[0::2], self.dst[1::2])
                and np.array_equal(self.dst[0::2], self.src[1::2])
                and np.array_equal(prob[0::2], prob[1::2])
            )
            if not paired:
                raise ValueError(
                    "undirected graphs need adjacent mirror arc pairs with equal probabilities"
                )

    @property
    def arc_count(self):
        return len(self.src)

    @property
    def probabilities_assigned(self):
        """True once every arc has a probability in (0, 1]."""
        return bool(np.all(self.prob > 0.0)) if self.arc_count else True

    def require_probabilities(self):
        if not self.probabilities_assigned:
            raise ValueError("graph has arcs without assigned probabilities; run assign_probabilities first")

    def with_probabilities(self, prob):
        """Copy of this graph with the given per-arc probabilities. The copy
        shares every other array and both arc indexes with this graph."""
        prob = np.ascontiguousarray(prob, dtype=np.float64)
        if prob.shape != self.prob.shape:
            raise ValueError("probability vector length does not match arc count")
        self._check_probabilities(prob)
        graph = copy.copy(self)
        graph.prob = prob
        return graph


@dataclass(frozen=True)
class NodeEconomics:
    """Per-node selection cost, the target set, and per-target benefits."""

    cost: np.ndarray
    benefit: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=np.float64))
        object.__setattr__(self, "benefit", np.asarray(self.benefit, dtype=np.float64))
        targets = np.asarray(self.targets)
        if targets.dtype.kind not in "iuf":  # bools, strings, objects: check each id
            targets = np.array([as_node_id(t) for t in targets.tolist()], dtype=np.int64)
        targets = np.sort(targets)
        if targets.dtype.kind == "f":
            bad = ~(np.isfinite(targets) & (targets == np.floor(targets)))
            if bad.any():
                raise ValueError(f"target id {targets[int(np.argmax(bad))]} is not an integer")
        object.__setattr__(self, "targets", targets.astype(np.int64))
        n = len(self.cost)
        if len(self.benefit) != n:
            raise ValueError("cost and benefit vectors must have equal length")
        bad = ~(np.isfinite(self.cost) & (self.cost > 0.0))
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"selection cost {self.cost[v]} of node {v} is not positive and finite")
        bad = ~(np.isfinite(self.benefit) & (self.benefit >= 0.0))
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"benefit {self.benefit[v]} of node {v} is not non-negative and finite")
        if len(self.targets) and (self.targets[0] < 0 or self.targets[-1] >= n):
            raise ValueError("target ids outside node range")
        repeated = self.targets[1:] == self.targets[:-1]
        if repeated.any():
            raise ValueError(f"duplicate target id {self.targets[int(np.argmax(repeated))]}")
        mask = np.zeros(n, dtype=bool)
        mask[self.targets] = True
        if np.any(self.benefit[~mask] != 0.0):
            raise ValueError("non-target nodes must carry zero benefit")
        object.__setattr__(self, "target_set", frozenset(self.targets.tolist()))
        # float benefits keyed by target id, used by the per-sample accumulators
        object.__setattr__(
            self, "target_benefit", {int(t): float(self.benefit[t]) for t in self.targets}
        )

    @property
    def node_count(self):
        return len(self.cost)

    @property
    def total_benefit(self):
        return math.fsum(self.target_benefit.values())


# --- assignment schemes -----------------------------------------------------

@dataclass(frozen=True)
class UniformProbability:
    """Every arc gets the same diffusion probability."""

    p: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError("uniform probability must lie in (0, 1]")


@dataclass(frozen=True)
class TrivalencyProbability:
    """Each input edge draws its probability uniformly from three levels."""

    values: tuple = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class RandomCosts:
    lo: float = 1.0
    hi: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi):
            raise ValueError("cost interval requires 0 < lo <= hi")


@dataclass(frozen=True)
class DegreeProportionalCosts:
    """cost(u) = n * deg(u) / (2m), floored at min_cost for isolated nodes."""

    min_cost: float = MIN_COST


@dataclass(frozen=True)
class RandomBenefits:
    lo: float = 50.0
    hi: float = 100.0

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError("benefit interval requires 0 <= lo <= hi")


@dataclass(frozen=True)
class UnitBenefits:
    pass


@dataclass(frozen=True)
class AssignmentScheme:
    """Bundle of cost and benefit schemes plus the target fraction."""

    cost: object = RandomCosts()
    benefit: object = RandomBenefits()
    target_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.target_fraction <= 1.0):
            raise ValueError("target fraction must lie in (0, 1]")

    def target_count(self, node_count):
        """How many of `node_count` nodes become targets: floor(fraction * n)."""
        return int(math.floor(self.target_fraction * node_count))


# --- loading and serialization ----------------------------------------------

def _parse_lines(lines, directed):
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


def load_edge_list(source, directed=True):
    """Parse a whitespace-separated `src dst [prob]` edge list into a SocialGraph.

    `source` may be a path or an open text stream. Lines starting with `#`
    and blank lines are skipped. Original node ids are remapped to dense ids
    (ascending original order); the mapping is kept on the graph.
    """
    if hasattr(source, "read"):
        edges = _parse_lines(source, directed)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            edges = _parse_lines(handle, directed)

    ids = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    remap = {orig: dense for dense, orig in enumerate(ids)}

    arcs = []
    for u, v, p in edges:
        du, dv = remap[u], remap[v]
        pv = 0.0 if p is None else p
        arcs.append((du, dv, pv))
        if not directed:
            arcs.append((dv, du, pv))
    return SocialGraph(len(ids), arcs, directed, original_ids=np.asarray(ids, dtype=np.int64))


# --- assignment operations ----------------------------------------------------

def assign_probabilities(graph, scheme, seed=0):
    """Return a copy of the graph with probabilities drawn per the scheme.

    The trivalency draw happens once per input edge in arc order: once per
    arc on a directed graph, once per adjacent mirror pair on an undirected
    one. So the two arcs of an undirected edge share one value and results
    are reproducible for a fixed seed.
    """
    if isinstance(scheme, UniformProbability):
        prob = np.full(graph.arc_count, scheme.p, dtype=np.float64)
        return graph.with_probabilities(prob)
    if isinstance(scheme, TrivalencyProbability):
        rng = np.random.default_rng(seed)
        values = np.asarray(scheme.values, dtype=np.float64)
        per_edge = 1 if graph.directed else 2
        picks = rng.integers(0, len(values), size=graph.arc_count // per_edge)
        prob = np.repeat(values[picks], per_edge)
        return graph.with_probabilities(prob)
    raise TypeError(f"unknown probability scheme {scheme!r}")


def assign_economics(graph, scheme, seed=0):
    """Draw targets, costs, and benefits for the graph per the scheme.

    Draw order (targets, costs, benefits) is fixed so results are
    reproducible for a fixed seed.
    """
    n = graph.node_count
    rng = np.random.default_rng(seed)

    k = scheme.target_count(n)
    targets = np.sort(rng.choice(n, size=k, replace=False)) if k else np.empty(0, dtype=np.int64)

    if isinstance(scheme.cost, RandomCosts):
        cost = rng.uniform(scheme.cost.lo, scheme.cost.hi, size=n)
    elif isinstance(scheme.cost, DegreeProportionalCosts):
        m = graph.arc_count
        if m == 0:
            raise ValueError("degree-proportional costs need at least one arc")
        cost = n * graph.degree.astype(np.float64) / (2.0 * m)
        cost = np.maximum(cost, scheme.cost.min_cost)
    else:
        raise TypeError(f"unknown cost scheme {scheme.cost!r}")

    benefit = np.zeros(n, dtype=np.float64)
    if isinstance(scheme.benefit, RandomBenefits):
        benefit[targets] = rng.uniform(scheme.benefit.lo, scheme.benefit.hi, size=k)
    elif isinstance(scheme.benefit, UnitBenefits):
        benefit[targets] = 1.0
    else:
        raise TypeError(f"unknown benefit scheme {scheme.benefit!r}")

    return NodeEconomics(cost=cost, benefit=benefit, targets=targets)
