"""Directed weighted graph model, edge-list I/O, and probability/cost/benefit assignment."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Floor applied to degree-proportional costs so isolated nodes keep a positive cost.
MIN_COST = 1e-6


class GraphParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SocialGraph:
    """Immutable directed graph whose arcs carry influence probabilities.

    Node ids are dense integers in [0, n). An undirected input edge is stored
    as two opposing arcs that share a single probability value. Probability
    0.0 is a sentinel meaning "not assigned yet"; diffusion code refuses to
    run until every arc has a probability in (0, 1].
    """

    def __init__(self, node_count, arcs, directed=True, *, input_edge=None, original_ids=None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = int(node_count)
        self.directed = bool(directed)

        if isinstance(arcs, tuple) and len(arcs) == 3 and isinstance(arcs[0], np.ndarray):
            src, dst, prob = arcs
        else:
            arcs = list(arcs)
            src = np.fromiter((a[0] for a in arcs), dtype=np.int64, count=len(arcs))
            dst = np.fromiter((a[1] for a in arcs), dtype=np.int64, count=len(arcs))
            prob = np.fromiter((a[2] for a in arcs), dtype=np.float64, count=len(arcs))
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.prob = np.ascontiguousarray(prob, dtype=np.float64)
        m = len(self.src)
        if len(self.dst) != m or len(self.prob) != m:
            raise ValueError("arc arrays must have equal length")

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
            bad_p = ~((self.prob >= 0.0) & (self.prob <= 1.0))  # NaN fails both
            if bad_p.any():
                a = int(np.argmax(bad_p))
                raise ValueError(
                    f"probability {self.prob[a]} outside [0, 1] on arc ({self.src[a]}, {self.dst[a]})"
                )

        if not self.directed:
            # undirected edges are stored as adjacent mirror arcs sharing one probability
            paired = (
                m % 2 == 0
                and np.array_equal(self.src[0::2], self.dst[1::2])
                and np.array_equal(self.dst[0::2], self.src[1::2])
                and np.array_equal(self.prob[0::2], self.prob[1::2])
            )
            if not paired:
                raise ValueError(
                    "undirected graphs need adjacent mirror arc pairs with equal probabilities"
                )

        if input_edge is None:
            input_edge = np.arange(m, dtype=np.int64)
        self.input_edge = np.asarray(input_edge, dtype=np.int64)
        self.input_edge_count = int(self.input_edge.max()) + 1 if m else 0
        if original_ids is None:
            original_ids = np.arange(node_count, dtype=np.int64)
        self.original_ids = np.asarray(original_ids, dtype=np.int64)

        # Python adjacency lists are the fastest structure for the BFS-heavy
        # code paths. Stable grouping keeps neighbors in arc-input order, which
        # downstream determinism (cascade draws, score accumulation) relies on.
        self.out_nbrs, self.out_arcs = self._grouped(self.src, self.dst, m)
        self.in_nbrs, self.in_arcs = self._grouped(self.dst, self.src, m)

        self.out_degree = np.bincount(self.src, minlength=node_count) if m else np.zeros(node_count, dtype=np.int64)
        self.in_degree = np.bincount(self.dst, minlength=node_count) if m else np.zeros(node_count, dtype=np.int64)
        self.degree = self.out_degree + self.in_degree

    def _grouped(self, keys, values, m):
        n = self.node_count
        if not m:
            empty = [[] for _ in range(n)]
            return empty, [[] for _ in range(n)]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        ids = np.arange(n)
        starts = np.searchsorted(sorted_keys, ids, side="left").tolist()
        ends = np.searchsorted(sorted_keys, ids, side="right").tolist()
        values_sorted = values[order].tolist()
        order_list = order.tolist()
        nbrs = [values_sorted[starts[u]:ends[u]] for u in range(n)]
        arcs = [order_list[starts[u]:ends[u]] for u in range(n)]
        return nbrs, arcs

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

    def check_node(self, u):
        if not (0 <= u < self.node_count):
            raise ValueError(f"node id {u} outside [0, {self.node_count})")
        return int(u)

    def with_probabilities(self, prob):
        """Copy of this graph with the given per-arc probabilities."""
        prob = np.asarray(prob, dtype=np.float64)
        if prob.shape != self.prob.shape:
            raise ValueError("probability vector length does not match arc count")
        return SocialGraph(
            self.node_count,
            (self.src, self.dst, prob),
            self.directed,
            input_edge=self.input_edge,
            original_ids=self.original_ids,
        )


@dataclass(frozen=True)
class NodeEconomics:
    """Per-node selection cost, the target set, and per-target benefits."""

    cost: np.ndarray
    benefit: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=np.float64))
        object.__setattr__(self, "benefit", np.asarray(self.benefit, dtype=np.float64))
        targets = np.sort(np.asarray(self.targets))
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
    input_edge = []
    for e, (u, v, p) in enumerate(edges):
        du, dv = remap[u], remap[v]
        pv = 0.0 if p is None else p
        arcs.append((du, dv, pv))
        input_edge.append(e)
        if not directed:
            arcs.append((dv, du, pv))
            input_edge.append(e)
    return SocialGraph(
        len(ids),
        arcs,
        directed,
        input_edge=np.asarray(input_edge, dtype=np.int64),
        original_ids=np.asarray(ids, dtype=np.int64),
    )


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


# --- assignment operations ----------------------------------------------------

def assign_probabilities(graph, scheme, seed=0):
    """Return a copy of the graph with probabilities drawn per the scheme.

    The trivalency draw happens once per input edge in input-file order, so
    the two arcs of an undirected edge share one value and results are
    reproducible for a fixed seed.
    """
    if isinstance(scheme, UniformProbability):
        prob = np.full(graph.arc_count, scheme.p, dtype=np.float64)
        return graph.with_probabilities(prob)
    if isinstance(scheme, TrivalencyProbability):
        rng = np.random.default_rng(seed)
        values = np.asarray(scheme.values, dtype=np.float64)
        picks = rng.integers(0, len(values), size=graph.input_edge_count)
        prob = values[picks][graph.input_edge] if graph.arc_count else np.empty(0)
        return graph.with_probabilities(prob)
    raise TypeError(f"unknown probability scheme {scheme!r}")


def assign_economics(graph, scheme, seed=0):
    """Draw targets, costs, and benefits for the graph per the scheme.

    Draw order (targets, costs, benefits) is fixed so results are
    reproducible for a fixed seed.
    """
    n = graph.node_count
    rng = np.random.default_rng(seed)

    k = int(math.floor(scheme.target_fraction * n))
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
