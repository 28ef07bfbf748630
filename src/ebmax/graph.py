"""Directed weighted graph model, edge-list I/O, and probability/cost/benefit assignment."""

from __future__ import annotations

import copy
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

# Floor applied to degree-proportional costs so isolated nodes keep a positive cost.
MIN_COST = 1e-6

_MAX_NODE_ID = np.iinfo(np.int64).max  # original ids are kept as int64
# the most distinct ids whose edge keys `u * n + v` stay within int64
_MAX_KEY_NODES = math.isqrt(_MAX_NODE_ID)


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
    m = len(keys)
    if n * m > _MAX_NODE_ID:  # the composite keys below would overflow int64
        return offsets, np.argsort(keys, kind="stable")
    # arcs sorted by (key, arc id) through one plain sort of distinct composite
    # keys, several times faster than a stable argsort
    return offsets, np.sort(keys * m + np.arange(m)) % m


def _id_column(name, column):
    """`column` as int64 node ids. A non-empty column must hold integers, so a
    float or bool id is refused rather than truncated; an empty list, which
    numpy types as float64, is an empty column."""
    ids = np.asarray(column)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer node ids, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


class SocialGraph:
    """Immutable directed graph whose arcs carry influence probabilities.

    Node ids are dense integers in [0, n). The arcs are the numpy arrays
    `src`, `dst` and `prob`, built from the three equal-length columns the
    constructor takes, and indexed per direction by `out_csr` and `in_csr`:
    each is an `(offsets, arcs)` pair of int64 arrays, so that
    `arcs[offsets[v]:offsets[v + 1]]` are the ids of v's out- (in-) arcs in
    input order. An undirected input edge is stored as two adjacent opposing
    arcs that share a single probability value. Probability 0.0 is a
    sentinel meaning "not assigned yet"; diffusion code refuses to run until
    every arc has a probability in (0, 1].
    """

    def __init__(self, node_count, src, dst, prob, directed=True, *, original_ids=None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = int(node_count)
        self.directed = bool(directed)

        self.src = _id_column("src", src)
        self.dst = _id_column("dst", dst)
        self.prob = np.asarray(prob, dtype=np.float64)
        if not (
            self.src.ndim == self.dst.ndim == self.prob.ndim == 1
            and len(self.src) == len(self.dst) == len(self.prob)
        ):
            raise ValueError("src, dst and prob must be 1-D arrays of equal length")
        m = len(self.src)

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

def _line_error(line):
    """The message of the first check that one edge-list line fails. The
    checks run in this order: two or three columns, integer ids,
    non-negative ids, ids within int64, no self-loop, a numeric
    probability, a probability in (0, 1]. Only called for a line that
    fails one of them."""
    line = line.strip()
    parts = line.split()
    if len(parts) not in (2, 3):
        return f"expected 'src dst [prob]', got {line!r}"
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        return f"node ids must be integers, got {line!r}"
    if u < 0 or v < 0:
        return f"node ids must be non-negative, got {line!r}"
    if max(u, v) > _MAX_NODE_ID:
        return f"node id {max(u, v)} exceeds the int64 range"
    if u == v:
        return f"self-loop on node {u} rejected"
    try:
        p = float(parts[2])
    except ValueError:
        return f"probability must be a number, got {parts[2]!r}"
    return f"probability {p} outside (0, 1]"


def _convert(tokens, kind):
    """The longest prefix of `tokens` (an object array of str) that `kind`
    (`int` or `float`) converts into int64 or float64, converted. The token
    after that prefix, if any, is the first that fails or overflows."""
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.array(tokens, dtype=dtype)  # converts each token as `kind` does
    except (ValueError, OverflowError):
        pass
    # np.fromiter stops at the first failing token; the iterator shows how far it got
    rest = iter(tokens.tolist())
    try:
        np.fromiter(map(kind, rest), dtype, count=len(tokens))
    except (ValueError, OverflowError):
        pass
    return np.array(tokens[: len(tokens) - operator.length_hint(rest) - 1], dtype=dtype)


def _first_true(mask):
    """Index of the first True in `mask`, or its length when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def load_edge_list(source, directed=True):
    """Parse a whitespace-separated `src dst [prob]` edge list into a SocialGraph.

    `source` may be a path or an open text stream; lines are split at "\\n".
    Lines of 2 and 3 columns may be mixed. A line is skipped when it is
    blank or its first non-blank character is `#`. Ids are non-negative
    int64 values, remapped to dense ids in ascending original order; the
    mapping is kept on the graph. A repeated edge (on an undirected graph,
    in either direction) keeps its last occurrence, with one warning naming
    each repeat's line. The first line that fails a check raises
    `GraphParseError` with its line number, after the warnings for the
    lines before it.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    counts = np.fromiter(map(len, map(str.split, text.split("\n"))), dtype=np.int64)
    tokens = np.array(text.split(), dtype=object)
    first = np.cumsum(counts) - counts  # index of each line's first token
    data = np.flatnonzero(counts)
    data = data[tokens[first[data]].astype("U1") != "#"]  # the line of each data row

    # each check runs on the rows before the first row that an earlier check failed
    width = counts[data]
    at = first[data[: _first_true((width != 2) & (width != 3))]]
    u = _convert(tokens[at], int)
    v = _convert(tokens[at[: len(u)] + 1], int)
    u = u[: len(v)]
    three = np.flatnonzero(width[: len(v)] == 3)
    p = _convert(tokens[at[three] + 2], float)
    del tokens  # the token strings are most of the load's peak; free them before the graph is built
    ok = (u >= 0) & (v >= 0) & (u != v)
    ok[three[len(p):]] = False
    ok[three[: len(p)]] &= (p > 0.0) & (p <= 1.0)  # NaN fails both
    prob = np.zeros(len(ok))
    prob[three[: len(p)]] = p
    stop = _first_true(~ok)  # the first failing row, if any: all rows before it pass
    u, v, prob = u[:stop], v[:stop], prob[:stop]

    ids, dense = np.unique(np.concatenate([u, v]), return_inverse=True)
    n = len(ids)
    if n > _MAX_KEY_NODES:
        raise GraphParseError(f"{n} distinct node ids are more than the {_MAX_KEY_NODES} supported")
    src, dst = dense[:stop], dense[stop:]
    keys = np.minimum(src, dst) * n + np.maximum(src, dst) if not directed else src * n + dst
    _, last = np.unique(keys[::-1], return_index=True)
    keep = np.sort(stop - 1 - last)  # each edge's last occurrence, in line order
    if len(keep) < stop:  # warn at every repeat of an edge, in line order
        _, once = np.unique(keys, return_index=True)
        repeat = np.ones(stop, dtype=bool)
        repeat[once] = False
        for r in np.flatnonzero(repeat).tolist():
            warnings.warn(
                f"duplicate edge {u[r]}->{v[r]} at line {data[r] + 1}; keeping the last occurrence"
            )
    if stop < len(data):
        line = int(data[stop])
        raise GraphParseError(_line_error(text.split("\n")[line]), line + 1)

    src, dst, prob = src[keep], dst[keep], prob[keep]
    if not directed:  # each edge becomes two adjacent mirror arcs sharing its probability
        src, dst = np.column_stack([src, dst]).ravel(), np.column_stack([dst, src]).ravel()
        prob = np.repeat(prob, 2)
    return SocialGraph(n, src, dst, prob, directed, original_ids=ids)


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
