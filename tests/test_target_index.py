"""The estimator's target-reach index against a plain search of each world.

Property tests draw small directed graphs with cycles, random targets and
benefits, and a few worlds; the Hypothesis profile is set in conftest.py.
The references are `helpers._reach`, the search the estimator ran before every
world was indexed as it is drawn, and the adjacency-dict worlds
(`helpers.reference_draw_worlds`) with their own Tarjan pass
(`helpers.reference_target_masks`), which the CSR worlds replaced. The
reference draw (`helpers._sample_rows`) holds a chunk's draws as one float
block; `_draw_worlds` must give the same worlds through its reused buffers.
The CSR worlds have their chains contracted: `helpers.reference_contraction`
builds the same contracted world with plain loops. The masks must have the
values the reference pass gives on the uncontracted world, each alias must
hold its rep's int, and the nodes of one strongly connected component must
share one int.
"""

import hashlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ebmax import diffusion
from ebmax.diffusion import (
    BenefitEstimator,
    _bit_values,
    _csr_worlds,
    _draw_worlds,
    _sample_stride,
    _target_bits,
    _target_masks,
)
from ebmax.graph import (
    NodeEconomics,
    SocialGraph,
    assign_economics,
    assign_probabilities,
    load_edge_list,
)
from ebmax.harness import generate_synthetic

from helpers import (
    ExactBenefitOracle,
    _build_adjacency,
    _reach,
    _sample_rows,
    make_economics,
    make_graph,
    per_sample_benefits,
    reference_contraction,
    reference_draw_worlds,
    reference_target_masks,
    tangled_instances,
    target_benefits,
)

probabilities = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
benefits = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
# a cycle feeding a sink in every world: 0 -> 1 -> 2 -> 0 and 2 -> 3, all
# certain, and no arc out of 3
CYCLE_TO_SINK = {(0, 1), (1, 2), (2, 0), (2, 3)}


@st.composite
def instances(draw):
    """(graph, economics, samples, master seed): n <= 12 nodes, R <= 8 worlds."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = sorted(draw(st.sets(st.sampled_from(pairs), max_size=30))) if pairs else []
    certain = set()
    if n >= 4 and draw(st.booleans()):
        certain = CYCLE_TO_SINK
        arcs = sorted({(u, v) for u, v in arcs if u != 3} | certain)
    graph = make_graph(n, [(u, v, 1.0 if (u, v) in certain else draw(probabilities)) for u, v in arcs], True)
    targets = sorted(draw(st.sets(st.integers(0, n - 1))))
    benefit = np.zeros(n)
    for t in targets:
        benefit[t] = draw(benefits)
    economics = NodeEconomics(cost=np.ones(n), benefit=benefit, targets=np.asarray(targets, dtype=np.int64))
    return graph, economics, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


def target_bits(economics):
    bits = [0] * economics.node_count
    for j, t in enumerate(economics.targets.tolist()):
        bits[t] = 1 << j
    return bits


def targets_of(mask, economics):
    return {t for j, t in enumerate(economics.targets.tolist()) if mask >> j & 1}


def cycle_feeds_sink(graph):
    arcs = set(zip(graph.src.tolist(), graph.dst.tolist()))
    return CYCLE_TO_SINK <= arcs and not any(u == 3 for u, _ in arcs)


def _instance(n, arcs, targets, samples=3, seed=5):
    graph = make_graph(n, arcs, True)
    benefit = np.zeros(n)
    benefit[targets] = 1.0
    economics = NodeEconomics(cost=np.ones(n), benefit=benefit, targets=np.asarray(targets, dtype=np.int64))
    return graph, economics, samples, seed


# a 3-cycle feeding a target sink (3) and a non-target sink (4), which a tail
# (6) also feeds; 5 is isolated
TANGLED = _instance(
    7, [(0, 1, 1.0), (1, 2, 0.8), (2, 0, 1.0), (2, 3, 0.7), (2, 4, 0.9), (6, 4, 1.0), (6, 0, 0.5)], [1, 3]
)

# a certain 3-cycle (9, 10, 11) of targets fed by a tail (8) and feeding a
# non-target sink (7): CPython caches the ints up to 256, so only masks with a
# high bit show whether a component's members share one int
HIGH_BITS = _instance(
    12, [(8, 9, 1.0), (9, 10, 1.0), (10, 11, 1.0), (11, 9, 1.0), (11, 7, 1.0)], [v for v in range(12) if v != 7]
)


@given(instances())
@example(HIGH_BITS)
def test_masks_are_the_targets_each_node_reaches(instance):
    # the kernel runs on the CSR worlds; the searches run on the adjacency
    # dicts of the same keep rows. Pruning drops only arcs into non-target
    # sinks, so it leaves every component and every reached target as it was
    graph, economics, samples, seed = instance
    worlds = list(reference_draw_worlds(graph, seed, samples))
    keep = _sample_rows(seed, 0, samples, graph.arc_count) < graph.prob
    bits = target_bits(economics)
    for world, csr in zip(worlds, _csr_worlds(keep, graph, economics.targets)):
        masks = _target_masks(csr, bits)
        off, rep = csr[2], dict(zip(*csr[3]))
        for v in range(graph.node_count):
            reached = _reach(world, (v,))
            assert targets_of(masks[v], economics) == reached & target_benefits(economics).keys()
            for w in reached:
                if v in _reach(world, (w,)):  # one component: one shared int
                    assert masks[w] is masks[v]
            if v in rep:  # a contracted chain node: its rep's int
                assert masks[v] is masks[rep[v]]
            elif off[v] == off[v + 1]:  # no kept out-arc: closed at once with its own bit
                assert masks[v] is bits[v]
        if cycle_feeds_sink(graph):
            # the sink is first met on the cycle's arc 2 -> 3, never pushed
            assert 3 not in world and off[3] == off[4]
            assert masks[0] is masks[1] is masks[2]
            assert masks[2] | bits[3] == masks[2]
    est = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    assert est._rows == list(zip(*(reference_target_masks(world, bits) for world in worlds)))


@given(instances())
@example(TANGLED)
@example(_instance(3, [], [1]))
def test_csr_masks_equal_the_reference_masks(instance):
    # the same keep rows, as CSR worlds and as adjacency dicts
    graph, economics, samples, seed = instance
    n = graph.node_count
    bits = target_bits(economics)
    src, dst = graph.src.tolist(), graph.dst.tolist()
    keep = _sample_rows(seed, 0, samples, graph.arc_count) < graph.prob
    worlds = list(_csr_worlds(keep, graph, economics.targets))
    assert len(worlds) == samples
    for row, world in zip(keep, worlds):
        adjacency = _build_adjacency(np.flatnonzero(row).tolist(), src, dst)
        assert _target_masks(world, bits) == reference_target_masks(adjacency, bits)
        # CSR keeps each live arc into a target or a node with a live out-arc,
        # in arc order, contracted as the plain-loop reference contracts it
        roots, heads, off, aliases = world
        assert len(off) == n + 1 and off[0] == 0 and off[n] == len(heads)
        sources = {v for v in range(n) if off[v] < off[v + 1]}
        assert roots == sorted(sources)
        expected_roots, contracted, expected_aliases = reference_contraction(adjacency, bits)
        assert roots == expected_roots
        assert {u: heads[off[u] : off[u + 1]] for u in sources} == contracted
        assert sorted(zip(*aliases)) == expected_aliases
        # no kept arc leaves or enters an alias, and no alias stands for another
        assert not set(aliases[0]) & (sources | set(heads) | set(aliases[1]))
    # rooted at every other node: the same arcs, the wanted aliases, and the
    # roots are the wanted nodes with a kept arc and the reps of the wanted
    # aliases that have one, in ascending id
    wanted = np.arange(n) % 2 == seed % 2
    for (roots, heads, off, aliases), rooted in zip(worlds, _csr_worlds(keep, graph, economics.targets, wanted)):
        pairs = [(v, rep) for v, rep in zip(*aliases) if wanted[v]]
        starts = {v for v in roots if wanted[v]} | {rep for _, rep in pairs if off[rep] < off[rep + 1]}
        assert rooted == (sorted(starts), heads, off, ([v for v, _ in pairs], [rep for _, rep in pairs]))


def test_arcs_into_non_target_sinks_are_dropped():
    # every live arc leads into a non-target sink (1 or 4): no arc is kept
    graph, economics, _, _ = _instance(5, [(0, 1, 1.0), (2, 1, 1.0), (3, 4, 1.0)], [0, 3])
    bits = target_bits(economics)
    (world,) = _draw_worlds(graph, economics.targets, 0, count=1)
    assert world == ([], [], [0] * 6, ([], []))
    masks = _target_masks(world, bits)
    assert all(masks[v] is bits[v] for v in range(5))


def test_world_chunks_stay_small_on_many_nodes_and_few_arcs():
    # a chunk holds about 4M keep flags and per-node counts together
    # (`_CHUNK_ENTRIES`); without the node term all 64 worlds' counts
    # (64 x 200k int64, over 100 MB) would be built at once
    graph = make_graph(200_000, [(0, 1, 1.0), (1, 2, 0.5)], True)
    tracemalloc.start()
    try:
        # 0 -> 1 is kept only in the worlds where 1 -> 2 is live, and then
        # 0 -> 1 -> 2 is a chain into the target 2, which has no arc: both
        # chain nodes become aliases of 2, and no arc or root is left
        worlds = [(world[:2], world[3]) for world in _draw_worlds(graph, np.array([2]), 0, count=64)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    empty, contracted = (([], []), ([], [])), (([], []), ([0, 1], [2, 2]))
    assert len(worlds) == 64 and all(w in (empty, contracted) for w in worlds) and contracted in worlds
    assert peak < 64 * 2**20


def test_worlds_hold_no_chunk_of_draws_on_many_arcs_and_few_nodes():
    # a chunk here is 20 worlds of 200k arcs; their draws as one float64 block
    # (about 32 MB) once set the peak. One world's draws (1.6 MB) and the
    # chunk's keep flags (4 MB) are held now: the peak measured 7.5 MB
    rng = np.random.default_rng(0)
    n, m = 100, 200_000
    src = rng.integers(0, n, m)
    graph = SocialGraph(n, src, (src + rng.integers(1, n, m)) % n, np.full(m, 0.01))
    tracemalloc.start()
    try:
        count = sum(1 for _ in _draw_worlds(graph, np.arange(0, n, 2), 0, count=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 64
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "kind, nodes, param, setting, digest, distinct",
    [
        ("preferential", 400, 3, 0.1,
         "0b8c858269792a537a8eb7c28d4e47114241f80d347568b811597f2c063e8371", 4818),
        ("random", 600, 8, "trivalency",
         "c38fa3e7fefa069ef41ce20dec5a582eb420f1c83fda4fad9fb3659a30f60f80", 2249),
    ],
)
def test_golden_index(tmp_path, kind, nodes, param, setting, digest, distinct):
    # the sha256 of the index rows' repr pins every mask value; the count of
    # distinct mask objects pins how the masks share ints, and so the index's
    # memory (80 and 120 targets, so most masks lie outside the small-int cache)
    path = tmp_path / "g.txt"
    generate_synthetic(kind, nodes, param, 3, str(path))
    graph = assign_probabilities(load_edge_list(str(path), directed=False), setting, seed=5)
    est = BenefitEstimator(graph, assign_economics(graph, "random", 0.2, seed=6), samples=200, master_seed=11)
    assert hashlib.sha256(repr(est._rows).encode()).hexdigest() == digest
    assert len({id(mask) for row in est._rows for mask in row}) == distinct


def test_world_chunks_stay_small_on_many_live_arcs():
    # at p 0.1 each world of this graph has about 20k live arcs. A chunk
    # bounded by its keep flags alone is 20 worlds, and the CSR build's int64
    # arrays over their 400k live arcs peaked at 26.9 MB (18.1 MB with chains
    # contracted). A chunk also holds at most `_CHUNK_ARCS` expected live arcs:
    # 13 worlds here, and the peak measured 12.4 MB
    rng = np.random.default_rng(0)
    n, m = 100, 200_000
    src = rng.integers(0, n, m)
    graph = SocialGraph(n, src, (src + rng.integers(1, n, m)) % n, np.full(m, 0.1))
    tracemalloc.start()
    try:
        count = sum(1 for _ in _draw_worlds(graph, np.arange(0, n, 2), 0, count=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 64
    assert peak < 16 * 2**20


def reference_worlds(graph, targets, seed, count, first):
    """The CSR worlds of the reference draw's keep rows."""
    keep = _sample_rows(seed, first, count, graph.arc_count) < graph.prob
    return list(_csr_worlds(keep, graph, targets))


def draw_in_chunks(graph, targets, seed, count, first, per_chunk):
    """`_draw_worlds` with `_CHUNK_ENTRIES` set so that a chunk holds
    `per_chunk` worlds (None: the module's own bound)."""
    entries = diffusion._CHUNK_ENTRIES
    if per_chunk:
        entries = per_chunk * (_sample_stride(graph.arc_count) + graph.node_count)
    with mock.patch.object(diffusion, "_CHUNK_ENTRIES", entries):
        return list(_draw_worlds(graph, targets, seed, count, first))


@st.composite
def chain_instances(draw):
    """(graph, economics, samples, master seed), rich in chain nodes (no
    target, one live arc). Nodes 0-9 are isolated targets, so the targets
    among the k <= 12 others take bits 10 and up, and every mask that holds
    one lies outside CPython's small-int cache. Each of the others has one
    arc, sometimes none or two; the arcs of up to two cycles of 2-5 of them
    are added, so chains close into 2-cycles and longer cycles or run into
    them, and few of them are targets, so chains end at targets, at nodes
    with two arcs and at pruned sinks. One arc in five is uncertain."""
    k = draw(st.integers(0, 12))
    n, nodes = 10 + k, list(range(10, 10 + k))
    arcs = set()
    for v in nodes:
        others = [u for u in nodes if u != v]
        if others:
            degree = draw(st.sampled_from([0, 1, 1, 1, 2]))
            arcs |= {(v, u) for u in draw(st.lists(st.sampled_from(others), min_size=degree, max_size=degree))}
    if k >= 2:
        cycles = st.lists(st.sampled_from(nodes), min_size=2, max_size=min(5, k), unique=True)
        for cycle in draw(st.lists(cycles, max_size=2)):
            arcs |= set(zip(cycle, cycle[1:] + cycle[:1]))
    arcs = draw(st.permutations(sorted(arcs)))  # arc order sets the order of each node's arcs
    graph = make_graph(n, [(u, v, draw(st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.5]))) for u, v in arcs], True)
    targets = list(range(10)) + (sorted(draw(st.sets(st.sampled_from(nodes), max_size=k // 3))) if k else [])
    benefit = np.zeros(n)
    benefit[targets] = 1.0
    economics = NodeEconomics(cost=np.ones(n), benefit=benefit, targets=np.asarray(targets, dtype=np.int64))
    return graph, economics, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


# a chain 10 -> 11 -> 12 whose end 12 reaches the target 13 first and then
# 14, which enters the chain again at 11, so {11, 12, 14} is one component.
# 10 and 11 are aliases of 12, and 14's arc into 11 leads to 12
ENTERED_ON_A_CYCLE = _instance(
    17,
    [(10, 11, 1.0), (11, 12, 1.0), (12, 13, 1.0), (12, 14, 1.0), (14, 11, 1.0), (14, 15, 1.0), (14, 16, 1.0),
     (16, 13, 1.0), (16, 15, 1.0)],
    [*range(10), 13, 15],
    samples=1,
)


@given(chain_instances(), st.sampled_from([1, 3, None]))
@example(_instance(0, [], []), None)
@example(ENTERED_ON_A_CYCLE, None)
def test_contracted_chains_keep_every_mask_and_its_int(instance, per_chunk):
    # worlds drawn in chunks of 1, 3 or all of them, so no chain crosses a
    # world boundary, against the reference pass over the uncontracted
    # world: the same masks, each alias holding its rep's int, and the
    # members of each strongly connected component sharing one int
    graph, economics, samples, seed = instance
    bits = target_bits(economics)
    src, dst = graph.src.tolist(), graph.dst.tolist()
    keep = _sample_rows(seed, 0, samples, graph.arc_count) < graph.prob
    worlds = draw_in_chunks(graph, economics.targets, seed, samples, 0, per_chunk)
    assert len(worlds) == samples
    for row, world in zip(keep, worlds):
        adjacency = _build_adjacency(np.flatnonzero(row).tolist(), src, dst)
        masks = _target_masks(world, bits)
        assert masks == reference_target_masks(adjacency, bits)
        assert all(masks[v] is masks[rep] for v, rep in zip(*world[3]))
        reach = [_reach(adjacency, (v,)) for v in range(graph.node_count)]
        for v, reached in enumerate(reach):
            assert all(masks[w] is masks[v] for w in reached if v in reach[w])


def test_a_branch_entered_on_a_cycle_is_contracted_to_its_end():
    graph, economics, _, _ = ENTERED_ON_A_CYCLE
    (world,) = _draw_worlds(graph, economics.targets, 0, count=1)
    roots, heads, off, aliases = world
    assert aliases == ([10, 11], [12, 12])
    assert roots == [12, 14, 16] and heads[off[14] : off[15]] == [12, 15, 16]
    bits = target_bits(economics)
    masks = _target_masks(world, bits)
    adjacency = _build_adjacency(range(graph.arc_count), graph.src.tolist(), graph.dst.tolist())
    assert masks == reference_target_masks(adjacency, bits)
    assert masks[10] is masks[11] is masks[12] is masks[14]


@pytest.mark.parametrize("per_chunk", [1, 3, None])
@pytest.mark.parametrize(
    "arcs, directed",
    [
        ([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.7), (3, 0, 0.4), (0, 2, 0.9)], True),  # m % 4 == 1
        ([(0, 1, 0.3), (1, 0, 0.3), (1, 2, 0.6), (2, 1, 0.6), (2, 3, 0.8), (3, 2, 0.8)], False),  # m % 4 == 2
        ([(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5), (3, 1, 0.2)], True),  # m % 4 == 0
        ([], True),  # arcless: stride 0, no draw
    ],
)
def test_drawn_worlds_are_the_reference_draw(arcs, directed, per_chunk):
    # a first world that is not a multiple of the chunk, and a count that
    # spans several chunks, read the same stream positions as one draw
    graph = make_graph(4, arcs, directed)
    targets = np.array([1, 3])
    for first, count in ((0, 1), (4, 10), (7, 3), (5, 0)):
        expected = reference_worlds(graph, targets, 11, count, first)
        assert draw_in_chunks(graph, targets, 11, count, first, per_chunk) == expected, (first, count)
    # world i of a long draw is the world drawn alone at first=i
    whole = draw_in_chunks(graph, targets, 11, 14, 0, per_chunk)
    assert [draw_in_chunks(graph, targets, 11, 1, i, per_chunk)[0] for i in range(14)] == whole


@given(instances(), st.integers(0, 40), st.integers(0, 9), st.sampled_from([1, 3, None]))
@example(_instance(3, [], [1]), 5, 7, 3)
def test_drawn_worlds_match_the_reference_on_random_graphs(instance, first, count, per_chunk):
    graph, economics, _, seed = instance
    expected = reference_worlds(graph, economics.targets, seed, count, first)
    assert draw_in_chunks(graph, economics.targets, seed, count, first, per_chunk) == expected


@given(instances(), st.data())
def test_gain_is_the_difference_of_two_estimates(instance, data):
    graph, economics, samples, seed = instance
    n = graph.node_count
    est = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    fresh = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    order = data.draw(st.permutations(range(n)))
    # gains against a growing seed set, as greedy asks them: each new set is
    # the last plus one node, so its coverage is extended in place
    for size in range(data.draw(st.integers(0, n - 1)) + 1):
        seeds = order[:size]
        for u in order[size:]:
            expected = fresh.estimate(seeds + [u]) - fresh.estimate(seeds)
            assert est.marginal_gain(seeds, u) == expected
    # and against a seed set drawn afresh
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    rest = [v for v in range(n) if v not in seeds]
    if rest:
        u = data.draw(st.sampled_from(rest))
        assert est.marginal_gain(seeds, u) == fresh.estimate(seeds + [u]) - fresh.estimate(seeds)


@st.composite
def queries(draw, order):
    """One estimator call (method, seeds, *node args) on the nodes of the
    permutation `order`. The seeds are often empty, one node or a prefix of
    `order` (the nested sets greedy asks about, whose gains differ where
    reaches overlap), in any order and sometimes with repeats; the nodes are
    unsorted, with repeats. About one gain query in five names a node that
    makes it raise."""
    n = len(order)
    kind = draw(st.sampled_from(["estimate", "marginal_gain", "marginal_gains"]))
    seeds = draw(
        st.one_of(
            st.just([]),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=1),
            st.integers(0, n).flatmap(lambda k: st.permutations(order[:k])),
            st.lists(st.integers(0, n - 1)),
        )
    )
    if kind == "estimate":
        return (kind, seeds)
    rest = [v for v in range(n) if v not in seeds]
    bad = st.sampled_from([-1, n, *seeds])  # out of range, or already a seed
    if rest and draw(st.integers(0, 4)):
        good = st.sampled_from(rest)
    else:
        good = bad
    if kind == "marginal_gain":
        return (kind, seeds, draw(good))
    nodes = draw(st.lists(good, max_size=2 * n))
    if not rest or not draw(st.integers(0, 4)):
        nodes.insert(draw(st.integers(0, len(nodes))), draw(bad))
    return (kind, seeds, nodes)


def _exact(answer):
    """The answer's floats as hex strings, so that equal means bit for bit."""
    answers = answer if isinstance(answer, list) else [answer]
    assert all(type(x) is float for x in answers)
    return [x.hex() for x in answers]


@given(instances(), st.data())
def test_memoized_answers_are_the_answers_of_a_fresh_estimator(instance, data):
    # one estimator answers a sequence of calls, repeats included, from its
    # memo; each answer and its charge must be those of the call on a fresh one
    graph, economics, samples, seed = instance
    n = graph.node_count

    def fresh():
        return BenefitEstimator(graph, economics, samples=samples, master_seed=seed)

    def ask(est, call):
        kind, *args = call
        return getattr(est, kind)(*args)

    def memo(est):
        return {k: dict(v) for k, v in est._gains.items()}, dict(est._estimates)

    est = fresh()
    order = data.draw(st.permutations(range(n)))
    asked = []
    for _ in range(data.draw(st.integers(1, 20))):
        if asked and data.draw(st.booleans()):
            call = data.draw(st.sampled_from(asked))
        else:
            call = data.draw(queries(order))
            asked.append(call)
        before, stored = est.evaluations, memo(est)
        reference = fresh()
        try:
            expected = ask(reference, call)
        except ValueError:
            with pytest.raises(ValueError):
                ask(est, call)
            assert est.evaluations == before and memo(est) == stored, call
            continue
        assert _exact(ask(est, call)) == _exact(expected), call
        charged = len(call[2]) if call[0] == "marginal_gains" else 1
        assert est.evaluations - before == reference.evaluations == charged, call
    # a single seed's estimate is its gain against the empty set, and the
    # mean of its coverage's per-world values, bit for bit
    for v in range(n):
        single = _exact(est.estimate((v,)))
        assert single == _exact(fresh().marginal_gains((), [v])[0])
        assert single == _exact(math.fsum(per_sample_benefits(fresh(), (v,)).tolist()) / samples)


@st.composite
def wide_instances(draw):
    """(graph, economics, samples, master seed): 16-24 nodes, 16 or more of
    them targets, on a certain path 0 -> 1 -> ... -> n-1 plus up to 30 random
    arcs. Node 0 reaches every target in every world, so its gain against
    the empty set is read by `_bit_values` a byte at a time."""
    n = draw(st.integers(16, 24))
    path = {(v, v + 1) for v in range(n - 1)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in path]
    arcs = sorted(path | draw(st.sets(st.sampled_from(pairs), max_size=30)))
    graph = make_graph(n, [(u, v, 1.0 if (u, v) in path else draw(probabilities)) for u, v in arcs], True)
    targets = sorted(draw(st.sets(st.integers(0, n - 1), min_size=16)))
    benefit = np.zeros(n)
    for t in targets:
        benefit[t] = draw(benefits)
    economics = NodeEconomics(cost=np.ones(n), benefit=benefit, targets=np.asarray(targets, dtype=np.int64))
    return graph, economics, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


@given(st.one_of(instances(), wide_instances()), st.data())
def test_batched_gains_are_the_single_gains(instance, data):
    # on the estimator and, where its 2^m worlds are few, the exact oracle: a
    # batch answers exactly what one query per node answers, and charges one
    # evaluation per node
    graph, economics, samples, seed = instance
    n = graph.node_count

    kinds = [lambda: BenefitEstimator(graph, economics, samples=samples, master_seed=seed)]
    if graph.arc_count <= 10:
        kinds.append(lambda: ExactBenefitOracle(graph, economics))
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    rest = [v for v in range(n) if v not in seeds]
    nodes = data.draw(st.lists(st.sampled_from(rest), max_size=2 * n)) if rest else []
    # every node twice against the empty set, the drawn batch (repeats
    # allowed) against the drawn seeds, and an empty batch
    for kind in kinds:
        batched, single, fresh = kind(), kind(), kind()
        for s, batch in (((), list(range(n)) * 2), (seeds, nodes), (seeds, [])):
            before = batched.evaluations
            gains = batched.marginal_gains(s, batch)
            assert batched.evaluations == before + len(batch)
            assert all(type(g) is float for g in gains)
            assert gains == [single.marginal_gain(s, v) for v in batch]
            assert gains == [fresh.estimate([*s, v]) - fresh.estimate(s) for v in batch]


def test_a_bad_batch_raises_naming_the_node_and_charges_nothing():
    graph, economics, samples, seed = TANGLED
    for est in (
        BenefitEstimator(graph, economics, samples=samples, master_seed=seed),
        ExactBenefitOracle(graph, economics),
    ):
        for seeds, batch, named in (
            ((1,), [0, 2, 1, 3], "node 1 is already in the seed set"),
            ((), [0, 7], "node id 7 outside [0, 7)"),
            ((2,), [-1, 0], "node id -1 outside [0, 7)"),
            ((), [0, True], "node id True is not an integer"),
            ((), [0, 2.0], "node id 2.0 is not an integer"),
        ):
            before = est.evaluations
            with pytest.raises(ValueError, match=re.escape(named)):
                est.marginal_gains(seeds, batch)
            assert est.evaluations == before, named
        # numpy integers are node ids like any other
        assert est.marginal_gains((np.int64(0),), [np.int32(1), 2]) == est.marginal_gains((0,), [1, 2])


@given(instances(), st.data())
def test_per_sample_benefits_match_the_reference_search(instance, data):
    # every value read from the index equals the fsum, world by world, of the
    # benefits of the targets a search from the seeds reaches
    graph, economics, samples, seed = instance
    n = graph.node_count
    worlds = list(reference_draw_worlds(graph, seed, samples))
    tb = target_benefits(economics)
    est = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    order = data.draw(st.permutations(range(n)))
    sets = [order[:size] for size in range(n + 1)]  # growing: coverage extended in place
    sets += data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), min_size=1, max_size=4))
    for seeds in sets:
        expected = [math.fsum([tb[t] for t in _reach(world, seeds) & tb.keys()]) for world in worlds]
        assert per_sample_benefits(est, seeds).tolist() == expected
        assert est.estimate(seeds) == math.fsum(expected) / samples


# a chain 0 -> 1 -> 2 into a node on the cycle 2 <-> 3, which also reaches
# the target 4: 0, 1 and 3 are aliases of 2, and 2's arc into 3, which
# would lead back to 2, is dropped
ALIAS_ON_CYCLE = _instance(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 2, 1.0), (2, 4, 1.0)], [4])


@given(
    tangled_instances(),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sets(st.integers(0, 6)),
    st.lists(st.sets(st.integers(0, 6)), max_size=4),
)
@example(ENTERED_ON_A_CYCLE[:2], 1, 5, {10, 14}, [{10}, {14}])
@example(ALIAS_ON_CYCLE[:2], 3, 5, {0}, [])
@example(TANGLED[:2], 3, 5, {1}, [])  # a target on the cycle
@example(TANGLED[:2], 3, 5, {3, 5}, [{5}])  # a target sink and an isolated node
@example(TANGLED[:2], 3, 5, set(), [])
def test_rooted_rows_equal_the_full_index(instance, samples, seed, nodes, seed_sets):
    # an index of some nodes starts each world's pass from them alone: every
    # row it keeps holds the full index's values world by world (the ints
    # may be other objects), and every estimate and gain over those nodes is
    # the full estimator's, bit for bit
    graph, economics = instance
    nodes = sorted(v for v in nodes if v < graph.node_count)
    full = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    rooted = BenefitEstimator(graph, economics, samples=samples, master_seed=seed, nodes=nodes)
    assert rooted.nodes == tuple(nodes)
    assert rooted._rows == {v: full._rows[v] for v in nodes}
    for seeds in ([], nodes, *([v] for v in nodes), *seed_sets):
        seeds = [v for v in seeds if v in rooted._rows]
        assert _exact(rooted.estimate(seeds)) == _exact(full.estimate(seeds))
        rest = [v for v in nodes if v not in seeds]
        assert _exact(rooted.marginal_gains(seeds, rest)) == _exact(full.marginal_gains(seeds, rest))


def test_unindexed_nodes_are_refused_and_charge_nothing():
    graph, economics, samples, seed = TANGLED
    est = BenefitEstimator(graph, economics, samples=samples, master_seed=seed, nodes=[2, 0, 2, 6])
    assert est.nodes == (0, 2, 6)
    est.estimate([0, 2])
    est.marginal_gains([0], [2, 6])
    for call, named in (
        (lambda: est.estimate([0, 3]), 3),
        (lambda: est.estimate([1]), 1),
        (lambda: est.marginal_gain([0], 4), 4),
        (lambda: est.marginal_gain([5], 0), 5),
        (lambda: est.marginal_gains([0], [2, 6, 1]), 1),
        (lambda: est.marginal_gains([2, 3], [0]), 3),
    ):
        before, gains, estimates = est.evaluations, {k: dict(v) for k, v in est._gains.items()}, dict(est._estimates)
        with pytest.raises(ValueError, match=f"node {named} is not indexed"):
            call()
        assert est.evaluations == before, named
        assert {k: dict(v) for k, v in est._gains.items()} == gains and est._estimates == estimates, named


@given(st.integers(min_value=0, max_value=2**300 - 1))
def test_bit_values_reads_every_set_bit(bits):
    # wide masks (16 set bits or more) are read a byte at a time
    values = [float(j) for j in range(300)]
    assert _bit_values(bits, values) == [values[j] for j in range(300) if bits >> j & 1]


# the whole finite non-negative range: zero, subnormals, normals up to 1e300
wide_benefits = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=0.0, max_value=1e300),
)


@given(st.lists(wide_benefits, max_size=16))
def test_integer_benefits_round_to_the_fsum_of_every_subset(benefits):
    n = len(benefits)
    economics = NodeEconomics(cost=np.ones(n), benefit=np.array(benefits), targets=np.arange(n))
    _, units, scale = _target_bits(economics)
    assert scale & (scale - 1) == 0  # a power of two
    for mask in range(1 << n):
        chosen = [b for j, b in enumerate(benefits) if mask >> j & 1]
        assert sum(_bit_values(mask, units)) / scale == math.fsum(chosen)


def test_three_cycle_feeding_a_sink_target():
    # 4 -> 0 -> 1 -> 2 -> 0 is a cycle with a tail; 2 -> 3 leads to the sink
    # target 3 (benefit 5); node 1 is a target too (benefit 2); 5 is isolated
    g = make_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (4, 0, 1.0)])
    econ = make_economics(6, targets=[1, 3], benefits={1: 2.0, 3: 5.0})
    (world,) = _draw_worlds(g, econ.targets, master_seed=0, count=1)
    masks = _target_masks(world, target_bits(econ))
    assert masks == [0b11, 0b11, 0b11, 0b10, 0b11, 0]
    assert masks[0] is masks[1] is masks[2]
    assert masks[4] is masks[0]  # the tail adds nothing, so it shares the cycle's int

    est = BenefitEstimator(g, econ, samples=3, master_seed=0)
    assert est.marginal_gain((), 4) == 7.0
    assert est.marginal_gain((3,), 0) == 2.0
    assert est.marginal_gain((3,), 1) == 2.0
    assert est.marginal_gain((0,), 4) == 0.0
    assert est.marginal_gain((), 5) == 0.0
    assert est.estimate([2]) == 7.0
    assert est.estimate([3, 5]) == 5.0
    assert per_sample_benefits(est, [1]).tolist() == [7.0, 7.0, 7.0]
