"""The estimator's target-reach index against a plain search of each world.

Property tests draw small directed graphs with cycles, random targets and
benefits, and a few worlds; the Hypothesis profile is set in conftest.py.
The references are `helpers._reach`, the search the estimator ran before every
world was indexed as it is drawn, and the adjacency-dict worlds
(`helpers.reference_draw_worlds`) with their own Tarjan pass
(`helpers.reference_target_masks`), which the CSR worlds replaced.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ebmax.diffusion import (
    BenefitEstimator,
    _bit_values,
    _csr_worlds,
    _draw_worlds,
    _sample_rows,
    _target_bits,
    _target_masks,
)
from ebmax.graph import NodeEconomics, SocialGraph

from helpers import (
    _build_adjacency,
    _reach,
    make_economics,
    make_graph,
    reference_draw_worlds,
    reference_target_masks,
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
    graph = SocialGraph(n, [(u, v, 1.0 if (u, v) in certain else draw(probabilities)) for u, v in arcs], True)
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
    graph = SocialGraph(n, arcs, True)
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
    for world, (roots, heads, off) in zip(worlds, _csr_worlds(keep, graph, economics.targets)):
        masks = _target_masks((roots, heads, off), bits)
        for v in range(graph.node_count):
            reached = _reach(world, (v,))
            assert targets_of(masks[v], economics) == reached & economics.target_set
            for w in reached:
                if v in _reach(world, (w,)):  # one component: one shared int
                    assert masks[w] is masks[v]
            if off[v] == off[v + 1]:  # no kept out-arc: closed at once with its own bit
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
        # CSR keeps each live arc into a target or a node with a live out-arc, in arc order
        roots, heads, off = world
        assert len(off) == n + 1 and off[0] == 0 and off[n] == len(heads)
        assert roots == [v for v in range(n) if off[v] < off[v + 1]]
        kept = {u: [d for d in out if bits[d] or d in adjacency] for u, out in adjacency.items()}
        assert {u: heads[off[u] : off[u + 1]] for u in roots} == {u: out for u, out in kept.items() if out}


def test_arcs_into_non_target_sinks_are_dropped():
    # every live arc leads into a non-target sink (1 or 4): no arc is kept
    graph, economics, _, _ = _instance(5, [(0, 1, 1.0), (2, 1, 1.0), (3, 4, 1.0)], [0, 3])
    bits = target_bits(economics)
    (world,) = _draw_worlds(graph, economics.targets, 0, count=1)
    assert world == ([], [], [0] * 6)
    masks = _target_masks(world, bits)
    assert all(masks[v] is bits[v] for v in range(5))


def test_world_chunks_stay_small_on_many_nodes_and_few_arcs():
    # a chunk holds about 4M draws and per-node counts together; without the
    # node term all 64 worlds' counts (64 x 200k int64, over 100 MB) would be
    # built at once
    graph = SocialGraph(200_000, [(0, 1, 1.0), (1, 2, 0.5)], True)
    tracemalloc.start()
    try:
        # 0 -> 1 is kept only in the worlds where 1 -> 2 is live
        roots = [world[0] for world in _draw_worlds(graph, np.array([2]), 0, count=64)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(roots) == 64 and all(r in ([], [0, 1]) for r in roots) and [0, 1] in roots
    assert peak < 64 * 2**20


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


@given(instances(), st.data())
def test_per_sample_benefits_match_the_reference_search(instance, data):
    # every value read from the index equals the fsum, world by world, of the
    # benefits of the targets a search from the seeds reaches
    graph, economics, samples, seed = instance
    n = graph.node_count
    worlds = list(reference_draw_worlds(graph, seed, samples))
    tset, tb = economics.target_set, economics.target_benefit
    est = BenefitEstimator(graph, economics, samples=samples, master_seed=seed)
    order = data.draw(st.permutations(range(n)))
    sets = [order[:size] for size in range(n + 1)]  # growing: coverage extended in place
    sets += data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), min_size=1, max_size=4))
    for seeds in sets:
        expected = [math.fsum([tb[t] for t in _reach(world, seeds) & tset]) for world in worlds]
        assert est.per_sample_benefits(seeds).tolist() == expected
        assert est.estimate(seeds) == math.fsum(expected) / samples


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
    assert est.per_sample_benefits([1]).tolist() == [7.0, 7.0, 7.0]
