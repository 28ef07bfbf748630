import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ebmax import hop
from ebmax.diffusion import BenefitEstimator
from ebmax.graph import (
    SocialGraph,
    assign_economics,
    assign_probabilities,
)
from ebmax.hop import (
    HopConfig,
    compute_scores,
    hop_based_select,
)

from helpers import (
    ExactBenefitOracle,
    influence_probability,
    make_economics,
    make_graph,
    random_instance,
    reference_scores,
    reference_walk_influence,
    tangled_instances,
)


def reachability_oracle(graph, source, target):
    """Exact P(source reaches target) by full live-subset enumeration."""
    econ = make_economics(graph.node_count, targets=[target])
    return ExactBenefitOracle(graph, econ).estimate({source})


def disjoint_paths_instance(rng, hops):
    """Node-disjoint source->target paths with lengths <= hops.

    Returns (graph, expected probability) where the expectation is the
    closed form 1 - prod(1 - path probability); with disjoint paths this
    equals true reachability.
    """
    n_paths = 1 if hops == 1 else int(rng.integers(1, 4))
    lengths = [int(rng.integers(1, hops + 1)) for _ in range(n_paths)]
    while lengths.count(1) > 1:  # parallel arcs are not representable
        lengths[lengths.index(1)] = int(rng.integers(2, hops + 1))
    arcs = []
    next_node = 2  # 0 = source, 1 = target
    path_probs = []
    for length in lengths:
        probs = rng.uniform(0.1, 0.95, size=length)
        chain = [0] + [next_node + i for i in range(length - 1)] + [1]
        next_node += length - 1
        for i in range(length):
            arcs.append((chain[i], chain[i + 1], float(probs[i])))
        path_probs.append(float(np.prod(probs)))
    graph = make_graph(next_node, arcs, True)
    survive = 1.0
    for p in path_probs:
        survive *= 1.0 - p
    return graph, 1.0 - survive


class TestInfluenceProbability:
    def test_single_direct_edge(self):
        g = make_graph(2, [(0, 1, 0.3)])
        assert influence_probability(g, 0, 1, 1) == pytest.approx(0.3, abs=1e-12)
        assert influence_probability(g, 0, 1, 3) == pytest.approx(0.3, abs=1e-12)

    def test_two_disjoint_two_hop_paths(self):
        # hand value: 1 - (1 - 0.25)(1 - 0.25) = 0.4375, confirmed by the
        # exact reachability oracle
        g = make_graph(
            4, [(0, 2, 0.5), (2, 1, 0.5), (0, 3, 0.5), (3, 1, 0.5)]
        )
        oracle = reachability_oracle(g, 0, 1)
        assert oracle == pytest.approx(0.4375, abs=1e-12)
        assert influence_probability(g, 0, 1, 2) == pytest.approx(oracle, abs=1e-9)

    def test_source_is_target(self):
        # a seed earns its own benefit, whatever the graph around it
        cycle = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        assert influence_probability(cycle, 1, 0, 3) == 0.25
        for hops in (1, 2, 3):
            assert influence_probability(cycle, 0, 0, hops) == 1.0
        isolated = make_graph(3, [(0, 1, 0.5)])
        assert influence_probability(isolated, 2, 2, 2) == 1.0

    def test_unreachable_source_is_zero(self):
        g = make_graph(3, [(0, 1, 0.5)])
        assert influence_probability(g, 2, 1, 2) == 0.0
        # reachable but beyond the hop budget
        far = make_graph(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        assert influence_probability(far, 0, 3, 2) == 0.0

    def test_matches_oracle_on_disjoint_path_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            hops = int(rng.integers(1, 4))
            g, expected = disjoint_paths_instance(rng, hops)
            got = influence_probability(g, 0, 1, hops)
            assert got == pytest.approx(expected, abs=1e-9)
            assert got == pytest.approx(reachability_oracle(g, 0, 1), abs=1e-9)

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(102)
        for _ in range(15):
            g, _ = random_instance(rng, max_nodes=7, max_arcs=14)
            for t in range(g.node_count):
                for s in range(g.node_count):
                    if s == t:
                        continue
                    p = influence_probability(g, s, t, 3)
                    assert 0.0 <= p <= 1.0

    def test_bad_hop_count_rejected(self):
        # a two-hop chain: with hops >= 2 the answer is 0.5 * 0.5
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        assert influence_probability(g, 0, 2, 2) == 0.25
        for bad in (-1, 0, 1.5, 2.0, True):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                influence_probability(g, 0, 2, bad)

    @given(tangled_instances(), st.sampled_from([1, 2, 3]))
    def test_matches_per_target_recursion(self, instance, hops):
        g, _ = instance
        for t in range(g.node_count):
            want = reference_walk_influence(g, t, hops)
            for s in range(g.node_count):
                if s != t:
                    assert influence_probability(g, s, t, hops) == want.get(s, 0.0)


class TestComputeScores:
    def test_no_targets_all_zero(self):
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        econ = make_economics(3, targets=[])
        table = compute_scores(g, econ, HopConfig())
        assert np.all(table.expected_benefit == 0.0)
        assert np.all(table.score == 0.0)

    def test_lone_target_scores_self_benefit_over_cost(self):
        g = make_graph(3, [(1, 2, 0.5)])
        econ = make_economics(3, targets=[0], benefits={0: 10.0}, costs={0: 2.0})
        table = compute_scores(g, econ, HopConfig())
        assert table.score[0] == 5.0
        assert table.score[1] == 0.0 and table.score[2] == 0.0

    def test_neighbor_contribution_hand_value(self):
        # expected benefit of w: 0 + 0.2 * 10 = 2.0, cost 1
        g = make_graph(2, [(0, 1, 0.2)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        table = compute_scores(g, econ, HopConfig(hops=2, cutoff=0.1))
        assert table.expected_benefit[0] == pytest.approx(2.0, abs=1e-12)
        assert table.score[0] == pytest.approx(2.0, abs=1e-12)

    def test_cutoff_filters_contributions(self):
        g = make_graph(2, [(0, 1, 0.05)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        table = compute_scores(g, econ, HopConfig(hops=2, cutoff=0.1))
        assert table.expected_benefit[0] == 0.0

    def test_target_score_lower_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=8, max_arcs=14)
            table = compute_scores(g, econ, HopConfig())
            for t in econ.targets.tolist():
                assert table.expected_benefit[t] >= econ.benefit[t]
                assert table.score[t] >= econ.benefit[t] / econ.cost[t] - 1e-12

    def test_raising_cutoff_never_raises_scores(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=8, max_arcs=14)
            low = compute_scores(g, econ, HopConfig(hops=2, cutoff=0.05))
            high = compute_scores(g, econ, HopConfig(hops=2, cutoff=0.3))
            assert np.all(high.expected_benefit <= low.expected_benefit + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HopConfig(hops=0)
        with pytest.raises(ValueError):
            HopConfig(cutoff=1.5)
        for bad in (2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                HopConfig(hops=bad)
        assert HopConfig(hops=np.int64(3)).hops == 3

    @given(tangled_instances(), st.sampled_from([1, 2, 3, 4, 6]), st.sampled_from([0.0, 0.1, 0.3]))
    # three parallel middle nodes 1, 2, 3 give the pair (target 4, source 0)
    # three survival factors whose product, rounded, depends on their order
    @example(
        (
            make_graph(5, [(0, 1, 0.3), (0, 2, 0.45), (0, 3, 0.7), (1, 4, 0.3), (2, 4, 0.45), (3, 4, 0.15)]),
            make_economics(5, targets=[4], benefits={4: 10.0}),
        ),
        2,
        0.0,
    )
    def test_shared_walks_match_per_target_recursion_bit_for_bit(self, instance, hops, cutoff):
        # walks built a level at a time for a batch of targets must not
        # change one float
        g, econ = instance
        config = HopConfig(hops=hops, cutoff=cutoff)
        table = compute_scores(g, econ, config)
        eb, score = reference_scores(g, econ, config)
        assert table.expected_benefit.tobytes() == eb.tobytes()
        assert table.score.tobytes() == score.tobytes()


    @given(tangled_instances(), st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 40, math.inf]))
    def test_batching_does_not_change_a_float(self, instance, hops, cap):
        # cap 1 makes every target its own batch, inf puts them all in one
        g, econ = instance
        config = HopConfig(hops=hops, cutoff=0.1)
        want = compute_scores(g, econ, config)
        with mock.patch.object(hop, "_BATCH_ENTRIES", cap):
            got = compute_scores(g, econ, config)
        assert got.expected_benefit.tobytes() == want.expected_benefit.tobytes()
        assert got.score.tobytes() == want.score.tobytes()

    def test_batches_split_a_larger_graph_without_changing_a_float(self):
        rng = np.random.default_rng(106)
        g, econ = random_instance(rng, max_nodes=60, max_arcs=400)
        config = HopConfig(hops=3, cutoff=0.05)
        want = compute_scores(g, econ, config)
        eb, score = reference_scores(g, econ, config)
        assert want.expected_benefit.tobytes() == eb.tobytes()
        for cap in (1, 100, math.inf):
            with mock.patch.object(hop, "_BATCH_ENTRIES", cap):
                got = compute_scores(g, econ, config)
            assert got.expected_benefit.tobytes() == eb.tobytes()
            assert got.score.tobytes() == score.tobytes()

    def test_targets_without_in_arcs_earn_only_their_own_benefit(self):
        # 0 and 2 have no in-arcs; target 1 credits its in-neighbor 0
        g = make_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        econ = make_economics(4, targets=[0, 1, 2], benefits={0: 3.0, 1: 4.0, 2: 5.0})
        for hops in (1, 2, 4):
            table = compute_scores(g, econ, HopConfig(hops=hops, cutoff=0.1))
            assert table.expected_benefit.tolist() == [3.0 + 0.5 * 4.0, 4.0, 5.0, 0.0]

    def test_arcless_graph_scores_own_benefit_over_cost(self):
        g = make_graph(4, [])
        econ = make_economics(4, targets=[0, 2], benefits={0: 3.0, 2: 5.0}, costs={2: 4.0})
        for hops in (1, 3):
            table = compute_scores(g, econ, HopConfig(hops=hops, cutoff=0.0))
            assert table.expected_benefit.tolist() == [3.0, 0.0, 5.0, 0.0]
            assert table.score.tolist() == [3.0, 0.0, 1.25, 0.0]

    def test_hub_that_is_every_targets_only_in_neighbor(self):
        # hub 0 is a target too; each other target's one in-arc is from the
        # hub, so the hub gathers one gain per target, added in target order
        probs = [0.3, 0.45, 0.7, 0.15, 0.9]
        g = make_graph(6, [(0, t, p) for t, p in zip(range(1, 6), probs)])
        benefits = {0: 1.7, 1: 1.1, 2: 7.3, 3: 3.3, 4: 9.7, 5: 4.1}
        econ = make_economics(6, targets=list(range(6)), benefits=benefits)
        want, backwards = benefits[0], benefits[0]
        for t, p in zip(range(1, 6), probs):
            want += p * benefits[t]
        for t, p in zip(range(5, 0, -1), probs[::-1]):
            backwards += p * benefits[t]
        assert want != backwards  # so the order of the additions shows
        for hops in (1, 2, 5):
            for cap in (1, math.inf):
                with mock.patch.object(hop, "_BATCH_ENTRIES", cap):
                    table = compute_scores(g, econ, HopConfig(hops=hops, cutoff=0.0))
                assert table.expected_benefit[0] == want
                assert table.expected_benefit[1:].tolist() == [benefits[t] for t in range(1, 6)]

    def test_scoring_peaks_under_fifteen_megabytes(self):
        # a 10k-node, 75k-edge undirected graph at two hops: the batched
        # kernel holds a cap's worth of entries, not a dict per (node, level)
        rng = np.random.default_rng(0)
        n, edges = 10_000, 75_000
        u = rng.integers(0, n, size=edges)
        v = (u + rng.integers(1, n, size=edges)) % n
        src, dst = np.column_stack([u, v]).ravel(), np.column_stack([v, u]).ravel()
        g = SocialGraph(n, src, dst, np.zeros(2 * edges), directed=False)
        g = assign_probabilities(g, 0.1, seed=1)
        econ = assign_economics(g, "random", 0.2, seed=2)
        tracemalloc.start()
        try:
            compute_scores(g, econ, HopConfig(hops=2, cutoff=0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20, f"scoring peaks at {peak / 2**20:.1f} MB"


class TestHopBasedSelect:
    def test_rank_order_fill(self):
        # three isolated targets with benefits 5, 3, 1 and unit costs
        g = make_graph(3, [])
        econ = make_economics(3, targets=[0, 1, 2], benefits={0: 5.0, 1: 3.0, 2: 1.0})
        res = hop_based_select(g, econ, HopConfig(), 2.0)
        assert res.seeds == [0, 1]
        assert res.spent == 2.0

    def test_skip_unaffordable_and_continue(self):
        g = make_graph(2, [])
        econ = make_economics(2, targets=[0, 1], benefits={0: 50.0, 1: 3.0}, costs={0: 10.0})
        res = hop_based_select(g, econ, HopConfig(), 1.0)
        assert res.seeds == [1]

    def test_zero_scores_fill_in_id_order(self):
        g = make_graph(3, [])
        econ = make_economics(3, targets=[])
        res = hop_based_select(g, econ, HopConfig(), 10.0)
        assert res.seeds == [0, 1, 2]
        skipping = hop_based_select(g, econ, HopConfig(), 10.0, skip_zero=True)
        assert skipping.seeds == []

    def test_bad_budget(self):
        g = make_graph(2, [])
        econ = make_economics(2, targets=[])
        for bad in (0, math.inf):
            with pytest.raises(ValueError, match=f"got {bad}"):
                hop_based_select(g, econ, HopConfig(), bad)

    def test_estimator_only_for_reporting(self):
        g = make_graph(2, [(0, 1, 1.0)])
        econ = make_economics(2, targets=[1], benefits={1: 8.0})
        plain = hop_based_select(g, econ, HopConfig(), 1.0)
        assert math.isnan(plain.estimated_benefit)

    def test_deterministic(self):
        rng = np.random.default_rng(105)
        g, econ = random_instance(rng, max_nodes=10, max_arcs=18)
        a = hop_based_select(g, econ, HopConfig(), 5.0)
        b = hop_based_select(g, econ, HopConfig(), 5.0)
        assert a.seeds == b.seeds


class TestAgreementWithGreedy:
    def test_hop_reaches_seventy_percent_of_guarded_greedy(self, tmp_path):
        # regression guard on two fixed small fixtures, not a general claim
        from ebmax.graph import assign_economics, assign_probabilities, load_edge_list
        from ebmax.greedy import modified_greedy_select
        from ebmax.harness import generate_synthetic

        for kind, n, param, gseed in (("preferential", 60, 2, 5), ("random", 80, 6, 6)):
            path = str(tmp_path / f"{kind}.txt")
            generate_synthetic(kind, n, param, seed=gseed, path=path)
            g = load_edge_list(path, directed=False)
            g = assign_probabilities(g, 0.1, seed=1)
            econ = assign_economics(g, "random", 0.2, seed=2)
            selector = BenefitEstimator(g, econ, samples=300, master_seed=3)
            heldout = BenefitEstimator(g, econ, samples=1000, master_seed=4)
            for budget in (60.0, 150.0):
                greedy = modified_greedy_select(selector, econ, budget)
                hopres = hop_based_select(g, econ, HopConfig(2, 0.1), budget)
                assert heldout.estimate(hopres.seeds) >= 0.7 * heldout.estimate(greedy.seeds)
