import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebmax.diffusion import BenefitEstimator, _draw_worlds, _target_masks

from helpers import (
    ExactBenefitOracle,
    make_economics,
    make_graph,
    per_sample_benefits,
    random_instance,
    random_subset_triple,
    reference_draw_worlds,
    reference_exact_benefit,
    tangled_instances,
)


class TestLiveEdgeSampling:
    def test_certain_edges_all_kept(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert list(reference_draw_worlds(g, master_seed=1, count=1)) == [{0: [1, 2], 1: [2]}]
        # the same world in CSR, heads grouped by source in arc order, with the
        # chain node 1 (no target, one kept arc) contracted: its arc is dropped,
        # 0's arc into it leads to its end, the target 2, and 1 is an alias of 2
        assert list(_draw_worlds(g, [2], master_seed=1, count=1)) == [([0], [2, 2], [0, 2, 2, 2], ([1], [2]))]

    def test_vanishing_probability_keeps_nothing(self):
        # expected kept arcs over 1000 worlds = m * 1e-9 * 1000 ~ 3e-6
        g = make_graph(3, [(0, 1, 1e-9), (1, 2, 1e-9), (0, 2, 1e-9)])
        assert list(reference_draw_worlds(g, master_seed=2, count=1000)) == [{}] * 1000
        assert list(_draw_worlds(g, [2], master_seed=2, count=1000)) == [([], [], [0, 0, 0, 0], ([], []))] * 1000

    def test_deterministic_per_seed_and_index(self):
        g = make_graph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)])
        targets = [0, 1, 2, 3]
        a = list(_draw_worlds(g, targets, master_seed=9, count=1, first=7))
        b = list(_draw_worlds(g, targets, master_seed=9, count=1, first=7))
        c = list(_draw_worlds(g, targets, master_seed=9, count=1, first=8))
        assert a == b
        assert a != c

    def test_estimator_samples_match_standalone(self):
        # the index's world i is the masks of a single draw of world i
        cases = [
            (5, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 0.5), (3, 4, 0.9), (4, 0, 0.2)], [2, 4], 50, (0, 1, 17, 49)),
            # a chunk holds 4M // (4 + 200k) = 20 worlds: worlds 20 to 22 come from the second chunk
            (200_000, [(0, 1, 1.0), (1, 2, 0.5)], [2], 23, range(23)),
        ]
        for n, arcs, targets, samples, indices in cases:
            g = make_graph(n, arcs)
            econ = make_economics(n, targets=targets)
            est = BenefitEstimator(g, econ, samples=samples, master_seed=13)
            bits = [0] * n
            for j, t in enumerate(targets):
                bits[t] = 1 << j
            seen = set()
            for idx in indices:
                (world,) = _draw_worlds(g, econ.targets, master_seed=13, count=1, first=idx)
                masks = _target_masks(world, bits)
                assert [row[idx] for row in est._rows] == masks
                seen.add(tuple(masks))
            assert len(seen) > 1


class TestEarnedBenefitOnSample:
    """Earned benefit on a single live-edge world (a one-sample estimator)."""

    def test_empty_seed_set(self):
        g = make_graph(2, [(0, 1, 1.0)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        est = BenefitEstimator(g, econ, samples=1, master_seed=0)
        assert est.estimate(set()) == 0.0
        # a graph with no nodes gives an empty index
        est = BenefitEstimator(make_graph(0, []), make_economics(0, targets=[]), samples=3, master_seed=0)
        assert est._rows == [] and est.estimate(set()) == 0.0

    def test_seeded_target_counts_itself(self):
        g = make_graph(2, [(0, 1, 1.0)])
        econ = make_economics(2, targets=[1], benefits={1: 7.0})
        est = BenefitEstimator(g, econ, samples=1, master_seed=0)
        assert est.estimate({1}) == 7.0

    def test_one_hop_reach(self):
        g = make_graph(2, [(0, 1, 1.0)])
        econ = make_economics(2, targets=[1], benefits={1: 5.0})
        est = BenefitEstimator(g, econ, samples=1, master_seed=0)
        assert est.estimate({0}) == 5.0


class TestExactBruteforce:
    """Hand values of the exact expectation, read from the oracle."""

    def test_two_case_enumeration(self):
        # hand enumeration: kept (p=0.5) earns 10, dropped earns 0 -> 5.0
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        assert ExactBenefitOracle(g, econ).estimate({0}) == 5.0

    def test_certain_graph_equals_sample_benefit(self):
        g = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        econ = make_economics(4, targets=[2, 3], benefits={2: 4.0, 3: 6.0})
        one_world = BenefitEstimator(g, econ, samples=1, master_seed=0)
        assert ExactBenefitOracle(g, econ).estimate({0}) == one_world.estimate({0})

    def test_empty_seed_set(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        assert ExactBenefitOracle(g, econ).estimate(set()) == 0.0


class TestBenefitEstimator:
    def test_empty_seed_set_is_zero(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        est = BenefitEstimator(g, econ, samples=1000, master_seed=3)
        assert est.estimate(set()) == 0.0

    def test_single_edge_estimate_close_to_oracle(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1], benefits={1: 10.0})
        exact = ExactBenefitOracle(g, econ).estimate({0})
        assert exact == 5.0
        est = BenefitEstimator(g, econ, samples=10_000, master_seed=4)
        assert abs(est.estimate({0}) - exact) < 0.3

    def test_all_targets_seeded_is_exact_total(self):
        g = make_graph(4, [(0, 1, 0.25), (2, 3, 0.5)])
        econ = make_economics(4, targets=[1, 3], benefits={1: 2.5, 3: 4.5})
        for samples in (1, 7, 100):
            est = BenefitEstimator(g, econ, samples=samples, master_seed=5)
            assert est.estimate({1, 3}) == 7.0

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(21)
        g, econ = random_instance(rng)
        est = BenefitEstimator(g, econ, samples=500, master_seed=6)
        seeds = {0, g.node_count - 1}
        assert est.estimate(seeds) == est.estimate(seeds)

    @pytest.mark.parametrize(
        "setting, bad",
        [("samples", 3.9), ("samples", 4.0), ("samples", True), ("samples", "4"),
         ("master_seed", 1.7), ("master_seed", False), ("master_seed", None),
         ("master_seed", -1), ("master_seed", 2**128)],
    )
    def test_estimator_refuses_non_integer_settings(self, setting, bad):
        # a float is refused, not truncated, and a bool is not a count; a
        # seed outside Philox's 128-bit key is refused before any draw
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        named = {"samples": "sample count", "master_seed": "master seed"}[setting]
        rule = "must lie in [0, 2**128)" if type(bad) is int else "must be an integer"
        with pytest.raises(ValueError, match=re.escape(f"{named} {rule}, got {bad!r}")):
            BenefitEstimator(g, econ, **{"samples": 4, "master_seed": 1, setting: bad})
        est = BenefitEstimator(g, econ, samples=np.int64(4), master_seed=np.uint32(1))
        assert (est.samples, est.master_seed) == (4, 1)
        assert BenefitEstimator(g, econ, samples=4, master_seed=2**128 - 1).master_seed == 2**128 - 1

    def test_estimator_validates(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        with pytest.raises(ValueError):
            BenefitEstimator(g, econ, samples=0)
        unassigned = make_graph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            BenefitEstimator(unassigned, econ, samples=10)
        # node ids must be integers, numpy ones included
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        econ = make_economics(3, targets=[1, 2], benefits={1: 2.0, 2: 3.0})
        for est in (BenefitEstimator(g, econ, samples=20, master_seed=1), ExactBenefitOracle(g, econ)):
            for bad, named in ((1.5, "1.5"), (1.0, "1.0"), (True, "True"), ("1", "'1'")):
                with pytest.raises(ValueError, match=f"node id {named} is not an integer"):
                    est.marginal_gain((), bad)
                with pytest.raises(ValueError, match=f"node id {named} is not an integer"):
                    est.estimate([bad])
                with pytest.raises(ValueError, match=f"node id {named} is not an integer"):
                    est.marginal_gain([0, bad], 2)
            # numpy integers are node ids like any other
            assert est.estimate([np.int64(1)]) == est.estimate([1])
            assert est.marginal_gain((np.int32(0),), np.uint8(2)) == est.marginal_gain((0,), 2)


class TestMarginalGain:
    def test_isolated_non_target(self):
        g = make_graph(3, [(0, 1, 0.5)])
        econ = make_economics(3, targets=[1], benefits={1: 3.0})
        est = BenefitEstimator(g, econ, samples=200, master_seed=1)
        assert est.marginal_gain(set(), 2) == 0.0

    def test_isolated_target_from_empty(self):
        g = make_graph(3, [(0, 1, 0.5)])
        econ = make_economics(3, targets=[2], benefits={2: 3.0})
        est = BenefitEstimator(g, econ, samples=200, master_seed=1)
        assert est.marginal_gain(set(), 2) == 3.0

    def test_already_covered_chain(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        econ = make_economics(3, targets=[2], benefits={2: 4.0})
        est = BenefitEstimator(g, econ, samples=100, master_seed=1)
        assert est.marginal_gain({0}, 1) == 0.0

    def test_member_raises(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        est = BenefitEstimator(g, econ, samples=10, master_seed=1)
        with pytest.raises(ValueError):
            est.marginal_gain({0}, 0)

    def test_exactly_difference_of_estimates(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            g, econ = random_instance(rng)
            est = BenefitEstimator(g, econ, samples=400, master_seed=int(rng.integers(1 << 30)))
            S, T, u = random_subset_triple(rng, g.node_count)
            direct = est.estimate(sorted(set(S) | {u})) - est.estimate(S)
            assert est.marginal_gain(S, u) == direct


class TestEstimatorSetFunctionProperties:
    """Monotone, non-negative, submodular on any fixed sample set."""

    def test_monotonicity_exact(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=16)
            est = BenefitEstimator(g, econ, samples=256, master_seed=int(rng.integers(1 << 30)))
            for _ in range(20):
                S, T, _ = random_subset_triple(rng, g.node_count)
                assert 0.0 <= est.estimate(S) <= est.estimate(T)

    def test_submodularity(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=16)
            est = BenefitEstimator(g, econ, samples=256, master_seed=int(rng.integers(1 << 30)))
            for _ in range(20):
                S, T, u = random_subset_triple(rng, g.node_count)
                assert est.marginal_gain(S, u) >= est.marginal_gain(T, u) - 1e-9


class TestExactOracle:
    def test_matches_bruteforce_bit_for_bit(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            g, econ = random_instance(rng, max_nodes=6, max_arcs=10)
            oracle = ExactBenefitOracle(g, econ)
            for _ in range(5):
                size = int(rng.integers(0, g.node_count + 1))
                seeds = sorted(rng.choice(g.node_count, size=size, replace=False).tolist())
                assert oracle.estimate(seeds) == reference_exact_benefit(g, econ, seeds)

    @given(tangled_instances(max_nodes=6, max_pairs=5), st.data())
    def test_matches_reference_on_tangled_graphs(self, instance, data):
        # cycles, reciprocal and parallel arcs, up to 15 arcs
        g, econ = instance
        oracle = ExactBenefitOracle(g, econ)
        nodes = st.integers(0, g.node_count - 1)
        u = data.draw(nodes)
        seeds = sorted(data.draw(st.sets(nodes.filter(lambda v: v != u))))
        before = reference_exact_benefit(g, econ, seeds)
        assert oracle.estimate(seeds) == before
        assert oracle.marginal_gain(seeds, u) == reference_exact_benefit(g, econ, seeds + [u]) - before

    def test_marginal_gain_consistent(self):
        rng = np.random.default_rng(56)
        g, econ = random_instance(rng, max_nodes=6, max_arcs=10)
        oracle = ExactBenefitOracle(g, econ)
        S, T, u = random_subset_triple(rng, g.node_count)
        assert oracle.marginal_gain(S, u) == oracle.estimate(sorted(set(S) | {u})) - oracle.estimate(S)

    def test_batched_gains_with_sixteen_targets(self):
        # 16 targets on a path that node 0 reaches: the widest batch the oracle allows
        n = 16
        g = make_graph(n, [(v, v + 1, 0.9 if v < 8 else 1.0) for v in range(n - 1)])
        econ = make_economics(n, targets=list(range(n)), benefits={v: (v + 1) / 3 for v in range(n)})
        oracle = ExactBenefitOracle(g, econ)
        for seeds in ((), (3, 12)):
            nodes = [v for v in range(n) if v not in seeds]
            nodes += nodes[:3]
            before = oracle.evaluations
            gains = oracle.marginal_gains(seeds, nodes)
            assert oracle.evaluations == before + len(nodes)
            assert gains == [oracle.marginal_gain(seeds, v) for v in nodes]
            assert gains == [oracle.estimate(sorted({*seeds, v})) - oracle.estimate(seeds) for v in nodes]

    def test_size_caps(self):
        g = make_graph(20, [(i, i + 1, 0.5) for i in range(17)])
        econ = make_economics(20, targets=[0])
        with pytest.raises(ValueError):
            ExactBenefitOracle(g, econ)


class TestOracleConsistency:
    def test_estimates_within_standard_error(self):
        # estimator mean within 4 empirical-stddev/sqrt(R) of the exact value
        rng = np.random.default_rng(66)
        R = 4000
        for _ in range(8):
            g, econ = random_instance(rng, max_nodes=6, max_arcs=10)
            est = BenefitEstimator(g, econ, samples=R, master_seed=int(rng.integers(1 << 30)))
            seeds = {int(rng.integers(0, g.node_count))}
            exact = ExactBenefitOracle(g, econ).estimate(seeds)
            vals = per_sample_benefits(est, seeds)
            spread = float(np.std(vals, ddof=1))
            tol = 4.0 * spread / math.sqrt(R) + 1e-12
            assert abs(est.estimate(seeds) - exact) <= tol
