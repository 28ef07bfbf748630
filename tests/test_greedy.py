import math

import numpy as np
import pytest

from ebmax.diffusion import BenefitEstimator
from ebmax.greedy import (
    best_single_node,
    greedy_ratio_select,
    lazy_greedy_select,
    modified_greedy_select,
)

from helpers import (
    ExactBenefitOracle,
    isolated_vs_clique_instance,
    make_economics,
    make_graph,
    random_instance,
)


def oracle_for(graph, econ):
    return ExactBenefitOracle(graph, econ)


class TestRatioGreedy:
    def test_counterexample_instance_picks_isolated_node(self):
        # the cheap isolated target has ratio 1/(1-eps) = 2 > 1, so the ratio
        # greedy takes it, strands budget 3.5, and earns only 1 of the
        # achievable 4
        graph, econ, budget = isolated_vs_clique_instance(clique_size=4, eps=0.5)
        est = oracle_for(graph, econ)
        res = greedy_ratio_select(est, econ, budget)
        assert res.seeds == [0]
        assert res.estimated_benefit == 1.0
        assert budget - res.spent == 3.5

    def test_single_affordable_target(self):
        g = make_graph(3, [(1, 2, 0.5)])
        econ = make_economics(3, targets=[0], benefits={0: 6.0}, costs={0: 2.0})
        est = oracle_for(g, econ)
        res = greedy_ratio_select(est, econ, 2.0)
        assert res.seeds == [0]
        assert res.estimated_benefit == 6.0

    def test_nothing_affordable(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1], costs={0: 10.0, 1: 10.0})
        est = oracle_for(g, econ)
        res = greedy_ratio_select(est, econ, 1.0)
        assert res.seeds == []
        assert res.estimated_benefit == 0.0
        assert res.stop_reason == "no_affordable"

    def test_rejects_bad_budget(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        est = oracle_for(g, econ)
        with pytest.raises(ValueError):
            greedy_ratio_select(est, econ, 0.0)
        with pytest.raises(ValueError):
            greedy_ratio_select(est, econ, -3)
        for bad in (math.inf, 1e400, math.nan):
            with pytest.raises(ValueError, match=f"got {bad}"):
                greedy_ratio_select(est, econ, bad)

    def test_zero_gain_early_stop_versus_literal_loop(self):
        # no targets at all: every gain is zero
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        econ = make_economics(3, targets=[])
        est = oracle_for(g, econ)
        res = greedy_ratio_select(est, econ, 10.0)
        assert res.seeds == []
        assert res.stop_reason == "zero_gain"
        literal = greedy_ratio_select(est, econ, 10.0, stop_on_zero_gain=False)
        assert literal.seeds == [0, 1, 2]  # burns budget on zero-gain nodes
        assert literal.spent == 3.0

    def test_monotone_progress_along_trace(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            g, econ = random_instance(rng)
            est = BenefitEstimator(g, econ, samples=300, master_seed=int(rng.integers(1 << 30)))
            res = greedy_ratio_select(est, econ, float(rng.uniform(1, 8)))
            prefix_estimates = [est.estimate(res.seeds[:k]) for k in range(len(res.seeds) + 1)]
            for a, b in zip(prefix_estimates, prefix_estimates[1:]):
                assert b >= a
            assert all(t.gain >= 0 for t in res.trace)

    def test_budget_feasibility(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            g, econ = random_instance(rng)
            est = BenefitEstimator(g, econ, samples=128, master_seed=int(rng.integers(1 << 30)))
            budget = float(rng.uniform(0.5, 10))
            for select in (greedy_ratio_select, lazy_greedy_select, modified_greedy_select):
                res = select(est, econ, budget)
                assert res.spent <= budget + 1e-12
                assert res.spent == pytest.approx(float(np.sum(econ.cost[res.seeds])))
                assert len(res.trace) == len(res.seeds)
                assert len(set(res.seeds)) == len(res.seeds)


class TestBestSingleNode:
    def test_counterexample_instance_finds_clique_node(self):
        graph, econ, budget = isolated_vs_clique_instance(clique_size=4, eps=0.5)
        est = oracle_for(graph, econ)
        node, benefit = best_single_node(est, econ, budget)
        assert node == 1  # lowest-id clique node; each earns the whole clique
        assert benefit == 4.0

    def test_nothing_affordable(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1], costs={0: 9.0, 1: 9.0})
        est = oracle_for(g, econ)
        assert best_single_node(est, econ, 1.0) == (None, 0.0)

    def test_single_node_graph(self):
        g = make_graph(1, [])
        econ = make_economics(1, targets=[0], benefits={0: 9.0})
        est = oracle_for(g, econ)
        node, benefit = best_single_node(est, econ, 5.0)
        assert node == 0
        assert benefit == 9.0


class TestModifiedGreedy:
    def test_counterexample_instance_guarded(self):
        graph, econ, budget = isolated_vs_clique_instance(clique_size=4, eps=0.5)
        est = oracle_for(graph, econ)
        res = modified_greedy_select(est, econ, budget)
        assert res.seeds == [1]
        assert res.estimated_benefit == 4.0
        # achieved-vs-best ratio of the unguarded greedy is 1/clique_size
        unguarded = greedy_ratio_select(est, econ, budget)
        assert unguarded.estimated_benefit / res.estimated_benefit == 1.0 / 4.0

    def test_empty_target_set(self):
        g = make_graph(3, [(0, 1, 0.5)])
        econ = make_economics(3, targets=[])
        est = oracle_for(g, econ)
        res = modified_greedy_select(est, econ, 5.0)
        assert res.estimated_benefit == 0.0
        assert res.seeds == []

    def test_tie_prefers_greedy_branch(self):
        # one isolated target: both branches find it, greedy result returned
        g = make_graph(2, [])
        econ = make_economics(2, targets=[0], benefits={0: 5.0})
        est = oracle_for(g, econ)
        res = modified_greedy_select(est, econ, 3.0)
        greedy = greedy_ratio_select(est, econ, 3.0)
        assert res.seeds == greedy.seeds
        assert res.stop_reason != "single_node"


class TestLazyGreedy:
    def test_matches_eager_on_random_instances(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=16)
            est = BenefitEstimator(g, econ, samples=128, master_seed=int(rng.integers(1 << 30)))
            budget = float(rng.uniform(1, 12))
            eager = greedy_ratio_select(est, econ, budget)
            lazy = lazy_greedy_select(est, econ, budget)
            assert lazy.seeds == eager.seeds
            assert lazy.estimated_benefit == eager.estimated_benefit

    def test_counterexample_instance(self):
        graph, econ, budget = isolated_vs_clique_instance(clique_size=4, eps=0.5)
        est = oracle_for(graph, econ)
        res = lazy_greedy_select(est, econ, budget)
        assert res.seeds == [0]

    def test_never_more_evaluations_than_eager(self):
        rng = np.random.default_rng(81)
        for _ in range(15):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=16)
            seed = int(rng.integers(1 << 30))
            budget = float(rng.uniform(1, 12))
            eager_est = BenefitEstimator(g, econ, samples=64, master_seed=seed)
            eager = greedy_ratio_select(eager_est, econ, budget)
            lazy_est = BenefitEstimator(g, econ, samples=64, master_seed=seed)
            lazy = lazy_greedy_select(lazy_est, econ, budget)
            assert lazy.evaluations <= eager.evaluations

    def test_dominant_center_commits_with_one_staleness_check(self):
        # cheap dominant center; in round 2 the best stale candidate stays
        # best after one recomputation, so exactly one evaluation happens
        arcs = [(0, v, 0.1) for v in range(1, 5)]
        g = make_graph(5, arcs)
        econ = make_economics(
            5,
            targets=[1, 2, 3, 4],
            benefits={1: 10.0, 2: 5.0, 3: 4.0, 4: 3.0},
            costs={0: 0.1},
        )
        est = BenefitEstimator(g, econ, samples=500, master_seed=5)
        res = lazy_greedy_select(est, econ, 3.0)
        assert res.seeds[0] == 0
        assert res.trace[1].evaluations == 1

    def test_rejects_bad_budget(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[1])
        est = oracle_for(g, econ)
        with pytest.raises(ValueError):
            lazy_greedy_select(est, econ, 0)
        for select in (lazy_greedy_select, modified_greedy_select):
            with pytest.raises(ValueError, match="got inf"):
                select(est, econ, math.inf)

    def test_strict_mode_matches_eager(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=8, max_arcs=12)
            est = BenefitEstimator(g, econ, samples=64, master_seed=int(rng.integers(1 << 30)))
            budget = float(rng.uniform(1, 15))
            eager = greedy_ratio_select(est, econ, budget, stop_on_zero_gain=False)
            lazy = lazy_greedy_select(est, econ, budget, stop_on_zero_gain=False)
            assert lazy.seeds == eager.seeds


class TestApproximationBound:
    def test_guarantee_on_exhaustive_instances(self):
        # floor constant 1 - 1/sqrt(e) ~= 0.3935 against the enumerated optimum
        rng = np.random.default_rng(90)
        for _ in range(20):
            g, econ = random_instance(rng, max_nodes=7, max_arcs=12)
            oracle = ExactBenefitOracle(g, econ)
            budget = float(rng.uniform(1, 10))
            res = modified_greedy_select(oracle, econ, budget)
            opt = 0.0
            n = g.node_count
            for mask in range(1 << n):
                seeds = [v for v in range(n) if (mask >> v) & 1]
                if float(np.sum(econ.cost[seeds])) <= budget:
                    opt = max(opt, oracle.estimate(seeds))
            assert res.estimated_benefit >= 0.3935 * opt - 1e-12


class TestSweepMemo:
    def test_a_sweep_on_one_estimator_equals_fresh_runs(self, monkeypatch):
        # the budgets and selectors of a sweep share one estimator: its memo
        # must change no result, and a selection asked again computes nothing
        computed = []
        for name in ("_fresh_gains", "_coverage"):
            real = getattr(BenefitEstimator, name)

            def counted(self, *args, _real=real, _name=name):
                computed.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(BenefitEstimator, name, counted)
        rng = np.random.default_rng(84)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=16)
            seed = int(rng.integers(1 << 30))
            b1 = float(rng.uniform(1, 6))
            b2 = b1 + float(rng.uniform(1, 6))
            shared = BenefitEstimator(g, econ, samples=64, master_seed=seed)
            for repeat, budget in enumerate((b2, b1, b2)):
                for select in (modified_greedy_select, lazy_greedy_select):
                    fresh = BenefitEstimator(g, econ, samples=64, master_seed=seed)
                    expected = select(fresh, econ, budget)
                    computed.clear()
                    assert select(shared, econ, budget) == expected, (select.__name__, budget)
                    # lazy greedy asks a subset of what eager greedy at the same budget asked
                    if repeat == 2 or select is lazy_greedy_select:
                        assert computed == [], (select.__name__, budget)


class RecordingEstimator:
    """Estimator wrapper that logs every query as (method, seeds, node)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def evaluations(self):
        return self.inner.evaluations

    def estimate(self, seeds):
        self.calls.append(("estimate", tuple(seeds), None))
        return self.inner.estimate(seeds)

    def marginal_gain(self, seeds, u):
        self.calls.append(("marginal_gain", tuple(seeds), u))
        return self.inner.marginal_gain(seeds, u)

    def marginal_gains(self, seeds, nodes):
        # a batch is logged as one query per node, in order
        nodes = list(nodes)
        self.calls.extend(("marginal_gain", tuple(seeds), v) for v in nodes)
        return self.inner.marginal_gains(seeds, nodes)


def pinned_instance():
    g = make_graph(6, [(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.7), (3, 4, 0.4), (0, 5, 0.3), (5, 3, 0.8)])
    econ = make_economics(
        6,
        targets=[2, 3, 4, 5],
        benefits={2: 4.0, 3: 2.0, 4: 6.0, 5: 3.0},
        costs={0: 2.0, 1: 1.5, 2: 1.0, 3: 2.5, 4: 3.0, 5: 1.0},
    )
    return g, econ


class TestQuerySequence:
    def test_estimator_calls_are_pinned(self):
        # the query sequence fixes eval_count in the harness CSV; these values
        # were recorded before the selectors shared one commit loop
        g, econ = pinned_instance()
        first_round = [("marginal_gain", (), v) for v in range(6)]
        final = [("estimate", (2, 5, 3), None)]
        eager = (
            first_round
            + [("marginal_gain", (2,), v) for v in (0, 1, 3, 4, 5)]
            + [("marginal_gain", (2, 5), v) for v in (0, 1, 3)]  # node 4 no longer fits
            + final
        )
        lazy = (
            first_round
            + [("marginal_gain", (2,), 5)]
            + [("marginal_gain", (2, 5), v) for v in (1, 0, 3)]
            + final
        )
        guarded = eager + [("estimate", (v,), None) for v in range(6)]
        expected = [
            (greedy_ratio_select, eager, [6, 5, 3]),
            (lazy_greedy_select, lazy, [6, 1, 3]),
            (modified_greedy_select, guarded, [6, 5, 3]),
        ]
        for select, calls, per_entry in expected:
            rec = RecordingEstimator(BenefitEstimator(g, econ, samples=64, master_seed=5))
            res = select(rec, econ, 4.5)
            assert rec.calls == calls, select.__name__
            assert [t.evaluations for t in res.trace] == per_entry, select.__name__
            assert res.seeds == [2, 5, 3]
            assert res.evaluations == len(calls)
            assert res.stop_reason == "budget_exhausted"

    def test_the_stopping_pick_and_the_estimate_are_counted(self):
        # at budget 10 every target is seeded with 2.5 left, and the pick that
        # finds only zero gains among nodes 0 and 1 queries before it stops;
        # no trace entry carries those queries or the final estimate
        g, econ = pinned_instance()
        for select in (greedy_ratio_select, lazy_greedy_select, modified_greedy_select):
            rec = RecordingEstimator(BenefitEstimator(g, econ, samples=64, master_seed=5))
            res = select(rec, econ, 10.0)
            assert res.stop_reason == "zero_gain", select.__name__
            assert res.evaluations == len(rec.calls), select.__name__
            assert sum(t.evaluations for t in res.trace) < len(rec.calls) - 1, select.__name__
