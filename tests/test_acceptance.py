"""Exit-criteria suite. Each test enforces one acceptance criterion at its
stated tolerance and prints a PASS/FAIL line (run with `pytest -s` to see
them inline).
"""

import contextlib
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ebmax.baselines import max_degree_select
from ebmax.cli import main as cli_main
from ebmax.diffusion import BenefitEstimator
from ebmax.graph import (
    assign_economics,
    assign_probabilities,
    load_edge_list,
)
from ebmax.greedy import (
    greedy_ratio_select,
    lazy_greedy_select,
    modified_greedy_select,
)
from ebmax.harness import derive_seed, generate_synthetic
from ebmax.hop import HopConfig, compute_scores, hop_based_select

from helpers import (
    ExactBenefitOracle,
    influence_probability,
    isolated_vs_clique_instance,
    make_economics,
    make_graph,
    per_sample_benefits,
    random_instance,
    random_subset_triple,
)
from test_hop import disjoint_paths_instance, reachability_oracle


@contextlib.contextmanager
def criterion(label):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        print(f"[{status}] {label}", flush=True)


def pa_graph(tmp_path, nodes, arcs_per_node, seed):
    path = str(tmp_path / f"pa_{nodes}_{seed}.txt")
    generate_synthetic("preferential", nodes, arcs_per_node, seed=seed, path=path)
    return load_edge_list(path, directed=False)


def test_criterion_1_estimator_matches_exhaustive_expectation(tmp_path):
    with criterion("1: Monte Carlo estimate within 4 stderr of exhaustive expectation, <60s"):
        rng = np.random.default_rng(1001)
        R = 20_000
        start = time.perf_counter()
        for i in range(50):
            graph, econ = random_instance(rng, max_nodes=8, max_arcs=12)
            est = BenefitEstimator(graph, econ, samples=R, master_seed=int(rng.integers(1 << 30)))
            oracle = ExactBenefitOracle(graph, econ)
            for _ in range(2):
                size = int(rng.integers(1, min(4, graph.node_count + 1)))
                seeds = sorted(rng.choice(graph.node_count, size=size, replace=False).tolist())
                exact = oracle.estimate(seeds)
                vals = per_sample_benefits(est, seeds)
                spread = float(np.std(vals, ddof=1))
                tol = 4.0 * spread / math.sqrt(R) + 1e-12
                err = abs(est.estimate(seeds) - exact)
                assert err <= tol, f"graph {i}: error {err} exceeds {tol}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_monotone_and_submodular():
    with criterion("2: 1000 monotonicity/submodularity triples, zero failures"):
        rng = np.random.default_rng(1002)
        checked = 0
        while checked < 1000:
            graph, econ = random_instance(rng, max_nodes=12, max_arcs=20)
            est = BenefitEstimator(graph, econ, samples=256, master_seed=int(rng.integers(1 << 30)))
            for _ in range(100):
                S, T, u = random_subset_triple(rng, graph.node_count)
                beta_s = est.estimate(S)
                beta_t = est.estimate(T)
                assert beta_s >= 0.0 and beta_t >= 0.0
                assert beta_s <= beta_t  # exact: coverage per sample, fsum reduction
                assert est.marginal_gain(S, u) >= est.marginal_gain(T, u) - 1e-9
                checked += 1
                if checked == 1000:
                    break


def test_criterion_3_counterexample_regression():
    with criterion("3: ratio greedy earns 1, safeguarded greedy earns 4, ratio 1/p"):
        clique_size = 4
        graph, econ, budget = isolated_vs_clique_instance(clique_size=clique_size, eps=0.5)
        oracle = ExactBenefitOracle(graph, econ)
        plain = greedy_ratio_select(oracle, econ, budget)
        assert plain.seeds == [0]
        assert plain.estimated_benefit == 1.0
        guarded = modified_greedy_select(oracle, econ, budget)
        assert guarded.seeds == [1]  # a clique node
        assert guarded.estimated_benefit == 4.0
        assert plain.estimated_benefit / guarded.estimated_benefit == 1.0 / clique_size


def test_criterion_4_approximation_floor():
    with criterion("4: safeguarded greedy >= 0.3935 * enumerated optimum on 100 instances, <5min"):
        rng = np.random.default_rng(1004)
        start = time.perf_counter()
        spent_fractions = []
        for i in range(100):
            graph, econ = random_instance(rng, max_nodes=9, max_arcs=12)
            oracle = ExactBenefitOracle(graph, econ)
            total_cost = float(np.sum(econ.cost))
            budget = float(rng.uniform(0.8, 0.7 * total_cost))
            res = modified_greedy_select(oracle, econ, budget)
            opt = 0.0
            n = graph.node_count
            cost = econ.cost
            for mask in range(1 << n):
                members = [v for v in range(n) if (mask >> v) & 1]
                if float(np.sum(cost[members])) <= budget:
                    opt = max(opt, oracle.estimate(members))
            assert res.estimated_benefit >= 0.3935 * opt - 1e-12, (
                f"instance {i}: {res.estimated_benefit} < 0.3935 * {opt}"
            )
            spent_fractions.append(res.spent / budget)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        # reported, not asserted: how much of the budget the winner spends
        frac = np.array(spent_fractions)
        print(
            f"    spent/budget over instances: min={frac.min():.3f} "
            f"median={np.median(frac):.3f} max={frac.max():.3f}",
            flush=True,
        )


def test_criterion_5_lazy_equals_eager_with_fewer_evaluations(tmp_path):
    with criterion("5: lazy == eager on 200 instances; strictly fewer evaluations at n=1000"):
        rng = np.random.default_rng(1005)
        for _ in range(200):
            graph, econ = random_instance(rng, max_nodes=30, max_arcs=60)
            est = BenefitEstimator(graph, econ, samples=64, master_seed=int(rng.integers(1 << 30)))
            budget = float(rng.uniform(1.0, 15.0))
            eager = greedy_ratio_select(est, econ, budget)
            lazy = lazy_greedy_select(est, econ, budget)
            assert lazy.seeds == eager.seeds
            assert lazy.evaluations <= eager.evaluations

        graph = pa_graph(tmp_path, 1000, 3, seed=42)
        graph = assign_probabilities(graph, 0.1, seed=1)
        econ = assign_economics(graph, "random", 0.2, seed=2)
        est_eager = BenefitEstimator(graph, econ, samples=50, master_seed=3)
        est_lazy = BenefitEstimator(graph, econ, samples=50, master_seed=3)
        budget = 150.0
        eager = greedy_ratio_select(est_eager, econ, budget)
        lazy = lazy_greedy_select(est_lazy, econ, budget)
        assert lazy.seeds == eager.seeds
        assert lazy.evaluations < eager.evaluations, (
            f"lazy {lazy.evaluations} not below eager {eager.evaluations}"
        )
        print(
            f"    evaluations at n=1000: eager={eager.evaluations} lazy={lazy.evaluations}",
            flush=True,
        )


def test_criterion_6_hop_influence_and_scores():
    with criterion("6: hop influence matches reachability oracle; scores match hand values"):
        rng = np.random.default_rng(1006)
        for _ in range(50):
            hops = int(rng.integers(1, 4))
            graph, expected = disjoint_paths_instance(rng, hops)
            got = influence_probability(graph, 0, 1, hops)
            oracle = reachability_oracle(graph, 0, 1)
            assert abs(got - oracle) <= 1e-9
            assert abs(got - expected) <= 1e-9

        # three-node fixtures, hand-evaluated
        lone = make_graph(3, [(1, 2, 0.5)])
        lone_econ = make_economics(3, targets=[0], benefits={0: 10.0}, costs={0: 2.0})
        table = compute_scores(lone, lone_econ, HopConfig(2, 0.1))
        assert table.score.tolist() == [5.0, 0.0, 0.0]

        feeder = make_graph(3, [(0, 1, 0.2)])
        feeder_econ = make_economics(3, targets=[1], benefits={1: 10.0})
        table = compute_scores(feeder, feeder_econ, HopConfig(2, 0.1))
        assert abs(table.expected_benefit[0] - 2.0) <= 1e-12  # 0.2 * 10
        assert table.expected_benefit[1] == 10.0
        assert table.expected_benefit[2] == 0.0


def test_criterion_7_proposed_methods_dominate_max_degree(tmp_path):
    with criterion("7: IGAIP and HBH beat MAX_DEG mean held-out benefit at every budget"):
        graph = pa_graph(tmp_path, 2000, 3, seed=0)
        graph = assign_probabilities(graph, 0.1, seed=derive_seed(0, 1))
        budgets = [200.0, 400.0, 800.0, 1600.0]
        hop_cfg = HopConfig(2, 0.1)
        totals = {(b, a): 0.0 for b in budgets for a in ("igaip", "hbh", "maxdeg")}
        for master in range(5):
            econ = assign_economics(graph, "random", 0.2, seed=derive_seed(master, 2))
            selector = BenefitEstimator(graph, econ, samples=120, master_seed=derive_seed(master, 3))
            heldout = BenefitEstimator(graph, econ, samples=400, master_seed=derive_seed(master, 4))
            for budget in budgets:
                picks = {
                    "igaip": lazy_greedy_select(selector, econ, budget),
                    "hbh": hop_based_select(graph, econ, hop_cfg, budget),
                    "maxdeg": max_degree_select(graph, econ, budget),
                }
                for name, res in picks.items():
                    totals[(budget, name)] += heldout.estimate(res.seeds)
        for budget in budgets:
            igaip = totals[(budget, "igaip")] / 5
            hbh = totals[(budget, "hbh")] / 5
            maxdeg = totals[(budget, "maxdeg")] / 5
            print(f"    B={budget:.0f}: igaip={igaip:.0f} hbh={hbh:.0f} maxdeg={maxdeg:.0f}", flush=True)
            assert igaip >= maxdeg
            assert hbh >= maxdeg


def test_criterion_8_hop_heuristic_scale_envelope(tmp_path):
    with criterion("8: hop heuristic on 50k nodes: scoring+selection <120s, <2GB"):
        path = str(tmp_path / "big.txt")
        generate_synthetic("random", 50_000, 15.0, seed=7, path=path)
        graph = load_edge_list(path, directed=False)
        graph = assign_probabilities(graph, 0.1, seed=1)
        econ = assign_economics(graph, "random", 0.2, seed=2)
        config = HopConfig(hops=2, cutoff=0.1)
        start = time.perf_counter()
        compute_scores(graph, econ, config)
        res = hop_based_select(graph, econ, config, 5000.0)
        elapsed = time.perf_counter() - start
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        print(f"    scoring+selection {elapsed:.1f}s, {len(res.seeds)} seeds, peak {peak_gb:.2f} GB", flush=True)
        assert elapsed < 120.0
        assert peak_gb < 2.0


def test_criterion_9_harness_determinism(tmp_path):
    with criterion("9: byte-identical CSV across fresh-process reruns"):
        graph = str(tmp_path / "g.txt")
        assert cli_main(["gen", "--kind", "preferential", "--nodes", "120", "--param", "2",
                         "--seed", "11", "--out", graph]) == 0
        outputs = {}
        for tag in ("a", "b"):
            out = str(tmp_path / f"{tag}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "ebmax.cli",
                 "run", "--graph", graph, "--prob", "uniform:0.1", "--econ", "random",
                 "--budgets", "60,120", "--algos", "igaip,hbh,maxdeg,degdis,sindis",
                 "--samples", "128", "--seed", "9", "--reps", "2",
                 "--no-timing", "--out", out],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs[tag] = Path(out).read_bytes()
        assert outputs["a"] == outputs["b"], "rerun changed the CSV"
