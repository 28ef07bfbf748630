import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebmax import cli, harness
from ebmax.cli import main as cli_main
from ebmax.diffusion import BenefitEstimator
from ebmax.graph import (
    assign_economics,
    assign_probabilities,
    load_edge_list,
)
from ebmax.harness import (
    CSV_HEADER,
    DEFAULT_BUDGETS_RANDOM,
    ConfigError,
    ExperimentConfig,
    derive_seed,
    generate_synthetic,
    run_experiment,
    write_csv,
)


@pytest.fixture
def small_graph_file(tmp_path):
    path = tmp_path / "toy.txt"
    rng = np.random.default_rng(1)
    lines = set()
    for _ in range(60):
        u, v = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        if u != v:
            lines.add((min(u, v), max(u, v)))
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(lines)))
    return str(path)


def quick_config(graph_path, out, **overrides):
    base = dict(
        graph_path=graph_path,
        directed=False,
        probability="uniform:0.2",
        economics="random",
        budgets=(40.0,),
        algorithms=("igaip", "hbh", "maxdeg"),
        samples=60,
        master_seed=5,
        repetitions=2,
        output_path=out,
        record_timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_cell(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        config = quick_config(small_graph_file, out, algorithms=("igaip",))
        rows = run_experiment(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.spent <= row.budget
        assert row.algorithm == "igaip"
        assert row.prob_setting == "U" and row.cost_setting == "R"
        assert os.path.exists(out)

    def test_cartesian_row_count(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        budgets = tuple(float(b) for b in range(2000, 16001, 2000))
        config = quick_config(
            small_graph_file,
            out,
            budgets=budgets,
            algorithms=("igaip", "hbh", "maxdeg", "degdis", "sindis"),
            samples=20,
            repetitions=1,
        )
        rows = run_experiment(config)
        assert len(rows) == 40
        assert [r.budget for r in rows[:5]] == [2000.0] * 5

    def test_byte_identical_reruns(self, small_graph_file, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_experiment(quick_config(small_graph_file, out1))
        run_experiment(quick_config(small_graph_file, out2))
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_golden_csv_digest(self, tmp_path):
        # sha256 of this sweep's CSV, recorded before the greedy selectors asked
        # for a round's gains in one batch: a change to the query order, the
        # tie-breaking or eval_count changes the bytes
        graph, out = tmp_path / "g.txt", tmp_path / "r.csv"
        generate_synthetic("preferential", 150, 2, 3, str(graph))
        assert cli_main(["run", "--graph", str(graph), "--prob", "trivalency", "--econ", "degprop",
                         "--budgets", "5,15", "--algos", "igaag,igaip,hbh", "--samples", "40",
                         "--seed", "7", "--reps", "2", "--no-timing", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "4d5f409230a3b055c58d1d8141555cb4a99bf9ce49a09e2275dc726aea7803ca"

    @pytest.mark.parametrize(
        "hop_args, want",
        [
            (("--hop", "1", "--alpha", "0"), "ee931906dedd1ddbdb408ef097d59f606198f1067d16f387ded65d6458dfa72a"),
            (("--hop", "3"), "43efeebab572a7bb26c64024e56b8a5b350f214f5e023f2d690f09fb3021c0f2"),
        ],
    )
    def test_golden_hbh_csv_digest(self, tmp_path, hop_args, want):
        # sha256 of an hbh-only sweep's CSV, recorded while hop scoring still
        # walked each target's neighborhood through per-node dicts: a kernel
        # that moves one score across a rank boundary changes the bytes
        graph, out = tmp_path / "g.txt", tmp_path / "r.csv"
        generate_synthetic("preferential", 300, 3, 5, str(graph))
        assert cli_main(["run", "--graph", str(graph), "--prob", "uniform:0.2", "--econ", "degprop",
                         "--budgets", "5,20,80", "--algos", "hbh", "--samples", "40", "--seed", "7",
                         "--reps", "2", "--no-timing", "--out", str(out), *hop_args]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    @pytest.mark.parametrize(
        "kind, setting, directed, want",
        [
            ("preferential", "uniform:0.1", False, "535bab8b9673ca3220fe9cdaedc8447fcdba7fd0111dbe2542397a2ac62e15e5"),
            ("preferential", "file", False, "6a25cd58302921683dee52cb4d92e914a3126311438d196af5c7d723e2ef79ae"),
            ("random", "trivalency", True, "9b7d34c6da80fc967498c88c959f59049f17c933ff61161d04d776f670adbf47"),
        ],
    )
    def test_golden_setting_csv_digest(self, tmp_path, kind, setting, directed, want):
        # sha256 of a random-economics sweep under each probability setting,
        # recorded while the settings were still dispatched through scheme
        # classes: a change to an assignment draw, its order or the degdis
        # discount under uniform:P changes the bytes
        graph, out = tmp_path / "g.txt", tmp_path / "r.csv"
        generate_synthetic(kind, 200, 3, 9, str(graph))
        if setting == "file":  # a third column of probabilities 0.05 to 0.2
            edges = [line.split() for line in graph.read_text().splitlines()[1:]]
            graph.write_text("".join(f"{u} {v} {0.05 * (1 + (int(u) + int(v)) % 4)}\n" for u, v in edges))
        flags = ["--directed"] if directed else []
        assert cli_main(["run", "--graph", str(graph), "--prob", setting, "--econ", "random",
                         "--budgets", "60,250", "--algos", "igaip,hbh,maxdeg,degdis,sindis",
                         "--samples", "40", "--seed", "7", "--reps", "2", "--no-timing",
                         "--out", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_unknown_algorithm_rejected(self, small_graph_file, tmp_path):
        config = quick_config(small_graph_file, str(tmp_path / "r.csv"), algorithms=("nope",))
        with pytest.raises(ConfigError, match="unknown algorithm"):
            run_experiment(config)

    def test_unreadable_graph_rejected(self, tmp_path):
        config = quick_config(str(tmp_path / "missing.txt"), str(tmp_path / "r.csv"))
        with pytest.raises(ConfigError, match="cannot read"):
            run_experiment(config)

    def test_eager_greedy_gated_on_large_graphs(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("".join(f"{i} {i + 1}\n" for i in range(5100)))
        config = quick_config(str(big), str(tmp_path / "r.csv"), algorithms=("igaag",))
        with pytest.raises(ConfigError, match="igaag"):
            run_experiment(config)

    def test_default_budget_sweeps(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        rows = run_experiment(
            quick_config(small_graph_file, out, budgets=(), algorithms=("maxdeg",), samples=10,
                         repetitions=1)
        )
        assert sorted({r.budget for r in rows}) == [float(b) for b in range(2000, 16001, 2000)]
        rows = run_experiment(
            quick_config(small_graph_file, out, budgets=(), algorithms=("maxdeg",), samples=10,
                         repetitions=1, economics="degprop")
        )
        assert sorted({r.budget for r in rows}) == [float(b) for b in range(100, 801, 100)]

    def test_heldout_evaluation_matches_manual_recompute(self, small_graph_file, tmp_path):
        # final benefit must come from the held-out estimators, not the
        # selection-time one: rebuild them and compare exactly
        out = str(tmp_path / "r.csv")
        config = quick_config(small_graph_file, out, algorithms=("maxdeg",), repetitions=3)
        rows = run_experiment(config)

        graph = load_edge_list(small_graph_file, directed=False)
        graph = assign_probabilities(graph, 0.2, seed=derive_seed(5, 1))
        econ = assign_economics(graph, "random", 0.2, seed=derive_seed(5, 2))
        from ebmax.baselines import max_degree_select

        res = max_degree_select(graph, econ, 40.0)
        finals = []
        for r in range(3):
            est = BenefitEstimator(graph, econ, samples=60, master_seed=derive_seed(5, 4, r))
            finals.append(est.estimate(res.seeds))
        mean = math.fsum(finals) / 3
        assert rows[0].benefit_mean == mean
        selection_est = BenefitEstimator(graph, econ, samples=60, master_seed=derive_seed(5, 3))
        assert selection_est.estimate(res.seeds) != mean  # distinct sample sets

    def test_selection_worlds_only_for_greedy(self, small_graph_file, tmp_path, monkeypatch):
        # the held-out estimators are always built; the selection-time one
        # only when a greedy selector will query it. eval_count is each
        # result's own count of its queries.
        from ebmax import baselines, greedy, harness, hop

        built = []

        class Counting(harness.BenefitEstimator):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["master_seed"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "BenefitEstimator", Counting)
        results = []
        for module, name in (
            (greedy, "lazy_greedy_select"),
            (hop, "hop_based_select"),
            (baselines, "max_degree_select"),
        ):
            def recording(*args, _select=getattr(module, name), **kwargs):
                results.append(_select(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(module, name, recording)

        reps = 3
        out = str(tmp_path / "r.csv")
        for algorithms, estimators in ((("maxdeg", "hbh"), reps), (("igaip", "maxdeg"), reps + 1)):
            built.clear()
            results.clear()
            rows = run_experiment(
                quick_config(small_graph_file, out, algorithms=algorithms, repetitions=reps,
                             budgets=(20.0, 40.0))
            )
            assert len(built) == estimators, algorithms
            assert [r.eval_count for r in rows] == [res.evaluations for res in results]
            for row in rows:
                assert (row.eval_count > 0) == (row.algorithm == "igaip"), row

    def test_heldout_estimators_built_after_selection_one_at_a_time(
        self, small_graph_file, tmp_path, monkeypatch
    ):
        # every row is selected before the first held-out estimator is built,
        # and each rep's estimator is gone before the next one is built
        from ebmax import baselines, greedy, harness, hop

        events = []
        alive = weakref.WeakSet()
        heldout_seeds = {derive_seed(5, 4, r): r for r in range(3)}

        class Spy(harness.BenefitEstimator):
            def __init__(self, *args, **kwargs):
                rep = heldout_seeds.get(kwargs["master_seed"])
                if rep is not None:
                    events.append(("heldout", rep, len(alive)))
                    alive.add(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "BenefitEstimator", Spy)
        for module, name in (
            (greedy, "lazy_greedy_select"),
            (hop, "hop_based_select"),
            (baselines, "max_degree_select"),
        ):
            def recording(*args, _select=getattr(module, name), _name=name, **kwargs):
                events.append(("select", _name, None))
                return _select(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        out = str(tmp_path / "r.csv")
        run_experiment(quick_config(small_graph_file, out, repetitions=3, budgets=(20.0, 40.0)))
        assert [e[0] for e in events] == ["select"] * 6 + ["heldout"] * 3
        assert events[6:] == [("heldout", r, 0) for r in range(3)]
        assert not alive

    def test_hop_scores_once_per_sweep(self, small_graph_file, tmp_path, monkeypatch):
        # the score table does not depend on the budget: a sweep scores once,
        # inside its first hbh call, and writes the rows per-budget scoring would
        from ebmax import hop

        select, score = hop.hop_based_select, hop.compute_scores
        selects = 0
        running = []  # number of the hbh call in progress
        scored_in = []  # the hbh call each scoring ran inside, or None

        def spy_select(*args, **kwargs):
            nonlocal selects
            selects += 1
            running.append(selects)
            try:
                return select(*args, **kwargs)
            finally:
                running.pop()

        def spy_score(*args, **kwargs):
            scored_in.append(running[-1] if running else None)
            return score(*args, **kwargs)

        monkeypatch.setattr(hop, "hop_based_select", spy_select)
        monkeypatch.setattr(hop, "compute_scores", spy_score)
        config = dict(algorithms=("hbh", "maxdeg"), budgets=(10.0, 20.0, 40.0))
        shared = str(tmp_path / "shared.csv")
        run_experiment(quick_config(small_graph_file, shared, **config))
        assert selects == 3
        assert scored_in == [1]

        def per_budget(*args, **kwargs):
            kwargs.pop("cache")
            return select(*args, **kwargs)

        scored_in.clear()
        monkeypatch.setattr(hop, "hop_based_select", per_budget)
        fresh = str(tmp_path / "fresh.csv")
        run_experiment(quick_config(small_graph_file, fresh, **config))
        assert len(scored_in) == 3
        with open(shared, "rb") as a, open(fresh, "rb") as b:
            assert a.read() == b.read()

    def test_a_rows_heldout_value_does_not_depend_on_the_other_rows(self, tmp_path, monkeypatch):
        # a held-out estimator indexes the union of the sweep's seeds, so its
        # pass starts from other roots in a sweep than in a run of one row;
        # each row's mean and std must still be bit for bit those of its own
        # run. Trivalency on a sparse random graph keeps cascades subcritical,
        # where the rooted pass visits least of each world
        indexed = []

        class Spy(harness.BenefitEstimator):
            def __init__(self, *args, **kwargs):
                if kwargs.get("nodes") is not None:
                    indexed.append(set(kwargs["nodes"]))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "BenefitEstimator", Spy)
        graph = str(tmp_path / "er.txt")
        generate_synthetic("random", 400, 4, 3, graph)
        config = dict(probability="trivalency", samples=40, repetitions=3)
        budgets, algorithms = (30.0, 120.0), ("igaip", "hbh", "maxdeg", "degdis", "sindis")
        sweep = run_experiment(quick_config(graph, str(tmp_path / "sweep.csv"), budgets=budgets,
                                            algorithms=algorithms, **config))
        union = indexed[0]
        assert indexed == [union] * 3
        for row in sweep:
            indexed.clear()
            (alone,) = run_experiment(quick_config(graph, str(tmp_path / "one.csv"), budgets=(row.budget,),
                                                   algorithms=(row.algorithm,), **config))
            assert len(indexed[0]) == row.seed_count < len(union) and indexed[0] <= union
            assert alone == row, (row.algorithm, row.budget)
            assert alone.benefit_mean.hex() == row.benefit_mean.hex()
            assert alone.benefit_std.hex() == row.benefit_std.hex()

    def test_a_sweep_of_empty_rows_writes_zero_benefits(self, tmp_path):
        # a budget below every cost (random costs start at 1) leaves every row
        # without seeds, so each held-out estimator is built over no nodes
        graph = str(tmp_path / "g.txt")
        generate_synthetic("preferential", 60, 2, 1, graph)
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--graph", graph, "--budgets", "0.5,0.9",
                         "--algos", "igaip,hbh,maxdeg,degdis,sindis", "--samples", "20", "--reps", "2",
                         "--seed", "3", "--no-timing", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        for row in rows:
            assert (row["seed_count"], row["spent"]) == ("0", "0.0")
            assert (row["benefit_mean"], row["benefit_std"]) == ("0.0", "0.0")

    def test_fairness_same_seeds_same_numbers(self, tmp_path):
        # on a one-edge graph maxdeg and sindis pick identical seed sets, so
        # their held-out numbers must agree exactly
        path = tmp_path / "edgeless.txt"
        path.write_text("0 1\n")  # loader needs an arc; nodes 0 and 1 only
        out = str(tmp_path / "r.csv")
        # half of the two nodes is one target (a sweep without targets is refused)
        config = quick_config(
            str(path), out, algorithms=("maxdeg", "sindis"), budgets=(100.0,), target_fraction=0.5
        )
        rows = run_experiment(config)
        assert rows[0].benefit_mean > 0.0
        assert rows[0].benefit_mean == rows[1].benefit_mean
        assert rows[0].benefit_std == rows[1].benefit_std

    def test_trivalency_degprop_setting_codes(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        rows = run_experiment(
            quick_config(
                small_graph_file,
                out,
                probability="trivalency",
                economics="degprop",
                budgets=(8.0,),
                algorithms=("degdis", "hbh"),
                samples=30,
                repetitions=1,
            )
        )
        assert all(r.prob_setting == "T" and r.cost_setting == "D" for r in rows)
        assert all(r.spent <= r.budget for r in rows)

    def test_csv_roundtrip(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        rows = run_experiment(quick_config(small_graph_file, out))
        lines = [CSV_HEADER] + [row.as_csv() for row in rows]
        assert Path(out).read_bytes() == "".join(f"{line}\n" for line in lines).encode("utf-8")

    def test_failed_write_leaves_no_temp_file(self, small_graph_file, tmp_path):
        rows = run_experiment(quick_config(small_graph_file, str(tmp_path / "r.csv")))
        blocked = tmp_path / "out"
        blocked.mkdir()  # the rename onto a directory fails
        with pytest.raises(IsADirectoryError):
            write_csv(rows, str(blocked))
        assert not os.path.exists(f"{blocked}.tmp")

    def test_csv_quotes_a_dataset_name_with_separators(self, small_graph_file, tmp_path):
        # a graph file named with a comma once gave 12 fields under the 11-field header
        name = 'my,"odd"\ngraph\rname'
        graph = tmp_path / f"{name}.txt"
        graph.write_text(Path(small_graph_file).read_text())
        out = tmp_path / "r.csv"
        run_experiment(quick_config(str(graph), str(out), algorithms=("maxdeg", "hbh")))
        with open(out, newline="", encoding="utf-8") as handle:
            records = list(csv.reader(handle))
        assert records[0] == CSV_HEADER.split(",")
        assert [len(record) for record in records] == [11] * 3
        assert [record[0] for record in records[1:]] == [name, name]

    def test_csv_header_fixed(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        run_experiment(quick_config(small_graph_file, out, algorithms=("maxdeg",)))
        with open(out) as handle:
            first = handle.readline().rstrip("\n")
        assert first == CSV_HEADER == (
            "dataset,algorithm,prob_setting,cost_setting,budget,seed_count,"
            "spent,benefit_mean,benefit_std,eval_count,seconds"
        )

    def test_validation_errors(self, small_graph_file, tmp_path):
        out = str(tmp_path / "r.csv")
        for bad in (-5.0, math.inf, 1e400, math.nan):
            with pytest.raises(ConfigError, match=f"got {bad}"):
                run_experiment(quick_config(small_graph_file, out, budgets=(40.0, bad)))
        with pytest.raises(ConfigError, match="--seed"):
            run_experiment(quick_config(small_graph_file, out, master_seed=-1))
        with pytest.raises(ConfigError):
            run_experiment(quick_config(small_graph_file, out, samples=0))
        with pytest.raises(ConfigError):
            run_experiment(quick_config(small_graph_file, out, probability="lognormal"))
        with pytest.raises(ConfigError):
            run_experiment(quick_config(small_graph_file, out, economics="flat"))


class TestGenerateSynthetic:
    def test_random_edge_count_near_expectation(self, tmp_path):
        # ~n*d/2 = 500 undirected edges; binomial std ~21, allow wide margin
        path = str(tmp_path / "g.txt")
        generate_synthetic("random", 100, 10.0, seed=3, path=path)
        g = load_edge_list(path, directed=False)
        assert 350 <= g.arc_count // 2 <= 650

    def test_single_node_empty(self, tmp_path):
        path = str(tmp_path / "g.txt")
        generate_synthetic("random", 1, 5.0, seed=0, path=path)
        with open(path) as handle:
            content = [l for l in handle if not l.startswith("#")]
        assert content == []

    def test_deterministic_files(self, tmp_path):
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        generate_synthetic("preferential", 200, 3, seed=9, path=p1)
        generate_synthetic("preferential", 200, 3, seed=9, path=p2)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_preferential_structure(self, tmp_path):
        path = str(tmp_path / "g.txt")
        generate_synthetic("preferential", 50, 2, seed=4, path=path)
        g = load_edge_list(path, directed=False)
        assert g.node_count == 50
        assert g.arc_count // 2 == (50 - 2) * 2  # every new node adds 2 edges

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic("smallworld", 10, 2, seed=0, path=str(tmp_path / "g.txt"))


class TestCli:
    def test_gen_and_run_roundtrip(self, tmp_path):
        graph = str(tmp_path / "g.txt")
        out = str(tmp_path / "r.csv")
        assert cli_main(["gen", "--kind", "preferential", "--nodes", "60", "--param", "2",
                         "--seed", "1", "--out", graph]) == 0
        code = cli_main([
            "run", "--graph", graph, "--prob", "uniform:0.1", "--econ", "random",
            "--budgets", "30", "--algos", "hbh,maxdeg", "--samples", "30", "--seed", "2",
            "--reps", "2", "--out", out, "--no-timing",
        ])
        assert code == 0
        with open(out) as handle:
            assert handle.readline().rstrip("\n") == CSV_HEADER

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "r.csv")
        code = cli_main([
            "run", "--graph", str(tmp_path / "nope.txt"), "--out", out,
        ])
        assert code == 2

    def test_unknown_algo_exit_code(self, tmp_path):
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        code = cli_main([
            "run", "--graph", graph, "--algos", "wizardry", "--budgets", "5",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_bad_hop_config_exit_code(self, tmp_path):
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        code = cli_main([
            "run", "--graph", graph, "--algos", "hbh", "--budgets", "5",
            "--hop", "0", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_bad_budget_and_seed_exit_code(self, tmp_path, capsys):
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        base = ["run", "--graph", graph, "--algos", "maxdeg", "--samples", "5", "--reps", "1",
                "--out", str(tmp_path / "r.csv")]
        for extra, named in (
            (["--budgets", "inf"], "got inf"),
            (["--budgets", "5,1e400"], "got inf"),
            (["--budgets", "5", "--seed", "-1"], "--seed"),
        ):
            assert cli_main(base + extra) == 2, extra
            assert named in capsys.readouterr().err, extra
        assert not os.path.exists(tmp_path / "r.csv")

    def test_no_targets_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "three.txt"
        graph.write_text("0 1\n1 2\n")  # floor(0.2 * 3) = 0 targets
        out = tmp_path / "r.csv"
        base = ["run", "--graph", str(graph), "--algos", "maxdeg", "--budgets", "5",
                "--samples", "5", "--reps", "1", "--out", str(out)]
        for econ in ("random", "degprop"):
            assert cli_main(base + ["--econ", econ]) == 2, econ
            err = capsys.readouterr().err
            assert "--target-frac 0.2 of 3 nodes" in err, err
        assert not out.exists()
        assert cli_main(base + ["--target-frac", "0.34"]) == 0

    def test_no_nodes_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "empty.txt"
        graph.write_text("# no edges\n")
        out = tmp_path / "r.csv"
        for econ in ("random", "degprop"):
            code = cli_main(["run", "--graph", str(graph), "--econ", econ, "--algos", "maxdeg",
                             "--budgets", "5", "--samples", "5", "--reps", "1", "--out", str(out)])
            assert code == 2, econ
            err = capsys.readouterr().err
            assert "--target-frac 0.2 of 0 nodes" in err, err
        assert not out.exists()

    def test_gen_fractional_preferential_param_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        for param in ("2.7", "inf", "nan"):
            code = cli_main(["gen", "--kind", "preferential", "--nodes", "20", "--param", param,
                             "--out", str(graph)])
            assert code == 2, param
            assert f"got {param}" in capsys.readouterr().err
        assert not graph.exists()
        assert cli_main(["gen", "--kind", "preferential", "--nodes", "20", "--param", "3.0",
                         "--out", str(graph)]) == 0

    def test_gen_random_param_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        for param, named in (("nan", "got nan"), ("inf", "got inf"), ("-1", "got -1.0")):
            code = cli_main(["gen", "--kind", "random", "--nodes", "6", "--param", param,
                             "--out", str(graph)])
            assert code == 2, param
            assert named in capsys.readouterr().err, param
        assert not graph.exists()
        assert cli_main(["gen", "--kind", "random", "--nodes", "6", "--param", "0",
                         "--out", str(graph)]) == 0

    def test_node_id_beyond_int64_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        out = tmp_path / "r.csv"
        base = ["run", "--graph", str(graph), "--target-frac", "0.5", "--algos", "maxdeg",
                "--budgets", "5", "--samples", "5", "--reps", "1", "--out", str(out)]
        graph.write_text("0 1\n# largest int64 next\n1 9223372036854775807\n2 9223372036854775808\n")
        assert cli_main(base) == 2
        assert "line 4: node id 9223372036854775808 exceeds the int64 range" in capsys.readouterr().err
        assert not out.exists()
        graph.write_text("0 1\n1 9223372036854775807\n")
        assert cli_main(base) == 0

    def test_runtime_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a failure after the sweep has run: the CSV write itself
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])

        def failing_write(rows, path):
            raise OSError(f"disk full writing {len(rows)} rows")

        monkeypatch.setattr(harness, "write_csv", failing_write)
        code = cli_main([
            "run", "--graph", graph, "--algos", "maxdeg", "--budgets", "5",
            "--samples", "5", "--reps", "1", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 3
        assert "disk full writing 1 rows" in capsys.readouterr().err

    def test_unwritable_out_exit_code_before_the_sweep(self, tmp_path, capsys):
        # the graph file does not exist either: --out is checked before it is read
        base = ["run", "--graph", str(tmp_path / "nope.txt"), "--algos", "maxdeg",
                "--budgets", "5", "--samples", "5", "--reps", "1"]
        for out in (tmp_path / "no_such_dir" / "r.csv", tmp_path):
            assert cli_main(base + ["--out", str(out)]) == 2, out
            err = capsys.readouterr().err
            assert f"--out {out}" in err, err
            assert "cannot read graph file" not in err, err

    def test_read_only_out_directory_exit_code_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        # a chmod is not enforced for root, so the permission check is faked
        real_access = os.access
        checked = []

        def access(path, mode):
            if path == str(tmp_path):
                checked.append(mode)
                return False
            return real_access(path, mode)

        monkeypatch.setattr(harness.os, "access", access)
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--graph", str(tmp_path / "nope.txt"), "--algos", "maxdeg",
                         "--budgets", "5", "--samples", "5", "--reps", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--out {out}" in err and "not writable" in err, err
        assert "cannot read graph file" not in err, err
        assert checked == [os.W_OK | os.X_OK]
        assert not out.exists()

    def test_repeated_value_exit_code(self, tmp_path, capsys):
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        out = tmp_path / "r.csv"
        base = ["run", "--graph", graph, "--samples", "5", "--reps", "1", "--out", str(out)]
        for extra, named in (
            (["--algos", "maxdeg", "--budgets", "30,5,30"], "--budgets lists 30.0 more than once"),
            (["--algos", "maxdeg,hbh,maxdeg", "--budgets", "30"], "--algos lists 'maxdeg' more than once"),
        ):
            assert cli_main(base + extra) == 2, extra
            assert named in capsys.readouterr().err, extra
        assert not out.exists()

    def test_prob_file_uses_the_edge_list_column(self, tmp_path):
        # a directed 5-cycle at p=0.9: the column must count, not --prob's default
        cycle = [(10 * i, 10 * ((i + 1) % 5)) for i in range(5)]
        with_p, without_p = tmp_path / "with" / "cycle.txt", tmp_path / "without" / "cycle.txt"
        for graph, column in ((with_p, " 0.9"), (without_p, "")):
            graph.parent.mkdir()
            graph.write_text("".join(f"{u} {v}{column}\n" for u, v in cycle))
        # every cost is 1, so the budget buys one seed, and 2 of the 5 nodes are targets
        base = ["--directed", "--econ", "degprop", "--target-frac", "0.4", "--budgets", "1",
                "--algos", "igaip,maxdeg", "--samples", "50", "--reps", "2", "--seed", "3", "--no-timing"]
        rows = {}
        for graph, prob in ((with_p, "file"), (without_p, "uniform:0.9"), (without_p, "uniform:0.1")):
            out = tmp_path / f"{prob}.csv"
            assert cli_main(["run", "--graph", str(graph), "--prob", prob, "--out", str(out)] + base) == 0
            rows[prob] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {r[2] for r in rows["file"]} == {"F"}
        # the file's rows are the uniform:0.9 rows but for the setting code, and not the default's
        assert [r[:2] + r[3:] for r in rows["file"]] == [r[:2] + r[3:] for r in rows["uniform:0.9"]]
        assert [r[7] for r in rows["file"]] != [r[7] for r in rows["uniform:0.1"]]

    def test_prob_file_edge_without_probability_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("10 20 0.5\n20 30\n30 10 0.5\n")
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--graph", str(graph), "--prob", "file", "--target-frac", "0.5",
                         "--algos", "maxdeg", "--budgets", "5", "--samples", "5", "--reps", "1",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--prob file: edge 20 30 has no probability" in err, err
        assert not out.exists()

    def test_file_probabilities_under_another_setting_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("10 20\n20 30 0.5\n")
        out = tmp_path / "r.csv"
        base = ["run", "--graph", str(graph), "--target-frac", "0.5", "--algos", "maxdeg",
                "--budgets", "5", "--samples", "5", "--reps", "1", "--out", str(out)]
        for extra, setting in (([], "uniform:0.1"), (["--prob", "trivalency"], "trivalency")):
            assert cli_main(base + extra) == 2, extra
            err = capsys.readouterr().err
            assert f"(edge 20 30), which --prob {setting} would replace" in err, err
            assert "--prob file" in err, err
        assert not out.exists()

    def test_hop_count_beyond_the_limit_exit_code(self, tmp_path, capsys):
        # a hop count of a million once overflowed the scoring recursion on a
        # graph with cycles and exited 3; now it would run a million level
        # passes per batch, so the boundary refuses it
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        out = tmp_path / "r.csv"
        base = ["run", "--graph", graph, "--algos", "hbh", "--budgets", "5", "--samples", "4",
                "--reps", "1", "--out", str(out)]
        for hops in ("101", "1000000"):
            assert cli_main(base + ["--hop", hops]) == 2, hops
            err = capsys.readouterr().err
            assert f"--hop {hops}" in err and "[1, 100]" in err, err
            assert not out.exists()
        assert cli_main(base + ["--hop", "100"]) == 0
        assert out.exists()

    def test_rejections_name_the_flag(self, tmp_path, capsys):
        # these were rejected with messages that named neither the flag nor the value
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        out = tmp_path / "r.csv"
        base = ["run", "--graph", graph, "--algos", "maxdeg", "--budgets", "5", "--samples", "4",
                "--reps", "1", "--out", str(out)]
        for flag, value, named in (
            ("--samples", "0", "(--samples) must be at least 1, got 0"),
            ("--reps", "-2", "(--reps) must be at least 1, got -2"),
            ("--target-frac", "nan", "(--target-frac) must lie in (0, 1], got nan"),
            ("--algos", ",", "--algos names no algorithm"),
            ("--prob", "uniform:2", "--prob 'uniform:2': uniform probability must lie in (0, 1]"),
            ("--prob", "", "unknown probability setting --prob ''"),
            ("--alpha", "nan", "--alpha nan: cutoff probability must lie in [0, 1], got nan"),
            ("--budgets", "5,nan", "--budgets must be positive and finite, got nan"),
        ):
            assert cli_main(base + [f"{flag}={value}"]) == 2, flag
            err = capsys.readouterr().err
            assert named in err, err
            assert not out.exists()

    def test_empty_budgets_exit_code(self, tmp_path):
        # an empty --budgets once ran the 8 default budgets and exited 0; the
        # config's empty budgets still mean the defaults
        graph = str(tmp_path / "g.txt")
        cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3",
                  "--seed", "0", "--out", graph])
        out = tmp_path / "r.csv"
        base = ["run", "--graph", graph, "--algos", "maxdeg", "--samples", "4", "--reps", "1",
                "--out", str(out)]
        for value in (",", "", ",,"):
            code, err = run_cli(base + [f"--budgets={value}"])
            assert code == 2, value
            assert "--budgets" in err and "names no budget" in err, err
            assert not out.exists()
        rows = run_experiment(ExperimentConfig(graph_path=graph, algorithms=("maxdeg",), samples=4,
                                               repetitions=1, output_path=str(out)))
        assert len(rows) == len(DEFAULT_BUDGETS_RANDOM)


class TestRunFlags:
    """Each `run` flag stores into its ExperimentConfig field, and a flag not
    given leaves the field at the config's own default."""

    def config_of(self, monkeypatch, argv):
        captured = []
        monkeypatch.setattr(cli, "run_experiment", captured.append)
        assert cli_main(argv) == 0
        [config] = captured
        return config

    def test_flag_dests_are_the_config_fields(self):
        [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {action.dest for action in subparsers.choices["run"]._actions} - {"help"}
        assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_readme_lists_the_run_flags(self):
        # the README's flag list names each `run` flag at the head of a bullet
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\nFlags:\n", 1)[1].split("\nExit codes:", 1)[0]
        documented = set()
        for head in re.findall(r"^- ((?:`--[^`]*`(?:, )?)+)", section, flags=re.MULTILINE):
            documented.update(re.findall(r"`(--[a-z-]+)", head))
        [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {flag for action in subparsers.choices["run"]._actions for flag in action.option_strings}
        assert documented == flags - {"-h", "--help"}

    def test_flags_not_given_take_the_config_defaults(self, monkeypatch):
        config = self.config_of(monkeypatch, ["run", "--graph", "g", "--out", "o"])
        assert config == ExperimentConfig(graph_path="g", output_path="o")

    def test_every_flag_reaches_its_field(self, monkeypatch):
        argv = [
            "run", "--graph", "g", "--directed", "--prob", "trivalency", "--econ", "degprop",
            "--target-frac", "0.5", "--budgets", "1,2.5", "--algos", "hbh,maxdeg", "--samples", "7",
            "--hop", "3", "--alpha", "0.25", "--seed", "9", "--reps", "2", "--out", "o",
            "--no-timing", "--allow-igaag-large", "--skip-zero",
        ]
        expected = ExperimentConfig(
            graph_path="g",
            directed=True,
            probability="trivalency",
            economics="degprop",
            target_fraction=0.5,
            budgets=(1.0, 2.5),
            algorithms=("hbh", "maxdeg"),
            samples=7,
            hops=3,
            cutoff=0.25,
            master_seed=9,
            repetitions=2,
            output_path="o",
            record_timing=False,
            allow_eager_on_large=True,
            skip_zero_scores=True,
        )
        # every value differs from its field's default, so a dropped flag shows
        defaults = ExperimentConfig(graph_path="")
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(expected, f.name) != getattr(defaults, f.name), f.name
        assert self.config_of(monkeypatch, argv) == expected


def run_cli(argv):
    """(exit code, standard error) of one `ebmax` call; argparse rejects a
    value by raising SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _values(*given_values, digits=True):
    """Strategy of flag values: the given ones, or short text of the
    characters numbers and lists are made of (without digits, for a flag whose
    large valid values would make a long run)."""
    alphabet = "0123456789.,:-+eEinfa x" if digits else ".,:-+eEinfa x"
    return st.one_of(st.sampled_from(given_values), st.text(alphabet=alphabet, max_size=8))


_floats = st.floats().map(repr)
BAD_VALUES = {
    "--budgets": st.one_of(
        _floats,
        st.lists(st.floats(), min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
        _values("0", "-1", "1e400", "5,5", "5,,5", ",", "0x10", "five"),
    ),
    "--samples": st.one_of(st.integers(max_value=0).map(str), _values("1.5", "1e3", "", "4,4", digits=False)),
    "--reps": st.one_of(st.integers(max_value=0).map(str), _values("1.5", "1e3", "", "1,1", digits=False)),
    "--hop": st.one_of(st.integers().map(str), _values("2.0", "", "1e6")),
    "--alpha": st.one_of(_floats, _values("", "0.1,0.2", "1e-400")),
    "--target-frac": st.one_of(_floats, _values("", "1e-300", "0,5")),
    "--prob": _values(
        "", "file", "uniform:", "uniform:0", "uniform:-0.1", "uniform:2", "uniform:nan", "uniform:inf",
        "uniform:1e-400", "uniform:0.1:2", "trivalency:1", "lognormal", "UNIFORM:0.1",
    ),
    "--algos": _values("", ",", "nope", "igaag,igaag", "IGAAG", "hbh,,maxdeg", " hbh ", "hbh,nope"),
    "--seed": st.one_of(st.integers(max_value=2**80).map(str), _values("", "1.5", "-0", "1e3")),
}


@pytest.fixture(scope="module")
def cli_graph(tmp_path_factory):
    """A 20-node random graph with cycles, and a path for the output."""
    folder = tmp_path_factory.mktemp("cli")
    graph = str(folder / "g.txt")
    assert cli_main(["gen", "--kind", "random", "--nodes", "20", "--param", "3", "--seed", "0",
                     "--out", graph]) == 0
    return graph, folder / "r.csv"


@given(st.sampled_from(sorted(BAD_VALUES)).flatmap(lambda flag: st.tuples(st.just(flag), BAD_VALUES[flag])))
def test_cli_bad_values_exit_2_naming_the_flag_or_value(cli_graph, case):
    # one generated value per run for one flag: the run either succeeds or is
    # refused as a configuration error before it writes a CSV, never a runtime failure
    flag, value = case
    graph, out = cli_graph
    if out.exists():
        out.unlink()
    args = {"--budgets": "5", "--algos": "igaip,hbh", "--samples": "4", "--reps": "1", flag: value}
    argv = ["run", "--graph", graph, "--out", str(out)] + [f"{k}={v}" for k, v in args.items()]
    code, err = run_cli(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert flag in err or (value.strip() and value in err), (argv, err)
        assert not out.exists()
