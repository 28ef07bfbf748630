"""The benchmark's tracer (perfbench/tracing.py) against ebmax.

Every name the tracer wraps must still exist in ebmax, and a traced sweep
must report every per-layer metric BENCHMARK.json names: the tracer skips a
missing name, and a metric whose calls it does not see where it expects
them, so a moved call silently drops metrics."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ebmax.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_traced_names_resolve():
    modules = tracing.import_ebmax()
    assert callable(getattr(modules["cli"], "run_experiment", None)), tracing.ROOT
    for module, names in (
        ("harness", tracing.HARNESS_NAMES),
        ("greedy", tracing.GREEDY_NAMES),
        ("hop", tracing.HOP_NAMES),
    ):
        for attr in names:
            assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
    estimator = modules["harness"].BenefitEstimator
    for name in (tracing.DRAW, tracing.ESTIMATE, tracing.MARGINAL):
        assert callable(getattr(estimator, name.rsplit(".", 1)[1], None)), name
    # the baselines the per-layer metrics name
    selectors = set(tracing.baseline_selectors(modules["baselines"]))
    assert {"max_degree_select", "degree_discount_select", "single_discount_select"} <= selectors


@pytest.mark.parametrize(
    "algos",
    [
        "hbh,maxdeg,degdis,sindis",  # no selection estimator: held-out ones only
        "igaag,igaip,hbh,maxdeg",
    ],
)
def test_traced_sweep_reports_every_per_layer_metric(tmp_path, algos):
    # the run.* metrics come from run.py, not from the traced process
    graph = tmp_path / "g.txt"
    assert cli_main(["gen", "--kind", "preferential", "--nodes", "60", "--param", "2",
                     "--seed", "3", "--out", str(graph)]) == 0
    metrics = tmp_path / "layers.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracing.py"), "trace", "--metrics", str(metrics),
            "--", "--graph", str(graph), "--prob", "trivalency", "--econ", "degprop",
            "--budgets", "5,10", "--algos", algos, "--samples", "8", "--reps", "2",
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["per_layer"]]
    with open(metrics, encoding="utf-8") as handle:
        reported = json.load(handle)["metrics"]
    assert [n for n in names if not n.startswith("run.") and n not in reported] == []
