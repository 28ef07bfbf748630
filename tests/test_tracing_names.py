"""Every name the benchmark's tracer (perfbench/tracing.py) wraps must still
exist in ebmax: the tracer skips a missing name, which silently drops the
per-layer metrics computed from it."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
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
