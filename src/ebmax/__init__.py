"""Budgeted seed selection maximizing benefit earned from target nodes under
independent-cascade diffusion: Monte Carlo estimation, greedy selectors with
an approximation safeguard, a hop-based heuristic, degree baselines, and a
reproducible experiment harness.
"""

from .baselines import (
    degree_discount_select,
    max_degree_select,
    single_discount_select,
)
from .diffusion import BenefitEstimator
from .graph import (
    GraphParseError,
    NodeEconomics,
    SocialGraph,
    assign_economics,
    assign_probabilities,
    load_edge_list,
)
from .greedy import (
    SelectionResult,
    TraceEntry,
    best_single_node,
    greedy_ratio_select,
    lazy_greedy_select,
    modified_greedy_select,
)
from .harness import ExperimentConfig, ResultRow, generate_synthetic, run_experiment
from .hop import (
    HopConfig,
    ScoreTable,
    compute_scores,
    hop_based_select,
)

__all__ = [
    "BenefitEstimator",
    "ExperimentConfig",
    "GraphParseError",
    "HopConfig",
    "NodeEconomics",
    "ResultRow",
    "ScoreTable",
    "SelectionResult",
    "SocialGraph",
    "TraceEntry",
    "assign_economics",
    "assign_probabilities",
    "best_single_node",
    "compute_scores",
    "degree_discount_select",
    "generate_synthetic",
    "greedy_ratio_select",
    "hop_based_select",
    "lazy_greedy_select",
    "load_edge_list",
    "max_degree_select",
    "modified_greedy_select",
    "run_experiment",
]
