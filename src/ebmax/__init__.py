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
from .diffusion import BenefitEstimator, ExactBenefitOracle
from .graph import (
    AssignmentScheme,
    DegreeProportionalCosts,
    GraphParseError,
    NodeEconomics,
    RandomBenefits,
    RandomCosts,
    SocialGraph,
    TrivalencyProbability,
    UnitBenefits,
    UniformProbability,
    assign_economics,
    assign_probabilities,
    load_edge_list,
    save_edge_list,
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
    influence_probability,
)

__all__ = [
    "AssignmentScheme",
    "BenefitEstimator",
    "DegreeProportionalCosts",
    "ExactBenefitOracle",
    "ExperimentConfig",
    "GraphParseError",
    "HopConfig",
    "NodeEconomics",
    "RandomBenefits",
    "RandomCosts",
    "ResultRow",
    "ScoreTable",
    "SelectionResult",
    "SocialGraph",
    "TraceEntry",
    "TrivalencyProbability",
    "UnitBenefits",
    "UniformProbability",
    "assign_economics",
    "assign_probabilities",
    "best_single_node",
    "compute_scores",
    "degree_discount_select",
    "generate_synthetic",
    "greedy_ratio_select",
    "hop_based_select",
    "influence_probability",
    "lazy_greedy_select",
    "load_edge_list",
    "max_degree_select",
    "modified_greedy_select",
    "run_experiment",
    "save_edge_list",
]
