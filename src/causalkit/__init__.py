"""causalkit: causal diagrams, binary structural causal models and
risk-ratio estimation (outcome regression, G-computation, IPW)."""

from .dag import (
    AdjustmentQuery,
    CausalDag,
    Path,
    d_separated,
    d_separated_by_paths,
    d_separated_by_reachability,
    enumerate_paths,
    is_valid_adjustment,
    minimal_adjustment_sets,
    parse_dag_text,
    path_open,
)
from .estimators import (
    BootstrapSpec,
    EffectEstimate,
    bootstrap_ci,
    g_computation_rr,
    ipw_rr,
    outcome_regression_rr,
    population_estimand,
    unadjusted_rr,
)
from .glm import GlmFit, ModelSpec, fit, predict, wald_interval
from .scenario import (
    Analysis,
    ResultTable,
    Scenario,
    parse_scenario,
    reproduce,
    run_scenario,
)
from .scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    apply_selection,
    enumerate_population,
    sample,
    validate_model,
)

__version__ = "0.1.0"
