"""Hub-location and port-assignment toolkit for LCL ocean-freight networks."""

from .cost_model import (
    ApproxLandCurve,
    LandCostTable,
    SeaRate,
    land_breakpoints,
    land_cost_approx,
    land_cost_exact,
    sea_cost,
)
from .exact_oracle import OracleResult, enumerate_optimal, solve_no_hubs
from .gen import generate
from .heuristics import (
    DestinationPlan,
    TwoStageResult,
    local_search_improve,
    solve_single_destination,
    solve_two_stage,
)
from .milp import (
    MilpModel,
    build_linearized_model,
    decode_solution,
    emit_lp,
    emit_mps,
    encode_solution,
)
from .network_model import (
    Instance,
    NodeSets,
    Violation,
    load_instance,
    save_instance,
    validate_instance,
)
from .solution import (
    ConstraintViolation,
    CostBreakdown,
    Solution,
    check_feasibility,
    evaluate_cost,
    hub_volume_share,
    load_solution,
    save_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxLandCurve",
    "ConstraintViolation",
    "CostBreakdown",
    "DestinationPlan",
    "Instance",
    "LandCostTable",
    "MilpModel",
    "NodeSets",
    "OracleResult",
    "SeaRate",
    "Solution",
    "TwoStageResult",
    "Violation",
    "build_linearized_model",
    "check_feasibility",
    "decode_solution",
    "emit_lp",
    "emit_mps",
    "encode_solution",
    "enumerate_optimal",
    "evaluate_cost",
    "generate",
    "hub_volume_share",
    "land_breakpoints",
    "land_cost_approx",
    "land_cost_exact",
    "load_instance",
    "load_solution",
    "local_search_improve",
    "save_instance",
    "save_solution",
    "sea_cost",
    "solve_no_hubs",
    "solve_single_destination",
    "solve_two_stage",
    "validate_instance",
]
