"""Equitable power-shutoff and microgrid reconfiguration scheduling.

Pipeline: load a network and scenario (``netmodel``), build the
mixed-integer program (``formulation``), solve it (``solver``), verify the
schedule independently (``checker``), and compute equity metrics or run
parameter sweeps (``analysis``).  ``instances`` carries bundled test
systems and ``cli`` the command-line entry point.
"""

from .analysis import (
    EquityMetrics,
    SweepResult,
    compute_metrics,
    emit_report,
    extract_schedule,
    run_horizon,
    sweep_beta,
    sweep_epsilon,
)
from .checker import (
    Schedule,
    ViolationReport,
    schedule_from_dict,
    schedule_to_dict,
    verify_schedule,
)
from .errors import (
    BudgetExceeded,
    DimensionError,
    DomainError,
    GridshedError,
    InfeasibleError,
    ModelError,
    NumericalError,
    ParseError,
    RangeError,
    SolverLimitError,
    ValidationError,
)
from .formulation import MilpModel, ModelBuilder, build_model
from .netmodel import (
    BlockPartition,
    Bus,
    Der,
    Line,
    LoadBlock,
    LoadPoint,
    NetworkModel,
    Scenario,
    Storage,
    compute_load_blocks,
    load_network,
    load_scenario,
    parse_network,
    parse_scenario,
)
from .solver import (
    MilpSolution,
    SolverOptions,
    brute_force_solve,
    solve_lp,
    solve_milp,
)

__version__ = "0.1.0"
