"""LP and MILP solving plus an exhaustive-enumeration oracle.

``solve_lp`` and ``solve_milp`` are the same HiGHS run on the model's
stored arrays, the relaxation with no integer columns, and both return a
``MilpSolution``; runs are deterministic for identical inputs and options
(single-threaded search, no randomized components).  HiGHS is called
through the binding bundled with scipy (``scipy.optimize._highspy``, the
module ``scipy.optimize.milp`` wraps), which sets any HiGHS option;
``milp`` warns on every call that sets one beyond its own few.

``brute_force_solve`` is an independent oracle for small instances: it
enumerates every assignment of the free binary variables, screens each
assignment against the rows whose support lies in enumerated or fixed
columns, and solves a continuous LP for the survivors.  It never
branches, never prunes on LP bounds, and shares no search logic with
``solve_milp``, so agreement between the two is meaningful evidence of
correctness.

Enumeration exception: tree-direction columns (family ``phi``) stay
continuous during enumeration.  Given integral edge-membership (``zeta``)
the direction variables are forced integral anyway, because each
fictitious commodity must ship one whole unit along the unique tree path
to its sink, which pins the away-from-root direction of every tree edge
at 1.  Skipping them keeps the enumeration budget proportional to the
decision variables that actually matter.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize._highspy import _core

from .errors import BudgetExceeded, DomainError, NumericalError
from .formulation import MilpModel

logger = logging.getLogger(__name__)

INTEGRALITY_TOL = 1e-6
SCREEN_TOL = 1e-9
# the most free binaries brute_force_solve enumerates (2**24 assignments)
BINARY_BUDGET = 24

# HiGHS 1.12 runs the Feasibility Jump heuristic at the start of every MIP
# solve.  On the scheduling models switching it off left status, objective,
# best bound and node count unchanged and saved about 9 % of a solve's time.
_FEASIBILITY_JUMP_OFF = {"mip_heuristic_run_feasibility_jump": False}
_QUIET = {"log_to_console": False}

# how each HiGHS model status a run can end in reads as a solution status;
# any other status is a failure
_STATUS = {
    _core.HighsModelStatus.kOptimal: "optimal",
    _core.HighsModelStatus.kInfeasible: "infeasible",
    _core.HighsModelStatus.kUnboundedOrInfeasible: "unbounded or infeasible",
    _core.HighsModelStatus.kUnbounded: "unbounded",
    _core.HighsModelStatus.kTimeLimit: "limit",
    _core.HighsModelStatus.kIterationLimit: "limit",
    _core.HighsModelStatus.kSolutionLimit: "limit",
}


@dataclass(frozen=True)
class MilpSolution:
    status: str  # optimal | feasible-gap | infeasible | unbounded | limit
    objective: float | None
    best_bound: float | None
    gap: float
    values: np.ndarray | None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolverOptions:
    gap_target: float = 1e-4
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        # HiGHS refuses an option value outside its range
        if not 0 < self.gap_target < 1:
            raise DomainError(f"gap must be in (0, 1), got {self.gap_target}")
        if self.time_limit is not None and not (
                math.isfinite(self.time_limit) and self.time_limit >= 0):
            raise DomainError("time limit must be finite and non-negative, "
                              f"got {self.time_limit}")
        # HiGHS counts nodes in a 32-bit int
        if self.node_limit is not None and not 0 <= self.node_limit < 2**31:
            raise DomainError(f"node limit must be in [0, {2**31 - 1}], "
                              f"got {self.node_limit}")


def _mip_options(opts: SolverOptions) -> dict:
    options = {**_QUIET, "mip_rel_gap": opts.gap_target, "presolve": "on",
               **_FEASIBILITY_JUMP_OFF}
    if opts.time_limit is not None:
        options["time_limit"] = float(opts.time_limit)
    if opts.node_limit is not None:
        options["mip_max_nodes"] = int(opts.node_limit)
    return options


def _highs(model: MilpModel, mip: bool, options: dict):
    """One HiGHS run on the stored form with ``options``; with ``mip`` the
    model's binary columns are integer, without it every column is
    continuous.

    Returns (status, objective, bound, values, nodes): status is
    ``optimal``, ``infeasible``, ``unbounded`` or ``limit``; objective and
    bound include the model's constant and, like values, are None without
    a solution.  Nodes are the branch-and-bound nodes HiGHS searched, with
    or without a solution, over both runs when the zero-objective re-run
    (below) follows; a pure LP has no search: its bound is its objective
    and its node count 0.
    """
    h = _core._Highs()
    for name, value in options.items():
        _check(h.setOptionValue(name, value), f"option {name}={value!r}")

    is_mip = mip and bool(model.is_binary.any())
    A = model.A.tocsc()
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.num_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.num_rows
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    lp.col_cost_ = model.c
    lp.col_lower_ = model.lo
    lp.col_upper_ = model.hi
    lp.row_lower_ = model.row_lo
    lp.row_upper_ = model.row_hi
    if is_mip:
        kinds = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)
        lp.integrality_ = [kinds[i] for i in model.is_binary.tolist()]
    status = _run(h, lp)
    nodes = _nodes(h, is_mip)
    if status == "unbounded or infeasible":
        # HiGHS names neither while it knows no feasible point.  The same
        # rows with a zero objective have one exactly when the problem is
        # unbounded, not infeasible.
        lp.col_cost_ = np.zeros(model.num_vars)
        status = _run(h, lp)
        nodes += _nodes(h, is_mip)
        if _has_solution(h, status, is_mip):
            status = "unbounded"
        elif status not in ("infeasible", "limit"):
            raise NumericalError(f"HiGHS ended with {status} on a zero objective")
        return status, None, None, None, nodes
    if not _has_solution(h, status, is_mip):
        return status, None, None, None, nodes
    info = h.getInfo()
    objective = float(info.objective_function_value) + model.objective_constant
    values = np.asarray(h.getSolution().col_value)
    if not is_mip:
        return status, objective, objective, values, 0
    bound = float(info.mip_dual_bound) + model.objective_constant
    return status, objective, bound, values, nodes


def _run(h, lp) -> str:
    """Pass ``lp`` to ``h``, run it and read how it ended."""
    _check(h.passModel(lp), "passModel")
    _check(h.run(), "run")
    status = _STATUS.get(h.getModelStatus())
    if status is None:
        raise NumericalError(
            f"HiGHS ended with {h.modelStatusToString(h.getModelStatus())}")
    return status


def _nodes(h, is_mip: bool) -> int:
    """The nodes the last run searched; HiGHS reads -1 for a pure LP."""
    return int(h.getInfo().mip_node_count) if is_mip else 0


def _has_solution(h, status: str, is_mip: bool) -> bool:
    """Whether the run holds a solution: an optimum, or an incumbent of a
    MIP stopped at a limit."""
    return status == "optimal" or (
        status == "limit" and is_mip
        and math.isfinite(h.getInfo().objective_function_value))


def _check(status, what: str):
    if status == _core.HighsStatus.kError:
        raise NumericalError(f"HiGHS refused {what}")


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation (all integrality dropped); an
    optimum has gap 0 and a bound equal to its objective."""
    status, objective, _, values, _ = _highs(model, False, _QUIET)
    if status in ("infeasible", "unbounded"):
        return MilpSolution(status, None, None, 0.0, None)
    if status != "optimal":
        raise NumericalError(f"LP solve stopped at a {status}")
    return MilpSolution("optimal", objective, objective, 0.0, values)


def _relative_gap(objective: float, bound: float) -> float:
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


def solve_milp(model: MilpModel, opts: SolverOptions | None = None) -> MilpSolution:
    """Solve the MILP to the requested relative gap.

    Status is ``optimal`` when the gap closed to numerical zero,
    ``feasible-gap`` when it stopped within the target, ``limit`` when a
    node or time limit fired first, ``infeasible`` or ``unbounded`` when
    HiGHS proved so.
    """
    status, objective, bound, values, nodes = _highs(
        model, True, _mip_options(opts or SolverOptions()))
    stats = {"nodes": nodes}
    if values is None:
        gap = math.inf if status == "limit" else 0.0
        return MilpSolution(status, None, None, gap, None, stats)

    frac = np.abs(values[model.is_binary] - np.round(values[model.is_binary]))
    if frac.size and frac.max() > INTEGRALITY_TOL:
        raise NumericalError(
            f"incumbent violates integrality by {frac.max():.3g}"
        )
    gap = _relative_gap(objective, bound)
    if status == "optimal":
        status = "optimal" if gap <= 1e-9 else "feasible-gap"

    logger.debug("node=%s obj=%.9g bound=%.9g gap=%.3g",
                 nodes, objective, bound, gap)
    return MilpSolution(status, objective, bound, gap, values, stats)


def brute_force_solve(model: MilpModel) -> MilpSolution:
    """Exact optimum by exhaustive enumeration of free binary columns,
    at most ``BINARY_BUDGET`` of them.

    Every assignment is screened against the rows whose support lies in
    enumerated or fixed columns, then the survivors are certified by a
    continuous LP on a copy of the model with the binaries pinned.
    When the objective touches only binary columns (always true for the
    scheduling models, whose cost is a function of block status), the
    survivors are visited in ascending objective order and the first
    LP-feasible one is returned; otherwise every survivor is priced.
    """
    fixed = model.lo == model.hi
    enumerated = model.is_binary & ~fixed
    for (family, _), cols in model.series.items():
        if family == "phi":
            enumerated[cols] = False
    enum_cols = np.flatnonzero(enumerated)
    n_enum = len(enum_cols)
    if n_enum > BINARY_BUDGET:
        raise BudgetExceeded(
            f"{n_enum} free binaries exceed the enumeration budget {BINARY_BUDGET}"
        )

    # rows whose support lies in enumerated or fixed columns, as
    # s_mat x_enum <= s_rhs with the fixed columns folded into the sides
    continuous = ~(enumerated | fixed)
    rows = np.flatnonzero(model.A[:, continuous].getnnz(axis=1) == 0)
    screened = model.A[rows]
    pinned = screened[:, fixed] @ model.lo[fixed]
    terms = screened[:, enum_cols].toarray()
    row_lo, row_hi = model.row_lo[rows], model.row_hi[rows]
    upper, lower = np.isfinite(row_hi), np.isfinite(row_lo)
    s_mat = np.vstack([terms[upper], -terms[lower]])
    s_rhs = np.concatenate([(row_hi - pinned)[upper],
                            (pinned - row_lo)[lower]])

    c_enum = model.c[enum_cols]
    fixed_const = (float(model.c[fixed] @ model.lo[fixed])
                   + model.objective_constant)
    objective_is_binary = not np.any(model.c[continuous])

    total = 1 << n_enum
    chunk = 1 << 16
    surv_idx, surv_obj = [], []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        ids = np.arange(start, stop, dtype=np.uint64)
        bits = ((ids[:, None] >> np.arange(n_enum, dtype=np.uint64)[None, :]) & 1
                ).astype(np.float64)
        ok = np.all(bits @ s_mat.T <= s_rhs + SCREEN_TOL, axis=1)
        if ok.any():
            surv_idx.append(ids[ok])
            surv_obj.append(bits[ok] @ c_enum + fixed_const)
    stats = {"nodes": int(total)}
    if not surv_idx:
        return MilpSolution("infeasible", None, None, 0.0, None, stats)

    surv_idx = np.concatenate(surv_idx)
    surv_obj = np.concatenate(surv_obj)
    order = np.lexsort((surv_idx, surv_obj))

    best_obj, best_x = math.inf, None
    for pos in order:
        aid = int(surv_idx[pos])
        lo, hi = model.lo.copy(), model.hi.copy()
        lo[enum_cols] = hi[enum_cols] = (aid >> np.arange(n_enum)) & 1
        lp = solve_lp(replace(model, lo=lo, hi=hi))
        if lp.status != "optimal":
            continue
        if lp.objective < best_obj:
            best_obj, best_x = lp.objective, lp.values
        if objective_is_binary:
            break

    if best_x is None:
        return MilpSolution("infeasible", None, None, 0.0, None, stats)
    return MilpSolution("optimal", best_obj, best_obj, 0.0, best_x, stats)
