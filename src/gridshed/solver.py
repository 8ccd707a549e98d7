"""LP and MILP solving plus an exhaustive-enumeration oracle.

``solve_lp`` and ``solve_milp`` are the same HiGHS call (scipy's ``milp``)
on the model's stored arrays, the relaxation with no integer columns, and
both return a ``MilpSolution``; runs are deterministic for identical
inputs and options (single-threaded search, no randomized components).

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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BudgetExceeded, DomainError, NumericalError
from .formulation import MilpModel

logger = logging.getLogger(__name__)

INTEGRALITY_TOL = 1e-6
SCREEN_TOL = 1e-9


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
        # HiGHS warns about an invalid limit and then ignores it
        if not 0 < self.gap_target < 1:
            raise DomainError(f"gap must be in (0, 1), got {self.gap_target}")
        if self.time_limit is not None and not (
                math.isfinite(self.time_limit) and self.time_limit >= 0):
            raise DomainError("time limit must be finite and non-negative, "
                              f"got {self.time_limit}")
        if self.node_limit is not None and self.node_limit < 0:
            raise DomainError(
                f"node limit must be non-negative, got {self.node_limit}")


def _highs(model: MilpModel, integrality: np.ndarray, bounds: Bounds,
           options: dict):
    """One HiGHS call on the stored form: (status, scipy result).

    The status is ``infeasible`` or ``unbounded`` when HiGHS proved so,
    otherwise None and the caller reads the result.
    """
    constraints = []
    if model.num_rows:
        constraints.append(LinearConstraint(model.A, model.row_lo,
                                            model.row_hi))
    res = milp(c=model.c, constraints=constraints,
               integrality=integrality, bounds=bounds, options=options)
    if res.status == 2 or (res.status == 4 and "infeasible" in (res.message or "").lower()):
        return "infeasible", res
    if res.status == 3:
        return "unbounded", res
    return None, res


def solve_lp(model: MilpModel, bounds: np.ndarray | None = None) -> MilpSolution:
    """Solve the continuous relaxation (all integrality dropped); an
    optimum has gap 0 and a bound equal to its objective.

    ``bounds`` optionally overrides the model's variable bounds with an
    (n, 2) array; used by the enumeration oracle to pin binaries.
    """
    box = (Bounds(model.lo, model.hi) if bounds is None
           else Bounds(bounds[:, 0], bounds[:, 1]))
    status, res = _highs(model, np.zeros(model.num_vars), box, {})
    if status is not None:
        return MilpSolution(status, None, None, 0.0, None)
    if res.status != 0:
        raise NumericalError(f"LP solve failed: {res.message}")
    objective = float(res.fun) + model.objective_constant
    return MilpSolution("optimal", objective, objective, 0.0,
                        np.asarray(res.x))


def _relative_gap(objective: float, bound: float) -> float:
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


def solve_milp(model: MilpModel, opts: SolverOptions | None = None) -> MilpSolution:
    """Solve the MILP to the requested relative gap.

    Status is ``optimal`` when the gap closed to numerical zero,
    ``feasible-gap`` when it stopped within the target, ``limit`` when a
    node or time limit fired first, ``infeasible`` or ``unbounded`` when
    HiGHS proved so.
    """
    opts = opts or SolverOptions()
    options = {"mip_rel_gap": opts.gap_target, "presolve": True}
    if opts.time_limit is not None:
        options["time_limit"] = float(opts.time_limit)
    if opts.node_limit is not None:
        options["node_limit"] = int(opts.node_limit)
    status, res = _highs(model, model.is_binary.astype(np.int64),
                         Bounds(model.lo, model.hi), options)
    stats = {"nodes": _nodes(res)}

    if status is not None:
        return MilpSolution(status, None, None, 0.0, None, stats)
    if res.x is None:
        if res.status == 1:
            return MilpSolution("limit", None, None, math.inf, None, stats)
        raise NumericalError(f"MILP solve failed: {res.message}")

    values = np.asarray(res.x)
    frac = np.abs(values[model.is_binary] - np.round(values[model.is_binary]))
    if frac.size and frac.max() > INTEGRALITY_TOL:
        raise NumericalError(
            f"incumbent violates integrality by {frac.max():.3g}"
        )
    objective = float(res.fun) + model.objective_constant
    bound_raw = getattr(res, "mip_dual_bound", None)
    bound = (objective if bound_raw is None
             else float(bound_raw) + model.objective_constant)
    gap = _relative_gap(objective, bound)

    if res.status == 0:
        status = "optimal" if gap <= 1e-9 else "feasible-gap"
    elif res.status == 1:
        status = "limit"
    else:
        raise NumericalError(f"MILP solve failed: {res.message}")

    logger.debug("node=%s obj=%.9g bound=%.9g gap=%.3g",
                 stats["nodes"], objective, bound, gap)
    return MilpSolution(status, objective, bound, gap, values, stats)


def _nodes(res) -> int:
    count = getattr(res, "mip_node_count", None)
    return int(count) if count is not None else 0


def brute_force_solve(model: MilpModel, binary_budget: int = 24) -> MilpSolution:
    """Exact optimum by exhaustive enumeration of free binary columns.

    Every assignment is screened against the rows whose support lies in
    enumerated or fixed columns, then the survivors are certified by a
    continuous LP with the binaries pinned.
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
    if n_enum > binary_budget:
        raise BudgetExceeded(
            f"{n_enum} free binaries exceed the enumeration budget {binary_budget}"
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
    stats = {"nodes": int(total), "lp_solves": 0}
    if not surv_idx:
        return MilpSolution("infeasible", None, None, 0.0, None, stats)

    surv_idx = np.concatenate(surv_idx)
    surv_obj = np.concatenate(surv_obj)
    order = np.lexsort((surv_idx, surv_obj))

    base_bounds = np.column_stack([model.lo, model.hi])
    best_obj, best_x = math.inf, None
    for pos in order:
        aid = int(surv_idx[pos])
        if objective_is_binary and surv_obj[pos] >= best_obj:
            break
        bounds = base_bounds.copy()
        pins = (aid >> np.arange(n_enum)) & 1
        bounds[enum_cols, 0] = bounds[enum_cols, 1] = pins
        lp = solve_lp(model, bounds=bounds)
        stats["lp_solves"] += 1
        if lp.status != "optimal":
            continue
        if lp.objective < best_obj:
            best_obj, best_x = lp.objective, lp.values
        if objective_is_binary:
            break

    if best_x is None:
        return MilpSolution("infeasible", None, None, 0.0, None, stats)
    return MilpSolution("optimal", best_obj, best_obj, 0.0, best_x, stats)
