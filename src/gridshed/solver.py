"""LP and MILP solving plus an exhaustive-enumeration oracle.

``solve_lp`` and ``solve_milp`` wrap the HiGHS engines shipped with scipy
behind solver-agnostic result types; runs are deterministic for identical
inputs and options (single-threaded search, no randomized components).

``brute_force_solve`` is an independent oracle for small instances: it
enumerates every assignment of the free binary variables, screens each
assignment against the rows whose support is purely binary, and solves a
continuous LP for the survivors.  It never branches, never prunes on LP
bounds, and shares no search logic with ``solve_milp``, so agreement
between the two is meaningful evidence of correctness.

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
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import diags

from .errors import BudgetExceeded, NumericalError
from .formulation import MilpModel

logger = logging.getLogger(__name__)

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
SCREEN_TOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float | None
    values: np.ndarray | None
    dual_certificate: dict | None = None


@dataclass(frozen=True)
class MilpSolution:
    status: str  # optimal | feasible-gap | infeasible | limit
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


def solve_lp(model: MilpModel, bounds: np.ndarray | None = None) -> LpSolution:
    """Solve the continuous relaxation (all integrality dropped).

    ``bounds`` optionally overrides the model's variable bounds with an
    (n, 2) array; used by the enumeration oracle to pin binaries.
    """
    a = model.constraint_matrix()
    rels = np.asarray(model.row_rels, dtype=str)
    eq = rels == "="
    # linprog takes A_ub x <= b_ub: >= rows enter negated, in model order
    sign = np.where(rels[~eq] == ">=", -1.0, 1.0)
    if bounds is None:
        bounds = np.column_stack([model.lo, model.hi])
    res = linprog(
        model.objective_vector(),
        A_ub=diags(sign) @ a[~eq],
        b_ub=sign * model.row_rhs[~eq],
        A_eq=a[eq],
        b_eq=model.row_rhs[eq],
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": FEASIBILITY_TOL},
    )
    if res.status == 0:
        duals = {
            "ineq": None if res.ineqlin is None else np.asarray(res.ineqlin.marginals),
            "eq": None if res.eqlin is None else np.asarray(res.eqlin.marginals),
        }
        return LpSolution(
            status="optimal",
            objective=float(res.fun) + model.objective_constant,
            values=np.asarray(res.x),
            dual_certificate=duals,
        )
    if res.status == 2:
        return LpSolution(status="infeasible", objective=None, values=None)
    if res.status == 3:
        return LpSolution(status="unbounded", objective=None, values=None)
    raise NumericalError(f"LP solve failed: {res.message}")


def _relative_gap(objective: float, bound: float) -> float:
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


def solve_milp(model: MilpModel, opts: SolverOptions | None = None) -> MilpSolution:
    """Solve the MILP to the requested relative gap.

    Status is ``optimal`` when the gap closed to numerical zero,
    ``feasible-gap`` when it stopped within the target, ``limit`` when a
    node or time limit fired first, ``infeasible`` otherwise.
    """
    opts = opts or SolverOptions()
    t0 = time.perf_counter()

    constraints = []
    if model.num_rows:
        constraints.append(LinearConstraint(model.constraint_matrix(),
                                            model.row_lo, model.row_hi))

    options = {"mip_rel_gap": opts.gap_target, "presolve": True}
    if opts.time_limit is not None:
        options["time_limit"] = float(opts.time_limit)
    if opts.node_limit is not None:
        options["node_limit"] = int(opts.node_limit)

    res = milp(
        c=model.objective_vector(),
        constraints=constraints,
        integrality=model.is_binary.astype(np.int64),
        bounds=Bounds(model.lo, model.hi),
        options=options,
    )
    wall_ms = (time.perf_counter() - t0) * 1e3

    if res.status == 2 or (res.status == 4 and "infeasible" in (res.message or "").lower()):
        return MilpSolution("infeasible", None, None, 0.0, None,
                            {"nodes": _nodes(res), "lp_solves": None,
                             "wall_ms": wall_ms})
    if res.x is None:
        if res.status == 1:
            return MilpSolution("limit", None, None, math.inf, None,
                                {"nodes": _nodes(res), "lp_solves": None,
                                 "wall_ms": wall_ms})
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

    stats = {"nodes": _nodes(res), "lp_solves": None, "wall_ms": wall_ms}
    logger.debug("node=%s obj=%.9g bound=%.9g gap=%.3g",
                 stats["nodes"], objective, bound, gap)
    return MilpSolution(status, objective, bound, gap, values, stats)


def _nodes(res) -> int:
    count = getattr(res, "mip_node_count", None)
    return int(count) if count is not None else 0


def _screenable_rows(model: MilpModel, enum_set: set, fixed: np.ndarray):
    """Rows whose support lies entirely in enumerated or fixed columns,
    rewritten as A x_enum <= b with fixed contributions folded into b."""
    rows = []
    for i in range(model.num_rows):
        cols, vals, rel, rhs = model.row(i)
        ok = all((c in enum_set) or fixed[c] for c in cols)
        if not ok:
            continue
        base = rhs - sum(v * model.lo[c] for c, v in zip(cols, vals) if fixed[c])
        enum_terms = [(c, v) for c, v in zip(cols, vals) if c in enum_set]
        if rel in ("<=", "="):
            rows.append((enum_terms, base))
        if rel in (">=", "="):
            rows.append(([(c, -v) for c, v in enum_terms], -base))
    return rows


def brute_force_solve(model: MilpModel, binary_budget: int = 24) -> MilpSolution:
    """Exact optimum by exhaustive enumeration of free binary columns.

    Every assignment is screened against the purely-binary rows, then the
    survivors are certified by a continuous LP with the binaries pinned.
    When the objective touches only binary columns (always true for the
    scheduling models, whose cost is a function of block status), the
    survivors are visited in ascending objective order and the first
    LP-feasible one is returned; otherwise every survivor is priced.
    """
    t0 = time.perf_counter()
    free_bin = model.free_binary_columns()
    enum_cols = np.asarray(
        [c for c in free_bin if model.variables[c].family != "phi"],
        dtype=np.int64,
    )
    n_enum = len(enum_cols)
    if n_enum > binary_budget:
        raise BudgetExceeded(
            f"{n_enum} free binaries exceed the enumeration budget {binary_budget}"
        )

    fixed = model.lo == model.hi
    enum_set = set(int(c) for c in enum_cols)
    screen = _screenable_rows(model, enum_set, fixed)
    col_pos = {int(c): j for j, c in enumerate(enum_cols)}
    s_mat = np.zeros((len(screen), n_enum))
    s_rhs = np.empty(len(screen))
    for i, (terms, base) in enumerate(screen):
        for c, v in terms:
            s_mat[i, col_pos[int(c)]] += v
        s_rhs[i] = base

    c_full = model.objective_vector()
    c_enum = c_full[enum_cols] if n_enum else np.empty(0)
    fixed_const = float(c_full[fixed] @ model.lo[fixed]) + model.objective_constant
    cont_mask = np.ones(model.num_vars, dtype=bool)
    cont_mask[enum_cols] = False
    cont_mask &= ~fixed
    objective_is_binary = not np.any(c_full[cont_mask])

    total = 1 << n_enum
    chunk = 1 << 16
    surv_idx, surv_obj = [], []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        ids = np.arange(start, stop, dtype=np.uint64)
        bits = ((ids[:, None] >> np.arange(n_enum, dtype=np.uint64)[None, :]) & 1
                ).astype(np.float64)
        if len(screen):
            ok = np.all(bits @ s_mat.T <= s_rhs + SCREEN_TOL, axis=1)
        else:
            ok = np.ones(len(ids), dtype=bool)
        if ok.any():
            surv_idx.append(ids[ok])
            surv_obj.append(bits[ok] @ c_enum + fixed_const)
    stats = {"nodes": int(total), "lp_solves": 0, "wall_ms": 0.0}
    if not surv_idx:
        stats["wall_ms"] = (time.perf_counter() - t0) * 1e3
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
        for j, c in enumerate(enum_cols):
            v = float((aid >> j) & 1)
            bounds[c, 0] = bounds[c, 1] = v
        lp = solve_lp(model, bounds=bounds)
        stats["lp_solves"] += 1
        if lp.status != "optimal":
            continue
        if lp.objective < best_obj:
            best_obj, best_x = lp.objective, lp.values
        if objective_is_binary:
            break

    stats["wall_ms"] = (time.perf_counter() - t0) * 1e3
    if best_x is None:
        return MilpSolution("infeasible", None, None, 0.0, None, stats)
    return MilpSolution("optimal", best_obj, best_obj, 0.0, best_x, stats)
