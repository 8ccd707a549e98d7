"""Horizon solving, equity metrics, and parameter sweeps.

``run_horizon`` builds one coupled multi-period model, solves it, verifies
the resulting schedule with the independent checker, and refuses to return
anything that does not verify cleanly.  The sweep helpers re-solve the
same instance across a parameter grid and report per-point status and
equity metrics; failed points carry their status, never fabricated
numbers.
"""

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import checker as chk
from .errors import DomainError, GridshedError, InfeasibleError, SolverLimitError
from .formulation import MilpModel, build_model
from .netmodel import (BlockPartition, NetworkModel, Scenario, _check_mode,
                       compute_load_blocks, uniform_beta)
from .solver import MilpSolution, SolverOptions, solve_lp, solve_milp


@dataclass(frozen=True)
class EquityMetrics:
    shed_counts: tuple  # periods shed, per block
    change_counts: tuple  # recomputed status changes, per block
    max_min_ratio: float  # over non-emergency blocks; inf when min is 0
    shares: tuple  # fraction of total sheds, per block
    participating: int  # unique blocks with at least one shed
    total_shed_energy: float  # MWh over the horizon
    vulnerability_cost: float  # sum of v_k over shed block-periods

    @property
    def total_sheds(self) -> int:
        return int(sum(self.shed_counts))


@dataclass(frozen=True)
class SweepPoint:
    value: float
    status: str
    objective: float | None
    metrics: EquityMetrics | None
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    param: str
    points: tuple

    def to_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(
            ["param", "value", "status", "objective", "total_sheds",
             "unique_blocks", "max_min_ratio", "wall_ms"]
        )
        for p in self.points:
            writer.writerow([
                self.param,
                _fmt(p.value),
                p.status,
                "" if p.objective is None else _fmt(p.objective),
                "" if p.metrics is None else p.metrics.total_sheds,
                "" if p.metrics is None else p.metrics.participating,
                "" if p.metrics is None else _fmt(p.metrics.max_min_ratio),
                _fmt(p.wall_ms),
            ])


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


# model variable family behind each checker.SERIES field
SERIES_FAMILY = {
    "switch_status": "zsw",
    "grid_forming": "zinv",
    "pg": "pg",
    "qg": "qg",
    "pd": "pd",
    "qd": "qd",
    "flow_p": "pflow",
    "flow_q": "qflow",
    "voltage_sq": "w",
    "storage_energy": "E",
    "storage_charge": "pch",
    "storage_discharge": "pdis",
    "storage_on": "zs",
    "storage_charging": "zch",
    "storage_discharging": "zdis",
}


def extract_schedule(model: MilpModel, values: np.ndarray, net: NetworkModel,
                     part: BlockPartition, scen: Scenario) -> chk.Schedule:
    """Read a solved variable vector back into a Schedule."""
    T = scen.horizon

    def read(family, entity, status) -> np.ndarray:
        # solve_milp has checked that every binary column is integral
        v = values[model.series[(family, entity)]]
        return np.round(v).astype(int) if status else v

    block_status = np.vstack(
        [read("z", f"blk{k}", True) for k in range(part.n_blocks)]
    )
    series = {
        name: {e.id: read(SERIES_FAMILY[name], e.id, status)
               for e in getattr(net, entities)}
        for name, _, entities, status in chk.SERIES
    }
    return chk.Schedule(horizon=T, block_status=block_status, **series)


def compute_metrics(part: BlockPartition, scen: Scenario,
                    sched: chk.Schedule) -> EquityMetrics:
    sheds = sched.sheds_per_block().astype(int)
    changes = sched.status_changes_per_block().astype(int)
    total = int(sheds.sum())
    shares = tuple(
        (float(s) / total if total else 0.0) for s in sheds
    )
    regular = [k for k in range(part.n_blocks) if k not in scen.emergency]
    reg_counts = [int(sheds[k]) for k in regular] or [0]
    if max(reg_counts) == 0:
        ratio = 1.0
    elif min(reg_counts) == 0:
        ratio = math.inf
    else:
        ratio = max(reg_counts) / min(reg_counts)

    energy = 0.0
    for blk in part.blocks:
        for t in range(scen.horizon):
            if sched.block_status[blk.index, t] == 0:
                energy += (blk.nominal_demand * scen.demand_multiplier[t]
                           * scen.period_hours)
    vuln = float(
        sum(
            scen.vulnerability[k] * int(sheds[k])
            for k in range(part.n_blocks)
        )
    )
    return EquityMetrics(
        shed_counts=tuple(int(s) for s in sheds),
        change_counts=tuple(int(c) for c in changes),
        max_min_ratio=ratio,
        shares=shares,
        participating=int((sheds > 0).sum()),
        total_shed_energy=energy,
        vulnerability_cost=vuln,
    )


def schedule_objective(part: BlockPartition, scen: Scenario,
                       sched: chk.Schedule, mode: str = "equitable") -> float:
    """Recompute the scheduling cost of a schedule from raw inputs."""
    _check_mode(mode)
    rho = scen.rho if mode == "equitable" else 0.0
    total = 0.0
    for blk in part.blocks:
        for t in range(scen.horizon):
            if sched.block_status[blk.index, t] == 0:
                total += (blk.nominal_demand * scen.demand_multiplier[t]
                          + rho * scen.vulnerability[blk.index])
    return total


def _diagnose_infeasibility(model: MilpModel) -> str:
    lp = solve_lp(model)
    if lp.status == "infeasible":
        return ("continuous relaxation is already infeasible; "
                "check capacity, emergency, and risk-cap settings")
    if lp.status != "optimal":
        return f"continuous relaxation is {lp.status}"
    # The relaxation is feasible, so integrality plus some combinatorial
    # family (risk cap vs emergency/budget interactions) is binding.
    return ("continuous relaxation is feasible; the integer restriction "
            "of the status/switching families has no feasible point")


def _solve_once(net: NetworkModel, part: BlockPartition, scen: Scenario,
                mode: str, opts: SolverOptions | None,
                allow_limit: bool = False):
    model = build_model(net, part, scen, mode)
    sol = solve_milp(model, opts)
    if sol.status == "infeasible":
        raise InfeasibleError(
            "no feasible schedule for this scenario",
            diagnosis=_diagnose_infeasibility(model),
        )
    if sol.values is None or (sol.status == "limit" and not allow_limit):
        raise SolverLimitError(
            f"solver stopped at status {sol.status} before reaching the gap target"
        )
    sched = extract_schedule(model, sol.values, net, part, scen)
    report = chk.verify_schedule(net, part, scen, sched, mode)
    if not report.passed:
        worst = "; ".join(v.describe() for v in report.violations[:5])
        raise GridshedError(
            f"solver returned a schedule that fails verification: {worst}"
        )
    metrics = compute_metrics(part, scen, sched)
    return sched, metrics, sol


def run_horizon(net: NetworkModel, scen: Scenario, mode: str = "equitable",
                opts: SolverOptions | None = None,
                part: BlockPartition | None = None):
    """Solve one horizon and return a verified (Schedule, EquityMetrics)."""
    part = part or compute_load_blocks(net)
    sched, metrics, _ = _solve_once(net, part, scen, mode, opts)
    return sched, metrics


def _sweep(net, scen_of_value, values, mode, opts, param, workers=1):
    part = compute_load_blocks(net)

    def solve_point(value):
        t0 = time.perf_counter()
        try:
            # keep time-limited incumbents: they are feasible and verified,
            # and the point carries its solver status alongside the metrics
            _, metrics, sol = _solve_once(net, part, scen_of_value(value),
                                          mode, opts, allow_limit=True)
            status, objective = sol.status, sol.objective
        except InfeasibleError:
            status, objective, metrics = "infeasible", None, None
        except SolverLimitError:
            status, objective, metrics = "limit", None, None
        wall = (time.perf_counter() - t0) * 1e3
        return SweepPoint(value, status, objective, metrics, wall)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        points = tuple(pool.map(solve_point, values))
    return SweepResult(param=param, points=points)


def sweep_epsilon(net: NetworkModel, scen: Scenario, values,
                  mode: str = "equitable", opts: SolverOptions | None = None,
                  workers: int = 1) -> SweepResult:
    """Re-solve across wildfire risk thresholds."""
    for v in values:
        if not 0 <= v <= 1:
            raise DomainError(f"epsilon {v} outside [0, 1]")
    return _sweep(net, lambda v: replace(scen, epsilon=float(v)),
                  list(values), mode, opts, "epsilon", workers)


def sweep_beta(net: NetworkModel, scen: Scenario, values,
               mode: str = "equitable", opts: SolverOptions | None = None,
               workers: int = 1) -> SweepResult:
    """Re-solve across uniform pairwise shed-ratio caps (inf allowed)."""
    for v in values:
        if not v >= 1:
            raise DomainError(f"beta {v} must be >= 1 or inf")
    part = compute_load_blocks(net)

    def with_beta(v):
        return replace(scen, beta=uniform_beta(part.n_blocks, float(v)))

    return _sweep(net, with_beta, list(values), mode, opts, "beta", workers)


def emit_report(sched: chk.Schedule, metrics: EquityMetrics, fmt: str,
                stream, objective: float | None = None) -> None:
    """Write the block-by-period 0/1 grid plus a metrics summary."""
    n_blocks = sched.block_status.shape[0]
    md = metrics_dict(metrics)
    if objective is not None:
        md["objective"] = _fmt(objective)
    if fmt == "json":
        json.dump(
            {"schedule": chk.schedule_to_dict(sched), "metrics": md},
            stream, indent=2, sort_keys=True,
        )
        stream.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["block"] + [f"t{t + 1}" for t in range(sched.horizon)])
        for k in range(n_blocks):
            writer.writerow([f"blk{k}"] + [int(x) for x in sched.block_status[k]])
        writer.writerow([])
        writer.writerow(["metric", "value"])
        for key, val in md.items():
            writer.writerow([key, val])
        return
    if fmt == "table":
        header = "block   " + " ".join(f"t{t + 1:<3d}" for t in range(sched.horizon))
        stream.write(header.rstrip() + "\n")
        for k in range(n_blocks):
            cells = " ".join(f"{int(x):<4d}" for x in sched.block_status[k])
            stream.write(f"blk{k:<5d}{cells}".rstrip() + "\n")
        stream.write("\n")
        for key, val in md.items():
            stream.write(f"{key}: {val}\n")
        return
    raise DomainError(f"unknown report format {fmt!r}")


def metrics_dict(metrics: EquityMetrics) -> dict:
    return {
        "shed_counts": list(metrics.shed_counts),
        "change_counts": list(metrics.change_counts),
        "max_min_ratio": _fmt(metrics.max_min_ratio),
        "shares": [_fmt(s) for s in metrics.shares],
        "participating": metrics.participating,
        "total_sheds": metrics.total_sheds,
        "total_shed_energy": _fmt(metrics.total_shed_energy),
        "vulnerability_cost": _fmt(metrics.vulnerability_cost),
    }
