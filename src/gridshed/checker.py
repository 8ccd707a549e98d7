"""Independent schedule verification.

Re-derives every constraint family from the raw network, partition, and
scenario — never from the MILP rows — so solver output is checked against
an implementation that cannot share its bugs.  Violations are data, not
exceptions: the report carries one record per violated (family, entity,
period) with the offending left/right-hand sides.

Tolerances: 1e-6 absolute for power/energy residuals and envelope checks,
exact integer arithmetic for everything that counts shed periods or
status changes (statuses are rounded and validated first).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParseError
from .netmodel import BlockPartition, NetworkModel, Scenario, UnionFind

RESIDUAL_TOL = 1e-6
LOGIC_TOL = 1e-9

# checker family for every row group the builder can emit
CHECK_FAMILY_OF_GROUP = {
    "power_flow": "voltage_drop",
    "voltage_bounds": "voltage_gating",
    "gen_bounds": "gen_gating",
    "load_bounds": "load_gating",
    "ramping": "ramping",
    "flow_gating": "flow_gating",
    "nodal_balance": "nodal_balance",
    "storage_energy": "storage_energy",
    "storage_status": "storage_status",
    "wildfire_cap": "wildfire_cap",
    "block_budget": "block_budget",
    "switch_budget": "switch_budget",
    "alignment": "alignment",
    "tree_cardinality": "radiality",
    "tree_membership": "radiality",
    "tree_switch_link": "radiality",
    "commodity_balance": "radiality",
    "commodity_capacity": "radiality",
    "forming_bounds": "grid_forming",
    "forming_output": "grid_forming",
    "forming_support": "grid_forming",
    "alpha_cap": "alpha_cap",
    "shed_window": "shed_window",
    "status_changes": "status_changes",
    "share_cap": "share_cap",
    "pair_ratio": "pair_ratio",
}


@dataclass(frozen=True)
class Schedule:
    """Per-period decisions and dispatch for one solved horizon."""

    horizon: int
    block_status: np.ndarray  # (blocks, T) of 0/1
    switch_status: dict  # line id -> (T,) of 0/1, every line
    grid_forming: dict  # der id -> (T,) of 0/1
    pg: dict
    qg: dict
    pd: dict
    qd: dict
    flow_p: dict
    flow_q: dict
    voltage_sq: dict
    storage_energy: dict = field(default_factory=dict)
    storage_charge: dict = field(default_factory=dict)
    storage_discharge: dict = field(default_factory=dict)
    storage_on: dict = field(default_factory=dict)
    storage_charging: dict = field(default_factory=dict)
    storage_discharging: dict = field(default_factory=dict)

    def sheds_per_block(self) -> np.ndarray:
        return self.horizon - self.block_status.sum(axis=1)

    def status_changes_per_block(self) -> np.ndarray:
        if self.horizon < 2:
            return np.zeros(self.block_status.shape[0], dtype=int)
        return np.abs(np.diff(self.block_status, axis=1)).sum(axis=1)

    def closed_lines(self, t: int) -> set:
        return {lid for lid, series in self.switch_status.items() if series[t] == 1}

    def forming_units(self, t: int) -> set:
        return {did for did, series in self.grid_forming.items() if series[t] == 1}


@dataclass(frozen=True)
class Violation:
    family: str
    entity: str
    period: int | None
    lhs: float
    rhs: float
    slack: float  # positive magnitude of the breach

    def describe(self) -> str:
        where = f"@{self.period}" if self.period is not None else ""
        return (f"{self.family} {self.entity}{where}: "
                f"lhs={self.lhs:.9g} rhs={self.rhs:.9g} breach={self.slack:.3g}")


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def worst_by_family(self) -> dict:
        worst: dict = {}
        for v in self.violations:
            if v.family not in worst or v.slack > worst[v.family].slack:
                worst[v.family] = v
        return worst

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [
                {
                    "family": v.family,
                    "entity": v.entity,
                    "period": v.period,
                    "lhs": v.lhs,
                    "rhs": v.rhs,
                    "slack": v.slack,
                }
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class Island:
    buses: frozenset
    former_count: int
    touches_root: bool
    is_tree: bool


@dataclass(frozen=True)
class RadialityResult:
    is_forest: bool
    islands: tuple


def radiality_check(net: NetworkModel, closed_line_ids: set,
                    forming_der_ids: set) -> RadialityResult:
    """Graph-theoretic radiality and grid-forming census for one period.

    Components are computed over the closed lines only, with no reference
    to the tree variables of the optimization model.
    """
    uf = UnionFind([b.id for b in net.buses])
    closed = [l for l in net.lines if l.id in closed_line_ids]
    for line in closed:
        uf.union(line.from_bus, line.to_bus)
    groups = uf.groups()
    edge_count: dict = {root: 0 for root in groups}
    for line in closed:
        edge_count[uf.find(line.from_bus)] += 1
    formers_at: dict = {}
    for d in net.ders:
        if d.id in forming_der_ids:
            root = uf.find(d.bus)
            formers_at[root] = formers_at.get(root, 0) + 1
    substation = net.substation.id

    islands = []
    for root, members in sorted(groups.items(), key=lambda kv: min(kv[1])):
        islands.append(
            Island(
                buses=frozenset(members),
                former_count=formers_at.get(root, 0),
                touches_root=substation in members,
                is_tree=edge_count[root] == len(members) - 1,
            )
        )
    return RadialityResult(
        is_forest=all(i.is_tree for i in islands), islands=tuple(islands)
    )


def validate_schedule_dims(net: NetworkModel, part: BlockPartition,
                           scen: Scenario, sched: Schedule) -> None:
    """Raise DimensionError when the schedule does not match the inputs."""
    T = scen.horizon
    if sched.horizon != T:
        raise DimensionError(f"schedule horizon {sched.horizon} != scenario {T}")
    if sched.block_status.shape != (part.n_blocks, T):
        raise DimensionError(
            f"block_status shape {sched.block_status.shape} != "
            f"({part.n_blocks}, {T})"
        )

    def check_map(mapping, ids, what):
        missing = set(ids) - set(mapping)
        if missing:
            raise DimensionError(f"{what}: missing series for {sorted(missing)}")
        for key in ids:
            if len(mapping[key]) != T:
                raise DimensionError(
                    f"{what}[{key}]: length {len(mapping[key])} != horizon {T}"
                )

    check_map(sched.switch_status, [l.id for l in net.lines], "switch_status")
    check_map(sched.grid_forming, [d.id for d in net.ders], "grid_forming")
    check_map(sched.pg, [d.id for d in net.ders], "pg")
    check_map(sched.qg, [d.id for d in net.ders], "qg")
    check_map(sched.pd, [l.id for l in net.loads], "pd")
    check_map(sched.qd, [l.id for l in net.loads], "qd")
    check_map(sched.flow_p, [l.id for l in net.lines], "flow_p")
    check_map(sched.flow_q, [l.id for l in net.lines], "flow_q")
    check_map(sched.voltage_sq, [b.id for b in net.buses], "voltage_sq")
    for name in ("storage_energy", "storage_charge", "storage_discharge",
                 "storage_on", "storage_charging", "storage_discharging"):
        check_map(getattr(sched, name), [s.id for s in net.storage], name)

    for arr in (sched.block_status,
                *sched.switch_status.values(),
                *sched.grid_forming.values(),
                *sched.storage_on.values(),
                *sched.storage_charging.values(),
                *sched.storage_discharging.values()):
        a = np.asarray(arr)
        if a.size and not np.all((a == 0) | (a == 1)):
            raise DimensionError("status series must be 0/1")


class _Collector:
    def __init__(self):
        self.items: list = []

    def breach(self, family, entity, period, lhs, rhs, tol):
        """Record lhs <= rhs violated beyond tol."""
        if lhs > rhs + tol:
            self.items.append(
                Violation(family, str(entity), period, float(lhs), float(rhs),
                          float(lhs - rhs))
            )

    def residual(self, family, entity, period, value, tol):
        """Record |value| > tol."""
        if abs(value) > tol:
            self.items.append(
                Violation(family, str(entity), period, float(value), 0.0,
                          float(abs(value)))
            )


def verify_schedule(net: NetworkModel, part: BlockPartition, scen: Scenario,
                    sched: Schedule, mode: str = "equitable") -> ViolationReport:
    """Re-derive every constraint family and report all breaches."""
    validate_schedule_dims(net, part, scen, sched)
    out = _Collector()
    z = sched.block_status

    check_wildfire(out, scen, z)
    check_block_budget(out, scen, z)
    check_switch_budget(out, part, scen, sched.switch_status)
    check_alignment(out, part, sched, z)
    check_islands(out, net, part, sched, z)
    check_gating(out, net, part, scen, sched, z)
    check_ramping(out, net, sched)
    check_power_flow(out, net, sched)
    check_balance(out, net, sched)
    check_storage(out, net, part, scen, sched, z)
    if mode == "equitable":
        out.items.extend(equity_violations(scen, z))
    return ViolationReport(tuple(out.items))


def equity_violations(scen: Scenario, block_status: np.ndarray) -> list:
    """Horizon-level equity checks recomputed from block statuses alone:
    emergency energization, shed-count caps, shed-duration windows,
    recomputed status-change counts, proportional shares, and pairwise
    ratios.  Counting is exact integer arithmetic."""
    out = _Collector()
    z = np.asarray(block_status)
    n_blocks, T = z.shape
    sheds = T - z.sum(axis=1)
    changes = (np.abs(np.diff(z, axis=1)).sum(axis=1) if T > 1
               else np.zeros(n_blocks, dtype=int))
    for k in scen.emergency:
        out.breach("emergency", f"blk{k}", None, int(T - z[k].sum()), 0,
                   LOGIC_TOL)
    regular = [k for k in range(n_blocks) if k not in scen.emergency]
    total = int(sheds.sum())
    for k in regular:
        out.breach("alpha_cap", f"blk{k}", None, int(sheds[k]),
                   scen.alpha[k], LOGIC_TOL)
        out.breach("status_changes", f"blk{k}", None, int(changes[k]),
                   scen.m, LOGIC_TOL)
        if scen.lam < 1.0:
            width = scen.window + 1
            for start in range(0, T - scen.window):
                offs = int(width - z[k, start:start + width].sum())
                out.breach("shed_window", f"blk{k}", start, offs,
                           scen.lam * width, LOGIC_TOL)
        out.breach("share_cap", f"blk{k}", None, int(sheds[k]),
                   scen.psi[k] * total, LOGIC_TOL)
    for k in regular:
        for v in regular:
            if k == v:
                continue
            beta = scen.beta_at(k, v)
            if math.isfinite(beta):
                out.breach("pair_ratio", f"blk{k}/blk{v}", None,
                           int(sheds[k]), beta * int(sheds[v]), LOGIC_TOL)
    return out.items


def check_wildfire(out, scen: Scenario, z: np.ndarray) -> None:
    for t in range(scen.horizon):
        risk = np.array([scen.risk[k][t] for k in range(z.shape[0])])
        out.breach("wildfire_cap", "system", t, float(risk @ z[:, t]),
                   scen.epsilon * risk.sum(), RESIDUAL_TOL)


def block_budget_violations(scen: Scenario, block_status) -> list:
    """Per-period shed-count budget recomputed from block statuses."""
    out = _Collector()
    check_block_budget(out, scen, np.asarray(block_status))
    return out.items


def check_block_budget(out, scen: Scenario, z: np.ndarray) -> None:
    n_blocks = z.shape[0]
    for t in range(scen.horizon):
        offs = int(n_blocks - z[:, t].sum())
        out.breach("block_budget", "system", t, offs, scen.k_bl_max, LOGIC_TOL)


def check_switch_budget(out, part: BlockPartition, scen: Scenario,
                        switch_status: dict) -> None:
    switchable = [lid for lid, _, _ in part.block_graph]
    for t in range(scen.horizon):
        open_count = sum(1 for lid in switchable if switch_status[lid][t] == 0)
        out.breach("switch_budget", "system", t, open_count, scen.k_sw_max,
                   LOGIC_TOL)


def check_alignment(out, part: BlockPartition, sched: Schedule,
                    z: np.ndarray) -> None:
    for lid, ki, kj in part.block_graph:
        if ki == kj:
            continue
        series = sched.switch_status[lid]
        for t in range(sched.horizon):
            if series[t] == 1 and z[ki, t] != z[kj, t]:
                out.residual("alignment", lid, t, 1.0, LOGIC_TOL)


def check_islands(out, net: NetworkModel, part: BlockPartition,
                  sched: Schedule, z: np.ndarray) -> None:
    """Energized components must be trees holding exactly one forming
    reference, or touch the substation."""
    can_form = {d.id for d in net.ders if d.can_grid_form}
    for t in range(sched.horizon):
        forming = sched.forming_units(t)
        for did in forming - can_form:
            out.residual("grid_forming", did, t, 1.0, LOGIC_TOL)
        for did in forming & can_form:
            block = part.block_of(next(d.bus for d in net.ders if d.id == did))
            if z[block, t] == 0:
                out.residual("grid_forming", f"{did}:dead-block", t, 1.0,
                             LOGIC_TOL)
        result = radiality_check(net, sched.closed_lines(t), forming)
        for island in result.islands:
            energized = any(
                z[part.block_of(b), t] == 1 for b in island.buses
            )
            if not energized:
                continue
            name = f"island[{min(island.buses)}]"
            if not island.is_tree:
                out.residual("radiality", name, t, 1.0, LOGIC_TOL)
            if not island.touches_root and island.former_count != 1:
                out.residual("grid_forming", name, t,
                             island.former_count - 1, LOGIC_TOL)


def check_gating(out, net: NetworkModel, part: BlockPartition, scen: Scenario,
                 sched: Schedule, z: np.ndarray) -> None:
    for b in net.buses:
        k = part.block_of(b.id)
        w = sched.voltage_sq[b.id]
        for t in range(scen.horizon):
            if z[k, t] == 0:
                out.residual("voltage_gating", b.id, t, w[t], RESIDUAL_TOL)
            else:
                out.breach("voltage_gating", b.id, t, w[t], b.v_max ** 2,
                           RESIDUAL_TOL)
                out.breach("voltage_gating", b.id, t, b.v_min ** 2, w[t],
                           RESIDUAL_TOL)
    for d in net.ders:
        k = part.block_of(d.bus)
        for t in range(scen.horizon):
            pg, qg = sched.pg[d.id][t], sched.qg[d.id][t]
            if z[k, t] == 0:
                out.residual("gen_gating", d.id, t, pg, RESIDUAL_TOL)
                out.residual("gen_gating", d.id, t, qg, RESIDUAL_TOL)
            else:
                out.breach("gen_gating", d.id, t, pg, d.p_max, RESIDUAL_TOL)
                out.breach("gen_gating", d.id, t, d.p_min, pg, RESIDUAL_TOL)
                out.breach("gen_gating", d.id, t, qg, d.q_max, RESIDUAL_TOL)
                out.breach("gen_gating", d.id, t, d.q_min, qg, RESIDUAL_TOL)
    for ld in net.loads:
        k = part.block_of(ld.bus)
        for t in range(scen.horizon):
            mult = scen.demand_multiplier[t]
            pd, qd = sched.pd[ld.id][t], sched.qd[ld.id][t]
            if z[k, t] == 0:
                out.residual("load_gating", ld.id, t, pd, RESIDUAL_TOL)
                out.residual("load_gating", ld.id, t, qd, RESIDUAL_TOL)
            else:
                out.breach("load_gating", ld.id, t, pd, ld.p_max * mult,
                           RESIDUAL_TOL)
                out.breach("load_gating", ld.id, t, ld.p_min * mult, pd,
                           RESIDUAL_TOL)
                out.breach("load_gating", ld.id, t, qd, ld.q_max * mult,
                           RESIDUAL_TOL)
                out.breach("load_gating", ld.id, t, ld.q_min * mult, qd,
                           RESIDUAL_TOL)


def check_ramping(out, net: NetworkModel, sched: Schedule) -> None:
    for d in net.ders:
        pg = sched.pg[d.id]
        for t in range(1, sched.horizon):
            if math.isfinite(d.ramp_up):
                out.breach("ramping", d.id, t, pg[t] - pg[t - 1], d.ramp_up,
                           RESIDUAL_TOL)
            if math.isfinite(d.ramp_down):
                out.breach("ramping", d.id, t, pg[t - 1] - pg[t], d.ramp_down,
                           RESIDUAL_TOL)


def check_power_flow(out, net: NetworkModel, sched: Schedule) -> None:
    """Voltage drop along closed lines and flow gating on every line."""
    for line in net.lines:
        status = sched.switch_status[line.id]
        p, q = sched.flow_p[line.id], sched.flow_q[line.id]
        wf = sched.voltage_sq[line.from_bus]
        wt = sched.voltage_sq[line.to_bus]
        for t in range(sched.horizon):
            if status[t] == 1:
                drop = wt[t] - wf[t] + 2.0 * (
                    line.resistance * p[t] + line.reactance * q[t]
                )
                out.residual("voltage_drop", line.id, t, drop, RESIDUAL_TOL)
                out.breach("flow_gating", line.id, t, p[t], line.p_max,
                           RESIDUAL_TOL)
                out.breach("flow_gating", line.id, t, line.p_min, p[t],
                           RESIDUAL_TOL)
                out.breach("flow_gating", line.id, t, q[t], line.q_max,
                           RESIDUAL_TOL)
                out.breach("flow_gating", line.id, t, line.q_min, q[t],
                           RESIDUAL_TOL)
            else:
                out.residual("flow_gating", line.id, t, p[t], RESIDUAL_TOL)
                out.residual("flow_gating", line.id, t, q[t], RESIDUAL_TOL)


def check_balance(out, net: NetworkModel, sched: Schedule) -> None:
    for b in net.buses:
        for t in range(sched.horizon):
            p = sum(sched.pg[g][t] for g in b.attached_generators)
            p += sum(
                sched.storage_discharge[s][t] - sched.storage_charge[s][t]
                for s in b.attached_storage
            )
            p -= sum(sched.pd[l][t] for l in b.attached_loads)
            q = sum(sched.qg[g][t] for g in b.attached_generators)
            q -= sum(sched.qd[l][t] for l in b.attached_loads)
            for line in net.lines:
                if line.from_bus == b.id:
                    p -= sched.flow_p[line.id][t]
                    q -= sched.flow_q[line.id][t]
                elif line.to_bus == b.id:
                    p += sched.flow_p[line.id][t]
                    q += sched.flow_q[line.id][t]
            out.residual("nodal_balance", b.id, t, p, RESIDUAL_TOL)
            out.residual("nodal_balance", f"{b.id}:q", t, q, RESIDUAL_TOL)


def check_storage(out, net: NetworkModel, part: BlockPartition, scen: Scenario,
                  sched: Schedule, z: np.ndarray) -> None:
    dh = scen.period_hours
    for s in net.storage:
        e = sched.storage_energy[s.id]
        pch = sched.storage_charge[s.id]
        pdis = sched.storage_discharge[s.id]
        zs = sched.storage_on[s.id]
        zch = sched.storage_charging[s.id]
        zdis = sched.storage_discharging[s.id]
        k = part.block_of(s.bus)
        for t in range(scen.horizon):
            prev = s.initial_energy if t == 0 else e[t - 1]
            gain = dh * (s.eta_charge * pch[t] - pdis[t] / s.eta_discharge)
            out.residual("storage_energy", s.id, t, e[t] - prev - gain,
                         RESIDUAL_TOL)
            out.breach("storage_energy", s.id, t, e[t], s.e_max, RESIDUAL_TOL)
            out.breach("storage_energy", s.id, t, 0.0, e[t], RESIDUAL_TOL)
            out.residual("storage_status", s.id, t,
                         zch[t] + zdis[t] - zs[t], LOGIC_TOL)
            out.breach("storage_status", s.id, t, zs[t], z[k, t], LOGIC_TOL)
            out.breach("storage_status", s.id, t, pch[t],
                       s.p_charge_max * zch[t], RESIDUAL_TOL)
            out.breach("storage_status", s.id, t, pdis[t],
                       s.p_discharge_max * zdis[t], RESIDUAL_TOL)
            out.breach("storage_status", s.id, t, 0.0, pch[t], RESIDUAL_TOL)
            out.breach("storage_status", s.id, t, 0.0, pdis[t], RESIDUAL_TOL)


def schedule_to_dict(sched: Schedule) -> dict:
    def series_map(mapping):
        return {k: [float(x) for x in v] for k, v in mapping.items()}

    def int_map(mapping):
        return {k: [int(x) for x in v] for k, v in mapping.items()}

    return {
        "horizon": sched.horizon,
        "block_status": [[int(x) for x in row] for row in sched.block_status],
        "switch_status": int_map(sched.switch_status),
        "grid_forming": int_map(sched.grid_forming),
        "dispatch": {
            "pg": series_map(sched.pg),
            "qg": series_map(sched.qg),
            "pd": series_map(sched.pd),
            "qd": series_map(sched.qd),
            "flow_p": series_map(sched.flow_p),
            "flow_q": series_map(sched.flow_q),
            "voltage_sq": series_map(sched.voltage_sq),
            "storage_energy": series_map(sched.storage_energy),
            "storage_charge": series_map(sched.storage_charge),
            "storage_discharge": series_map(sched.storage_discharge),
            "storage_on": int_map(sched.storage_on),
            "storage_charging": int_map(sched.storage_charging),
            "storage_discharging": int_map(sched.storage_discharging),
        },
    }


def schedule_from_dict(data: dict) -> Schedule:
    try:
        dispatch = data.get("dispatch", {})

        def arr_map(source, as_int=False):
            dtype = int if as_int else float
            return {
                str(k): np.asarray(v, dtype=dtype) for k, v in source.items()
            }

        return Schedule(
            horizon=int(data["horizon"]),
            block_status=np.asarray(data["block_status"], dtype=int),
            switch_status=arr_map(data["switch_status"], as_int=True),
            grid_forming=arr_map(data["grid_forming"], as_int=True),
            pg=arr_map(dispatch.get("pg", {})),
            qg=arr_map(dispatch.get("qg", {})),
            pd=arr_map(dispatch.get("pd", {})),
            qd=arr_map(dispatch.get("qd", {})),
            flow_p=arr_map(dispatch.get("flow_p", {})),
            flow_q=arr_map(dispatch.get("flow_q", {})),
            voltage_sq=arr_map(dispatch.get("voltage_sq", {})),
            storage_energy=arr_map(dispatch.get("storage_energy", {})),
            storage_charge=arr_map(dispatch.get("storage_charge", {})),
            storage_discharge=arr_map(dispatch.get("storage_discharge", {})),
            storage_on=arr_map(dispatch.get("storage_on", {}), as_int=True),
            storage_charging=arr_map(
                dispatch.get("storage_charging", {}), as_int=True
            ),
            storage_discharging=arr_map(
                dispatch.get("storage_discharging", {}), as_int=True
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed schedule document: {exc}") from exc
