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


# Every per-entity series of a Schedule, in field and document order:
# (field, JSON section or None for the top level, network collection whose
# ids key the series, 0/1 status).
SERIES = (
    ("switch_status", None, "lines", True),
    ("grid_forming", None, "ders", True),
    ("pg", "dispatch", "ders", False),
    ("qg", "dispatch", "ders", False),
    ("pd", "dispatch", "loads", False),
    ("qd", "dispatch", "loads", False),
    ("flow_p", "dispatch", "lines", False),
    ("flow_q", "dispatch", "lines", False),
    ("voltage_sq", "dispatch", "buses", False),
    ("storage_energy", "dispatch", "storage", False),
    ("storage_charge", "dispatch", "storage", False),
    ("storage_discharge", "dispatch", "storage", False),
    ("storage_on", "dispatch", "storage", True),
    ("storage_charging", "dispatch", "storage", True),
    ("storage_discharging", "dispatch", "storage", True),
)


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

    if not np.all((sched.block_status == 0) | (sched.block_status == 1)):
        raise DimensionError("status series must be 0/1")

    for name, _, entities, status in SERIES:
        mapping = getattr(sched, name)
        ids = [e.id for e in getattr(net, entities)]
        missing = set(ids) - set(mapping)
        if missing:
            raise DimensionError(f"{name}: missing series for {sorted(missing)}")
        unknown = set(mapping) - set(ids)
        if unknown:
            raise DimensionError(
                f"{name}: series for unknown ids {sorted(unknown)}"
            )
        try:
            for key in ids:
                if len(mapping[key]) != T:
                    raise DimensionError(
                        f"{name}[{key}]: length {len(mapping[key])} != horizon {T}"
                    )
            values = (np.concatenate(list(mapping.values())) if mapping
                      else np.zeros(0))
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"{name}: series must be flat arrays") from exc
        if values.ndim != 1:
            raise DimensionError(f"{name}: series must be flat arrays")
        if status and not np.all((values == 0) | (values == 1)):
            raise DimensionError("status series must be 0/1")
        # every comparison with NaN is false, so no later check would fail
        if not status and not np.all(np.isfinite(values)):
            raise DimensionError(f"{name}: non-finite value")


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
    check_fixed_lines(out, net, sched)
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
            beta = scen.beta[k][v]
            if math.isfinite(beta):
                out.breach("pair_ratio", f"blk{k}/blk{v}", None,
                           int(sheds[k]), beta * int(sheds[v]), LOGIC_TOL)
    return out.items


def check_wildfire(out, scen: Scenario, z: np.ndarray) -> None:
    for t in range(scen.horizon):
        risk = np.array([scen.risk[k][t] for k in range(z.shape[0])])
        out.breach("wildfire_cap", "system", t, float(risk @ z[:, t]),
                   scen.epsilon * risk.sum(), RESIDUAL_TOL)


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


def check_fixed_lines(out, net: NetworkModel, sched: Schedule) -> None:
    """A line that is not switchable is closed in every period."""
    for line in net.lines:
        if line.switchable:
            continue
        series = sched.switch_status[line.id]
        for t in range(sched.horizon):
            if series[t] == 0:
                out.residual("fixed_line", line.id, t, 1.0, LOGIC_TOL)


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
    for t in range(sched.horizon):
        forming = sched.forming_units(t)
        # two passes: units that cannot form are reported before dead blocks
        for d in net.ders:
            if d.id in forming and not d.can_grid_form:
                out.residual("grid_forming", d.id, t, 1.0, LOGIC_TOL)
        for d in net.ders:
            if (d.id in forming and d.can_grid_form
                    and z[part.block_of(d.bus), t] == 0):
                out.residual("grid_forming", f"{d.id}:dead-block", t, 1.0,
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


def _gated(out, family, entity, t, x, live, lo, hi) -> None:
    """x must be zero when its gate is off, within [lo, hi] when on."""
    if not live:
        out.residual(family, entity, t, x, RESIDUAL_TOL)
    else:
        out.breach(family, entity, t, x, hi, RESIDUAL_TOL)
        out.breach(family, entity, t, lo, x, RESIDUAL_TOL)


def check_gating(out, net: NetworkModel, part: BlockPartition, scen: Scenario,
                 sched: Schedule, z: np.ndarray) -> None:
    for b in net.buses:
        k = part.block_of(b.id)
        w = sched.voltage_sq[b.id]
        for t in range(scen.horizon):
            _gated(out, "voltage_gating", b.id, t, w[t], z[k, t] != 0,
                   b.v_min ** 2, b.v_max ** 2)
    for d in net.ders:
        k = part.block_of(d.bus)
        for t in range(scen.horizon):
            live = z[k, t] != 0
            _gated(out, "gen_gating", d.id, t, sched.pg[d.id][t], live,
                   d.p_min, d.p_max)
            _gated(out, "gen_gating", d.id, t, sched.qg[d.id][t], live,
                   d.q_min, d.q_max)
    for ld in net.loads:
        k = part.block_of(ld.bus)
        for t in range(scen.horizon):
            mult = scen.demand_multiplier[t]
            live = z[k, t] != 0
            _gated(out, "load_gating", ld.id, t, sched.pd[ld.id][t], live,
                   ld.p_min * mult, ld.p_max * mult)
            _gated(out, "load_gating", ld.id, t, sched.qd[ld.id][t], live,
                   ld.q_min * mult, ld.q_max * mult)


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
            live = status[t] == 1
            if live:
                drop = wt[t] - wf[t] + 2.0 * (
                    line.resistance * p[t] + line.reactance * q[t]
                )
                out.residual("voltage_drop", line.id, t, drop, RESIDUAL_TOL)
            _gated(out, "flow_gating", line.id, t, p[t], live,
                   line.p_min, line.p_max)
            _gated(out, "flow_gating", line.id, t, q[t], live,
                   line.q_min, line.q_max)


def check_balance(out, net: NetworkModel, sched: Schedule) -> None:
    # each bus's line ends in line order: -1 where a line leaves, +1 where
    # it arrives
    ends: dict = {b.id: [] for b in net.buses}
    for line in net.lines:
        ends[line.from_bus].append((line.id, -1.0))
        ends[line.to_bus].append((line.id, 1.0))
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
            for lid, sign in ends[b.id]:
                p += sign * sched.flow_p[lid][t]
                q += sign * sched.flow_q[lid][t]
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
    doc = {
        "horizon": sched.horizon,
        "block_status": [[int(x) for x in row] for row in sched.block_status],
    }
    for name, section, _, status in SERIES:
        cast = int if status else float
        target = doc if section is None else doc.setdefault(section, {})
        target[name] = {
            k: [cast(x) for x in v] for k, v in getattr(sched, name).items()
        }
    return doc


def _status_array(values, name: str) -> np.ndarray:
    """Integer statuses; unlike a cast to int, 1.5 is rejected, not truncated."""
    a = np.asarray(values)
    if a.dtype.kind == "i":
        return a
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.round(a))):
        raise ParseError(f"{name}: status values must be integers")
    return a.astype(int)


def schedule_from_dict(data: dict) -> Schedule:
    """Read a schedule document in the layout schedule_to_dict writes."""
    try:
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ParseError(f"horizon: expected an integer, got {horizon!r}")
        block_status = _status_array(data["block_status"], "block_status")
        series = {}
        for name, section, _, status in SERIES:
            # top-level series are required, dispatch series may be omitted
            source = (data[name] if section is None
                      else data.get(section, {}).get(name, {}))
            if status:
                series[name] = {key: _status_array(values, name)
                                for key, values in source.items()}
            else:
                series[name] = {key: np.asarray(values, dtype=float)
                                for key, values in source.items()}
        return Schedule(horizon=horizon, block_status=block_status, **series)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"malformed schedule document: {exc}") from exc
