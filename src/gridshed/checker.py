"""Independent schedule verification.

Re-derives every constraint family from the raw network, partition, and
scenario — never from the MILP rows — so solver output is checked against
an implementation that cannot share its bugs.  Violations are data, not
exceptions: the report carries one record per violated (family, entity,
period) with the offending left/right-hand sides.

Each family is a few array operations over (entity × period) matrices.
Each check stacks the schedule's series once.  The network's incidence,
block-index and bound arrays are built from ``netmodel`` objects alone,
once per (network, partition) pair of objects, and kept read-only.
Each gated family checks its own series against its gate: zero where the
gate is off, within bounds where it is on.
Records are made only where a family's mask is true, ordered by entity,
then period, then sub-check.

Tolerances: 1e-6 absolute for power/energy residuals and envelope checks,
exact integer arithmetic for everything that counts shed periods or
status changes (statuses are rounded and validated first).
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .errors import DimensionError, ParseError
from .netmodel import (BlockPartition, NetworkModel, Scenario, _check_mode,
                       _Recent)

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


@dataclass(frozen=True, slots=True)
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


# The fields the checks read from the entities of each collection.
_FIELDS = {
    "buses": ("id", "v_min", "v_max"),
    "lines": ("id", "from_bus", "to_bus", "resistance", "reactance",
              "switchable", "p_min", "p_max", "q_min", "q_max"),
    "ders": ("id", "bus", "p_min", "p_max", "q_min", "q_max", "ramp_up",
             "ramp_down", "can_grid_form"),
    "loads": ("id", "bus", "p_min", "p_max", "q_min", "q_max"),
    "storage": ("id", "bus", "e_max", "initial_energy", "eta_charge",
                "eta_discharge", "p_charge_max", "p_discharge_max"),
}
_UNITS = ("ders", "loads", "storage")
_STATUS = np.array([status for *_, status in SERIES])


def _read_fields(items, fields) -> dict:
    """field -> the tuple of its values over ``items``, read in one pass."""
    columns = tuple(zip(*map(attrgetter(*fields), items)))
    return dict(zip(fields, columns or ((),) * len(fields)))


def _numbers(col: dict, *fields) -> np.ndarray:
    """(fields, entities, 1): one (entities, 1) column per field."""
    return np.array([col[f] for f in fields], dtype=float)[:, :, None]


class _NetworkArrays:
    """Index, incidence and bound arrays of one network and its partition,
    derived from ``netmodel`` objects alone.  Bounds are (entities, 1)
    columns, so they broadcast against (entities, periods) series.  Each
    collection is read in one pass."""

    def __init__(self, net: NetworkModel, part: BlockPartition):
        self.part = part
        col = {name: _read_fields(getattr(net, name), fields)
               for name, fields in _FIELDS.items()}
        buses, lines = col["buses"], col["lines"]
        self.ids = {name: c["id"] for name, c in col.items()}
        self.known = {name: frozenset(ids) for name, ids in self.ids.items()}
        bus_ids = self.ids["buses"]
        n_bus, n_line = len(bus_ids), len(lines["id"])
        bus_at = dict(zip(bus_ids, range(n_bus)))

        self.line_from, self.line_to = np.array(
            [[bus_at[b] for b in lines["from_bus"]],
             [bus_at[b] for b in lines["to_bus"]]], dtype=int)
        bus = {name: np.array([bus_at[b] for b in col[name]["bus"]], dtype=int)
               for name in _UNITS}

        # (bus, entity) incidence: -1 where a line leaves a bus, +1 where
        # it arrives, +1 at the bus of a unit
        self.line_inc = np.zeros((n_bus, n_line))
        self.line_inc[self.line_from, np.arange(n_line)] = -1.0
        self.line_inc[self.line_to, np.arange(n_line)] = 1.0
        at_bus = np.arange(n_bus)[:, None]
        self.inc = {name: (at_bus == bus[name]).astype(float)
                    for name in _UNITS}
        self.block = {"buses": np.array([part.block_of_bus[b] for b in bus_ids],
                                        dtype=int)}
        for name in _UNITS:
            self.block[name] = self.block["buses"][bus[name]]

        # the switch lines' ids, rows, and blocks at either end
        line_at = dict(zip(lines["id"], range(n_line)))
        self.switch_ids = tuple(lid for lid, _, _ in part.block_graph)
        self.switches = np.array([line_at[lid] for lid in self.switch_ids],
                                 dtype=int)
        self.switch_ends = np.array([[ki for _, ki, _ in part.block_graph],
                                     [kj for _, _, kj in part.block_graph]],
                                    dtype=int)

        self.resistance, self.reactance, switchable = _numbers(
            lines, "resistance", "reactance", "switchable")
        self.fixed = switchable == 0
        # squares are taken in Python, as the one-entity formulas did
        self.v_min_sq, self.v_max_sq = np.array(
            [[v ** 2 for v in buses["v_min"]],
             [v ** 2 for v in buses["v_max"]]], dtype=float)[:, :, None]
        # (p_min, p_max, q_min, q_max) of each line, DER and load
        self.pq_bounds = {
            name: _numbers(col[name], "p_min", "p_max", "q_min", "q_max")
            for name in ("lines", "ders", "loads")}
        self.ramp_up, self.ramp_down, can_form = _numbers(
            col["ders"], "ramp_up", "ramp_down", "can_grid_form")
        self.can_form = can_form != 0
        (self.e_max, self.e_initial, self.eta_charge, self.eta_discharge,
         self.charge_max, self.discharge_max) = _numbers(
            col["storage"], "e_max", "initial_energy", "eta_charge",
            "eta_discharge", "p_charge_max", "p_discharge_max")

        # The island census works on bus ranks in sorted-id order, so the
        # lowest rank in a component names its island.
        self.sorted_bus_ids = tuple(sorted(bus_ids))
        rank = dict(zip(self.sorted_bus_ids, range(n_bus)))
        self.rank_block = np.array(
            [part.block_of_bus[b] for b in self.sorted_bus_ids], dtype=int)
        self.line_ends_rank = np.array(
            [[rank[b] for b in lines["from_bus"]],
             [rank[b] for b in lines["to_bus"]]], dtype=int)
        self.der_rank = np.array([rank[b] for b in col["ders"]["bus"]],
                                 dtype=int)
        self.substation_rank = rank[net.substation.id]

        # row layout of all series stacked into one matrix, in SERIES order
        counts = [len(self.ids[entities]) for _, _, entities, _ in SERIES]
        self.rows = {
            entry[0]: slice(stop - n, stop)
            for entry, n, stop in zip(SERIES, counts, accumulate(counts))
        }
        self.status_rows = np.repeat(_STATUS, counts)[:, None]

        # the arrays are shared by every later check of this pair
        for value in vars(self).values():
            for array in (value.values() if isinstance(value, dict)
                          else (value,)):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False


# The arrays of recent (network, partition) pairs, by their ids; each
# entry holds both objects, so the ids stay theirs while it is kept.
_ARRAYS = _Recent(8)


def _arrays_of(net: NetworkModel, part: BlockPartition) -> _NetworkArrays:
    key = (id(net), id(part))
    entry = _ARRAYS.get(key)
    if entry is None:
        entry = _ARRAYS.put(key, (net, part, _NetworkArrays(net, part)))
    return entry[2]


def _census(a: _NetworkArrays, closed: np.ndarray, forming: np.ndarray):
    """Components of the closed lines in every period at once.

    ``closed`` is (lines, T) and ``forming`` (ders, T).  Node t·B + r is the
    bus of rank r in period t.  Returns each node's root, the lowest node
    of its component, and per root the member, closed-line and forming-unit
    counts, all flat over the T·B nodes."""
    n_bus = len(a.sorted_bus_ids)
    n = closed.shape[1] * n_bus
    lines, t = np.nonzero(closed)
    u = t * n_bus + a.line_ends_rank[0][lines]
    v = t * n_bus + a.line_ends_rank[1][lines]
    # hook every root onto the lowest root next to it, then compress every
    # path, until no closed line joins two roots (scipy's
    # connected_components costs four times as much on these small graphs)
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        if not np.count_nonzero(ru != rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if not np.count_nonzero(up != root):
                break
            root = up
    ders, td = np.nonzero(forming)
    members = np.bincount(root, minlength=n)
    edges = np.bincount(root[u], minlength=n)
    formers = np.bincount(root[td * n_bus + a.der_rank[ders]], minlength=n)
    return root, members, edges, formers


def _stack_series(a: _NetworkArrays, scen: Scenario, sched: Schedule) -> dict:
    """Every series family of the schedule as an (entities, T) matrix in
    network order, keyed by field name: views into one matrix that stacks
    them all, plus the block statuses.  Raise DimensionError when the
    schedule does not match the inputs."""
    T = scen.horizon
    n_blocks = a.part.n_blocks
    if sched.horizon != T:
        raise DimensionError(f"schedule horizon {sched.horizon} != scenario {T}")
    if sched.block_status.shape != (n_blocks, T):
        raise DimensionError(
            f"block_status shape {sched.block_status.shape} != "
            f"({n_blocks}, {T})"
        )
    if not np.all((sched.block_status == 0) | (sched.block_status == 1)):
        raise DimensionError("status series must be 0/1")
    values = _collect_series(a, sched, T)
    # every comparison with NaN is false, so no later check would fail
    valid = np.where(a.status_rows, (values == 0) | (values == 1),
                     np.isfinite(values)).all(axis=1)
    if not valid.all():
        row = int(np.argmin(valid))
        name, status = next((name, status) for name, _, _, status in SERIES
                            if a.rows[name].stop > row)
        raise DimensionError("status series must be 0/1" if status
                             else f"{name}: non-finite value")
    stacked = {name: values[span] for name, span in a.rows.items()}
    stacked["block_status"] = sched.block_status
    return stacked


def _collect_series(a: _NetworkArrays, sched: Schedule, T: int) -> np.ndarray:
    """The series stacked in network order, row by row.  Raise
    DimensionError when they do not match the network's ids or the
    horizon, or are not numbers."""
    series = []
    for name, _, entities, _ in SERIES:
        mapping, known = getattr(sched, name), a.known[entities]
        if mapping.keys() != known:
            missing = known - mapping.keys()
            if missing:
                raise DimensionError(
                    f"{name}: missing series for {sorted(missing)}")
            raise DimensionError(
                f"{name}: series for unknown ids {sorted(mapping.keys() - known)}"
            )
        series += [mapping[key] for key in a.ids[entities]]
    try:
        values = np.array(series)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (len(series), T):
        _raise_shape_fault(a, sched, T)
    if values.dtype.kind not in "biuf":
        raise DimensionError("series values must be numbers")
    return values.astype(float, copy=False)


def _raise_shape_fault(a: _NetworkArrays, sched: Schedule, T: int) -> None:
    """Name the first series, in SERIES order, that is not a flat array
    as long as the horizon."""
    for name, _, entities, _ in SERIES:
        series = [(key, getattr(sched, name)[key]) for key in a.ids[entities]]
        for key, values in series:
            try:
                length = len(values)
            except TypeError:
                break
            if length != T:
                raise DimensionError(
                    f"{name}[{key}]: length {length} != horizon {T}"
                )
        if any(np.ndim(values) != 1 for _, values in series):
            break
    raise DimensionError(f"{name}: series must be flat arrays")


def _breach(family, lhs, rhs, tol, where=None, suffix=""):
    """Check lhs <= rhs within tol, only where ``where`` holds."""
    mask = lhs > rhs + tol
    return (family, suffix, mask if where is None else mask & where, lhs,
            rhs, False)


def _residual(family, value, tol, where=None, suffix=""):
    """Check |value| <= tol, only where ``where`` holds."""
    mask = np.abs(value) > tol
    return (family, suffix, mask if where is None else mask & where, value,
            0.0, True)


def _gate(family, x, on, lo, hi):
    """Check that x is zero where ``on`` is false and within [lo, hi]
    where it is true."""
    return [_residual(family, x, RESIDUAL_TOL, ~on),
            _breach(family, x, hi, RESIDUAL_TOL, on),
            _breach(family, lo, x, RESIDUAL_TOL, on)]


def _at(x, e: int, t: int):
    """Entry (e, t) of a scalar or of an array broadcast to the mask."""
    if not isinstance(x, np.ndarray):
        return x
    return x[min(e, x.shape[0] - 1), min(t, x.shape[1] - 1)]


def _emit(out: list, ids, checks, first_period: int = 0) -> None:
    """Append a Violation for every true mask entry of ``checks``, ordered
    by entity, then period, then check.  A check is (family, entity
    suffix, (entities, periods) mask, lhs, rhs, residual); a residual
    reports |lhs| as its breach, any other check lhs - rhs."""
    counts = list(map(np.count_nonzero, (c[2] for c in checks)))
    if not any(counts):
        return
    checks = [c for c, n in zip(checks, counts) if n]
    hits = np.nonzero(np.stack([c[2] for c in checks], axis=-1))
    for e, t, c in zip(*(h.tolist() for h in hits)):
        family, suffix, _, lhs, rhs, residual = checks[c]
        lhs, rhs = _at(lhs, e, t), _at(rhs, e, t)
        slack = abs(lhs) if residual else lhs - rhs
        out.append(Violation(family, ids[e] + suffix, t + first_period,
                             float(lhs), float(rhs), float(slack)))


def verify_schedule(net: NetworkModel, part: BlockPartition, scen: Scenario,
                    sched: Schedule, mode: str = "equitable") -> ViolationReport:
    """Re-derive every constraint family and report all breaches."""
    _check_mode(mode)
    a = _arrays_of(net, part)
    s = _stack_series(a, scen, sched)
    out: list = []
    _per_period(out, scen, s["block_status"],
                (s["switch_status"][a.switches] == 0).sum(axis=0))
    for family in (_switches, _islands, _gating, _ramping, _power_flow,
                   _balance, _storage):
        family(out, a, s, scen)
    if mode == "equitable":
        out.extend(equity_violations(scen, s["block_status"]))
    return ViolationReport(tuple(out))


def equity_violations(scen: Scenario, block_status: np.ndarray) -> list:
    """Horizon-level equity checks recomputed from block statuses alone:
    emergency energization, shed-count caps, shed-duration windows,
    recomputed status-change counts, proportional shares, and pairwise
    ratios.  Counting is exact integer arithmetic.  These are per-block
    counts, few enough that plain loops beat array set-up."""
    out: list = []

    def breach(family, entity, period, lhs, rhs):
        if lhs > rhs + LOGIC_TOL:
            out.append(Violation(family, entity, period, float(lhs),
                                 float(rhs), float(lhs - rhs)))

    z = np.asarray(block_status)
    n_blocks, T = z.shape
    sheds = T - z.sum(axis=1)
    changes = np.abs(np.diff(z, axis=1)).sum(axis=1)
    for k in scen.emergency:
        breach("emergency", f"blk{k}", None, int(sheds[k]), 0)
    regular = [k for k in range(n_blocks) if k not in scen.emergency]
    total = int(sheds.sum())
    for k in regular:
        breach("alpha_cap", f"blk{k}", None, int(sheds[k]), scen.alpha[k])
        breach("status_changes", f"blk{k}", None, int(changes[k]), scen.m)
        if scen.lam < 1.0:
            width = scen.window + 1
            for start in range(0, T - scen.window):
                offs = int(width - z[k, start:start + width].sum())
                breach("shed_window", f"blk{k}", start, offs,
                       scen.lam * width)
        breach("share_cap", f"blk{k}", None, int(sheds[k]),
               scen.psi[k] * total)
    for k in regular:
        for v in regular:
            beta = scen.beta[k][v]
            if k != v and math.isfinite(beta):
                breach("pair_ratio", f"blk{k}/blk{v}", None,
                       int(sheds[k]), beta * int(sheds[v]))
    return out


def _per_period(out: list, scen: Scenario, z: np.ndarray,
                open_switches: np.ndarray) -> None:
    """Wildfire cap, block budget and switch budget, one row per period."""
    # over contiguous (T, blocks) rows, the per-period dot products and sums
    # add their terms in the order, and so with the rounding, of the
    # one-period formulas
    risk = np.array(tuple(zip(*scen.risk)), dtype=float)
    on = np.ascontiguousarray(z.T, dtype=float)
    exposure = (risk[:, None, :] @ on[:, :, None]).reshape(1, -1)
    system = ("system",)
    _emit(out, system, [_breach("wildfire_cap", exposure,
                                scen.epsilon * risk.sum(axis=1)[None],
                                RESIDUAL_TOL)])
    _emit(out, system, [_breach("block_budget",
                                (z.shape[0] - z.sum(axis=0))[None],
                                scen.k_bl_max, LOGIC_TOL)])
    _emit(out, system, [_breach("switch_budget", open_switches[None],
                                scen.k_sw_max, LOGIC_TOL)])


def _switches(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    """A line that is not switchable is closed in every period, and a
    closed switch joins blocks of equal status."""
    status = s["switch_status"]
    _emit(out, a.ids["lines"], [_residual("fixed_line", 1.0, LOGIC_TOL,
                                          (status == 0) & a.fixed)])
    z = s["block_status"]
    ki, kj = a.switch_ends
    split = (status[a.switches] == 1) & (z[ki] != z[kj])
    _emit(out, a.switch_ids, [_residual("alignment", 1.0, LOGIC_TOL, split)])


def _islands(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    """Energized components must be trees holding exactly one forming
    reference, or touch the substation.  Per period: units that cannot
    form, then forming units in dead blocks, then islands by lowest bus id."""
    z = s["block_status"]
    forming = s["grid_forming"] == 1
    der_ids = a.ids["ders"]
    found = []  # (period, stage, index, violation)
    for stage, suffix, mask in (
        (0, "", forming & ~a.can_form),
        (1, ":dead-block", forming & a.can_form & (z[a.block["ders"]] == 0)),
    ):
        if not np.count_nonzero(mask):
            continue
        for d, t in zip(*(h.tolist() for h in np.nonzero(mask))):
            found.append((t, stage, d, Violation(
                "grid_forming", der_ids[d] + suffix, t, 1.0, 0.0, 1.0)))

    root, members, edges, formers = _census(a, s["switch_status"] == 1,
                                            forming)
    n_bus = len(a.sorted_bus_ids)
    nodes = np.arange(root.size)
    energized = np.bincount(root, weights=(z[a.rank_block] == 1).T.ravel(),
                            minlength=root.size) > 0
    touches = root[nodes // n_bus * n_bus + a.substation_rank] == nodes
    live = (root == nodes) & energized
    faulty = (edges != members - 1) | (~touches & (formers != 1))
    for node in np.flatnonzero(live & faulty).tolist():
        t, r = divmod(node, n_bus)
        name = f"island[{a.sorted_bus_ids[r]}]"
        if edges[node] != members[node] - 1:
            found.append((t, 2, 2 * r, Violation(
                "radiality", name, t, 1.0, 0.0, 1.0)))
        if not touches[node] and formers[node] != 1:
            extra = int(formers[node]) - 1
            found.append((t, 2, 2 * r + 1, Violation(
                "grid_forming", name, t, float(extra), 0.0,
                float(abs(extra)))))
    found.sort(key=lambda f: f[:3])
    out.extend(f[3] for f in found)


def _gating(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    """Voltage, generation and demand are zero in a dead block and within
    their bounds in a live one; demand bounds follow the multiplier."""
    live = s["block_status"] != 0
    _emit(out, a.ids["buses"],
          _gate("voltage_gating", s["voltage_sq"], live[a.block["buses"]],
                a.v_min_sq, a.v_max_sq))
    on = live[a.block["ders"]]
    p_min, p_max, q_min, q_max = a.pq_bounds["ders"]
    _emit(out, a.ids["ders"],
          [*_gate("gen_gating", s["pg"], on, p_min, p_max),
           *_gate("gen_gating", s["qg"], on, q_min, q_max)])
    on = live[a.block["loads"]]
    p_min, p_max, q_min, q_max = (a.pq_bounds["loads"]
                                  * np.array(scen.demand_multiplier))
    _emit(out, a.ids["loads"],
          [*_gate("load_gating", s["pd"], on, p_min, p_max),
           *_gate("load_gating", s["qd"], on, q_min, q_max)])


def _ramping(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    pg = s["pg"]
    rise, fall = pg[:, 1:] - pg[:, :-1], pg[:, :-1] - pg[:, 1:]
    _emit(out, a.ids["ders"],
          [_breach("ramping", rise, a.ramp_up, RESIDUAL_TOL),
           _breach("ramping", fall, a.ramp_down, RESIDUAL_TOL)],
          first_period=1)


def _power_flow(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    """Voltage drop along closed lines, and flows that are zero on open
    lines and within their bounds on closed ones."""
    live = s["switch_status"] == 1
    p, q, w = s["flow_p"], s["flow_q"], s["voltage_sq"]
    drop = w[a.line_to] - w[a.line_from] + 2.0 * (
        a.resistance * p + a.reactance * q
    )
    p_min, p_max, q_min, q_max = a.pq_bounds["lines"]
    _emit(out, a.ids["lines"],
          [_residual("voltage_drop", drop, RESIDUAL_TOL, live),
           *_gate("flow_gating", p, live, p_min, p_max),
           *_gate("flow_gating", q, live, q_min, q_max)])


def _balance(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    der, load = a.inc["ders"], a.inc["loads"]
    p = (der @ s["pg"]
         + a.inc["storage"] @ (s["storage_discharge"] - s["storage_charge"])
         - load @ s["pd"] + a.line_inc @ s["flow_p"])
    q = der @ s["qg"] - load @ s["qd"] + a.line_inc @ s["flow_q"]
    _emit(out, a.ids["buses"],
          [_residual("nodal_balance", p, RESIDUAL_TOL),
           _residual("nodal_balance", q, RESIDUAL_TOL, suffix=":q")])


def _storage(out: list, a: _NetworkArrays, s: dict, scen: Scenario) -> None:
    e = s["storage_energy"]
    pch, pdis = s["storage_charge"], s["storage_discharge"]
    zs, zch, zdis = (s["storage_on"], s["storage_charging"],
                     s["storage_discharging"])
    prev = np.concatenate([a.e_initial, e[:, :-1]], axis=1)
    gain = scen.period_hours * (a.eta_charge * pch - pdis / a.eta_discharge)
    block_on = s["block_status"][a.block["storage"]]
    _emit(out, a.ids["storage"], [
        _residual("storage_energy", e - prev - gain, RESIDUAL_TOL),
        _breach("storage_energy", e, a.e_max, RESIDUAL_TOL),
        _breach("storage_energy", 0.0, e, RESIDUAL_TOL),
        _residual("storage_status", zch + zdis - zs, LOGIC_TOL),
        _breach("storage_status", zs, block_on, LOGIC_TOL),
        _breach("storage_status", pch, a.charge_max * zch, RESIDUAL_TOL),
        _breach("storage_status", pdis, a.discharge_max * zdis, RESIDUAL_TOL),
        _breach("storage_status", 0.0, pch, RESIDUAL_TOL),
        _breach("storage_status", 0.0, pdis, RESIDUAL_TOL),
    ])


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


def _read_series(values, name: str, status: bool) -> np.ndarray:
    """A JSON array of numbers, or of rows of numbers, as an array.
    Strings, nulls and booleans are refused, not parsed or cast: numpy
    would read a true inside a list of numbers as 1.  Statuses must be
    integers (1.5 is refused, not truncated)."""
    a = np.asarray(values)
    kind = a.dtype.kind
    flat = chain.from_iterable(values) if a.ndim == 2 else values
    # unsigned arrays hold only integers past int64, which the cast wraps
    if (kind not in ("if" if status else "iuf")
            or (0 < a.ndim < 3 and bool in set(map(type, flat)))):
        what = "status values must be integers" if status else \
            "values must be numbers"
        raise ParseError(f"{name}: {what}")
    if not status:
        return a.astype(float, copy=False)
    # integral floats past int64 would wrap in the cast below
    if kind == "f" and not np.all((a == np.round(a)) & (np.abs(a) < 2**63)):
        raise ParseError(f"{name}: status values must be integers")
    return a if kind == "i" else a.astype(int)


def _read_family(source: dict, name: str, status: bool) -> dict:
    """One series family of a document as id -> series.  A family that
    reads as one matrix keeps its rows as the series; any other is read
    series by series, so the first faulty series names the error."""
    items = source.items()
    try:
        grid = _read_series([values for _, values in items], name, status)
    except (ParseError, ValueError):
        grid = None
    if grid is not None and grid.ndim == 2:
        return dict(zip(source, grid))
    return {key: _read_series(values, f"{name}[{key}]", status)
            for key, values in items}


def schedule_from_dict(data: dict) -> Schedule:
    """Read a schedule document in the layout schedule_to_dict writes."""
    try:
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ParseError(f"horizon: expected an integer, got {horizon!r}")
        block_status = _read_series(data["block_status"], "block_status",
                                    True)
        series = {}
        for name, section, _, status in SERIES:
            # top-level series are required, dispatch series may be omitted
            source = (data[name] if section is None
                      else data.get(section, {}).get(name, {}))
            series[name] = _read_family(source, name, status)
        return Schedule(horizon=horizon, block_status=block_status, **series)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"malformed schedule document: {exc}") from exc
