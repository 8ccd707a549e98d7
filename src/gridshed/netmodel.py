"""Network and scenario data model.

Loads the physical network (buses, lines, DERs, storage, loads) and the
planning scenario (horizon, risks, vulnerability, limits) from JSON,
validates every invariant, and computes the load-block partition: the
connected components that survive when every switchable line is opened.
All powers are MW/MVAr, energies MWh, voltages per-unit.
"""

import json
import math
from dataclasses import dataclass, field, replace

from .errors import DimensionError, ParseError, RangeError, ValidationError

INF = math.inf


@dataclass(frozen=True)
class Bus:
    id: str
    is_substation: bool = False
    v_min: float = 0.95
    v_max: float = 1.05
    attached_generators: tuple = ()
    attached_loads: tuple = ()
    attached_storage: tuple = ()


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    resistance: float = 0.0
    reactance: float = 0.0
    p_min: float = -1e3
    p_max: float = 1e3
    q_min: float = -1e3
    q_max: float = 1e3
    switchable: bool = False


@dataclass(frozen=True)
class Der:
    """Dispatchable or fixed-output generation unit.

    Non-dispatchable units must pin their output by setting identical
    lower and upper bounds.  ``can_grid_form`` marks units whose inverter
    may establish the voltage reference of an islanded component.
    """

    id: str
    bus: str
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0
    ramp_up: float = INF
    ramp_down: float = INF
    can_grid_form: bool = False
    dispatchable: bool = True


@dataclass(frozen=True)
class Storage:
    id: str
    bus: str
    e_max: float
    p_charge_max: float
    p_discharge_max: float
    eta_charge: float = 1.0
    eta_discharge: float = 1.0
    e_initial: float | None = None  # None -> e_max / 2

    @property
    def initial_energy(self) -> float:
        return 0.5 * self.e_max if self.e_initial is None else self.e_initial


@dataclass(frozen=True)
class LoadPoint:
    id: str
    bus: str
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple
    lines: tuple
    ders: tuple
    storage: tuple
    loads: tuple

    def __post_init__(self):
        object.__setattr__(self, "_bus_index", {b.id: b for b in self.buses})
        object.__setattr__(self, "_line_index", {l.id: l for l in self.lines})

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def line(self, line_id: str) -> Line:
        return self._line_index[line_id]

    @property
    def substation(self) -> Bus:
        return next(b for b in self.buses if b.is_substation)

    @property
    def switchable_lines(self) -> tuple:
        return tuple(l for l in self.lines if l.switchable)


@dataclass(frozen=True)
class LoadBlock:
    """One energization unit: a maximal switch-free connected component."""

    index: int
    buses: frozenset
    nominal_demand: float


@dataclass(frozen=True)
class BlockPartition:
    blocks: tuple
    block_of_bus: dict
    # (switch line id, block i, block j); i == j flags an intra-block switch
    block_graph: tuple

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, bus_id: str) -> int:
        return self.block_of_bus[bus_id]


@dataclass(frozen=True)
class Scenario:
    """Horizon, per-block risk/vulnerability series, and all limits.

    Omitted limits default to non-binding values: alpha = T, lam = 1,
    m = T, psi = 1, beta = inf, switching budgets = block/switch counts,
    epsilon = 1, rho = 0.
    """

    horizon: int
    period_hours: float
    risk: tuple  # risk[block][t]
    vulnerability: tuple  # per block, constant over the horizon
    demand_multiplier: tuple  # per period
    epsilon: float
    k_bl_max: int
    k_sw_max: int
    alpha: tuple  # per block
    lam: float
    window: int
    m: int
    psi: tuple  # per block
    beta: tuple  # beta[k][v], math.inf disables a pair
    rho: float
    emergency: frozenset = field(default_factory=frozenset)

    def beta_at(self, kappa: int, nu: int) -> float:
        return self.beta[kappa][nu]


class UnionFind:
    """Disjoint sets over hashable keys with path compression."""

    def __init__(self, keys):
        self._parent = {k: k for k in keys}

    def find(self, k):
        root = k
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[k] != root:
            self._parent[k], k = root, self._parent[k]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True

    def groups(self) -> dict:
        out = {}
        for k in self._parent:
            out.setdefault(self.find(k), []).append(k)
        return out


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing required key '{key}'")
    return data[key]


def _numeric(value, where: str) -> float:
    # json.load accepts NaN, which every range check would let through
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or math.isnan(value)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _is_count(value) -> bool:
    """A JSON integer; booleans are ints to Python but not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_network(data: dict) -> NetworkModel:
    """Build and validate a NetworkModel from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ParseError("network document must be a JSON object")

    buses = []
    for raw in data.get("buses", []):
        buses.append(
            Bus(
                id=str(_require(raw, "id", "bus")),
                is_substation=bool(raw.get("is_substation", False)),
                v_min=_numeric(raw.get("v_min", 0.95), "bus.v_min"),
                v_max=_numeric(raw.get("v_max", 1.05), "bus.v_max"),
            )
        )
    lines = []
    for raw in data.get("lines", []):
        lines.append(
            Line(
                id=str(_require(raw, "id", "line")),
                from_bus=str(_require(raw, "from", "line")),
                to_bus=str(_require(raw, "to", "line")),
                resistance=_numeric(raw.get("r", 0.0), "line.r"),
                reactance=_numeric(raw.get("x", 0.0), "line.x"),
                p_min=_numeric(raw.get("p_min", -1e3), "line.p_min"),
                p_max=_numeric(raw.get("p_max", 1e3), "line.p_max"),
                q_min=_numeric(raw.get("q_min", -1e3), "line.q_min"),
                q_max=_numeric(raw.get("q_max", 1e3), "line.q_max"),
                switchable=bool(raw.get("switchable", False)),
            )
        )
    ders = []
    for raw in data.get("ders", []):
        ders.append(
            Der(
                id=str(_require(raw, "id", "der")),
                bus=str(_require(raw, "bus", "der")),
                p_min=_numeric(raw.get("p_min", 0.0), "der.p_min"),
                p_max=_numeric(raw.get("p_max", 0.0), "der.p_max"),
                q_min=_numeric(raw.get("q_min", 0.0), "der.q_min"),
                q_max=_numeric(raw.get("q_max", 0.0), "der.q_max"),
                ramp_up=(
                    INF
                    if raw.get("ramp_up") is None
                    else _numeric(raw["ramp_up"], "der.ramp_up")
                ),
                ramp_down=(
                    INF
                    if raw.get("ramp_down") is None
                    else _numeric(raw["ramp_down"], "der.ramp_down")
                ),
                can_grid_form=bool(raw.get("can_grid_form", False)),
                dispatchable=bool(raw.get("dispatchable", True)),
            )
        )
    storage = []
    for raw in data.get("storage", []):
        storage.append(
            Storage(
                id=str(_require(raw, "id", "storage")),
                bus=str(_require(raw, "bus", "storage")),
                e_max=_numeric(_require(raw, "e_max", "storage"), "storage.e_max"),
                p_charge_max=_numeric(
                    _require(raw, "p_charge_max", "storage"), "storage.p_charge_max"
                ),
                p_discharge_max=_numeric(
                    _require(raw, "p_discharge_max", "storage"),
                    "storage.p_discharge_max",
                ),
                eta_charge=_numeric(raw.get("eta_charge", 1.0), "storage.eta_charge"),
                eta_discharge=_numeric(
                    raw.get("eta_discharge", 1.0), "storage.eta_discharge"
                ),
                e_initial=(
                    None
                    if raw.get("e_initial") is None
                    else _numeric(raw["e_initial"], "storage.e_initial")
                ),
            )
        )
    loads = []
    for raw in data.get("loads", []):
        loads.append(
            LoadPoint(
                id=str(_require(raw, "id", "load")),
                bus=str(_require(raw, "bus", "load")),
                p_min=_numeric(raw.get("p_min", 0.0), "load.p_min"),
                p_max=_numeric(raw.get("p_max", 0.0), "load.p_max"),
                q_min=_numeric(raw.get("q_min", 0.0), "load.q_min"),
                q_max=_numeric(raw.get("q_max", 0.0), "load.q_max"),
            )
        )

    net = _attach(NetworkModel(tuple(buses), tuple(lines), tuple(ders), tuple(storage), tuple(loads)))
    validate_network(net)
    return net


def _attach(net: NetworkModel) -> NetworkModel:
    """Fill the per-bus attachment tuples from the entity lists."""
    gens: dict = {b.id: [] for b in net.buses}
    lds: dict = {b.id: [] for b in net.buses}
    sto: dict = {b.id: [] for b in net.buses}
    for d in net.ders:
        gens.setdefault(d.bus, []).append(d.id)
    for l in net.loads:
        lds.setdefault(l.bus, []).append(l.id)
    for s in net.storage:
        sto.setdefault(s.bus, []).append(s.id)
    buses = tuple(
        replace(
            b,
            attached_generators=tuple(gens.get(b.id, ())),
            attached_loads=tuple(lds.get(b.id, ())),
            attached_storage=tuple(sto.get(b.id, ())),
        )
        for b in net.buses
    )
    return NetworkModel(buses, net.lines, net.ders, net.storage, net.loads)


def validate_network(net: NetworkModel) -> None:
    """Raise ValidationError naming the first violated invariant."""
    ids = [b.id for b in net.buses]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate bus id")
    substations = [b.id for b in net.buses if b.is_substation]
    if len(substations) != 1:
        raise ValidationError(
            f"exactly one substation bus required, found {len(substations)}"
        )
    for b in net.buses:
        if not (0 < b.v_min <= b.v_max):
            raise ValidationError(f"bus {b.id}: require 0 < v_min <= v_max")

    known = set(ids)
    seen_lines = set()
    for l in net.lines:
        if l.id in seen_lines:
            raise ValidationError(f"duplicate line id {l.id}")
        seen_lines.add(l.id)
        if l.from_bus == l.to_bus:
            raise ValidationError(f"line {l.id}: from_bus equals to_bus")
        for end in (l.from_bus, l.to_bus):
            if end not in known:
                raise ValidationError(f"line {l.id}: unknown bus {end}")
        if l.resistance < 0 or l.reactance < 0:
            raise ValidationError(f"line {l.id}: negative impedance")
        if l.p_min > l.p_max or l.q_min > l.q_max:
            raise ValidationError(f"line {l.id}: empty flow bounds")

    seen = set()
    for d in net.ders:
        if d.id in seen:
            raise ValidationError(f"duplicate der id {d.id}")
        seen.add(d.id)
        if d.bus not in known:
            raise ValidationError(f"der {d.id}: unknown bus {d.bus}")
        if d.p_min > d.p_max or d.q_min > d.q_max:
            raise ValidationError(f"der {d.id}: empty output bounds")
        if d.ramp_up < 0 or d.ramp_down < 0:
            raise ValidationError(f"der {d.id}: negative ramp limit")
        if not d.dispatchable and (d.p_min != d.p_max or d.q_min != d.q_max):
            raise ValidationError(
                f"der {d.id}: non-dispatchable units need pinned (equal) bounds"
            )

    seen = set()
    for s in net.storage:
        if s.id in seen:
            raise ValidationError(f"duplicate storage id {s.id}")
        seen.add(s.id)
        if s.bus not in known:
            raise ValidationError(f"storage {s.id}: unknown bus {s.bus}")
        if s.e_max < 0 or s.p_charge_max < 0 or s.p_discharge_max < 0:
            raise ValidationError(f"storage {s.id}: negative rating")
        if not (0 < s.eta_charge <= 1) or not (0 < s.eta_discharge <= 1):
            raise ValidationError(f"storage {s.id}: efficiency must be in (0, 1]")
        if not (0 <= s.initial_energy <= s.e_max):
            raise ValidationError(f"storage {s.id}: initial energy outside [0, e_max]")

    seen = set()
    for ld in net.loads:
        if ld.id in seen:
            raise ValidationError(f"duplicate load id {ld.id}")
        seen.add(ld.id)
        if ld.bus not in known:
            raise ValidationError(f"load {ld.id}: unknown bus {ld.bus}")
        if ld.p_min > ld.p_max or ld.q_min > ld.q_max:
            raise ValidationError(f"load {ld.id}: empty demand bounds")

    # Switchable lines must join distinct blocks; loops inside one block
    # have no block-level switching semantics and are rejected outright.
    part = compute_load_blocks(net)
    for line_id, ki, kj in part.block_graph:
        if ki == kj:
            raise ValidationError(
                f"switchable line {line_id} connects two buses of the same "
                f"load block (intra-block loop)"
            )


def load_network(path) -> NetworkModel:
    """Parse and validate a network JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read network file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"network file {path} is not valid JSON: {exc}") from exc
    return parse_network(data)


def compute_load_blocks(net: NetworkModel) -> BlockPartition:
    """Partition buses into load blocks.

    Blocks are the connected components of the network after removing all
    switchable lines.  Indexing is deterministic: blocks are sorted by
    their lowest contained bus id, ascending, so input file ordering does
    not matter.
    """
    uf = UnionFind([b.id for b in net.buses])
    for l in net.lines:
        if not l.switchable:
            uf.union(l.from_bus, l.to_bus)
    components = sorted(uf.groups().values(), key=lambda grp: min(grp))

    block_of_bus = {}
    blocks = []
    load_by_id = {ld.id: ld for ld in net.loads}
    for idx, members in enumerate(components):
        for bus_id in members:
            block_of_bus[bus_id] = idx
        demand = sum(
            load_by_id[lid].p_max
            for bus_id in members
            for lid in net.bus(bus_id).attached_loads
        )
        blocks.append(
            LoadBlock(index=idx, buses=frozenset(members), nominal_demand=demand)
        )

    graph = tuple(
        (l.id, block_of_bus[l.from_bus], block_of_bus[l.to_bus])
        for l in net.lines
        if l.switchable
    )
    return BlockPartition(tuple(blocks), block_of_bus, graph)


def _as_series(value, length: int, name: str) -> tuple:
    """Expand a scalar to a constant series and check lengths."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (_numeric(value, name),) * length
    if isinstance(value, list):
        if len(value) != length:
            raise DimensionError(
                f"{name}: expected length {length}, got {len(value)}"
            )
        return tuple(_numeric(v, name) for v in value)
    raise ParseError(f"{name}: expected number or array")


def _beta_matrix(raw, n_blocks: int) -> tuple:
    """Normalize the beta limit to a full matrix; null/'inf' disable."""

    def cell(v, where):
        if v is None or v == "inf":
            return INF
        return _numeric(v, where)

    if raw is None:
        return tuple((INF,) * n_blocks for _ in range(n_blocks))
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        scalar = _numeric(raw, "beta")
        return tuple(
            tuple(scalar if k != v else INF for v in range(n_blocks))
            for k in range(n_blocks)
        )
    if raw == "inf":
        return tuple((INF,) * n_blocks for _ in range(n_blocks))
    if isinstance(raw, list):
        if len(raw) != n_blocks or any(
            not isinstance(row, list) or len(row) != n_blocks for row in raw
        ):
            raise DimensionError(
                f"beta: expected a {n_blocks}x{n_blocks} matrix or a scalar"
            )
        return tuple(
            tuple(cell(v, "beta") for v in row) for row in raw
        )
    raise ParseError("beta: expected number, 'inf', or matrix")


def parse_scenario(data: dict, partition: BlockPartition) -> Scenario:
    """Build and validate a Scenario against a known block partition."""
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    n_blocks = partition.n_blocks

    horizon = _require(data, "horizon", "scenario")
    if not _is_count(horizon) or horizon < 1:
        raise RangeError("horizon must be a positive integer")
    period_hours = _numeric(data.get("period_hours", 1.0), "period_hours")
    if period_hours <= 0:
        raise RangeError("period_hours must be positive")

    raw_risk = _require(data, "risk", "scenario")
    if not isinstance(raw_risk, list) or len(raw_risk) != n_blocks:
        raise DimensionError(
            f"risk: expected {n_blocks} block rows, got "
            f"{len(raw_risk) if isinstance(raw_risk, list) else type(raw_risk).__name__}"
        )
    risk = tuple(_as_series(row, horizon, f"risk[{k}]") for k, row in enumerate(raw_risk))
    for k, row in enumerate(risk):
        if any(r < 0 for r in row):
            raise RangeError(f"risk[{k}]: negative risk value")

    vulnerability = _as_series(
        data.get("vulnerability", 1.0), n_blocks, "vulnerability"
    )
    if any(v < 0 for v in vulnerability):
        raise RangeError("vulnerability: negative value")

    demand_multiplier = _as_series(
        data.get("demand_multiplier", 1.0), horizon, "demand_multiplier"
    )
    if any(d < 0 for d in demand_multiplier):
        raise RangeError("demand_multiplier: negative value")

    limits = data.get("limits", {})
    if not isinstance(limits, dict):
        raise ParseError("limits: expected an object")

    epsilon = _numeric(limits.get("epsilon", 1.0), "epsilon")
    if not 0 <= epsilon <= 1:
        raise RangeError(f"epsilon must be in [0, 1], got {epsilon}")
    lam = _numeric(limits.get("lambda", 1.0), "lambda")
    if not 0 <= lam <= 1:
        raise RangeError(f"lambda must be in [0, 1], got {lam}")
    window = limits.get("window", horizon)
    if not _is_count(window) or window < 0:
        raise RangeError("window must be a non-negative integer")
    m = limits.get("m", horizon)
    if not _is_count(m) or m < 0:
        raise RangeError("m must be a non-negative integer")
    rho = _numeric(limits.get("rho", 0.0), "rho")
    if rho < 0:
        raise RangeError("rho must be non-negative")

    n_switches = sum(1 for _ in partition.block_graph)
    k_bl_max = limits.get("k_bl_max", n_blocks)
    k_sw_max = limits.get("k_sw_max", n_switches)
    for name, val in (("k_bl_max", k_bl_max), ("k_sw_max", k_sw_max)):
        if not _is_count(val) or val < 0:
            raise RangeError(f"{name} must be a non-negative integer")

    alpha = _as_series(limits.get("alpha", float(horizon)), n_blocks, "alpha")
    if any(a < 0 or a > horizon for a in alpha):
        raise RangeError("alpha entries must lie in [0, horizon]")
    psi = _as_series(limits.get("psi", 1.0), n_blocks, "psi")
    if any(not 0 <= p <= 1 for p in psi):
        raise RangeError("psi entries must lie in [0, 1]")
    beta = _beta_matrix(limits.get("beta"), n_blocks)
    if any(b < 0 for row in beta for b in row):
        raise RangeError("beta entries must be non-negative")

    emergency_raw = data.get("emergency_blocks", [])
    if not isinstance(emergency_raw, list):
        raise ParseError("emergency_blocks: expected an array of block indices")
    emergency = set()
    for k in emergency_raw:
        if not _is_count(k) or not 0 <= k < n_blocks:
            raise RangeError(f"emergency block index {k} out of range")
        emergency.add(k)

    return Scenario(
        horizon=horizon,
        period_hours=period_hours,
        risk=risk,
        vulnerability=vulnerability,
        demand_multiplier=demand_multiplier,
        epsilon=epsilon,
        k_bl_max=k_bl_max,
        k_sw_max=k_sw_max,
        alpha=alpha,
        lam=lam,
        window=window,
        m=m,
        psi=psi,
        beta=beta,
        rho=rho,
        emergency=frozenset(emergency),
    )


def load_scenario(path, partition: BlockPartition) -> Scenario:
    """Parse and validate a scenario JSON file against a partition."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(data, partition)


def network_to_dict(net: NetworkModel) -> dict:
    """Serialize a NetworkModel to the JSON schema accepted by parse_network."""
    return {
        "buses": [
            {
                "id": b.id,
                "is_substation": b.is_substation,
                "v_min": b.v_min,
                "v_max": b.v_max,
            }
            for b in net.buses
        ],
        "lines": [
            {
                "id": l.id,
                "from": l.from_bus,
                "to": l.to_bus,
                "r": l.resistance,
                "x": l.reactance,
                "p_min": l.p_min,
                "p_max": l.p_max,
                "q_min": l.q_min,
                "q_max": l.q_max,
                "switchable": l.switchable,
            }
            for l in net.lines
        ],
        "ders": [
            {
                "id": d.id,
                "bus": d.bus,
                "p_min": d.p_min,
                "p_max": d.p_max,
                "q_min": d.q_min,
                "q_max": d.q_max,
                "ramp_up": d.ramp_up if d.ramp_up != INF else None,
                "ramp_down": d.ramp_down if d.ramp_down != INF else None,
                "can_grid_form": d.can_grid_form,
                "dispatchable": d.dispatchable,
            }
            for d in net.ders
        ],
        "storage": [
            {
                "id": s.id,
                "bus": s.bus,
                "e_max": s.e_max,
                "p_charge_max": s.p_charge_max,
                "p_discharge_max": s.p_discharge_max,
                "eta_charge": s.eta_charge,
                "eta_discharge": s.eta_discharge,
                "e_initial": s.e_initial,
            }
            for s in net.storage
        ],
        "loads": [
            {
                "id": ld.id,
                "bus": ld.bus,
                "p_min": ld.p_min,
                "p_max": ld.p_max,
                "q_min": ld.q_min,
                "q_max": ld.q_max,
            }
            for ld in net.loads
        ],
    }
