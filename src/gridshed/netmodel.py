"""Network and scenario data model.

Loads the physical network (buses, lines, DERs, storage, loads) and the
planning scenario (horizon, risks, vulnerability, limits) from JSON,
validates every invariant, and computes the load-block partition: the
connected components that survive when every switchable line is opened.
All powers are MW/MVAr, energies MWh, voltages per-unit.
"""

import json
import marshal
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields
from itertools import starmap
from types import MappingProxyType

from .errors import (DimensionError, ModelError, ParseError, RangeError,
                     ValidationError)

INF = math.inf
# "original" schedules for served energy alone; "equitable" adds the equity
# limits and the vulnerability cost
MODES = ("original", "equitable")
# A scenario's scalar series are expanded to one value per period, so the
# horizon bounds their memory; bundled cases span at most 12 periods.
_MAX_HORIZON = 10_000


# Each network record below reads one JSON object: a field is read from
# the key of its name with the reader of its type (``_READERS``) unless
# its metadata names another "key" or "read", and is required exactly when
# it has no default.


def _numeric(value, where: str) -> float:
    # json.load reads NaN and Infinity, which every range check would let
    # through, and integers too large for a float
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = INF
        if math.isfinite(number):
            return number
    raise ParseError(f"{where}: expected a finite number, got {value!r}")


def _text(value, where: str) -> str:
    return str(value)


def _flag(value, where: str) -> bool:
    if value is not True and value is not False:
        raise ParseError(f"{where}: expected true or false, got {value!r}")
    return value


def _unlimited(value, where: str) -> float:
    """A ramp limit: null means unlimited."""
    return INF if value is None else _numeric(value, where)


def _optional(value, where: str):
    return None if value is None else _numeric(value, where)


@dataclass(frozen=True, slots=True)
class Bus:
    id: str
    is_substation: bool = False
    v_min: float = 0.95
    v_max: float = 1.05


@dataclass(frozen=True, slots=True)
class Line:
    id: str
    from_bus: str = field(metadata={"key": "from"})
    to_bus: str = field(metadata={"key": "to"})
    resistance: float = field(default=0.0, metadata={"key": "r"})
    reactance: float = field(default=0.0, metadata={"key": "x"})
    p_min: float = -1e3
    p_max: float = 1e3
    q_min: float = -1e3
    q_max: float = 1e3
    switchable: bool = False


@dataclass(frozen=True, slots=True)
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
    ramp_up: float = field(default=INF, metadata={"read": _unlimited})
    ramp_down: float = field(default=INF, metadata={"read": _unlimited})
    can_grid_form: bool = False
    dispatchable: bool = True


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class LoadPoint:
    id: str
    bus: str
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0


@dataclass(frozen=True)
class NetworkModel:
    """A network that meets every invariant of ``validate_network``: it is
    validated, and its load blocks computed, on construction."""

    buses: tuple
    lines: tuple
    ders: tuple
    storage: tuple
    loads: tuple

    def __post_init__(self):
        validate_network(self)

    @property
    def substation(self) -> Bus:
        return next(b for b in self.buses if b.is_substation)


@dataclass(frozen=True, slots=True)
class LoadBlock:
    """One energization unit: a maximal switch-free connected component."""

    index: int
    buses: frozenset
    nominal_demand: float


@dataclass(frozen=True)
class BlockPartition:
    blocks: tuple
    block_of_bus: MappingProxyType  # read-only bus id -> block index
    # (switch line id, block i, block j) with i != j
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


def _is_count(value) -> bool:
    """A JSON integer; booleans are ints to Python but not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value, name: str, low: int = 0, high: int = sys.maxsize) -> int:
    """A JSON integer count from ``low`` to ``high``.  Counts past the
    largest sequence length cannot size a series and overflow every float
    comparison and row bound they reach (10**400 does)."""
    kind = "positive" if low else "non-negative"
    if not _is_count(value) or value < low:
        raise RangeError(f"{name} must be a {kind} integer")
    if value > high:
        raise RangeError(f"{name} must be a {kind} integer of at most {high}")
    return value


# Network collection -> (record type, name in messages)
_RECORDS = {
    "buses": (Bus, "bus"),
    "lines": (Line, "line"),
    "ders": (Der, "der"),
    "storage": (Storage, "storage"),
    "loads": (LoadPoint, "load"),
}

# The reader of a record field of each type
_READERS = {str: _text, bool: _flag, float: _numeric, float | None: _optional}

# The type a reader returns unchanged.  A value already of that type (and
# finite, for numbers) is stored without calling the reader.
_RETURNS_UNCHANGED = {_numeric: float, _unlimited: float, _optional: float,
                      _text: str, _flag: bool}


def _compile(cls, where: str) -> tuple:
    """(record type, where, (key, reader, type it keeps, message path,
    default or MISSING) per field), worked out once so parsing touches no
    dataclass metadata."""
    entries = []
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        read = f.metadata.get("read", _READERS[f.type])
        entries.append((key, read, _RETURNS_UNCHANGED[read], f"{where}.{key}",
                        f.default))
    return cls, where, tuple(entries)


_COMPILED = {name: _compile(*spec) for name, spec in _RECORDS.items()}


def _read_record(raw, where: str, entries: tuple) -> list:
    """Field values of one record, in field order; omitted keys take the
    defaults."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object, got {raw!r}")
    values = []
    for key, read, kept, path, default in entries:
        value = raw.get(key, MISSING)
        if value is MISSING:
            if default is MISSING:
                raise ParseError(f"{where}: missing required key '{key}'")
            value = default
        elif type(value) is not kept or (kept is float
                                         and not -INF < value < INF):
            value = read(value, path)
        values.append(value)
    return values


class _Recent:
    """Values under the ``size`` keys most recently used, safe to share
    between threads."""

    def __init__(self, size: int):
        self._size = size
        self._items = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value):
        """Keep ``value`` under ``key`` unless another thread kept one
        there first; return the kept value."""
        with self._lock:
            value = self._items.setdefault(key, value)
            self._items.move_to_end(key)
            if len(self._items) > self._size:
                self._items.popitem(last=False)
            return value


# Parsed networks by the marshal bytes of their documents
_PARSED = _Recent(8)
_JSON_TYPES = frozenset({dict, list, str, int, float, bool, type(None)})


def _plain(doc, budget: int) -> bool:
    """Whether ``doc`` is a tree of at most ``budget`` objects, each of an
    exact JSON type.  marshal writes each such object under its own type
    code, so a document that marshals to the same bytes holds the same
    values; but it writes any other buffer, a bytearray or a numpy float,
    as bytes.  A tree marshals to at least a byte per object, so with the
    key's length as budget only shared or cyclic containers overrun it."""
    stack = [doc]
    while stack:
        budget -= 1
        value = stack.pop()
        kind = type(value)
        if budget < 0 or kind not in _JSON_TYPES:
            return False
        if kind is dict:
            stack += value
            stack += value.values()
        elif kind is list:
            stack += value
    return True


def parse_network(data: dict) -> NetworkModel:
    """Build and validate a NetworkModel from a parsed JSON document.

    Documents that marshal to the same bytes, such as two ``json.loads``
    of one text, give one shared NetworkModel: the networks of the
    documents most recently read are kept by those bytes.  Errors are not
    kept, nor documents of other than JSON types."""
    try:
        key = marshal.dumps(data)
    except ValueError:
        return _parse_network(data)
    net = _PARSED.get(key)
    if net is None:
        net = _parse_network(data)
        if _plain(data, len(key)):
            net = _PARSED.put(key, net)
    return net


def _parse_network(data: dict) -> NetworkModel:
    if not isinstance(data, dict):
        raise ParseError("network document must be a JSON object")

    records = {}
    for name, (_, where, entries) in _COMPILED.items():
        raws = data.get(name, [])
        if not isinstance(raws, list):
            raise ParseError(f"{name}: expected an array of objects")
        records[name] = [_read_record(raw, where, entries) for raw in raws]

    return NetworkModel(**{
        name: tuple(starmap(cls, records[name]))
        for name, (cls, _, _) in _COMPILED.items()
    })


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ModelError(f"unknown mode {mode!r}; expected one of {MODES}")


def _placed(net: NetworkModel, name: str, known: set):
    """The unit records of collection ``name`` in order, each yielded once
    its id is unique so far and its bus is known."""
    what = _RECORDS[name][1]
    seen = set()
    for unit in getattr(net, name):
        if unit.id in seen:
            raise ValidationError(f"duplicate {what} id {unit.id}")
        seen.add(unit.id)
        if unit.bus not in known:
            raise ValidationError(f"{what} {unit.id}: unknown bus {unit.bus}")
        yield unit


def validate_network(net: NetworkModel) -> None:
    """Raise ValidationError naming the first violated invariant, else
    store the load-block partition on ``net``."""
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

    for d in _placed(net, "ders", known):
        if d.p_min > d.p_max or d.q_min > d.q_max:
            raise ValidationError(f"der {d.id}: empty output bounds")
        if d.ramp_up < 0 or d.ramp_down < 0:
            raise ValidationError(f"der {d.id}: negative ramp limit")
        if not d.dispatchable and (d.p_min != d.p_max or d.q_min != d.q_max):
            raise ValidationError(
                f"der {d.id}: non-dispatchable units need pinned (equal) bounds"
            )

    for s in _placed(net, "storage", known):
        if s.e_max < 0 or s.p_charge_max < 0 or s.p_discharge_max < 0:
            raise ValidationError(f"storage {s.id}: negative rating")
        if not (0 < s.eta_charge <= 1) or not (0 < s.eta_discharge <= 1):
            raise ValidationError(f"storage {s.id}: efficiency must be in (0, 1]")
        if not (0 <= s.initial_energy <= s.e_max):
            raise ValidationError(f"storage {s.id}: initial energy outside [0, e_max]")

    for ld in _placed(net, "loads", known):
        if ld.p_min > ld.p_max or ld.q_min > ld.q_max:
            raise ValidationError(f"load {ld.id}: empty demand bounds")

    # The model spans every bus with one tree that holds every fixed line:
    # a loop of fixed lines, or a bus that no line path joins to the
    # substation, leaves it with no schedule at all.  The components of the
    # fixed lines are the load blocks; the switchable lines then join them.
    uf = UnionFind(ids)
    for l in net.lines:
        if not l.switchable and not uf.union(l.from_bus, l.to_bus):
            raise ValidationError(
                f"line {l.id}: closes a loop of non-switchable lines"
            )
    part = _partition(net, uf)
    for l in net.lines:
        if l.switchable:
            uf.union(l.from_bus, l.to_bus)
    root = uf.find(substations[0])
    for b in net.buses:
        if uf.find(b.id) != root:
            raise ValidationError(f"bus {b.id}: no line path to the substation")

    # Switchable lines must join distinct blocks; loops inside one block
    # have no block-level switching semantics and are rejected outright.
    for line_id, ki, kj in part.block_graph:
        if ki == kj:
            raise ValidationError(
                f"switchable line {line_id} connects two buses of the same "
                f"load block (intra-block loop)"
            )
    object.__setattr__(net, "_partition", part)


def read_json(path, what: str):
    """The JSON document in file ``path``; ``what`` names it in messages.

    ``json.load`` raises a plain ValueError for an integer literal too long
    to convert, UnicodeDecodeError for undecodable bytes and RecursionError
    for deep nesting, so all of them, not only JSONDecodeError, become a
    ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_network(path) -> NetworkModel:
    """Parse and validate a network JSON file."""
    return parse_network(read_json(path, "network"))


def compute_load_blocks(net: NetworkModel) -> BlockPartition:
    """Partition buses into load blocks.

    Blocks are the connected components of the network after removing all
    switchable lines.  Indexing is deterministic: blocks are sorted by
    their lowest contained bus id, ascending, so input file ordering does
    not matter.  The partition is computed once, when the network is
    constructed; every call returns the same object.
    """
    return net._partition


def _partition(net: NetworkModel, uf: UnionFind) -> BlockPartition:
    """The load blocks of ``net``, given a union-find of its buses in which
    exactly the fixed lines are joined."""
    components = sorted(uf.groups().values(), key=lambda grp: min(grp))

    block_of_bus = {}
    blocks = []
    demand_at: dict = {}
    for ld in net.loads:
        demand_at.setdefault(ld.bus, []).append(ld.p_max)
    for idx, members in enumerate(components):
        for bus_id in members:
            block_of_bus[bus_id] = idx
        # bus order within the block, then load order
        demand = sum(p for bus_id in members for p in demand_at.get(bus_id, ()))
        blocks.append(LoadBlock(idx, frozenset(members), demand))

    graph = tuple(
        (l.id, block_of_bus[l.from_bus], block_of_bus[l.to_bus])
        for l in net.lines
        if l.switchable
    )
    return BlockPartition(tuple(blocks), MappingProxyType(block_of_bus), graph)


def _as_series(value, length: int, name: str) -> tuple:
    """Expand a scalar to a constant series and check lengths."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (_numeric(value, name),) * length
    if isinstance(value, list):
        if len(value) != length:
            raise DimensionError(
                f"{name}: expected length {length}, got {len(value)}"
            )
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            return tuple(value)
        return tuple(_numeric(v, name) for v in value)
    raise ParseError(f"{name}: expected number or array")


def uniform_beta(n_blocks: int, value: float) -> tuple:
    """The beta matrix with every pair of distinct blocks capped at
    ``value``; a block is never capped against itself."""
    return tuple(
        tuple(value if k != v else INF for v in range(n_blocks))
        for k in range(n_blocks)
    )


def _beta_matrix(raw, n_blocks: int) -> tuple:
    """Normalize the beta limit to a full matrix; null/'inf' disable."""

    def cell(v, where):
        if v is None or v == "inf":
            return INF
        return _numeric(v, where)

    if raw is None or raw == "inf":
        return uniform_beta(n_blocks, INF)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return uniform_beta(n_blocks, _numeric(raw, "beta"))
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

    horizon = _count(_require(data, "horizon", "scenario"), "horizon", low=1,
                     high=_MAX_HORIZON)
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
        if min(row) < 0:
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
    window = _count(limits.get("window", horizon), "window")
    m = _count(limits.get("m", horizon), "m")
    rho = _numeric(limits.get("rho", 0.0), "rho")
    if rho < 0:
        raise RangeError("rho must be non-negative")

    n_switches = sum(1 for _ in partition.block_graph)
    k_bl_max = _count(limits.get("k_bl_max", n_blocks), "k_bl_max")
    k_sw_max = _count(limits.get("k_sw_max", n_switches), "k_sw_max")

    alpha = _as_series(limits.get("alpha", float(horizon)), n_blocks, "alpha")
    if any(a < 0 or a > horizon for a in alpha):
        raise RangeError("alpha entries must lie in [0, horizon]")
    psi = _as_series(limits.get("psi", 1.0), n_blocks, "psi")
    if any(not 0 <= p <= 1 for p in psi):
        raise RangeError("psi entries must lie in [0, 1]")
    beta = _beta_matrix(limits.get("beta"), n_blocks)
    if min(map(min, beta)) < 0:
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
    return parse_scenario(read_json(path, "scenario"), partition)

