"""MILP construction for the shutoff scheduling problem.

Translates (NetworkModel, BlockPartition, Scenario) into a solver-agnostic
mixed-integer linear program in standard form.  One builder method per
constraint group:

* linearized branch-flow voltage equations, relaxed by big-M on open lines
* voltage / generation / load envelopes gated by block energization
* generator ramping between consecutive periods
* line-status gating of flows and nodal power balance
* storage energy recursion and charge/discharge complementarity
* a per-period cap on the energized share of wildfire ignition risk
* per-period switching budgets for blocks and switchable lines
* neighbor-status alignment across closed switches
* spanning-tree radiality via directed single-unit commodity flows
* grid-forming reference assignment: every energized island must hold
  exactly one forming unit, or touch the substation
* equity limits on shed counts, durations, change frequency, shares, and
  pairwise shed ratios ("equitable" mode only)

The "original" mode emits only the physical/topology groups with a pure
served-energy objective; "equitable" adds the equity groups and the
vulnerability-weighted objective term.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .netmodel import BlockPartition, NetworkModel, Scenario, _check_mode

# a coefficient or right-hand side of one of these types is per period
_SEQUENCE = (list, tuple, np.ndarray)


def _by_period(values, T):
    """``values`` at each period t < T, reading each sequence at t; one
    shared list when there is none."""
    if not any(isinstance(v, _SEQUENCE) for v in values):
        return [values] * T
    return [[v[t] if isinstance(v, _SEQUENCE) else v for v in values]
            for t in range(T)]


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Standard-form model: min c'x + objective_constant subject to
    row_lo <= A x <= row_hi, lo <= x <= hi, and x integral where
    ``is_binary``.

    ``A`` is canonical CSR (sorted columns, no duplicate or stored zero);
    an infinite side marks a ``<=`` or ``>=`` row, equal sides an ``=``
    row.  ``solver`` hands exactly these arrays to HiGHS.
    ``series[(family, entity)]`` is the range of one variable series'
    columns in period order; the series partition the columns in
    registration order, and ``row_groups`` names each row's group.
    """

    series: dict
    lo: np.ndarray
    hi: np.ndarray
    is_binary: np.ndarray
    row_groups: tuple
    row_lo: np.ndarray
    row_hi: np.ndarray
    A: csr_matrix
    c: np.ndarray
    objective_constant: float

    @property
    def num_vars(self) -> int:
        return len(self.lo)

    @property
    def num_rows(self) -> int:
        return len(self.row_lo)

    def constraint_matrix(self) -> csr_matrix:
        return self.A


class ModelBuilder:
    """Accumulates variables and rows for one (network, scenario, mode)."""

    def __init__(self, net: NetworkModel, part: BlockPartition,
                 scen: Scenario, mode: str = "equitable"):
        _check_mode(mode)
        self.net = net
        self.part = part
        self.scen = scen
        self.mode = mode
        self.T = scen.horizon
        self.n_buses = len(net.buses)

        self.series: dict = {}
        self._lo: list = []
        self._hi: list = []
        self._binary: list = []

        self._row_groups: list = []
        self._row_lo: list = []
        self._row_hi: list = []
        self._row_len: list = []
        self._cols: list = []
        self._vals: list = []

        self._obj_cols: list = []
        self._obj_vals: list = []
        self._obj_const = 0.0

        self._prepare_topology()

    # -- topology bookkeeping ------------------------------------------------

    def _prepare_topology(self):
        net, part = self.net, self.part
        self.root_bus = net.substation.id
        self.kappa_of = part.block_of_bus
        self.root_block = self.kappa_of[self.root_bus]

        # directed arcs: each line yields a forward (from->to) and reverse arc
        self.arcs = []
        self.arcs_out: dict = {b.id: [] for b in net.buses}
        self.arcs_in: dict = {b.id: [] for b in net.buses}
        for line in net.lines:
            for tag, tail, head in (
                ("f", line.from_bus, line.to_bus),
                ("r", line.to_bus, line.from_bus),
            ):
                arc = (line, tag, tail, head)
                self.arcs.append(arc)
                self.arcs_out[tail].append(arc)
                self.arcs_in[head].append(arc)

        self.switches_of_block: dict = {k: [] for k in range(part.n_blocks)}
        for line_id, ki, kj in part.block_graph:
            self.switches_of_block[ki].append(line_id)
            self.switches_of_block[kj].append(line_id)

        # (der, load, storage) ids by bus, each list in network order
        self.units_at = {b.id: ([], [], []) for b in net.buses}
        for i, name in enumerate(("ders", "loads", "storage")):
            for unit in getattr(net, name):
                self.units_at[unit.bus][i].append(unit.id)

        self.gf_ders = [d for d in net.ders if d.can_grid_form]
        self.formers_of_block: dict = {k: [] for k in range(part.n_blocks)}
        for d in self.gf_ders:
            self.formers_of_block[self.kappa_of[d.bus]].append(d.id)

        # buses that can inject the forming token into the support flow
        source = {self.root_bus}
        source.update(d.bus for d in self.gf_ders)
        self.source_buses = sorted(source)

        # de-energized buses sit at w = 0, so the voltage gap across an
        # open line can reach the full upper bound, not vmax^2 - vmin^2
        self._vspread = max((b.v_max ** 2 for b in net.buses), default=1.0)

    def _z(self, bus_id):
        """The status series of the block that holds ``bus_id``."""
        return "z", f"blk{self.kappa_of[bus_id]}"

    def _arc_terms(self, family, bus_id, prefix=""):
        """Terms of the arc series ``family`` (entity ``prefix`` + arc)
        that balance at ``bus_id``: +1 per arc in, -1 per arc out."""
        return ([(family, f"{prefix}{line.id}:{tag}", 1.0)
                 for line, tag, _, _ in self.arcs_in[bus_id]]
                + [(family, f"{prefix}{line.id}:{tag}", -1.0)
                   for line, tag, _, _ in self.arcs_out[bus_id]])

    # -- variable and row primitives -----------------------------------------

    def _var(self, family, entity, kind, lo, hi, periods=None):
        """Register one series of ``periods`` (default T) consecutive
        columns, kind "C" continuous or "B" binary; ``lo`` and ``hi`` are
        scalars or per-period lists."""
        n = self.T if periods is None else periods
        start = len(self._lo)
        self._lo.extend(lo if isinstance(lo, list) else [lo] * n)
        self._hi.extend(hi if isinstance(hi, list) else [hi] * n)
        self._binary.extend([kind == "B"] * n)
        self.series[(family, entity)] = range(start, start + n)

    def _row(self, group, cols, vals, rel, rhs):
        rhs = float(rhs)
        self._row_groups.append(group)
        self._row_lo.append(-math.inf if rel == "<=" else rhs)
        self._row_hi.append(math.inf if rel == ">=" else rhs)
        self._row_len.append(len(cols))
        self._cols.extend(cols)
        self._vals.extend(vals)

    def _term(self, family, entity, coef, lag=0):
        """(column in period 0, coef, lag) of one template term."""
        return self.series[family, entity].start - lag, coef, lag

    def _each_period(self, rows, first=0):
        """Write the row templates ``rows`` once for every period
        t >= ``first``: all rows of period t, in template order, before
        those of t + 1.

        A template is (group, terms, rel, rhs) and a term is (family,
        entity, coef[, lag]): the column of that series at period t - lag,
        left out while t - lag < 0.  A ``coef`` or ``rhs`` that is a
        sequence (list, tuple or array) is read at t.
        """
        T = self.T
        rows = [(group, [self._term(*term) for term in terms], rel, rhs)
                for group, terms, rel, rhs in rows]
        groups = [group for group, _, _, _ in rows]
        lo = _by_period([-math.inf if rel == "<=" else rhs
                         for _, _, rel, rhs in rows], T)
        hi = _by_period([math.inf if rel == ">=" else rhs
                         for _, _, rel, rhs in rows], T)
        max_lag = max((lag for _, terms, _, _ in rows for _, _, lag in terms),
                      default=0)
        for t in range(first, T):
            # the live terms change only while some lag reaches before 0
            if t == first or t <= max_lag:
                live = [[term for term in terms if term[2] <= t]
                        for _, terms, _, _ in rows]
                lens = [len(terms) for terms in live]
                starts = [start for terms in live for start, _, _ in terms]
                vals = _by_period([coef for terms in live for _, coef, _ in terms], T)
            self._row_groups.extend(groups)
            self._row_lo.extend(lo[t])
            self._row_hi.extend(hi[t])
            self._row_len.extend(lens)
            self._cols.extend([start + t for start in starts])
            self._vals.extend(vals[t])

    @staticmethod
    def _gate(group, z, *bounded):
        """The two templates of lo * z <= x <= hi * z per (x, lo, hi) of
        ``bounded``: x is zero when z is off, within [lo, hi] when on.
        ``x`` and ``z`` are (family, entity) series; ``lo`` and ``hi`` are
        scalars or per-period arrays."""
        rows = []
        for x, lo, hi in bounded:
            rows += [(group, [(*x, 1.0), (*z, -hi)], "<=", 0.0),
                     (group, [(*x, -1.0), (*z, lo)], "<=", 0.0)]
        return rows

    # -- variables -----------------------------------------------------------

    def register_variables(self):
        net, scen, T = self.net, self.scen, self.T
        mults = scen.demand_multiplier

        for b in net.buses:
            self._var("w", b.id, "C", 0.0, b.v_max ** 2)
        for d in net.ders:
            self._var("pg", d.id, "C", min(0.0, d.p_min), max(0.0, d.p_max))
            self._var("qg", d.id, "C", min(0.0, d.q_min), max(0.0, d.q_max))
        for ld in net.loads:
            self._var("pd", ld.id, "C", [min(0.0, ld.p_min * m) for m in mults],
                      [max(0.0, ld.p_max * m) for m in mults])
            self._var("qd", ld.id, "C", [min(0.0, ld.q_min * m) for m in mults],
                      [max(0.0, ld.q_max * m) for m in mults])
        for line in net.lines:
            self._var("pflow", line.id, "C", min(0.0, line.p_min), max(0.0, line.p_max))
            self._var("qflow", line.id, "C", min(0.0, line.q_min), max(0.0, line.q_max))
        for s in net.storage:
            self._var("E", s.id, "C", 0.0, s.e_max)
            self._var("pch", s.id, "C", 0.0, s.p_charge_max)
            self._var("pdis", s.id, "C", 0.0, s.p_discharge_max)
            for fam in ("zch", "zdis", "zs"):
                self._var(fam, s.id, "B", 0.0, 1.0)

        emergency = scen.emergency if self.mode == "equitable" else frozenset()
        for blk in self.part.blocks:
            self._var("z", f"blk{blk.index}", "B",
                      1.0 if blk.index in emergency else 0.0, 1.0)
        for line in net.lines:
            self._var("zsw", line.id, "B", 0.0 if line.switchable else 1.0, 1.0)
        for d in net.ders:
            self._var("zinv", d.id, "B", 0.0, 1.0 if d.can_grid_form else 0.0)

        # status-change counters only exist when the cap can bind; one per
        # period 1..T-1
        self.with_dz = (
            self.mode == "equitable" and scen.m <= T - 2
        )
        if self.with_dz:
            for blk in self.part.blocks:
                if blk.index not in emergency:
                    self._var("dz", f"blk{blk.index}", "B", 0.0, 1.0,
                              periods=T - 1)

        for line in net.lines:
            for tag in ("f", "r"):
                self._var("phi", f"{line.id}:{tag}", "B", 0.0, 1.0)
        for line in net.lines:
            self._var("zeta", line.id, "B", 0.0 if line.switchable else 1.0, 1.0)
        for b in net.buses:
            if b.id == self.root_bus:
                continue
            for line, tag, _, _ in self.arcs:
                self._var("fcom", f"{b.id}|{line.id}:{tag}", "C", 0.0, 1.0)

        n = float(self.n_buses)
        for line_id, _, _ in self.part.block_graph:
            self._var("y", line_id, "C", 0.0, 1.0)
        for bus_id in self.source_buses:
            self._var("src", bus_id, "C", 0.0, n)
        for line in net.lines:
            for tag in ("f", "r"):
                self._var("gflow", f"{line.id}:{tag}", "C", 0.0, n)

    # -- constraint groups ----------------------------------------------------

    def add_power_flow(self):
        """Squared-voltage drop along each line, big-M relaxed when open.

        Closed line from j to k: w_k - w_j + 2(r P + x Q) = 0 under the
        lossless linear branch-flow model.  Open switches must not couple
        the endpoint voltages, hence the big-M pair on the switch status.
        """
        for line in self.net.lines:
            pabs = max(abs(line.p_min), abs(line.p_max))
            qabs = max(abs(line.q_min), abs(line.q_max))
            big_m = 2.0 * self._vspread + 2.0 * (
                line.resistance * pabs + line.reactance * qabs
            )
            drop = [("w", line.to_bus, 1.0), ("w", line.from_bus, -1.0),
                    ("pflow", line.id, 2.0 * line.resistance),
                    ("qflow", line.id, 2.0 * line.reactance)]
            self._each_period([
                ("power_flow", drop + [("zsw", line.id, big_m)], "<=", big_m),
                ("power_flow", drop + [("zsw", line.id, -big_m)], ">=", -big_m),
            ])

    def add_operational_bounds(self):
        """Voltage, generation, and load envelopes gated by block status,
        plus generator ramping between consecutive periods."""
        gate, mults = self._gate, np.array(self.scen.demand_multiplier)
        for b in self.net.buses:
            self._each_period(gate("voltage_bounds", self._z(b.id),
                                   (("w", b.id), b.v_min ** 2, b.v_max ** 2)))
        for d in self.net.ders:
            self._each_period(gate("gen_bounds", self._z(d.bus),
                                   (("pg", d.id), d.p_min, d.p_max),
                                   (("qg", d.id), d.q_min, d.q_max)))
        for ld in self.net.loads:
            self._each_period(gate("load_bounds", self._z(ld.bus),
                                   (("pd", ld.id), ld.p_min * mults, ld.p_max * mults),
                                   (("qd", ld.id), ld.q_min * mults, ld.q_max * mults)))
        # the rise pg(t) - pg(t-1) and the fall pg(t-1) - pg(t)
        for d in self.net.ders:
            self._each_period([
                ("ramping", [("pg", d.id, 1.0, lag), ("pg", d.id, -1.0, 1 - lag)],
                 "<=", limit)
                for limit, lag in ((d.ramp_up, 0), (d.ramp_down, 1))
                if math.isfinite(limit)], first=1)

    def add_line_switching(self):
        """Flow gating by line status and nodal real/reactive balance."""
        for line in self.net.lines:
            self._each_period(self._gate("flow_gating", ("zsw", line.id),
                                         (("pflow", line.id), line.p_min, line.p_max),
                                         (("qflow", line.id), line.q_min, line.q_max)))
        for b in self.net.buses:
            ders, loads, storage = self.units_at[b.id]
            # a line's forward arc enters its to-bus and leaves its from-bus
            lines = [(line.id, sign)
                     for sign, arcs in ((1.0, self.arcs_in[b.id]),
                                        (-1.0, self.arcs_out[b.id]))
                     for line, tag, _, _ in arcs if tag == "f"]
            p = ([("pg", gid, 1.0) for gid in ders]
                 + [term for sid in storage
                    for term in (("pdis", sid, 1.0), ("pch", sid, -1.0))]
                 + [("pd", lid, -1.0) for lid in loads]
                 + [("pflow", lid, sign) for lid, sign in lines])
            q = ([("qg", gid, 1.0) for gid in ders]
                 + [("qd", lid, -1.0) for lid in loads]
                 + [("qflow", lid, sign) for lid, sign in lines])
            self._each_period([("nodal_balance", p, "=", 0.0),
                               ("nodal_balance", q, "=", 0.0)])

    def add_storage(self):
        """Energy recursion, charge/discharge complementarity, and power
        caps; a unit in a de-energized block cannot cycle."""
        dh = self.scen.period_hours
        for s in self.net.storage:
            self._each_period([(
                "storage_energy",
                [("E", s.id, 1.0), ("pch", s.id, -dh * s.eta_charge),
                 ("pdis", s.id, dh / s.eta_discharge), ("E", s.id, -1.0, 1)],
                "=", [s.initial_energy] + [0.0] * (self.T - 1))])
            self._each_period([
                ("storage_status", [("zch", s.id, 1.0), ("zdis", s.id, 1.0),
                                    ("zs", s.id, -1.0)], "=", 0.0),
                ("storage_status", [("pch", s.id, 1.0),
                                    ("zch", s.id, -s.p_charge_max)], "<=", 0.0),
                ("storage_status", [("pdis", s.id, 1.0),
                                    ("zdis", s.id, -s.p_discharge_max)], "<=", 0.0),
                ("storage_status", [("zs", s.id, 1.0), (*self._z(s.bus), -1.0)],
                 "<=", 0.0),
            ])

    def add_wildfire_cap(self):
        """Energized risk share held below epsilon of total risk, per period."""
        risk, blocks = self.scen.risk, range(self.part.n_blocks)
        self._each_period([(
            "wildfire_cap", [("z", f"blk{k}", risk[k]) for k in blocks], "<=",
            [self.scen.epsilon * sum(risk[k][t] for k in blocks)
             for t in range(self.T)])])

    def add_switch_budgets(self):
        """Per-period limits on blocks shed and switch lines opened."""
        n_blocks = self.part.n_blocks
        switchable = [l for l in self.net.lines if l.switchable]
        self._each_period([(
            "block_budget", [("z", f"blk{k}", 1.0) for k in range(n_blocks)],
            ">=", n_blocks - self.scen.k_bl_max)])
        if switchable:
            self._each_period([(
                "switch_budget", [("zsw", l.id, 1.0) for l in switchable],
                ">=", len(switchable) - self.scen.k_sw_max)])

    def add_topology(self):
        """Alignment, spanning tree, and root-to-node commodity flows.

        The tree spans every bus, using open switches as fictitious edges
        when needed; since all closed lines must belong to the tree, the
        energized part of the network is always a forest.
        """
        for line_id, ki, kj in self.part.block_graph:
            self._each_period([
                ("alignment", [("z", f"blk{a}", 1.0), ("z", f"blk{b}", -1.0),
                               ("zsw", line_id, 1.0)], "<=", 1.0)
                for a, b in ((ki, kj), (kj, ki))])

        self._each_period([(
            "tree_cardinality",
            [("phi", f"{line.id}:{tag}", 1.0)
             for line in self.net.lines for tag in ("f", "r")],
            "=", self.n_buses - 1)])
        for line in self.net.lines:
            self._each_period([(
                "tree_membership",
                [("phi", f"{line.id}:f", 1.0), ("phi", f"{line.id}:r", 1.0),
                 ("zeta", line.id, -1.0)], "=", 0.0)])
        for line in self.net.lines:
            if line.switchable:
                self._each_period([(
                    "tree_switch_link",
                    [("zsw", line.id, 1.0), ("zeta", line.id, -1.0)], "<=", 0.0)])

        # one fictitious commodity per non-root bus, shipped from the root
        for b in self.net.buses:
            if b.id == self.root_bus:
                continue
            supply = {self.root_bus: -1.0, b.id: 1.0}
            self._each_period(
                [("commodity_balance", self._arc_terms("fcom", node.id, f"{b.id}|"),
                  "=", supply.get(node.id, 0.0)) for node in self.net.buses]
                + [("commodity_capacity", [("fcom", f"{b.id}|{line.id}:{tag}", 1.0),
                                           ("phi", f"{line.id}:{tag}", -1.0)],
                    "<=", 0.0) for line, tag, _, _ in self.arcs])

    def add_grid_forming(self):
        """Grid-forming reference assignment.

        Block-level rows: an energized block with every incident switch
        open must hold a forming unit, and no block holds more than one.
        Output gating: a unit islanded without a forming reference cannot
        produce.  These neighborhood rows alone cannot see across merged
        islands, so three support structures make the per-island property
        exact: forming flags are confined to energized blocks, a counting
        identity matches total forming tokens (the substation counts as
        one while its block is energized) to the number of energized
        islands, and a capacitated support flow over closed lines forces
        every energized bus to reach some token.  Together they pin
        exactly one reference per energized island, with the substation
        serving as the reference for its own island.
        """
        n = float(self.n_buses)
        root_z = ("z", f"blk{self.root_block}")

        for k in range(self.part.n_blocks):
            formers = [("zinv", did) for did in self.formers_of_block[k]]
            rows = []
            if k != self.root_block:
                rows.append((
                    "forming_bounds",
                    [("z", f"blk{k}", 1.0)]
                    + [("zsw", line_id, -1.0)
                       for line_id in self.switches_of_block[k]]
                    + [(*x, -1.0) for x in formers], "<=", 0.0))
            if formers:
                rows.append(("forming_bounds", [(*x, 1.0) for x in formers],
                             "<=", 1.0))
            self._each_period(rows)

        for d in self.net.ders:
            k = self.kappa_of[d.bus]
            support = ([("zsw", line_id) for line_id in self.switches_of_block[k]]
                       + [("zinv", did) for did in self.formers_of_block[k]]
                       + ([root_z] if k == self.root_block else []))
            # x <= hi * support while hi >= 0, -x <= -lo * support while lo < 0
            self._each_period([
                ("forming_output", [(fam, d.id, sign)]
                 + [(*x, coef) for x in support], "<=", 0.0)
                for fam, sign, coef, kept in (
                    ("pg", 1.0, -d.p_max, d.p_max >= 0),
                    ("pg", -1.0, d.p_min, d.p_min < 0),
                    ("qg", 1.0, -d.q_max, d.q_max >= 0),
                    ("qg", -1.0, d.q_min, d.q_min < 0))
                if kept])

        for d in self.gf_ders:
            self._each_period([(
                "forming_support",
                [("zinv", d.id, 1.0), (*self._z(d.bus), -1.0)], "<=", 0.0)])

        for line_id, ki, _ in self.part.block_graph:
            y, zsw, zi = ("y", line_id), ("zsw", line_id), ("z", f"blk{ki}")
            self._each_period([
                ("forming_support", [(*y, 1.0), (*zsw, -1.0)], "<=", 0.0),
                ("forming_support", [(*y, 1.0), (*zi, -1.0)], "<=", 0.0),
                ("forming_support", [(*zsw, 1.0), (*zi, 1.0), (*y, -1.0)],
                 "<=", 1.0),
            ])

        # forming tokens == energized islands (forest component count)
        self._each_period([(
            "forming_support",
            [("zinv", d.id, 1.0) for d in self.gf_ders] + [(*root_z, 1.0)]
            + [("z", f"blk{k}", -1.0) for k in range(self.part.n_blocks)]
            + [("y", line_id, 1.0) for line_id, _, _ in self.part.block_graph],
            "=", 0.0)])

        for bus_id in self.source_buses:
            self._each_period([(
                "forming_support",
                [("src", bus_id, 1.0)]
                + [("zinv", d.id, -n) for d in self.gf_ders if d.bus == bus_id]
                + ([(*root_z, -n)] if bus_id == self.root_bus else []),
                "<=", 0.0)])

        for line, tag, _, _ in self.arcs:
            self._each_period([(
                "forming_support",
                [("gflow", f"{line.id}:{tag}", 1.0), ("zsw", line.id, -n)],
                "<=", 0.0)])

        for b in self.net.buses:
            source = [("src", b.id, 1.0)] if b.id in self.source_buses else []
            self._each_period([(
                "forming_support",
                self._arc_terms("gflow", b.id) + source + [(*self._z(b.id), -1.0)],
                "=", 0.0)])

    def add_equity(self):
        """Shed-count caps, duration windows, change-frequency caps,
        proportional-share caps, and pairwise ratio caps.

        The pairwise ratio is emitted in the linear form
        sheds(k) <= beta * sheds(v): if block v never sheds, block k is
        forced to never shed as well.  Emergency blocks are excluded from
        share and ratio rows and are pinned energized via bounds.
        """
        T = self.T
        scen = self.scen
        n_blocks = self.part.n_blocks
        regular = [k for k in range(n_blocks) if k not in scen.emergency]
        z = [self.series["z", f"blk{k}"] for k in range(n_blocks)]

        for k in regular:
            if scen.alpha[k] < T:
                self._row("alpha_cap", z[k], [1.0] * T, ">=", T - scen.alpha[k])

        if scen.lam < 1.0:
            width = scen.window + 1
            for k in regular:
                for start in range(0, T - scen.window):
                    self._row("shed_window", z[k][start:start + width],
                              [1.0] * width, ">=", width * (1.0 - scen.lam))

        if self.with_dz:
            for k in regular:
                # dz(t) >= |z(t) - z(t-1)|; the counter of period t is
                # column t - 1 of its series
                dz, zk = ("dz", f"blk{k}"), ("z", f"blk{k}")
                self._each_period([
                    ("status_changes",
                     [(*dz, 1.0, 1), (*zk, -1.0, lag), (*zk, 1.0, 1 - lag)],
                     ">=", 0.0) for lag in (0, 1)], first=1)
                dz = self.series[dz]
                self._row("status_changes", dz, [1.0] * len(dz), "<=", scen.m)

        all_z = [col for cols in z for col in cols]
        for k in regular:
            psi = scen.psi[k]
            if psi < 1.0:
                vals = [psi - 1.0 if kk == k else psi
                        for kk in range(n_blocks) for _ in range(T)]
                self._row("share_cap", all_z, vals, "<=", psi * n_blocks * T - T)

        for k in regular:
            for v in regular:
                beta = scen.beta[k][v]
                if k != v and math.isfinite(beta):
                    self._row("pair_ratio", [*z[k], *z[v]],
                              [-1.0] * T + [beta] * T, "<=", (beta - 1.0) * T)

    def set_objective(self):
        """Served-demand shortfall cost, plus the vulnerability term in
        equitable mode; coefficients are nominal block demand scaled by
        the period multiplier, so the objective stays linear in z."""
        rho = self.scen.rho if self.mode == "equitable" else 0.0
        for blk in self.part.blocks:
            z = self.series["z", f"blk{blk.index}"]
            for t in range(self.T):
                cost = (blk.nominal_demand * self.scen.demand_multiplier[t]
                        + rho * self.scen.vulnerability[blk.index])
                if cost != 0.0:
                    self._obj_cols.append(z[t])
                    self._obj_vals.append(-cost)
                    self._obj_const += cost

    # -- assembly ------------------------------------------------------------

    def build(self) -> MilpModel:
        self.register_variables()
        self.add_power_flow()
        self.add_operational_bounds()
        self.add_line_switching()
        self.add_storage()
        self.add_wildfire_cap()
        self.add_switch_budgets()
        self.add_topology()
        self.add_grid_forming()
        if self.mode == "equitable":
            self.add_equity()
        self.set_objective()
        return self._finalize()

    def _finalize(self) -> MilpModel:
        shape = (len(self._row_lo), len(self._lo))
        rows = np.repeat(np.arange(shape[0]), self._row_len)
        # one COO->CSR pass: repeated (row, col) entries are summed, since
        # solvers reject duplicates, and zero coefficients (written ones
        # and cancelled sums alike) are dropped
        a = coo_matrix((np.asarray(self._vals, dtype=np.float64),
                        (rows, np.asarray(self._cols, dtype=np.int64))),
                       shape=shape).tocsr()
        a.eliminate_zeros()
        c = np.zeros(shape[1])
        c[self._obj_cols] = self._obj_vals
        return MilpModel(
            series=dict(self.series),
            lo=np.asarray(self._lo, dtype=np.float64),
            hi=np.asarray(self._hi, dtype=np.float64),
            is_binary=np.asarray(self._binary, dtype=bool),
            row_groups=tuple(self._row_groups),
            row_lo=np.asarray(self._row_lo, dtype=np.float64),
            row_hi=np.asarray(self._row_hi, dtype=np.float64),
            A=a,
            c=c,
            objective_constant=self._obj_const,
        )


def build_model(net: NetworkModel, part: BlockPartition, scen: Scenario,
                mode: str = "equitable") -> MilpModel:
    """Build the full scheduling MILP for one mode."""
    return ModelBuilder(net, part, scen, mode).build()
