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

from .errors import ModelError
from .netmodel import BlockPartition, NetworkModel, Scenario

MODES = ("original", "equitable")


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
        if mode not in MODES:
            raise ModelError(f"unknown mode {mode!r}; expected one of {MODES}")
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
        self.root_block = part.block_of(self.root_bus)
        self.kappa_of = part.block_of_bus

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

        # inter-block switches only; intra-block loops carry no block semantics
        self.switch_edges = [
            (line_id, ki, kj) for line_id, ki, kj in part.block_graph if ki != kj
        ]
        self.switches_of_block: dict = {k: [] for k in range(part.n_blocks)}
        for line_id, ki, kj in self.switch_edges:
            self.switches_of_block[ki].append(line_id)
            self.switches_of_block[kj].append(line_id)

        # (der, load, storage) ids by bus, each list in network order
        self.units_at = {b.id: ([], [], []) for b in net.buses}
        for i, name in enumerate(("ders", "loads", "storage")):
            for unit in getattr(net, name):
                self.units_at[unit.bus][i].append(unit.id)

        self.formers_of_block: dict = {k: [] for k in range(part.n_blocks)}
        for d in net.ders:
            if d.can_grid_form:
                self.formers_of_block[self.kappa_of[d.bus]].append(d.id)
        self.gf_ders = [d for d in net.ders if d.can_grid_form]

        # buses that can inject the forming token into the support flow
        source = {self.root_bus}
        source.update(d.bus for d in self.gf_ders)
        self.source_buses = sorted(source)

        # de-energized buses sit at w = 0, so the voltage gap across an
        # open line can reach the full upper bound, not vmax^2 - vmin^2
        self._vspread = max((b.v_max ** 2 for b in net.buses), default=1.0)

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

    def _col(self, family, entity, t) -> int:
        return self.series[(family, entity)][t]

    def _row(self, group, cols, vals, rel, rhs):
        rhs = float(rhs)
        self._row_groups.append(group)
        self._row_lo.append(-math.inf if rel == "<=" else rhs)
        self._row_hi.append(math.inf if rel == ">=" else rhs)
        self._row_len.append(len(cols))
        self._cols.extend(cols)
        self._vals.extend(vals)

    def _gate(self, group, x, z, lo, hi):
        """lo * z <= x <= hi * z: x is zero when z is off, within
        [lo, hi] when on."""
        self._row(group, [x, z], [1.0, -hi], "<=", 0.0)
        self._row(group, [x, z], [-1.0, lo], "<=", 0.0)

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
        for line_id, _, _ in self.switch_edges:
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
            for t in range(self.T):
                cols = [
                    self._col("w", line.to_bus, t),
                    self._col("w", line.from_bus, t),
                    self._col("pflow", line.id, t),
                    self._col("qflow", line.id, t),
                    self._col("zsw", line.id, t),
                ]
                base = [1.0, -1.0, 2.0 * line.resistance, 2.0 * line.reactance]
                self._row("power_flow", cols, base + [big_m], "<=", big_m)
                self._row("power_flow", cols, base + [-big_m], ">=", -big_m)

    def add_operational_bounds(self):
        """Voltage, generation, and load envelopes gated by block status,
        plus generator ramping between consecutive periods."""
        for b in self.net.buses:
            zk = f"blk{self.kappa_of[b.id]}"
            for t in range(self.T):
                self._gate("voltage_bounds", self._col("w", b.id, t),
                           self._col("z", zk, t), b.v_min ** 2, b.v_max ** 2)
        for d in self.net.ders:
            zk = f"blk{self.kappa_of[d.bus]}"
            for t in range(self.T):
                z = self._col("z", zk, t)
                self._gate("gen_bounds", self._col("pg", d.id, t), z,
                           d.p_min, d.p_max)
                self._gate("gen_bounds", self._col("qg", d.id, t), z,
                           d.q_min, d.q_max)
        for ld in self.net.loads:
            zk = f"blk{self.kappa_of[ld.bus]}"
            for t in range(self.T):
                mult = self.scen.demand_multiplier[t]
                z = self._col("z", zk, t)
                self._gate("load_bounds", self._col("pd", ld.id, t), z,
                           ld.p_min * mult, ld.p_max * mult)
                self._gate("load_bounds", self._col("qd", ld.id, t), z,
                           ld.q_min * mult, ld.q_max * mult)
        for d in self.net.ders:
            for t in range(1, self.T):
                prev = self._col("pg", d.id, t - 1)
                cur = self._col("pg", d.id, t)
                if math.isfinite(d.ramp_up):
                    self._row("ramping", [cur, prev], [1.0, -1.0], "<=", d.ramp_up)
                if math.isfinite(d.ramp_down):
                    self._row("ramping", [prev, cur], [1.0, -1.0], "<=", d.ramp_down)

    def add_line_switching(self):
        """Flow gating by line status and nodal real/reactive balance."""
        for line in self.net.lines:
            for t in range(self.T):
                zsw = self._col("zsw", line.id, t)
                self._gate("flow_gating", self._col("pflow", line.id, t), zsw,
                           line.p_min, line.p_max)
                self._gate("flow_gating", self._col("qflow", line.id, t), zsw,
                           line.q_min, line.q_max)
        for b in self.net.buses:
            ders, loads, storage = self.units_at[b.id]
            # a line's forward arc enters its to-bus and leaves its from-bus
            lines = [(line.id, sign)
                     for sign, arcs in ((1.0, self.arcs_in[b.id]),
                                        (-1.0, self.arcs_out[b.id]))
                     for line, tag, _, _ in arcs if tag == "f"]
            for t in range(self.T):
                pcols, pvals = [], []
                qcols, qvals = [], []
                for gid in ders:
                    pcols.append(self._col("pg", gid, t)); pvals.append(1.0)
                    qcols.append(self._col("qg", gid, t)); qvals.append(1.0)
                for sid in storage:
                    pcols.append(self._col("pdis", sid, t)); pvals.append(1.0)
                    pcols.append(self._col("pch", sid, t)); pvals.append(-1.0)
                for lid in loads:
                    pcols.append(self._col("pd", lid, t)); pvals.append(-1.0)
                    qcols.append(self._col("qd", lid, t)); qvals.append(-1.0)
                for lid, sign in lines:
                    pcols.append(self._col("pflow", lid, t)); pvals.append(sign)
                    qcols.append(self._col("qflow", lid, t)); qvals.append(sign)
                self._row("nodal_balance", pcols, pvals, "=", 0.0)
                self._row("nodal_balance", qcols, qvals, "=", 0.0)

    def add_storage(self):
        """Energy recursion, charge/discharge complementarity, and power
        caps; a unit in a de-energized block cannot cycle."""
        dh = self.scen.period_hours
        for s in self.net.storage:
            zk = f"blk{self.kappa_of[s.bus]}"
            for t in range(self.T):
                e = self._col("E", s.id, t)
                pch = self._col("pch", s.id, t)
                pdis = self._col("pdis", s.id, t)
                cols = [e, pch, pdis]
                vals = [1.0, -dh * s.eta_charge, dh / s.eta_discharge]
                if t == 0:
                    self._row("storage_energy", cols, vals, "=", s.initial_energy)
                else:
                    cols.append(self._col("E", s.id, t - 1))
                    vals.append(-1.0)
                    self._row("storage_energy", cols, vals, "=", 0.0)
            for t in range(self.T):
                zch = self._col("zch", s.id, t)
                zdis = self._col("zdis", s.id, t)
                zs = self._col("zs", s.id, t)
                z = self._col("z", zk, t)
                self._row("storage_status", [zch, zdis, zs], [1.0, 1.0, -1.0], "=", 0.0)
                self._row("storage_status",
                          [self._col("pch", s.id, t), zch],
                          [1.0, -s.p_charge_max], "<=", 0.0)
                self._row("storage_status",
                          [self._col("pdis", s.id, t), zdis],
                          [1.0, -s.p_discharge_max], "<=", 0.0)
                self._row("storage_status", [zs, z], [1.0, -1.0], "<=", 0.0)

    def add_wildfire_cap(self):
        """Energized risk share held below epsilon of total risk, per period."""
        for t in range(self.T):
            total = sum(self.scen.risk[k][t] for k in range(self.part.n_blocks))
            cols = [self._col("z", f"blk{k}", t) for k in range(self.part.n_blocks)]
            vals = [self.scen.risk[k][t] for k in range(self.part.n_blocks)]
            self._row("wildfire_cap", cols, vals, "<=", self.scen.epsilon * total)

    def add_switch_budgets(self):
        """Per-period limits on blocks shed and switch lines opened."""
        n_blocks = self.part.n_blocks
        switchable = [l for l in self.net.lines if l.switchable]
        for t in range(self.T):
            cols = [self._col("z", f"blk{k}", t) for k in range(n_blocks)]
            self._row("block_budget", cols, [1.0] * n_blocks, ">=",
                      n_blocks - self.scen.k_bl_max)
        for t in range(self.T):
            if not switchable:
                continue
            cols = [self._col("zsw", l.id, t) for l in switchable]
            self._row("switch_budget", cols, [1.0] * len(switchable), ">=",
                      len(switchable) - self.scen.k_sw_max)

    def add_topology(self):
        """Alignment, spanning tree, and root-to-node commodity flows.

        The tree spans every bus, using open switches as fictitious edges
        when needed; since all closed lines must belong to the tree, the
        energized part of the network is always a forest.
        """
        for line_id, ki, kj in self.switch_edges:
            for t in range(self.T):
                zi = self._col("z", f"blk{ki}", t)
                zj = self._col("z", f"blk{kj}", t)
                zsw = self._col("zsw", line_id, t)
                self._row("alignment", [zi, zj, zsw], [1.0, -1.0, 1.0], "<=", 1.0)
                self._row("alignment", [zj, zi, zsw], [1.0, -1.0, 1.0], "<=", 1.0)

        for t in range(self.T):
            cols = [
                self._col("phi", f"{line.id}:{tag}", t)
                for line in self.net.lines
                for tag in ("f", "r")
            ]
            self._row("tree_cardinality", cols, [1.0] * len(cols), "=",
                      self.n_buses - 1)
        for line in self.net.lines:
            for t in range(self.T):
                pf = self._col("phi", f"{line.id}:f", t)
                pr = self._col("phi", f"{line.id}:r", t)
                zeta = self._col("zeta", line.id, t)
                self._row("tree_membership", [pf, pr, zeta], [1.0, 1.0, -1.0], "=", 0.0)
        for line in self.net.lines:
            if not line.switchable:
                continue
            for t in range(self.T):
                zsw = self._col("zsw", line.id, t)
                zeta = self._col("zeta", line.id, t)
                self._row("tree_switch_link", [zsw, zeta], [1.0, -1.0], "<=", 0.0)

        # one fictitious commodity per non-root bus, shipped from the root
        for b in self.net.buses:
            if b.id == self.root_bus:
                continue
            for t in range(self.T):
                for node in self.net.buses:
                    cols, vals = [], []
                    for line, tag, _, _ in self.arcs_in[node.id]:
                        cols.append(self._col("fcom", f"{b.id}|{line.id}:{tag}", t))
                        vals.append(1.0)
                    for line, tag, _, _ in self.arcs_out[node.id]:
                        cols.append(self._col("fcom", f"{b.id}|{line.id}:{tag}", t))
                        vals.append(-1.0)
                    if node.id == self.root_bus:
                        rhs = -1.0
                    elif node.id == b.id:
                        rhs = 1.0
                    else:
                        rhs = 0.0
                    self._row("commodity_balance", cols, vals, "=", rhs)
                for line, tag, _, _ in self.arcs:
                    f = self._col("fcom", f"{b.id}|{line.id}:{tag}", t)
                    phi = self._col("phi", f"{line.id}:{tag}", t)
                    self._row("commodity_capacity", [f, phi], [1.0, -1.0], "<=", 0.0)

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
        T = self.T
        n = float(self.n_buses)
        n_blocks = self.part.n_blocks

        for k in range(n_blocks):
            sw = self.switches_of_block[k]
            formers = self.formers_of_block[k]
            for t in range(T):
                if k != self.root_block:
                    cols = [self._col("z", f"blk{k}", t)]
                    vals = [1.0]
                    for line_id in sw:
                        cols.append(self._col("zsw", line_id, t))
                        vals.append(-1.0)
                    for did in formers:
                        cols.append(self._col("zinv", did, t))
                        vals.append(-1.0)
                    self._row("forming_bounds", cols, vals, "<=", 0.0)
                if formers:
                    cols = [self._col("zinv", did, t) for did in formers]
                    self._row("forming_bounds", cols, [1.0] * len(cols), "<=", 1.0)

        for d in self.net.ders:
            k = self.kappa_of[d.bus]
            sw = self.switches_of_block[k]
            formers = self.formers_of_block[k]
            for t in range(T):
                sup_cols = [self._col("zsw", line_id, t) for line_id in sw]
                sup_cols += [self._col("zinv", did, t) for did in formers]
                if k == self.root_block:
                    sup_cols.append(self._col("z", f"blk{k}", t))
                for fam, hi_b, lo_b in (
                    ("pg", d.p_max, d.p_min),
                    ("qg", d.q_max, d.q_min),
                ):
                    v = self._col(fam, d.id, t)
                    if hi_b >= 0:
                        self._row("forming_output",
                                  [v] + sup_cols,
                                  [1.0] + [-hi_b] * len(sup_cols), "<=", 0.0)
                    if lo_b < 0:
                        self._row("forming_output",
                                  [v] + sup_cols,
                                  [-1.0] + [lo_b] * len(sup_cols), "<=", 0.0)

        for d in self.gf_ders:
            zk = f"blk{self.kappa_of[d.bus]}"
            for t in range(T):
                self._row("forming_support",
                          [self._col("zinv", d.id, t), self._col("z", zk, t)],
                          [1.0, -1.0], "<=", 0.0)

        for line_id, ki, _ in self.switch_edges:
            for t in range(T):
                y = self._col("y", line_id, t)
                zsw = self._col("zsw", line_id, t)
                zi = self._col("z", f"blk{ki}", t)
                self._row("forming_support", [y, zsw], [1.0, -1.0], "<=", 0.0)
                self._row("forming_support", [y, zi], [1.0, -1.0], "<=", 0.0)
                self._row("forming_support", [zsw, zi, y], [1.0, 1.0, -1.0], "<=", 1.0)

        for t in range(T):
            # forming tokens == energized islands (forest component count)
            cols = [self._col("zinv", d.id, t) for d in self.gf_ders]
            vals = [1.0] * len(cols)
            cols.append(self._col("z", f"blk{self.root_block}", t))
            vals.append(1.0)
            for k in range(n_blocks):
                cols.append(self._col("z", f"blk{k}", t))
                vals.append(-1.0)
            for line_id, _, _ in self.switch_edges:
                cols.append(self._col("y", line_id, t))
                vals.append(1.0)
            self._row("forming_support", cols, vals, "=", 0.0)

        for bus_id in self.source_buses:
            gf_here = [d for d in self.gf_ders if d.bus == bus_id]
            for t in range(T):
                cols = [self._col("src", bus_id, t)]
                vals = [1.0]
                for d in gf_here:
                    cols.append(self._col("zinv", d.id, t))
                    vals.append(-n)
                if bus_id == self.root_bus:
                    cols.append(self._col("z", f"blk{self.root_block}", t))
                    vals.append(-n)
                self._row("forming_support", cols, vals, "<=", 0.0)

        for line, tag, _, _ in self.arcs:
            for t in range(T):
                g = self._col("gflow", f"{line.id}:{tag}", t)
                zsw = self._col("zsw", line.id, t)
                self._row("forming_support", [g, zsw], [1.0, -n], "<=", 0.0)

        for b in self.net.buses:
            zk = f"blk{self.kappa_of[b.id]}"
            for t in range(T):
                cols, vals = [], []
                for line, tag, _, _ in self.arcs_in[b.id]:
                    cols.append(self._col("gflow", f"{line.id}:{tag}", t))
                    vals.append(1.0)
                for line, tag, _, _ in self.arcs_out[b.id]:
                    cols.append(self._col("gflow", f"{line.id}:{tag}", t))
                    vals.append(-1.0)
                if b.id in self.source_buses:
                    cols.append(self._col("src", b.id, t))
                    vals.append(1.0)
                cols.append(self._col("z", zk, t))
                vals.append(-1.0)
                self._row("forming_support", cols, vals, "=", 0.0)

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

        for k in regular:
            if scen.alpha[k] >= T:
                continue
            cols = [self._col("z", f"blk{k}", t) for t in range(T)]
            self._row("alpha_cap", cols, [1.0] * T, ">=", T - scen.alpha[k])

        if scen.lam < 1.0:
            width = scen.window + 1
            for k in regular:
                for start in range(0, T - scen.window):
                    cols = [
                        self._col("z", f"blk{k}", t)
                        for t in range(start, start + width)
                    ]
                    self._row("shed_window", cols, [1.0] * width, ">=",
                              width * (1.0 - scen.lam))

        if self.with_dz:
            for k in regular:
                dz = self.series[("dz", f"blk{k}")]  # periods 1..T-1
                for t in range(1, T):
                    zc = self._col("z", f"blk{k}", t)
                    zp = self._col("z", f"blk{k}", t - 1)
                    self._row("status_changes", [dz[t - 1], zc, zp],
                              [1.0, -1.0, 1.0], ">=", 0.0)
                    self._row("status_changes", [dz[t - 1], zp, zc],
                              [1.0, -1.0, 1.0], ">=", 0.0)
                self._row("status_changes", list(dz), [1.0] * len(dz), "<=", scen.m)

        all_z = [(self._col("z", f"blk{k}", t), k)
                 for k in range(n_blocks) for t in range(T)]
        for k in regular:
            psi = scen.psi[k]
            if psi >= 1.0:
                continue
            cols = [c for c, _ in all_z]
            vals = [psi - 1.0 if kk == k else psi for c, kk in all_z]
            self._row("share_cap", cols, vals, "<=",
                      psi * n_blocks * T - T)

        for k in regular:
            for v in regular:
                if k == v:
                    continue
                beta = scen.beta[k][v]
                if not math.isfinite(beta):
                    continue
                cols = [self._col("z", f"blk{k}", t) for t in range(T)]
                vals = [-1.0] * T
                cols += [self._col("z", f"blk{v}", t) for t in range(T)]
                vals += [beta] * T
                self._row("pair_ratio", cols, vals, "<=", (beta - 1.0) * T)

    def set_objective(self):
        """Served-demand shortfall cost, plus the vulnerability term in
        equitable mode; coefficients are nominal block demand scaled by
        the period multiplier, so the objective stays linear in z."""
        rho = self.scen.rho if self.mode == "equitable" else 0.0
        for blk in self.part.blocks:
            for t in range(self.T):
                cost = (blk.nominal_demand * self.scen.demand_multiplier[t]
                        + rho * self.scen.vulnerability[blk.index])
                if cost == 0.0:
                    continue
                self._obj_cols.append(self._col("z", f"blk{blk.index}", t))
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
