import io
import math

import numpy as np
import pytest

from gridshed import (
    ModelBuilder,
    ModelError,
    build_model,
    compute_load_blocks,
    parse_network,
    parse_scenario,
    solve_lp,
    solve_milp,
)
from gridshed.instances import (
    load_case,
    small_network,
    small_scenario,
    thirteen_bus_network,
    thirteen_bus_scenario,
)

from conftest import free_semantic_binaries


def expected_group_counts(net, part, scen, mode):
    """Closed-form row counts per constraint group, recomputed from the
    instance data independently of the builder's own bookkeeping."""
    N, L = len(net.buses), len(net.lines)
    Lsw = len(net.switchable_lines)
    B, T = part.n_blocks, scen.horizon
    G, D, S = len(net.ders), len(net.loads), len(net.storage)
    emergency = scen.emergency if mode == "equitable" else frozenset()
    regular = [k for k in range(B) if k not in emergency]
    formers = {}
    for d in net.ders:
        if d.can_grid_form:
            formers.setdefault(part.block_of(d.bus), []).append(d.id)
    n_gf = sum(len(v) for v in formers.values())
    source_buses = {net.substation.id} | {
        d.bus for d in net.ders if d.can_grid_form
    }

    counts = {
        "power_flow": 2 * L * T,
        "voltage_bounds": 2 * N * T,
        "gen_bounds": 4 * G * T,
        "load_bounds": 4 * D * T,
        "ramping": (T - 1) * sum(
            math.isfinite(d.ramp_up) + math.isfinite(d.ramp_down)
            for d in net.ders
        ),
        "flow_gating": 4 * L * T,
        "nodal_balance": 2 * N * T,
        "storage_energy": S * T,
        "storage_status": 4 * S * T,
        "wildfire_cap": T,
        "block_budget": T,
        "switch_budget": T if Lsw else 0,
        "alignment": 2 * Lsw * T,
        "tree_cardinality": T,
        "tree_membership": L * T,
        "tree_switch_link": Lsw * T,
        "commodity_balance": (N - 1) * N * T,
        "commodity_capacity": (N - 1) * 2 * L * T,
        "forming_bounds": (B - 1) * T + len(formers) * T,
        "forming_output": T * sum(
            (d.p_max >= 0) + (d.q_max >= 0) + (d.p_min < 0) + (d.q_min < 0)
            for d in net.ders
        ),
        "forming_support": (n_gf * T + 3 * Lsw * T + T
                            + len(source_buses) * T + 2 * L * T + N * T),
    }
    if mode == "equitable":
        counts["alpha_cap"] = sum(1 for k in regular if scen.alpha[k] < T)
        counts["shed_window"] = (
            len(regular) * max(0, T - scen.window) if scen.lam < 1 else 0
        )
        counts["status_changes"] = (
            len(regular) * (2 * (T - 1) + 1) if scen.m <= T - 2 else 0
        )
        counts["share_cap"] = sum(1 for k in regular if scen.psi[k] < 1)
        counts["pair_ratio"] = sum(
            1
            for k in regular for v in regular
            if k != v and math.isfinite(scen.beta_at(k, v))
        )
    return {k: v for k, v in counts.items() if v}


@pytest.mark.parametrize("mode", ["original", "equitable"])
def test_row_count_audit_microgrid(microgrid_case, mode):
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, mode)
    assert model.group_counts() == expected_group_counts(net, part, scen, mode)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_row_count_audit_small(seed):
    n_blocks = 2 + seed % 3
    net, part, scen = load_case(
        small_network(seed=seed, n_blocks=n_blocks, with_former=True,
                      with_storage=(seed == 1)),
        small_scenario(seed=seed, n_blocks=n_blocks, horizon=2 + seed % 2,
                       equity=True),
    )
    model = build_model(net, part, scen, "equitable")
    assert model.group_counts() == expected_group_counts(
        net, part, scen, "equitable"
    )


def test_binary_registry_audit(microgrid_case):
    """Free binary columns, family by family, against hand counts:
    statuses for 5 free blocks, 6 switches, 3 forming units, 3 storage
    units (3 flags each), 5 change counters, plus the tree columns."""
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, "equitable")
    T = scen.horizon
    free = {}
    for c in model.free_binary_columns():
        free[model.variables[c].family] = free.get(model.variables[c].family, 0) + 1
    assert free == {
        "z": 5 * T,
        "zsw": 6 * T,
        "zinv": 3 * T,
        "zch": 3 * T,
        "zdis": 3 * T,
        "zs": 3 * T,
        "dz": 5 * (T - 1),
        "phi": 2 * 23 * T,
        "zeta": 6 * T,
    }


def test_unknown_mode_rejected(microgrid_case):
    net, part, scen = microgrid_case
    with pytest.raises(ModelError):
        build_model(net, part, scen, "fancy")


def test_dead_block_gating():
    """Pinning a block off forces its voltages, generation, and demand
    to zero in the continuous relaxation."""
    net, part, scen = load_case(
        small_network(seed=3, n_blocks=3, with_former=True),
        {"horizon": 2, "risk": [[1.0, 1.0]] * 3,
         "limits": {"epsilon": 1.0, "k_bl_max": 3}},
    )
    model = build_model(net, part, scen, "original")
    bounds = np.column_stack([model.lo.copy(), model.hi.copy()])
    dead = 1
    for t in range(scen.horizon):
        c = model.col("z", f"blk{dead}", t)
        bounds[c] = [0.0, 0.0]
    lp = solve_lp(model, bounds=bounds)
    assert lp.status == "optimal"
    dead_buses = part.blocks[dead].buses
    for t in range(scen.horizon):
        for b in dead_buses:
            assert abs(lp.values[model.col("w", b, t)]) < 1e-7
        for d in net.ders:
            if d.bus in dead_buses:
                assert abs(lp.values[model.col("pg", d.id, t)]) < 1e-7
        for ld in net.loads:
            if ld.bus in dead_buses:
                assert abs(lp.values[model.col("pd", ld.id, t)]) < 1e-7


def test_voltage_drop_arithmetic():
    """Closed line with r=0.01, x=0.02 carrying P=1, Q=0.5 drops the
    squared voltage by exactly 0.04."""
    doc = {
        "buses": [
            {"id": "b1", "is_substation": True, "v_min": 1.0, "v_max": 1.0},
            {"id": "b2", "v_min": 0.9, "v_max": 1.1},
        ],
        "lines": [{"id": "l1", "from": "b1", "to": "b2", "r": 0.01, "x": 0.02,
                   "p_min": -5, "p_max": 5, "q_min": -5, "q_max": 5}],
        "ders": [{"id": "grid", "bus": "b1", "p_min": 0.0, "p_max": 5.0,
                  "q_min": -5.0, "q_max": 5.0}],
        "loads": [{"id": "d1", "bus": "b2", "p_min": 1.0, "p_max": 1.0,
                   "q_min": 0.5, "q_max": 0.5}],
    }
    net, part, scen = load_case(doc, {"horizon": 1, "risk": [[1.0]]})
    model = build_model(net, part, scen, "original")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    w2 = sol.values[model.col("w", "b2", 0)]
    assert w2 == pytest.approx(1.0 - 0.04, abs=1e-7)


def test_zero_impedance_line_equalizes_voltage():
    doc = {
        "buses": [
            {"id": "b1", "is_substation": True, "v_min": 0.98, "v_max": 1.02},
            {"id": "b2", "v_min": 0.9, "v_max": 1.1},
        ],
        "lines": [{"id": "l1", "from": "b1", "to": "b2"}],
        "ders": [{"id": "grid", "bus": "b1", "p_max": 5.0,
                  "q_min": -5.0, "q_max": 5.0}],
        "loads": [{"id": "d1", "bus": "b2", "p_min": 0.5, "p_max": 0.5}],
    }
    net, part, scen = load_case(doc, {"horizon": 1, "risk": [[1.0]]})
    model = build_model(net, part, scen, "original")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    w1 = sol.values[model.col("w", "b1", 0)]
    w2 = sol.values[model.col("w", "b2", 0)]
    assert w1 == pytest.approx(w2, abs=1e-7)


def test_wildfire_cap_limits_energized_blocks():
    """Four equal-risk blocks under a 50% cap: at most two may be on,
    and the cheapest-to-shed pair is chosen."""
    doc = small_network(seed=0, n_blocks=4, with_former=True)
    doc["loads"] = [
        {"id": "d1", "bus": "b2", "p_min": 0.4, "p_max": 0.4},
        {"id": "d2", "bus": "b3", "p_min": 0.3, "p_max": 0.3},
        {"id": "d3", "bus": "b4", "p_min": 0.2, "p_max": 0.2},
    ]
    scen_doc = {
        "horizon": 1,
        "risk": [[1.0], [1.0], [1.0], [1.0]],
        "limits": {"epsilon": 0.5, "k_bl_max": 4},
    }
    net, part, scen = load_case(doc, scen_doc)
    model = build_model(net, part, scen, "original")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    on = sum(
        round(sol.values[model.col("z", f"blk{k}", 0)]) for k in range(4)
    )
    assert on <= 2
    # best two-block island is {0.3, 0.2} around the forming unit, because
    # the root block carries no load; only the 0.4 MW block is shed
    assert sol.objective == pytest.approx(0.4, abs=1e-6)


def test_storage_efficiency_composition():
    """Charging 1 MW for an hour at 90% and discharging at 80% can serve
    at most 0.72 MWh later."""

    def case(demand):
        doc = {
            "buses": [
                {"id": "b1", "is_substation": True, "v_min": 1.0, "v_max": 1.0},
                {"id": "b2"},
            ],
            "lines": [{"id": "s1", "from": "b1", "to": "b2",
                       "switchable": True, "p_min": -5, "p_max": 5,
                       "q_min": -5, "q_max": 5}],
            "ders": [
                {"id": "grid", "bus": "b1", "p_max": 2.0, "q_min": -1.0,
                 "q_max": 1.0},
                {"id": "ref", "bus": "b2", "p_min": 0.0, "p_max": 0.0,
                 "dispatchable": False, "can_grid_form": True},
            ],
            "storage": [{"id": "bat", "bus": "b2", "e_max": 1.0,
                         "p_charge_max": 1.0, "p_discharge_max": 1.0,
                         "eta_charge": 0.9, "eta_discharge": 0.8,
                         "e_initial": 0.0}],
            "loads": [{"id": "d1", "bus": "b2", "p_min": demand,
                       "p_max": demand}],
        }
        scen_doc = {
            "horizon": 2,
            "risk": [[0.0, 10.0], [0.0, 0.0]],
            "demand_multiplier": [0.0, 1.0],
            "limits": {"epsilon": 0.5},
            "emergency_blocks": [1],
        }
        net, part, scen = load_case(doc, scen_doc)
        return solve_milp(build_model(net, part, scen, "equitable"))

    assert case(0.72).status == "optimal"
    assert case(0.75).status == "infeasible"


def test_ramp_limit_binds_across_periods():
    def case(ramp):
        doc = {
            "buses": [{"id": "b1", "is_substation": True}],
            "lines": [],
            "ders": [{"id": "grid", "bus": "b1", "p_max": 1.0,
                      "ramp_up": ramp, "ramp_down": ramp}],
            "loads": [{"id": "d1", "bus": "b1", "p_min": 1.0, "p_max": 1.0}],
        }
        scen_doc = {
            "horizon": 2,
            "risk": [[1.0, 1.0]],
            "demand_multiplier": [0.5, 1.0],
            "limits": {"k_bl_max": 0},
        }
        net, part, scen = load_case(doc, scen_doc)
        return solve_milp(build_model(net, part, scen, "original"))

    assert case(0.6).status == "optimal"
    assert case(0.2).status == "infeasible"


def test_open_switch_decouples_voltages():
    """A dead block next to an energized one only needs the connecting
    switch open; the relaxed voltage equation must not couple them."""
    doc = small_network(seed=5, n_blocks=2, with_former=False)
    doc["loads"].append(
        {"id": "droot", "bus": "b1", "p_min": 0.5, "p_max": 0.5}
    )
    scen_doc = {
        "horizon": 1,
        "risk": [[1.0], [9.0]],
        "limits": {"epsilon": 0.2, "k_bl_max": 2},
    }
    net, part, scen = load_case(doc, scen_doc)
    model = build_model(net, part, scen, "original")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert round(sol.values[model.col("z", "blk0", 0)]) == 1
    assert round(sol.values[model.col("z", "blk1", 0)]) == 0
    assert round(sol.values[model.col("zsw", "s1", 0)]) == 0


def test_objective_coefficients(microgrid_case):
    net, part, _ = microgrid_case
    scen = parse_scenario(
        thirteen_bus_scenario(horizon=8) | {"demand_multiplier": [1.0] * 8},
        part,
    )
    model = build_model(net, part, scen, "original")
    c = model.objective_vector()
    # shedding the 185 kW block for one period costs 0.185 MW-periods
    assert c[model.col("z", "blk1", 3)] == pytest.approx(-0.185)
    # the zero-demand block never enters the objective
    assert c[model.col("z", "blk2", 0)] == 0.0
    all_on = np.zeros(model.num_vars)
    for k in range(part.n_blocks):
        for t in range(scen.horizon):
            all_on[model.col("z", f"blk{k}", t)] = 1.0
    assert model.objective_value(all_on) == pytest.approx(0.0, abs=1e-12)


def test_vulnerability_term_in_equitable_objective(microgrid_case):
    net, part, _ = microgrid_case
    base = thirteen_bus_scenario()
    base["limits"]["rho"] = 2.0
    scen = parse_scenario(base, part)
    model = build_model(net, part, scen, "equitable")
    c = model.objective_vector()
    # block 1 demand 0.185 * multiplier 0.85, plus rho * v = 2 * 9
    assert c[model.col("z", "blk1", 0)] == pytest.approx(-(0.185 * 0.85 + 18.0))


@pytest.mark.parametrize("seed", [0, 2, 4, 6])
def test_mode_equivalence_with_default_limits(seed):
    """Equitable mode with non-binding equity limits and rho = 0 matches
    the original problem exactly."""
    n_blocks = 2 + seed % 3
    net, part, scen = load_case(
        small_network(seed=seed, n_blocks=n_blocks, with_former=True),
        small_scenario(seed=seed, n_blocks=n_blocks, horizon=2),
    )
    a = solve_milp(build_model(net, part, scen, "original"))
    b = solve_milp(build_model(net, part, scen, "equitable"))
    assert a.status == b.status
    if a.status in ("optimal", "feasible-gap"):
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_export_text_is_deterministic(microgrid_case):
    net, part, scen = microgrid_case
    dumps = []
    for _ in range(2):
        model = build_model(net, part, scen, "equitable")
        buf = io.StringIO()
        model.export_text(buf)
        dumps.append(buf.getvalue())
    assert dumps[0] == dumps[1]
    lines = dumps[0].splitlines()
    model = build_model(net, part, scen, "equitable")
    assert len(lines) == 1 + model.num_vars + model.num_rows


def test_repeated_columns_stored_once_with_summed_coefficient():
    net, part, scen = load_case(small_network(seed=0, n_blocks=2),
                                small_scenario(seed=0, n_blocks=2, horizon=1))
    builder = ModelBuilder(net, part, scen, "original")
    builder.register_variables()
    builder._row("power_flow", [3, 1, 3, 2, 2], [1.0, 2.0, 0.5, 4.0, -4.0],
                 "<=", 1.0)
    cols, vals, rel, rhs = builder._finalize().row(0)
    assert cols.tolist() == [1, 3]
    assert vals.tolist() == [2.0, 1.5]
    assert (rel, rhs) == ("<=", 1.0)


@pytest.mark.parametrize("mode", ["original", "equitable"])
def test_standard_form_has_no_stored_zeros(microgrid_case, mode):
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, mode)
    a = model.constraint_matrix()
    assert a.has_canonical_format
    assert np.all(a.data != 0.0)
    # the per-period token identity writes the root block's z as +1 (the
    # substation token) and -1 (an energized block): the entry must vanish
    root = part.block_of(net.substation.id)
    support_eq = np.array([g == "forming_support" and r == "="
                           for g, r in zip(model.row_groups, model.row_rels)])
    for t in range(scen.horizon):
        zinv = [model.col("zinv", d.id, t)
                for d in net.ders if d.can_grid_form]
        (i,) = np.flatnonzero(support_eq & (a[:, zinv].getnnz(axis=1) > 0))
        cols, vals, _, _ = model.row(i)
        coef = dict(zip(cols.tolist(), vals.tolist()))
        assert model.col("z", f"blk{root}", t) not in coef
        for k in range(part.n_blocks):
            if k != root:
                assert coef[model.col("z", f"blk{k}", t)] == -1.0
