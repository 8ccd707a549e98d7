"""Behavioral checks of individual model structures on tiny systems."""

import dataclasses

import pytest

from gridshed import (ValidationError, build_model, parse_scenario, solve_lp,
                     solve_milp)
from gridshed.netmodel import Bus, Der, Line, LoadPoint, NetworkModel
from gridshed.instances import load_case, thirteen_bus_network, thirteen_bus_scenario

from conftest import column_families


def test_minimal_instance_binary_families():
    """One bus, one period, no lines or storage: the only binary columns
    are the block status and the inverter flag."""
    net, part, scen = load_case(
        {"buses": [{"id": "b1", "is_substation": True}],
         "ders": [{"id": "g", "bus": "b1", "p_max": 1.0}],
         "loads": [{"id": "d", "bus": "b1", "p_min": 0.5, "p_max": 0.5}]},
        {"horizon": 1, "risk": [[1.0]]},
    )
    model = build_model(net, part, scen, "original")
    families = set(column_families(model)[model.is_binary])
    assert families == {"z", "zinv"}
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)


def test_intra_block_switch_rejected_on_construction():
    """Three buses in one block joined by two fixed lines, plus a
    switchable line closing the triangle.  The switch joins no two blocks,
    so the network is refused even when built directly, not loaded."""
    buses = (Bus(id="a", is_substation=True, v_min=0.9, v_max=1.1),
             Bus(id="b"), Bus(id="c"))
    lines = (
        Line(id="l1", from_bus="a", to_bus="b"),
        Line(id="l2", from_bus="b", to_bus="c"),
        Line(id="l3", from_bus="a", to_bus="c", switchable=True),
    )
    ders = (Der(id="g", bus="a", p_max=2.0, q_min=-1.0, q_max=1.0),)
    loads = (LoadPoint(id="d", bus="b", p_min=0.3, p_max=0.3),)
    with pytest.raises(ValidationError, match="l3 .*intra-block loop"):
        NetworkModel(buses, lines, ders, (), loads)


def test_star_commodity_flow_uses_single_arc():
    """On a 4-bus star rooted at the substation, each leaf's fictitious
    commodity ships one unit along its own spoke and nothing else."""
    doc = {
        "buses": [{"id": "r", "is_substation": True},
                  {"id": "x"}, {"id": "y"}, {"id": "z"}],
        "lines": [
            {"id": "lx", "from": "r", "to": "x"},
            {"id": "ly", "from": "r", "to": "y"},
            {"id": "lz", "from": "r", "to": "z"},
        ],
        "ders": [{"id": "g", "bus": "r", "p_max": 2.0,
                  "q_min": -1.0, "q_max": 1.0}],
        "loads": [{"id": "d", "bus": "x", "p_min": 0.2, "p_max": 0.2}],
    }
    net, part, scen = load_case(doc, {"horizon": 1, "risk": [[1.0]]})
    model = build_model(net, part, scen, "original")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    flow = {
        (k, lid, tag): sol.values[model.series["fcom", f"{k}|{lid}:{tag}"][0]]
        for k in ("x", "y", "z")
        for lid in ("lx", "ly", "lz")
        for tag in ("f", "r")
    }
    for k, spoke in (("x", "lx"), ("y", "ly"), ("z", "lz")):
        for lid in ("lx", "ly", "lz"):
            for tag in ("f", "r"):
                expected = 1.0 if (lid == spoke and tag == "f") else 0.0
                assert flow[(k, lid, tag)] == pytest.approx(expected, abs=1e-7)


def test_storage_cannot_charge_and_discharge_at_once():
    doc = {
        "buses": [{"id": "b1", "is_substation": True}],
        "ders": [{"id": "g", "bus": "b1", "p_max": 2.0}],
        "storage": [{"id": "bat", "bus": "b1", "e_max": 1.0,
                     "p_charge_max": 1.0, "p_discharge_max": 1.0}],
        "loads": [{"id": "d", "bus": "b1", "p_min": 0.1, "p_max": 0.1}],
    }
    net, part, scen = load_case(doc, {"horizon": 1, "risk": [[1.0]]})
    model = build_model(net, part, scen, "original")
    lo, hi = model.lo.copy(), model.hi.copy()
    for col in (model.series["zch", "bat"][0], model.series["zdis", "bat"][0]):
        lo[col] = hi[col] = 1.0
    pinned = dataclasses.replace(model, lo=lo, hi=hi)
    assert solve_lp(pinned).status == "infeasible"


def test_zero_block_budget_keeps_everything_on(microgrid_case):
    net, part, _ = microgrid_case
    scen = parse_scenario(
        thirteen_bus_scenario(epsilon=1.0, k_bl_max=0, alpha=8.0, m=8), part
    )
    model = build_model(net, part, scen, "equitable")
    sol = solve_milp(model)
    assert sol.status == "optimal"
    for k in range(part.n_blocks):
        for t in range(scen.horizon):
            assert round(sol.values[model.series["z", f"blk{k}"][t]]) == 1


def test_change_counters_dominate_recomputed_changes(microgrid_case):
    """The model's change counters may carry slack, but they always sit
    above the recomputed status flips, so their cap is sound."""
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, "equitable")
    sol = solve_milp(model)
    assert sol.status in ("optimal", "feasible-gap")
    for k in range(part.n_blocks):
        if k in scen.emergency:
            continue
        z = [round(sol.values[model.series["z", f"blk{k}"][t]])
             for t in range(scen.horizon)]
        # one change counter per period 1..T-1
        dz_total = sol.values[model.series["dz", f"blk{k}"]].sum()
        recomputed = sum(abs(a - b) for a, b in zip(z, z[1:]))
        assert recomputed <= dz_total + 1e-6
        assert dz_total <= scen.m + 1e-6


def test_vulnerability_weight_protects_vulnerable_blocks(microgrid_case):
    """Raising the vulnerability weight never increases the total
    vulnerability cost of the optimal schedule (scalarization property);
    the block with the highest index ends up best protected."""
    from gridshed import run_horizon
    from gridshed.instances import load_case as lc

    net = microgrid_case[0]
    costs = []
    for rho in (0.0, 5.0):
        _, _, scen = lc(thirteen_bus_network(),
                        thirteen_bus_scenario(rho=rho))
        _, metrics = run_horizon(net, scen, mode="equitable")
        costs.append(metrics.vulnerability_cost)
    assert costs[1] <= costs[0] + 1e-6
