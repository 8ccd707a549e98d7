import dataclasses

import numpy as np
import pytest

from gridshed import (
    DimensionError,
    build_model,
    compute_load_blocks,
    parse_network,
    parse_scenario,
    radiality_check,
    run_horizon,
    schedule_from_dict,
    schedule_to_dict,
    verify_schedule,
)
from gridshed.analysis import extract_schedule
from gridshed.checker import (
    CHECK_FAMILY_OF_GROUP,
    block_budget_violations,
    equity_violations,
)
from gridshed.formulation import ROW_GROUPS
from gridshed.instances import load_case, small_network, thirteen_bus_scenario
from gridshed.solver import solve_milp

# a known-good shutoff rotation: emergency block 5 always on, at most
# three blocks off per period, per-block sheds <= 6, status changes <= 2
ROTATION = np.array([
    [0, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 1, 0],
    [1, 0, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
])

# a lopsided pattern where blocks 1 and 2 take six sheds each: forty
# percent of the fifteen total, so a 35% share cap must flag them
LOPSIDED = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
])


@pytest.fixture(scope="module")
def scen6(microgrid_case):
    _, part, _ = microgrid_case
    return lambda **kw: parse_scenario(thirteen_bus_scenario(**kw), part)


class TestEquityCounts:
    def test_rotation_passes_reference_limits(self, scen6):
        scen = scen6()
        assert equity_violations(scen, ROTATION) == []
        assert block_budget_violations(scen, ROTATION) == []

    def test_emergency_breach_flagged(self, scen6):
        z = ROTATION.copy()
        z[5, 2] = 0
        names = {v.family for v in equity_violations(scen6(), z)}
        assert "emergency" in names

    def test_alpha_breach_flagged(self, scen6):
        z = ROTATION.copy()
        z[1, :] = 0  # eight sheds > alpha of six
        fams = {v.family for v in equity_violations(scen6(), z)}
        assert "alpha_cap" in fams

    def test_change_frequency_uses_recomputed_changes(self, scen6):
        z = ROTATION.copy()
        z[0] = [1, 0, 1, 0, 1, 1, 1, 1]  # four status changes
        fams = {v.family for v in equity_violations(scen6(), z)}
        assert "status_changes" in fams

    def test_lopsided_shares_fail_at_35_percent(self, scen6):
        scen = scen6(psi=0.35)
        sheds = 8 - LOPSIDED.sum(axis=1)
        assert list(sheds) == [0, 6, 6, 2, 1, 0]
        bad = {
            v.entity for v in equity_violations(scen, LOPSIDED)
            if v.family == "share_cap"
        }
        assert bad == {"blk1", "blk2"}

    def test_lopsided_shares_pass_at_40_percent(self, scen6):
        assert equity_violations(scen6(psi=0.40), LOPSIDED) == []

    def test_sign_change_count_example(self, scen6):
        # 1,0,0,1 flips twice; a cap of two passes, a cap of one fails
        z = np.tile([1, 1, 1, 1, 1, 1, 1, 1], (6, 1))
        z[1] = [1, 0, 0, 1, 1, 1, 1, 1]
        assert equity_violations(scen6(m=2), z) == []
        fams = {v.family for v in equity_violations(scen6(m=1), z)}
        assert fams == {"status_changes"}

    def test_pair_ratio_recount(self, scen6):
        scen = scen6()
        beta2 = tuple(
            tuple(2.0 if k != v else float("inf") for v in range(6))
            for k in range(6)
        )
        scen = dataclasses.replace(scen, beta=beta2)
        v = equity_violations(scen, ROTATION)
        # rotation sheds are (1, 6, 6, 3, 5, -): 6 > 2 * 1 trips the cap
        assert any(x.family == "pair_ratio" for x in v)

    def test_window_cap(self, scen6):
        scen = dataclasses.replace(scen6(m=8), lam=0.5, window=3)
        z = np.ones((6, 8), dtype=int)
        z[1] = [1, 0, 0, 0, 1, 1, 1, 1]  # three sheds in a four-wide window
        fams = {v.family for v in equity_violations(scen, z)}
        assert fams == {"shed_window"}
        z[1] = [1, 0, 0, 1, 1, 0, 0, 1]  # never more than two per window
        assert equity_violations(scen, z) == []


class TestRadiality:
    def net3(self, switchable_third=True):
        return parse_network({
            "buses": [{"id": "a", "is_substation": True}, {"id": "b"},
                      {"id": "c"}],
            "lines": [
                {"id": "l1", "from": "a", "to": "b", "switchable": True},
                {"id": "l2", "from": "b", "to": "c", "switchable": True},
                {"id": "l3", "from": "a", "to": "c",
                 "switchable": switchable_third},
            ],
            "ders": [{"id": "g", "bus": "c", "p_max": 1.0,
                      "can_grid_form": True}],
        })

    def test_closed_triangle_is_not_forest(self):
        net = self.net3()
        res = radiality_check(net, {"l1", "l2", "l3"}, set())
        assert not res.is_forest
        assert len(res.islands) == 1

    def test_spanning_pair_is_forest(self):
        net = self.net3()
        res = radiality_check(net, {"l1", "l2"}, set())
        assert res.is_forest
        assert res.islands[0].touches_root

    def test_island_census(self):
        net = self.net3()
        res = radiality_check(net, {"l2"}, {"g"})
        by_root = {min(i.buses): i for i in res.islands}
        assert by_root["a"].touches_root and by_root["a"].former_count == 0
        assert not by_root["b"].touches_root
        assert by_root["b"].former_count == 1
        assert res.is_forest


@pytest.fixture(scope="module")
def solved(microgrid_case):
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, "equitable")
    sol = solve_milp(model)
    assert sol.status in ("optimal", "feasible-gap")
    sched = extract_schedule(model, sol.values, net, part, scen)
    return net, part, scen, sched


class TestVerifySchedule:
    def test_solved_schedule_verifies(self, solved):
        net, part, scen, sched = solved
        report = verify_schedule(net, part, scen, sched, "equitable")
        assert report.passed, [v.describe() for v in report.violations]

    def test_flipping_emergency_block_fails(self, solved):
        net, part, scen, sched = solved
        z = sched.block_status.copy()
        z[5, 0] = 0
        bad = dataclasses.replace(sched, block_status=z)
        report = verify_schedule(net, part, scen, bad, "equitable")
        assert not report.passed
        fams = {v.family for v in report.violations}
        assert "emergency" in fams

    def test_opening_a_live_line_breaks_balance(self, solved):
        net, part, scen, sched = solved
        # find a period where the first intra-block feeder carries flow
        line = net.lines[0]
        t = int(np.argmax(np.abs(sched.flow_p[line.id])))
        assert abs(sched.flow_p[line.id][t]) > 1e-6
        flows = dict(sched.flow_p)
        flows[line.id] = flows[line.id].copy()
        flows[line.id][t] = 0.0
        bad = dataclasses.replace(sched, flow_p=flows)
        report = verify_schedule(net, part, scen, bad, "equitable")
        fams = {v.family for v in report.violations}
        assert "nodal_balance" in fams

    def test_fake_cycle_flagged(self, solved):
        net, part, scen, sched = solved
        # close every switch in some period: the network has one more
        # line than a spanning tree, so this must create a cycle
        switch = dict(sched.switch_status)
        for line in net.switchable_lines:
            switch[line.id] = switch[line.id].copy()
            switch[line.id][:] = 1
        z = sched.block_status.copy()
        z[:, :] = 1
        bad = dataclasses.replace(sched, block_status=z, switch_status=switch)
        report = verify_schedule(net, part, scen, bad, "equitable")
        fams = {v.family for v in report.violations}
        assert "radiality" in fams

    def test_unreferenced_island_flagged(self):
        """An energized island with no forming unit and no substation is
        rejected even if its power numbers balance."""
        # the risk cap forces the substation block off, so the remaining
        # block must island on its forming unit
        net, part, scen = load_case(
            small_network(seed=1, n_blocks=2, with_former=True),
            {"horizon": 1, "risk": [[5.0], [1.0]],
             "limits": {"epsilon": 0.5, "k_bl_max": 2}},
        )
        sched, _ = run_horizon(net, scen, mode="original")
        assert sched.block_status[0, 0] == 0
        assert sched.block_status[1, 0] == 1
        assert sum(s[0] for s in sched.grid_forming.values()) == 1
        forming = {d: s.copy() for d, s in sched.grid_forming.items()}
        for d in forming:
            forming[d][:] = 0
        bad = dataclasses.replace(sched, grid_forming=forming)
        report = verify_schedule(net, part, scen, bad, "original")
        fams = {v.family for v in report.violations}
        assert "grid_forming" in fams

    def test_negative_charge_flagged(self, solved):
        net, part, scen, sched = solved
        # move 0.05 MW of bat3's t=5 discharge into a -0.05 MW charge: the
        # net injection is unchanged and, with the energy series rebuilt
        # to match, the recursion balances while storing energy from nothing
        bat = net.storage[2]
        assert bat.id == "bat3" and sched.storage_discharge[bat.id][5] > 0.05
        pch = {k: v.copy() for k, v in sched.storage_charge.items()}
        pdis = {k: v.copy() for k, v in sched.storage_discharge.items()}
        energy = {k: v.copy() for k, v in sched.storage_energy.items()}
        pch[bat.id][5] -= 0.05
        pdis[bat.id][5] -= 0.05
        energy[bat.id][5:] += scen.period_hours * (
            0.05 / bat.eta_discharge - 0.05 * bat.eta_charge
        )
        bad = dataclasses.replace(sched, storage_charge=pch,
                                  storage_discharge=pdis, storage_energy=energy)
        report = verify_schedule(net, part, scen, bad, "equitable")
        assert [(v.family, v.entity, v.period) for v in report.violations] == [
            ("storage_status", "bat3", 5)
        ]

    @pytest.mark.parametrize(
        "name", ["storage_on", "storage_charging", "storage_discharging"]
    )
    def test_non_binary_storage_status_raises(self, solved, name):
        net, part, scen, sched = solved
        series = {k: v.copy() for k, v in getattr(sched, name).items()}
        series["bat3"][0] = 2
        bad = dataclasses.replace(sched, **{name: series})
        with pytest.raises(DimensionError):
            verify_schedule(net, part, scen, bad, "equitable")

    def test_dimension_mismatch_raises(self, solved):
        net, part, scen, sched = solved
        truncated = dataclasses.replace(
            sched, horizon=7, block_status=sched.block_status[:, :7]
        )
        with pytest.raises(DimensionError):
            verify_schedule(net, part, scen, truncated, "equitable")

    def test_schedule_roundtrip(self, solved):
        net, part, scen, sched = solved
        again = schedule_from_dict(schedule_to_dict(sched))
        report = verify_schedule(net, part, scen, again, "equitable")
        assert report.passed
        assert np.array_equal(again.block_status, sched.block_status)


def test_every_row_group_has_a_check_family():
    assert set(CHECK_FAMILY_OF_GROUP) == set(ROW_GROUPS)
    # radiality rows all map onto the graph-theoretic check
    tree_groups = {g for g in ROW_GROUPS if g.startswith(("tree_", "commodity_"))}
    assert {CHECK_FAMILY_OF_GROUP[g] for g in tree_groups} == {"radiality"}


def test_checker_never_imports_the_formulation():
    import gridshed.checker as checker_module

    with open(checker_module.__file__, "r", encoding="utf-8") as fh:
        source = fh.read()
    assert "formulation" not in source
    assert "MilpModel" not in source
