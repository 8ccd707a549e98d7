import ast
import dataclasses
import hashlib
import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed import (
    DimensionError,
    GridshedError,
    ModelError,
    ParseError,
    Schedule,
    build_model,
    compute_load_blocks,
    parse_network,
    parse_scenario,
    run_horizon,
    schedule_from_dict,
    schedule_to_dict,
    verify_schedule,
)
from gridshed.analysis import extract_schedule, schedule_objective
from gridshed.checker import (SERIES, _arrays_of, _NetworkArrays, _per_period,
                              equity_violations)
from gridshed.instances import (
    desk_network,
    desk_scenario,
    load_case,
    small_network,
    thirteen_bus_network,
    thirteen_bus_scenario,
)
from gridshed.netmodel import BlockPartition, LoadBlock, UnionFind
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
        out = []
        _per_period(out, scen, ROTATION, np.zeros(8, dtype=int))
        assert [v for v in out if v.family == "block_budget"] == []

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


@pytest.fixture(scope="module")
def solved(microgrid_case):
    net, part, scen = microgrid_case
    model = build_model(net, part, scen, "equitable")
    sol = solve_milp(model)
    assert sol.status in ("optimal", "feasible-gap")
    sched = extract_schedule(model, sol.values, net, part, scen)
    return net, part, scen, sched


# sha256 digests of the parsed records (floats by float.hex) and of the
# dtype, shape and bytes of every array the checker reads from them
PINNED_NETWORKS = {
    "13bus": thirteen_bus_network,
    "desk3": lambda: desk_network(3, 8),
    "desk4": lambda: desk_network(4, 8),
}
PARSED_PINNED = {
    "13bus": ("f812ee815072c8d8ec3fc1da6265c7fb6b728a0a643112b902c0ce356317207c",
              "7b8f71ccc1551390f7d65457d80f2feb03e7ca8d0caf6402d6d42bd25947d1ce"),
    "desk3": ("f688b267b758023d5b83e564f994a6f7c71f18a9c506bac3824ecfd5ed41e792",
              "8ea829da91d611fc2bbb170d54db1b74310668fa7fa973549bf18264dffbc0f3"),
    "desk4": ("4fa5a1fb6765312153878e1a740d030ab780717db2c9148f1e49b525ebf5afa0",
              "be0a7033333b88a9c321ad23573cba9c5bdaf84ba46524b11775ef00bdd72cd1"),
}


class TestVerifySchedule:
    def test_solved_schedule_verifies(self, solved):
        net, part, scen, sched = solved
        report = verify_schedule(net, part, scen, sched, "equitable")
        assert report.passed, [v.describe() for v in report.violations]

    def test_unknown_mode_rejected(self, solved):
        """A mode other than the two the model knows is refused, as
        build_model refuses it, not checked without the equity families."""
        net, part, scen, sched = solved
        message = (r"^unknown mode 'equitible'; "
                   r"expected one of \('original', 'equitable'\)$")
        for call, args in ((build_model, (net, part, scen)),
                           (verify_schedule, (net, part, scen, sched)),
                           (schedule_objective, (part, scen, sched))):
            with pytest.raises(ModelError, match=message):
                call(*args, mode="equitible")

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
        for line in (l for l in net.lines if l.switchable):
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

    @pytest.mark.parametrize("name, ghost", [
        ("pg", np.full(8, 1e9)),
        ("flow_p", np.zeros(1)),
        ("grid_forming", np.ones(8, dtype=int)),
    ], ids=["pg", "flow_p", "grid_forming"])
    def test_series_for_unknown_ids_raise(self, solved, name, ghost):
        net, part, scen, sched = solved
        series = dict(getattr(sched, name), ghost=ghost)
        bad = dataclasses.replace(sched, **{name: series})
        with pytest.raises(DimensionError, match=rf"{name}: .*'ghost'"):
            verify_schedule(net, part, scen, bad, "equitable")

    def test_opening_a_fixed_line_is_flagged(self, solved):
        net, part, scen, sched = solved
        assert not next(l for l in net.lines if l.id == "l05").switchable
        # l05 carries no flow at t=0, so only its status is wrong
        assert sched.flow_p["l05"][0] == sched.flow_q["l05"][0] == 0.0
        switch = dict(sched.switch_status, l05=sched.switch_status["l05"].copy())
        switch["l05"][0] = 0
        bad = dataclasses.replace(sched, switch_status=switch)
        report = verify_schedule(net, part, scen, bad, "equitable")
        assert [(v.family, v.entity, v.period) for v in report.violations] == [
            ("fixed_line", "l05", 0)
        ]

    @pytest.mark.parametrize("name", list(PARSED_PINNED))
    def test_parsed_network_pinned(self, name):
        # a change to a record reader, or to the arrays read from the
        # records, that alters any value, type or dtype of these networks
        # fails here
        net = parse_network(PINNED_NETWORKS[name]())
        records = hashlib.sha256()
        for collection in ("buses", "lines", "ders", "storage", "loads"):
            for record in getattr(net, collection):
                for f in dataclasses.fields(record):
                    value = getattr(record, f.name)
                    records.update(repr((
                        collection, f.name, type(value).__name__,
                        value.hex() if isinstance(value, float) else value,
                    )).encode())
        arrays = hashlib.sha256()
        for attr, value in sorted(vars(_NetworkArrays(
                net, compute_load_blocks(net))).items()):
            for key, array in (sorted(value.items())
                               if isinstance(value, dict) else [(None, value)]):
                if isinstance(array, np.ndarray):
                    arrays.update(repr((attr, key, array.dtype.str,
                                        array.shape)).encode())
                    arrays.update(array.tobytes())
        assert (records.hexdigest(), arrays.hexdigest()) == PARSED_PINNED[name]

    def test_network_arrays_are_read_only(self, solved):
        net, part, scen, sched = solved
        verify_schedule(net, part, scen, sched, "equitable")
        arrays = [array for value in vars(_arrays_of(net, part)).values()
                  for array in (value.values() if isinstance(value, dict)
                                else (value,))
                  if isinstance(array, np.ndarray)]
        assert len(arrays) > 30
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert verify_schedule(net, part, scen, sched, "equitable").passed

    def test_another_partition_object_gets_its_own_arrays(self, solved):
        # the blocks numbered in reverse, with the schedule and risks
        # reversed to match: the check must read the partition it is
        # given, not arrays kept for the network's own
        net, part, scen, sched = solved
        last = part.n_blocks - 1
        reverse = BlockPartition(
            tuple(LoadBlock(last - b.index, b.buses, b.nominal_demand)
                  for b in reversed(part.blocks)),
            MappingProxyType({bus: last - k
                              for bus, k in part.block_of_bus.items()}),
            tuple((lid, last - ki, last - kj)
                  for lid, ki, kj in part.block_graph))
        scen = dataclasses.replace(scen, risk=scen.risk[::-1])
        sched = dataclasses.replace(sched,
                                    block_status=sched.block_status[::-1])
        assert not verify_schedule(net, part, scen, sched, "original").passed
        assert verify_schedule(net, reverse, scen, sched, "original").passed

    def test_schedule_roundtrip(self, solved):
        net, part, scen, sched = solved
        again = schedule_from_dict(schedule_to_dict(sched))
        report = verify_schedule(net, part, scen, again, "equitable")
        assert report.passed
        assert np.array_equal(again.block_status, sched.block_status)


# Each gated series: its check family, the network collection that keys
# it, and the bounds of one of its entities.  Demand bounds are scaled by
# the period's demand multiplier.
GATED = {
    "voltage_sq": ("voltage_gating", "buses",
                   lambda b: (b.v_min ** 2, b.v_max ** 2)),
    "pg": ("gen_gating", "ders", lambda d: (d.p_min, d.p_max)),
    "qg": ("gen_gating", "ders", lambda d: (d.q_min, d.q_max)),
    "pd": ("load_gating", "loads", lambda d: (d.p_min, d.p_max)),
    "qd": ("load_gating", "loads", lambda d: (d.q_min, d.q_max)),
    "flow_p": ("flow_gating", "lines", lambda l: (l.p_min, l.p_max)),
    "flow_q": ("flow_gating", "lines", lambda l: (l.q_min, l.q_max)),
}


@pytest.mark.parametrize("breach", ["off", "above", "below"])
@pytest.mark.parametrize("name", list(GATED))
def test_gate_breach_is_reported_exactly(solved, name, breach):
    """One value of a gated series, set to 0.25 where its gate is off or
    0.5 past a bound where it is on, gives exactly one record of its
    family, with lhs, rhs and breach bit-equal to the bounds' own."""
    net, part, scen, sched = solved
    family, collection, bounds = GATED[name]

    def gate_on(entity, t):
        if collection == "lines":
            return sched.switch_status[entity.id][t] == 1
        bus = entity.id if collection == "buses" else entity.bus
        return sched.block_status[part.block_of_bus[bus], t] == 1

    # the 13bus multipliers are not 1 in most periods; picking one of
    # those pins the scaling of the demand bounds
    entity, t = next(
        (e, t) for e in getattr(net, collection) for t in range(scen.horizon)
        if gate_on(e, t) == (breach != "off")
        and scen.demand_multiplier[t] != 1.0)
    lo, hi = bounds(entity)
    if collection == "loads":
        lo, hi = (b * scen.demand_multiplier[t] for b in (lo, hi))
    x, expected = {
        "off": (0.25, (0.25, 0.0, 0.25)),
        "above": (hi + 0.5, (hi + 0.5, hi, hi + 0.5 - hi)),
        "below": (lo - 0.5, (lo, lo - 0.5, lo - (lo - 0.5))),
    }[breach]
    series = {k: v.copy() for k, v in getattr(sched, name).items()}
    series[entity.id][t] = x
    bad = dataclasses.replace(sched, **{name: series})
    report = verify_schedule(net, part, scen, bad, "equitable")
    assert [(v.family, v.entity, v.period, v.lhs.hex(), v.rhs.hex(),
             v.slack.hex())
            for v in report.violations if v.family == family] == [
        (family, entity.id, t, *(float(f).hex() for f in expected))
    ]


def _ones_to(doc, value):
    """Replace every 1 in a status grid or map of status series by
    ``value``, or every 0 and every 1 by the pair ``value``."""
    zero, one = value if isinstance(value, tuple) else (0, value)
    rows = doc if isinstance(doc, list) else doc.values()
    for row in rows:
        row[:] = [one if x == 1 else zero for x in row]


class TestScheduleDocument:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_dispatch_raises(self, solved, value):
        net, part, scen, sched = solved
        bad = dataclasses.replace(
            sched,
            flow_p={k: np.full_like(v, value) for k, v in sched.flow_p.items()},
            pg={k: np.full_like(v, value) for k, v in sched.pg.items()},
        )
        with pytest.raises(DimensionError, match="non-finite"):
            verify_schedule(net, part, scen, bad, "equitable")

    @pytest.mark.parametrize("section, value", [
        ("block_status", 1.5), ("switch_status", 1.9),
        # integral, but past int64
        ("block_status", 1e300), ("switch_status", 1e308),
        # integers past int64 in every entry, which numpy reads as uint64
        ("block_status", (2**63, 2**63 + 1)),
        ("switch_status", (2**63, 2**63 + 1)),
    ])
    def test_fractional_status_rejected(self, solved, section, value):
        doc = schedule_to_dict(solved[3])
        _ones_to(doc[section], value)
        with pytest.raises(ParseError, match="integers"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("series, path, value", [
        ("switch_status", ("switch_status", "s1", 0), "1"),
        ("grid_forming", ("grid_forming", "pv1", 3), True),
        ("block_status", ("block_status", 2, 5), False),
        ("pg", ("dispatch", "pg", "grid", 1), "0.1886"),
        ("pd", ("dispatch", "pd", "d3", 0), True),
        ("flow_q", ("dispatch", "flow_q", "l04", 7), None),
    ], ids=["string-status", "true-status", "false-block", "string-dispatch",
            "true-dispatch", "null-dispatch"])
    def test_non_number_values_rejected(self, solved, series, path, value):
        # numpy would parse the strings and read true and false as 1 and 0
        doc = schedule_to_dict(solved[3])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError, match=rf"^{series}\b"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("horizon", [8.9, 8.0, True, "8", None])
    def test_horizon_must_be_an_integer(self, solved, horizon):
        doc = schedule_to_dict(solved[3])
        doc["horizon"] = horizon
        with pytest.raises(ParseError, match="horizon"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["dispatch"].update(pg=[1, 2]),
        lambda doc: doc.update(dispatch=[]),
        lambda doc: doc.update(grid_forming=None),
        lambda doc: doc["switch_status"].update(l01=[[0, 1]] * 8),
        lambda doc: doc["dispatch"]["pd"].update(d1=0.5),
        lambda doc: doc["dispatch"]["qd"].update(d1=[[0.5]] * 8),
    ], ids=["pg-list", "dispatch-list", "forming-null", "nested-status",
            "scalar-series", "nested-series"])
    def test_malformed_document_raises_package_error(self, solved, edit):
        net, part, scen, sched = solved
        doc = json.loads(json.dumps(schedule_to_dict(sched)))
        edit(doc)
        with pytest.raises(GridshedError):
            verify_schedule(net, part, scen, schedule_from_dict(doc),
                            "equitable")

    def test_series_changed_after_loading_are_verified(self, solved):
        # a loaded schedule's series are rows of its family matrices; a
        # replaced series and a series edited in place must both reach the
        # checker
        net, part, scen, sched = solved
        doc = schedule_to_dict(sched)
        loaded = schedule_from_dict(doc)
        line, unit = next(iter(loaded.flow_p)), next(iter(loaded.pg))
        loaded.flow_p[line] = loaded.flow_p[line] + 0.3
        loaded.pg[unit][2] += 0.2
        doc["dispatch"]["flow_p"][line] = [
            x + 0.3 for x in doc["dispatch"]["flow_p"][line]]
        doc["dispatch"]["pg"][unit][2] += 0.2
        report = verify_schedule(net, part, scen, loaded, "equitable")
        assert not report.passed
        assert report.to_dict() == verify_schedule(
            net, part, scen, schedule_from_dict(doc), "equitable").to_dict()

    def test_loaded_schedule_holds_only_its_fields(self, solved):
        loaded = schedule_from_dict(schedule_to_dict(solved[3]))
        assert list(vars(loaded)) == [
            f.name for f in dataclasses.fields(Schedule)]

    def test_series_table_matches_schedule_fields(self):
        assert ["horizon", "block_status"] + [s[0] for s in SERIES] == [
            f.name for f in dataclasses.fields(Schedule)
        ]

    @pytest.mark.parametrize("net_doc, scen_doc", [
        (thirteen_bus_network(), thirteen_bus_scenario()),
        (desk_network(seed=3), desk_scenario(seed=3)),
        (small_network(seed=1, with_storage=True),
         {"horizon": 3, "risk": [[1.0] * 3] * 3}),
    ], ids=["13bus", "desk3", "small+storage"])
    def test_document_roundtrip_keeps_layout(self, net_doc, scen_doc):
        net, part, scen = load_case(net_doc, scen_doc)
        T = scen.horizon
        rng = np.random.default_rng(0)
        sched = Schedule(
            horizon=T,
            block_status=rng.integers(0, 2, (part.n_blocks, T)),
            **{name: {e.id: rng.integers(0, 2, T) if status
                      else rng.normal(size=T)
                      for e in getattr(net, entities)}
               for name, _, entities, status in SERIES},
        )
        doc = schedule_to_dict(sched)
        assert list(doc) == ["horizon", "block_status", "switch_status",
                             "grid_forming", "dispatch"]
        assert list(doc["dispatch"]) == [
            "pg", "qg", "pd", "qd", "flow_p", "flow_q", "voltage_sq",
            "storage_energy", "storage_charge", "storage_discharge",
            "storage_on", "storage_charging", "storage_discharging",
        ]
        text = json.dumps(doc)
        again = schedule_from_dict(json.loads(text))
        assert json.dumps(schedule_to_dict(again)) == text
        verify_schedule(net, part, scen, again)  # shapes match: no raise


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


def test_every_row_group_has_a_check_family():
    # a ``13bus`` scenario on which the two modes together emit every group
    scen_doc = thirteen_bus_scenario(psi=0.5)
    scen_doc["limits"].update({"lambda": 0.5, "window": 2, "beta": 3.0})
    net, part, scen = load_case(thirteen_bus_network(), scen_doc)
    emitted = {
        group
        for mode in ("original", "equitable")
        for group in build_model(net, part, scen, mode).row_groups
    }
    assert emitted == set(CHECK_FAMILY_OF_GROUP)
    # radiality rows all map onto the graph-theoretic check
    tree_groups = {g for g in emitted if g.startswith(("tree_", "commodity_"))}
    assert {CHECK_FAMILY_OF_GROUP[g] for g in tree_groups} == {"radiality"}


def test_checker_never_imports_the_formulation():
    import gridshed.checker as checker_module

    with open(checker_module.__file__, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
    modules = {part for name in imported for part in name.split(".")}
    assert not modules & {"formulation", "solver"}, sorted(imported)


@st.composite
def switched_networks(draw):
    """A valid network of at most 8 buses with random statuses over at
    most 3 periods.  Its load blocks are trees of fixed lines; one switch
    joins each new block to an earlier bus, and extra switches between
    blocks add parallel switches and cycles.  Bus ids are shuffled, so
    the lowest id need not be the substation or the first bus."""
    n = draw(st.integers(1, 8))
    names = draw(st.permutations([f"b{i}" for i in range(n)]))
    block, lines = [0], []
    for i in range(1, n):
        block.append(draw(st.integers(0, max(block) + 1)))
        same = [j for j in range(i) if block[j] == block[i]]
        j = draw(st.sampled_from(same or range(i)))
        lines.append((j, i, not same))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=4)):
        if block[i] != block[j]:
            lines.append((i, j, True))
    ders = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                         max_size=4))
    doc = {
        "buses": [{"id": names[0], "is_substation": True}]
        + [{"id": b} for b in names[1:]],
        "lines": [{"id": f"l{k}", "from": names[i], "to": names[j],
                   "switchable": sw} for k, (i, j, sw) in enumerate(lines)],
        "ders": [{"id": f"g{k}", "bus": names[i], "can_grid_form": form}
                 for k, (i, form) in enumerate(ders)],
    }
    T = draw(st.integers(1, 3))

    def statuses(rows):
        return draw(st.lists(st.lists(st.integers(0, 1), min_size=T,
                                      max_size=T), min_size=rows,
                             max_size=rows))

    return doc, T, statuses(max(block) + 1), statuses(len(lines)), \
        statuses(len(ders))


@settings(max_examples=200, deadline=None)
@given(switched_networks())
def test_island_census_matches_union_find(case):
    """Every island record equals one found by union-find over the closed
    lines of each period: a live component that is not a tree fails
    radiality, and one away from the substation whose forming-unit count
    is not 1 fails grid_forming; each is named by its lowest bus id."""
    doc, T, block_status, line_status, forming = case
    net = parse_network(doc)
    part = compute_load_blocks(net)
    scen = parse_scenario({"horizon": T, "risk": [[0.0] * T] * part.n_blocks},
                          part)
    zeros = {name: {e.id: np.zeros(T) for e in getattr(net, collection)}
             for name, section, collection, status in SERIES
             if section == "dispatch"}
    sched = Schedule(
        horizon=T, block_status=np.array(block_status, dtype=int),
        switch_status={l.id: np.array(s) for l, s in zip(net.lines,
                                                         line_status)},
        grid_forming={d.id: np.array(s) for d, s in zip(net.ders, forming)},
        **zeros)
    report = verify_schedule(net, part, scen, sched, "original")

    expected = []
    for t in range(T):
        uf = UnionFind([b.id for b in net.buses])
        for line, status in zip(net.lines, line_status):
            if status[t]:
                uf.union(line.from_bus, line.to_bus)
        for members in uf.groups().values():
            if not any(block_status[part.block_of_bus[b]][t] for b in members):
                continue
            root = uf.find(members[0])
            edges = sum(s[t] for l, s in zip(net.lines, line_status)
                        if uf.find(l.from_bus) == root)
            formers = sum(s[t] for d, s in zip(net.ders, forming)
                          if uf.find(d.bus) == root)
            name = f"island[{min(members)}]"
            if edges != len(members) - 1:
                expected.append((t, name, 0, "radiality", 1.0, 0.0, 1.0))
            if net.substation.id not in members and formers != 1:
                expected.append((t, name, 1, "grid_forming", formers - 1.0,
                                 0.0, abs(formers - 1.0)))
    expected.sort()
    assert [(v.family, v.entity, v.period, v.lhs, v.rhs, v.slack)
            for v in report.violations if v.entity.startswith("island[")] == [
        (family, name, t, lhs, rhs, slack)
        for t, name, _, family, lhs, rhs, slack in expected
    ]
