import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gridshed import (
    DomainError,
    InfeasibleError,
    Schedule,
    SolverOptions,
    compute_metrics,
    emit_report,
    run_horizon,
    sweep_beta,
    sweep_epsilon,
)
from gridshed.analysis import metrics_dict, schedule_objective
from gridshed.instances import load_case, small_network, small_scenario
from gridshed.netmodel import uniform_beta


@pytest.fixture(scope="module")
def small_solved():
    net, part, scen = load_case(
        small_network(seed=4, n_blocks=3, with_former=True),
        {"horizon": 3, "risk": [[3.0] * 3, [1.0] * 3, [1.0] * 3],
         "limits": {"epsilon": 0.7, "k_bl_max": 3}},
    )
    sched, metrics = run_horizon(net, scen, mode="equitable")
    return net, part, scen, sched, metrics


class TestMetrics:
    def test_recount_matches_raw_statuses(self, small_solved):
        _, part, scen, sched, metrics = small_solved
        z = sched.block_status
        assert metrics.shed_counts == tuple(
            int(scen.horizon - z[k].sum()) for k in range(part.n_blocks)
        )
        assert metrics.change_counts == tuple(
            int(np.abs(np.diff(z[k])).sum()) for k in range(part.n_blocks)
        )
        assert metrics.total_sheds == int(
            part.n_blocks * scen.horizon - z.sum()
        )
        assert metrics.participating == int((z.sum(axis=1) < scen.horizon).sum())

        # one period holds no status change
        first = dataclasses.replace(sched, horizon=1, block_status=z[:, :1])
        one = compute_metrics(part, dataclasses.replace(scen, horizon=1), first)
        assert one.change_counts == (0,) * part.n_blocks
        assert one.shed_counts == tuple(int(1 - z[k, 0])
                                        for k in range(part.n_blocks))
        changes = first.status_changes_per_block()
        assert changes.shape == (part.n_blocks,) and changes.dtype == z.dtype

    def test_shares_sum_to_one_when_sheds_exist(self, small_solved):
        _, _, _, _, metrics = small_solved
        if metrics.total_sheds:
            assert sum(metrics.shares) == pytest.approx(1.0)

    def test_shed_energy_uses_multiplier_and_duration(self, small_solved):
        _, part, scen, sched, metrics = small_solved
        expected = sum(
            part.blocks[k].nominal_demand * scen.demand_multiplier[t]
            * scen.period_hours
            for k in range(part.n_blocks)
            for t in range(scen.horizon)
            if sched.block_status[k, t] == 0
        )
        assert metrics.total_shed_energy == pytest.approx(expected)


class TestRunHorizon:
    def test_contradictory_limits_are_infeasible(self):
        # every block pinned on while the risk cap forbids any energization
        net, part, scen = load_case(
            small_network(seed=0, n_blocks=2, with_former=True),
            {"horizon": 1, "risk": [[1.0], [1.0]],
             "limits": {"epsilon": 0.0},
             "emergency_blocks": [0, 1]},
        )
        with pytest.raises(InfeasibleError) as err:
            run_horizon(net, scen, mode="equitable")
        assert err.value.diagnosis

    def test_zero_risk_pressure_sheds_nothing(self):
        doc = small_network(seed=6, n_blocks=3, with_former=True)
        doc["loads"].append(
            {"id": "droot", "bus": "b1", "p_min": 0.2, "p_max": 0.2}
        )
        net, part, scen = load_case(
            doc,
            {"horizon": 2, "risk": [[1.0] * 2] * 3,
             "limits": {"epsilon": 1.0, "k_bl_max": 3}},
        )
        sched, metrics = run_horizon(net, scen, mode="original")
        assert metrics.total_sheds == 0
        assert schedule_objective(part, scen, sched, "original") == 0.0


class TestSweeps:
    def test_epsilon_sweep_monotone(self):
        net, part, scen = load_case(
            small_network(seed=8, n_blocks=3, with_former=True),
            {"horizon": 2, "risk": [[2.0] * 2, [1.5] * 2, [1.0] * 2],
             "limits": {"k_bl_max": 3}},
        )
        result = sweep_epsilon(net, scen, [0.5, 0.75, 1.0], mode="original")
        assert result.param == "epsilon"
        objs = [p.objective for p in result.points]
        assert all(p.status in ("optimal", "feasible-gap") for p in result.points)
        assert objs[0] >= objs[1] - 1e-7 >= objs[2] - 2e-7

    def test_empty_grid(self):
        net, part, scen = load_case(
            small_network(seed=8, n_blocks=2, with_former=True),
            {"horizon": 1, "risk": [[1.0], [1.0]]},
        )
        result = sweep_epsilon(net, scen, [], mode="original")
        assert result.points == ()

    def test_epsilon_out_of_range(self):
        net, part, scen = load_case(
            small_network(seed=8, n_blocks=2, with_former=True),
            {"horizon": 1, "risk": [[1.0], [1.0]]},
        )
        with pytest.raises(DomainError):
            sweep_epsilon(net, scen, [1.5])

    def test_beta_sweep_reports_ratio_and_respects_cap(self):
        net, part, scen = load_case(
            small_network(seed=9, n_blocks=3, with_former=True),
            {"horizon": 4, "risk": [[3.0] * 4, [1.0] * 4, [1.0] * 4],
             "limits": {"epsilon": 0.65, "k_bl_max": 3}},
        )
        result = sweep_beta(net, scen, [math.inf, 2.0], mode="equitable")
        for point in result.points:
            if point.metrics is None:
                assert point.status in ("infeasible", "limit")
                continue
            counts = [
                point.metrics.shed_counts[k]
                for k in range(part.n_blocks) if k not in scen.emergency
            ]
            if math.isfinite(point.value):
                for a in counts:
                    for b in counts:
                        assert a <= point.value * b + 1e-9

    def test_csv_schema(self):
        net, part, scen = load_case(
            small_network(seed=8, n_blocks=2, with_former=True),
            {"horizon": 1, "risk": [[1.0], [1.0]]},
        )
        result = sweep_epsilon(net, scen, [1.0], mode="original")
        buf = io.StringIO()
        result.to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["param", "value", "status", "objective",
                           "total_sheds", "unique_blocks", "max_min_ratio",
                           "wall_ms"]
        assert rows[1][0] == "epsilon"
        assert rows[1][2] in ("optimal", "feasible-gap")

    def test_points_without_a_schedule(self, microgrid_case):
        # the emergency block carries risk and is never shed, so no
        # schedule meets eps=0
        net, _, scen = microgrid_case
        result = sweep_epsilon(net, scen, [0.0, 0.5])
        assert [p.status for p in result.points] == ["infeasible", "optimal"]
        assert result.points[0].objective is None
        assert result.points[0].metrics is None
        buf = io.StringIO()
        result.to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[1][:7] == ["epsilon", "0", "infeasible", "", "", "", ""]
        assert rows[2][2] == "optimal" and rows[2][3] != ""

    def test_point_stopped_by_the_time_limit(self, microgrid_case):
        net, _, scen = microgrid_case
        result = sweep_epsilon(net, scen, [0.5],
                               opts=SolverOptions(time_limit=0.0))
        (point,) = result.points
        assert (point.status, point.objective, point.metrics) == (
            "limit", None, None)


class TestEmitReport:
    def test_table_layout(self, small_solved):
        _, _, _, sched, metrics = small_solved
        buf = io.StringIO()
        emit_report(sched, metrics, "table", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("block")
        assert len([l for l in lines if l.startswith("blk")]) == 3

    def test_csv_roundtrip(self, small_solved):
        _, _, _, sched, metrics = small_solved
        buf = io.StringIO()
        emit_report(sched, metrics, "csv", buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        grid = [
            [int(x) for x in row[1:]]
            for row in rows[1:1 + sched.block_status.shape[0]]
        ]
        assert np.array_equal(np.array(grid), sched.block_status)

    def test_json_report_parses(self, small_solved):
        _, _, _, sched, metrics = small_solved
        buf = io.StringIO()
        emit_report(sched, metrics, "json", buf, objective=1.25)
        doc = json.loads(buf.getvalue())
        assert doc["metrics"]["objective"] == "1.25"
        assert "schedule" in doc

    def test_empty_horizon_header_only(self):
        sched = Schedule(
            horizon=0,
            block_status=np.zeros((2, 0), dtype=int),
            switch_status={}, grid_forming={}, pg={}, qg={}, pd={}, qd={},
            flow_p={}, flow_q={}, voltage_sq={},
        )
        buf = io.StringIO()
        from gridshed.analysis import EquityMetrics

        empty = EquityMetrics((0, 0), (0, 0), 1.0, (0.0, 0.0), 0, 0.0, 0.0)
        emit_report(sched, empty, "table", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("block")

    def test_unknown_format_rejected(self, small_solved):
        _, _, _, sched, metrics = small_solved
        with pytest.raises(DomainError):
            emit_report(sched, metrics, "yaml", io.StringIO())


def test_mode_equivalence_objidentity(small_solved):
    net, part, scen, sched, _ = small_solved
    # recomputed cost agrees between modes when rho is zero
    assert schedule_objective(part, scen, sched, "equitable") == pytest.approx(
        schedule_objective(part, scen, sched, "original")
    )


def test_uniform_beta_matrix_shape():
    m = uniform_beta(3, 4.0)
    assert m[0][1] == 4.0
    assert math.isinf(m[1][1])
