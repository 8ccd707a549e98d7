import math

import numpy as np
import pytest

from gridshed import (
    BudgetExceeded,
    DomainError,
    NumericalError,
    SolverOptions,
    brute_force_solve,
    build_model,
    solve_lp,
    solve_milp,
)
from gridshed.instances import load_case, small_network, small_scenario

from conftest import free_semantic_binaries, make_model


class TestSolveLp:
    def test_single_variable(self):
        model = make_model([-1.0], [(0.0, math.inf)],
                           [([0], [1.0], "<=", 3.0)])
        sol = solve_lp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-3.0)
        assert sol.values[0] == pytest.approx(3.0)

    def test_infeasible_pair(self):
        model = make_model([0.0], [(0.0, math.inf)],
                           [([0], [1.0], "<=", 1.0),
                            ([0], [1.0], ">=", 2.0)])
        assert solve_lp(model).status == "infeasible"


class TestSolveMilp:
    def test_no_binaries_single_lp(self):
        model = make_model([-1.0], [(0.0, 2.5)], [])
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.5)
        assert sol.gap == 0.0

    def test_knapsack(self):
        # max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries: optimum a + c
        model = make_model(
            [-5.0, -4.0, -3.0],
            [(0, 1)] * 3,
            [([0, 1, 2], [2.0, 3.0, 1.0], "<=", 3.0)],
            binary={0, 1, 2},
        )
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-8.0)
        assert list(np.round(sol.values)) == [1, 0, 1]

    def test_infeasible(self):
        model = make_model(
            [0.0], [(0, 1)],
            [([0], [1.0], ">=", 0.6), ([0], [1.0], "<=", 0.4)],
            binary={0},
        )
        assert solve_milp(model).status == "infeasible"

    def test_constant_carried(self):
        model = make_model([1.0], [(0.5, 2.0)], [], constant=10.0)
        sol = solve_milp(model)
        assert sol.objective == pytest.approx(10.5)
        assert sol.best_bound == pytest.approx(10.5)


class TestStatusMapping:
    def test_unbounded_lp(self):
        # min -x s.t. x - y <= 1: x and y rise together without end
        model = make_model([-1.0, 0.0], [(0.0, math.inf)] * 2,
                           [([0, 1], [1.0, -1.0], "<=", 1.0)])
        sol = solve_lp(model)
        assert sol.status == "unbounded"
        assert sol.values is None

    def test_unbounded_milp(self):
        # every row is orthogonal to the all-ones ray, along which the cost
        # falls without end; the origin is feasible, so HiGHS holds an
        # incumbent when the root LP finds the ray
        rows = [[5, 1, 2, 4, -12], [3, 4, -3, -5, 1], [-2, 4, 5, -5, -2],
                [4, -4, 3, -4, 1], [3, -2, -2, -2, 3], [-3, 5, -1, 0, -1]]
        model = make_model([-1.0] * 5, [(0.0, math.inf)] * 5,
                           [(range(5), row, "<=", 2.0) for row in rows],
                           binary={0})
        sol = solve_milp(model)
        assert sol.status == "unbounded"
        assert sol.objective is None and sol.values is None
        assert solve_lp(model).status == "unbounded"

    @staticmethod
    def ray_toy(seed, extra_rows=()):
        """5 nonnegative columns, the first 1-5 of them integer, and 6
        random rows orthogonal to the all-ones ray, along which the cost
        falls without end; the origin is feasible."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(-5, 6, size=(6, 5)).astype(float)
        rows[:, -1] -= rows.sum(axis=1)
        integer = set(range(int(rng.integers(1, 6))))
        return make_model([-1.0] * 5, [(0.0, math.inf)] * 5,
                          [(range(5), row, "<=", 2.0) for row in rows]
                          + list(extra_rows), binary=integer)

    def test_unbounded_milp_without_incumbent(self):
        # HiGHS ends most of these knowing no feasible point, as
        # kUnboundedOrInfeasible
        statuses = [solve_milp(self.ray_toy(seed)).status
                    for seed in range(60)]
        assert statuses == ["unbounded"] * 60

    def test_infeasible_milp_along_a_falling_ray(self):
        # x0 - x1 >= 1 and x0 - x1 <= -1 leave no point, while the cost
        # still falls along the all-ones ray
        clash = [([0, 1], [1.0, -1.0], ">=", 1.0),
                 ([0, 1], [1.0, -1.0], "<=", -1.0)]
        statuses = [solve_milp(self.ray_toy(seed, clash)).status
                    for seed in range(60)]
        assert statuses == ["infeasible"] * 60

    KNAPSACK = dict(c=[-55.0, -61.0, -60.0, -48.0, -96.0, -48.0],
                    bounds=[(0, 1)] * 6,
                    rows=[(range(6), [50.0, 58.0, 56.0, 40.0, 95.0, 43.0],
                           "<=", 171.0)],
                    binary=set(range(6)))
    # at this gap target the root node leaves the knapsack open
    GAP = 1e-9

    def test_knapsack_needs_branching(self):
        sol = solve_milp(make_model(**self.KNAPSACK),
                         SolverOptions(gap_target=self.GAP))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-176.0)
        assert sol.stats["nodes"] > 1

    def test_node_limit_with_incumbent(self):
        sol = solve_milp(make_model(**self.KNAPSACK),
                         SolverOptions(gap_target=self.GAP, node_limit=1))
        assert sol.status == "limit"
        assert sol.objective == pytest.approx(-176.0)
        assert sol.best_bound < sol.objective
        assert sol.gap > 1e-4
        assert list(np.round(sol.values)) == [1, 1, 1, 0, 0, 0]
        assert sol.stats["nodes"] == 1

    def test_node_limit_without_incumbent(self):
        sol = solve_milp(make_model(**self.KNAPSACK),
                         SolverOptions(gap_target=self.GAP, node_limit=0))
        assert sol.status == "limit"
        assert sol.objective is None and sol.values is None
        assert sol.gap == math.inf

    def test_infeasible_milp_reports_the_nodes_searched(self):
        # no subset of the knapsack weights sums to 171; presolve leaves
        # that to the search
        rows = self.KNAPSACK["rows"]
        model = make_model(**{**self.KNAPSACK, "rows": rows + [
            (range(6), rows[0][1], ">=", 171.0)]})
        sol = solve_milp(model)
        assert sol.status == "infeasible"
        assert sol.stats["nodes"] >= 1

    def test_fractional_incumbent_is_refused(self, monkeypatch):
        # the one integrality check between HiGHS and a schedule
        from gridshed import solver
        values = np.array([1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
        monkeypatch.setattr(solver, "_highs", lambda model, mip, options: (
            "optimal", -146.0, -146.0, values, 1))
        with pytest.raises(NumericalError, match="integrality by 0.5"):
            solve_milp(make_model(**self.KNAPSACK))


@pytest.mark.parametrize("option, value", [
    ("gap_target", 0.0), ("gap_target", 1.0), ("gap_target", math.nan),
    ("time_limit", -1.0), ("time_limit", math.nan), ("time_limit", math.inf),
    ("node_limit", -1), ("node_limit", 2**31),
])
def test_invalid_options_rejected(option, value):
    with pytest.raises(DomainError, match="must be"):
        SolverOptions(**{option: value})


@pytest.fixture(scope="module")
def toy_instances():
    cases = []
    for seed in range(6):
        n_blocks = 2 + seed % 3
        horizon = 1 + seed % 2
        net, part, scen = load_case(
            small_network(seed=seed, n_blocks=n_blocks,
                          with_former=(seed % 2 == 0)),
            small_scenario(seed=seed, n_blocks=n_blocks, horizon=horizon,
                           equity=(seed % 3 == 0)),
        )
        cases.append((net, part, scen))
    return cases


def test_weak_duality(toy_instances):
    for net, part, scen in toy_instances:
        model = build_model(net, part, scen, "original")
        lp = solve_lp(model)
        milp = solve_milp(model)
        if lp.status == "optimal" and milp.status in ("optimal", "feasible-gap"):
            assert lp.objective <= milp.objective + 1e-7


def test_relaxation_bounds_microgrid_single_period(microgrid_case):
    from gridshed import parse_scenario
    from gridshed.instances import thirteen_bus_scenario

    net, part, _ = microgrid_case
    scen = parse_scenario(
        thirteen_bus_scenario(horizon=1, alpha=1.0, m=1), part
    )
    model = build_model(net, part, scen, "original")
    lp = solve_lp(model)
    milp = solve_milp(model)
    assert lp.status == "optimal"
    assert milp.status in ("optimal", "feasible-gap")
    assert lp.objective <= milp.objective + 1e-7


def test_oracle_equivalence(toy_instances):
    for net, part, scen in toy_instances:
        model = build_model(net, part, scen, "equitable")
        if len(free_semantic_binaries(model)) > 20:
            continue
        milp = solve_milp(model)
        oracle = brute_force_solve(model)
        if milp.status == "infeasible":
            assert oracle.status == "infeasible"
        else:
            assert oracle.status == "optimal"
            assert milp.objective == pytest.approx(oracle.objective, abs=1e-6)


def test_determinism(toy_instances):
    net, part, scen = toy_instances[0]
    model = build_model(net, part, scen, "equitable")
    a = solve_milp(model)
    b = solve_milp(model)
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.best_bound == b.best_bound
    assert a.stats["nodes"] == b.stats["nodes"]
    assert np.array_equal(a.values, b.values)
    c = brute_force_solve(model)
    d = brute_force_solve(model)
    assert c.objective == d.objective
    assert np.array_equal(c.values, d.values)


def test_budget_exceeded(desk_case):
    net, part, scen = desk_case
    model = build_model(net, part, scen, "original")
    with pytest.raises(BudgetExceeded):
        brute_force_solve(model)


def test_brute_force_zero_binaries():
    model = make_model([2.0, 1.0], [(0.0, 4.0), (1.0, 3.0)],
                       [([0, 1], [1.0, 1.0], ">=", 3.0)])
    bf = brute_force_solve(model)
    lp = solve_lp(model)
    assert bf.status == "optimal"
    assert bf.objective == pytest.approx(lp.objective)


def test_monotone_tightening():
    """Adding valid shed-count cuts never decreases the optimum."""
    net, part, scen = load_case(
        small_network(seed=2, n_blocks=3, with_former=True),
        {"horizon": 3, "risk": [[2.0] * 3, [1.0] * 3, [1.0] * 3],
         "limits": {"epsilon": 0.6, "k_bl_max": 3}},
    )
    base = solve_milp(build_model(net, part, scen, "equitable"))
    assert base.status == "optimal"
    prev = base.objective
    import dataclasses
    for alpha in (3.0, 2.0, 1.0):
        tightened = dataclasses.replace(scen, alpha=(alpha,) * 3)
        sol = solve_milp(build_model(net, part, tightened, "equitable"))
        if sol.status == "infeasible":
            break
        assert sol.objective >= prev - 1e-7
        prev = sol.objective


def test_highs_binding_pinned():
    """``solver`` calls HiGHS through scipy's private binding; a scipy
    release that renames one of the names it reads, or drops an option it
    sets, must fail here rather than run with, say, Feasibility Jump back
    on."""
    from gridshed import solver

    core = solver._core
    for name in ("_Highs", "HighsLp", "HighsVarType", "MatrixFormat",
                 "HighsModelStatus", "HighsStatus"):
        assert hasattr(core, name), name
    assert hasattr(core.MatrixFormat, "kColwise")
    for member in ("kContinuous", "kInteger"):
        assert hasattr(core.HighsVarType, member), member
    for member in ("kOptimal", "kInfeasible", "kUnboundedOrInfeasible",
                   "kUnbounded", "kTimeLimit", "kIterationLimit",
                   "kSolutionLimit"):
        assert getattr(core.HighsModelStatus, member) in solver._STATUS, member
    for member in ("kOk", "kError"):
        assert hasattr(core.HighsStatus, member), member
    info = core._Highs().getInfo()
    for field in ("objective_function_value", "mip_dual_bound",
                  "mip_node_count"):
        assert hasattr(info, field), field

    options = solver._mip_options(SolverOptions(time_limit=5.0, node_limit=7))
    assert options["mip_heuristic_run_feasibility_jump"] is False
    assert solver._QUIET.items() <= options.items()
    highs = core._Highs()
    for name, value in options.items():
        assert highs.setOptionValue(name, value) == core.HighsStatus.kOk, name
        assert highs.getOptionValue(name) == (core.HighsStatus.kOk, value), name
