import math

import numpy as np
import pytest

from gridshed import (
    BudgetExceeded,
    SolverOptions,
    brute_force_solve,
    build_model,
    solve_lp,
    solve_milp,
)
from gridshed.formulation import MilpModel, VariableRef
from gridshed.instances import load_case, small_network, small_scenario

from conftest import free_semantic_binaries


def make_model(c, bounds, rows, binary=(), constant=0.0):
    """Assemble a raw standard-form model for solver unit tests."""
    n = len(c)
    variables = tuple(
        VariableRef(i, "x", str(i), 0, "B" if i in binary else "C")
        for i in range(n)
    )
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _, _, _ in rows], out=indptr[1:])
    cols = (np.concatenate([np.asarray(r[0], dtype=np.int64) for r in rows])
            if rows else np.empty(0, dtype=np.int64))
    vals = (np.concatenate([np.asarray(r[1], dtype=float) for r in rows])
            if rows else np.empty(0))
    cvec = np.asarray(c, dtype=float)
    nz = np.flatnonzero(cvec)
    return MilpModel(
        variables=variables,
        lo=np.asarray([b[0] for b in bounds], dtype=float),
        hi=np.asarray([b[1] for b in bounds], dtype=float),
        is_binary=np.asarray([i in binary for i in range(n)]),
        index={("x", str(i), 0): i for i in range(n)},
        row_groups=tuple(f"g{i}" for i in range(len(rows))),
        row_rels=tuple(r[2] for r in rows),
        row_rhs=np.asarray([r[3] for r in rows], dtype=float),
        indptr=indptr,
        cols=cols,
        vals=vals,
        objective_cols=nz,
        objective_vals=cvec[nz],
        objective_constant=constant,
    )


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

    def test_duals_satisfy_complementary_slackness(self):
        model = make_model([-1.0], [(0.0, math.inf)],
                           [([0], [1.0], "<=", 3.0)])
        sol = solve_lp(model)
        assert sol.dual_certificate is not None
        dual = sol.dual_certificate["ineq"][0]
        slack = 3.0 - sol.values[0]
        # binding row: shadow price of the rhs is -1, slack is zero
        assert dual == pytest.approx(-1.0, abs=1e-9)
        assert dual * slack == pytest.approx(0.0, abs=1e-9)

    def test_ineq_duals_follow_model_row_order(self):
        # min -2 x0 + 3 x1 + x2 with rows >=, =, <=, <= in that order
        model = make_model(
            [-2.0, 3.0, 1.0], [(0.0, 10.0)] * 3,
            [([1], [1.0], ">=", 2.0),
             ([2], [1.0], "=", 1.0),
             ([0], [1.0], "<=", 3.0),
             ([0, 1, 2], [1.0, 1.0, 1.0], "<=", 100.0)],
        )
        sol = solve_lp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        # one entry per non-equality row, in model order; a >= row is
        # priced as its negation (-x1 <= -2), so relaxing it lowers cost
        assert sol.dual_certificate["ineq"] == pytest.approx([-3.0, -2.0, 0.0],
                                                             abs=1e-9)
        assert sol.dual_certificate["eq"] == pytest.approx([1.0], abs=1e-9)


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
        brute_force_solve(model, binary_budget=24)


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
