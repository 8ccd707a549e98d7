"""The traced benchmark against the real package.

``bench/tracing.instrument`` swaps module attributes of ``gridshed`` for
wrappers; a refactor that drops or renames one of them would leave the
untraced benchmark working and break ``bench/run.py --trace 1``.
"""

import os
import sys

import pytest

from gridshed import analysis, checker
from gridshed.instances import load_case, small_network, small_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
tracing = pytest.importorskip("tracing")

SWAPPED = [
    (analysis, "compute_load_blocks"),
    (analysis, "build_model"),
    (analysis, "solve_milp"),
    (analysis, "solve_lp"),
    (analysis, "extract_schedule"),
    (analysis, "compute_metrics"),
    (analysis, "ThreadPoolExecutor"),
    (checker, "verify_schedule"),
]


def test_instrument_traces_a_horizon_and_restores_the_package():
    net, _, scen = load_case(small_network(seed=2, n_blocks=3),
                             small_scenario(seed=2, n_blocks=3, horizon=2))
    originals = [getattr(mod, attr) for mod, attr in SWAPPED]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for (mod, attr), original in zip(SWAPPED, originals):
            assert getattr(mod, attr) is not original, attr
        with tracer.span("request", request=0):
            analysis.run_horizon(net, scen, mode="original")
    for (mod, attr), original in zip(SWAPPED, originals):
        assert getattr(mod, attr) is original, attr
    names = {s.name for s in tracer.spans}
    assert {"netmodel.blocks", "formulation.build", "solver.solve",
            "analysis.extract", "analysis.metrics",
            "checker.verify"} <= names
