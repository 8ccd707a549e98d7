import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gridshed import instances
from gridshed.formulation import MilpModel


@pytest.fixture(scope="session")
def microgrid_case():
    """The bundled ``13bus`` case (23 buses, 6 blocks) with its base scenario."""
    return instances.load_case(
        instances.thirteen_bus_network(), instances.thirteen_bus_scenario()
    )


@pytest.fixture(scope="session")
def desk_case():
    return instances.load_case(
        instances.desk_network(seed=0), instances.desk_scenario(seed=0)
    )


def unschedulable_network(case: str) -> dict:
    """``small_network(seed=1)`` plus a triangle of non-switchable lines
    on b2 ("loop") or plus a bus with no lines ("island"); the model has
    no schedule for either."""
    doc = instances.small_network(seed=1)
    if case == "loop":
        doc["buses"] += [{"id": "x1"}, {"id": "x2"}]
        doc["lines"] += [
            {"id": "t1", "from": "b2", "to": "x1"},
            {"id": "t2", "from": "x1", "to": "x2"},
            {"id": "t3", "from": "x2", "to": "b2"},
        ]
    else:
        doc["buses"].append({"id": "lonely"})
    return doc


def column_families(model):
    """The family of every column, read from the model's series."""
    families = np.empty(model.num_vars, dtype=object)
    for (family, _), cols in model.series.items():
        families[cols] = family
    return families


def free_semantic_binaries(model):
    """Free binary columns the enumeration oracle actually walks."""
    free = model.is_binary & (model.lo != model.hi)
    return np.flatnonzero(free & (column_families(model) != "phi"))


def make_model(c, bounds, rows, binary=(), constant=0.0):
    """Assemble a raw standard-form model for solver unit tests."""
    n = len(c)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _, _, _ in rows], out=indptr[1:])
    cols = (np.concatenate([np.asarray(r[0], dtype=np.int64) for r in rows])
            if rows else np.empty(0, dtype=np.int64))
    vals = (np.concatenate([np.asarray(r[1], dtype=float) for r in rows])
            if rows else np.empty(0))
    return MilpModel(
        series={("x", str(i)): range(i, i + 1) for i in range(n)},
        lo=np.asarray([b[0] for b in bounds], dtype=float),
        hi=np.asarray([b[1] for b in bounds], dtype=float),
        is_binary=np.asarray([i in binary for i in range(n)]),
        row_groups=tuple(f"g{i}" for i in range(len(rows))),
        row_lo=np.asarray([-math.inf if rel == "<=" else rhs
                           for _, _, rel, rhs in rows], dtype=float),
        row_hi=np.asarray([math.inf if rel == ">=" else rhs
                           for _, _, rel, rhs in rows], dtype=float),
        A=csr_matrix((vals, cols, indptr), shape=(len(rows), n)),
        c=np.asarray(c, dtype=float),
        objective_constant=constant,
    )
