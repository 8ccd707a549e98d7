import numpy as np
import pytest

from gridshed import instances


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
