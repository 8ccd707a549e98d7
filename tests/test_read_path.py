"""The read path of ``gridshed check``: what it raises on malformed input.

``data/read_path_errors.json`` holds malformed network and schedule
documents, each as a list of edits to a valid ``13bus`` document, with the
stage that raised (``parse_network``, ``schedule_from_dict`` or
``verify_schedule``), the exception type and the message recorded before
the read path was rewritten to load whole families at once.  A schedule is
verified against the ``13bus`` case in ``equitable`` mode; its base is the
recorded ``equitable`` schedule of ``data/checker_golden.json``.

The property tests mutate the same valid documents at random: every
outcome is either success or a ``GridshedError``, and ``gridshed check``
ends in exit 0, 1 or 2 without a traceback.
"""

import copy
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridshed import (
    GridshedError,
    instances,
    parse_network,
    schedule_from_dict,
    verify_schedule,
)
from gridshed.cli import main

DATA_DIR = pathlib.Path(__file__).parent / "data"
TABLE = json.loads((DATA_DIR / "read_path_errors.json").read_text())
SCHEDULE = json.loads((DATA_DIR / "checker_golden.json").read_text())[
    "cases"]["13bus"]["schedules"]["equitable"]
NETWORK = instances.thirteen_bus_network()
CASE = instances.load_case(NETWORK, instances.thirteen_bus_scenario())


def apply_edits(doc, edits):
    """A copy of ``doc`` with each edit applied: ``["set", path, value]``,
    ``["del", path]``, ``["append", path, value]`` or ``["doc", value]``,
    which replaces the whole document."""
    doc = copy.deepcopy(doc)
    for op, *args in edits:
        if op == "doc":
            doc = args[0]
            continue
        path = args[0]
        target = doc
        for key in path[:-1]:
            target = target[key]
        if op == "set":
            target[path[-1]] = args[1]
        elif op == "del":
            del target[path[-1]]
        elif op == "append":
            target[path[-1]].append(args[1])
        else:
            raise ValueError(f"unknown edit {op!r}")
    return doc


def outcome(kind, doc):
    """(stage, exception type, message) of reading ``doc``, or None."""
    stage = "parse_network"
    try:
        if kind == "network":
            parse_network(doc)
        else:
            net, part, scen = CASE
            stage = "schedule_from_dict"
            sched = schedule_from_dict(doc)
            stage = "verify_schedule"
            verify_schedule(net, part, scen, sched, "equitable")
    except GridshedError as exc:
        return [stage, type(exc).__name__, str(exc)]
    return None


def base(kind):
    return NETWORK if kind == "network" else SCHEDULE


@pytest.mark.parametrize("case", TABLE, ids=[c["name"] for c in TABLE])
def test_pinned_error(case):
    doc = apply_edits(base(case["kind"]), case["edits"])
    assert outcome(case["kind"], doc) == case["error"]


def test_table_covers_both_documents_and_every_stage():
    assert {c["error"][0] for c in TABLE} == {
        "parse_network", "schedule_from_dict", "verify_schedule"}
    assert all(c["error"] is not None for c in TABLE)


def test_unedited_documents_read_cleanly():
    assert outcome("network", NETWORK) is None
    assert outcome("schedule", SCHEDULE) is None


# Values that no field of either document accepts everywhere.
HOSTILE = st.sampled_from([
    None, True, False, "", "1", "inf", math.nan, math.inf, -math.inf, 1.5,
    -1, 0, 10**400, -(10**400), [], [1], [[0]], {}, {"a": 1}, 1e308,
])


def _leaves(doc, path=()):
    """Every (path, value) below ``doc``, containers included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three random edits: a node swapped for a
    hostile value, a key dropped, a key added, or a list made ragged."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        nodes = [(p, v) for p, v in _leaves(doc) if p]
        if not nodes:
            break
        path, value = draw(st.sampled_from(nodes))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["swap", "drop", "add", "ragged"]))
        # copies: a drawn list or object may be edited by a later step
        if kind == "swap":
            parent[path[-1]] = copy.deepcopy(draw(HOSTILE))
        elif kind == "drop":
            del parent[path[-1]]
        elif kind == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(["id", "x", "zz", "pg", "l01"]))] = \
                copy.deepcopy(draw(HOSTILE))
        elif kind == "ragged" and isinstance(value, list) and value:
            if draw(st.booleans()):
                value.pop()
            else:
                value.append(copy.deepcopy(draw(HOSTILE)))
    return doc


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(mutated(NETWORK))
def test_mutated_network_parses_or_raises_package_error(doc):
    outcome("network", doc)  # any other exception fails the test


@PROPERTY
@given(mutated(SCHEDULE))
def test_mutated_schedule_verifies_or_raises_package_error(doc):
    outcome("schedule", doc)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.booleans(), st.data())
def test_check_command_exits_cleanly_on_mutated_input(tmp_path, capsys,
                                                      network, data):
    net_doc = data.draw(mutated(NETWORK)) if network else NETWORK
    sched_doc = SCHEDULE if network else data.draw(mutated(SCHEDULE))
    paths = []
    for name, doc in (("net", net_doc), ("scen", instances.thirteen_bus_scenario()),
                      ("sched", sched_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    capsys.readouterr()
    code = main(["check", "--net", paths[0], "--scen", paths[1],
                 "--schedule", paths[2]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
