"""The read path of ``gridshed check``: what it raises on malformed input.

``data/read_path_errors.json`` holds malformed network and schedule
documents, each as a list of edits to a valid ``13bus`` document, with the
stage that raised (``parse_network``, ``schedule_from_dict`` or
``verify_schedule``), the exception type and the message recorded before
the read path was rewritten to load whole families at once.  A schedule is
verified against the ``13bus`` case in ``equitable`` mode; its base is the
recorded ``equitable`` schedule of ``data/checker_golden.json``.

The property tests mutate the same valid documents, and the ``13bus``
scenario, at random: every outcome is either success or a
``GridshedError``, and ``gridshed check`` ends in exit 0, 1 or 2 without
a traceback.  Drawn ``sweep --values`` specs give a list of values or a
``GridshedError``.  A float cast that wraps past int64 fails any test.
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
    netmodel,
    parse_network,
    parse_scenario,
    schedule_from_dict,
    verify_schedule,
)
from gridshed.cli import _parse_values, main

# huge finite dispatch values may overflow elsewhere; only a cast is an error
pytestmark = pytest.mark.filterwarnings(
    "error:invalid value encountered in cast:RuntimeWarning")

DATA_DIR = pathlib.Path(__file__).parent / "data"
TABLE = json.loads((DATA_DIR / "read_path_errors.json").read_text())
SCHEDULE = json.loads((DATA_DIR / "checker_golden.json").read_text())[
    "cases"]["13bus"]["schedules"]["equitable"]
NETWORK = instances.thirteen_bus_network()
SCENARIO = instances.thirteen_bus_scenario()
CASE = instances.load_case(NETWORK, SCENARIO)


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


def outcome(kind, doc, parse=parse_network):
    """(stage, exception type, message) of reading ``doc``, or None."""
    stage = "parse_network"
    try:
        if kind == "network":
            parse(doc)
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
    # a repeated read meets the network, and its checker arrays, as kept
    # by the first
    assert outcome(case["kind"], doc) == case["error"]
    assert outcome(case["kind"], doc) == case["error"]


def test_table_covers_both_documents_and_every_stage():
    assert {c["error"][0] for c in TABLE} == {
        "parse_network", "schedule_from_dict", "verify_schedule"}
    assert all(c["error"] is not None for c in TABLE)


def test_unedited_documents_read_cleanly():
    assert outcome("network", NETWORK) is None
    assert outcome("schedule", SCHEDULE) is None


# Values that no field of any document accepts everywhere.  No mid-size
# integers: they are valid counts, and a horizon near its 10,000-period
# cap would make every drawn scenario slow to parse.
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
def mutated(draw, doc, in_place=False):
    """``doc``, or a copy unless ``in_place``, after one to three random
    edits: a node swapped for a hostile value, a key dropped, a key added,
    or a list made ragged."""
    if not in_place:
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
@given(st.data())
def test_network_edited_in_place_is_read_again(data):
    doc = copy.deepcopy(NETWORK)
    parse_network(doc)
    data.draw(mutated(doc, in_place=True))
    expected = outcome("network", doc, netmodel._parse_network)
    assert outcome("network", doc) == expected
    if expected is None:
        assert parse_network(doc) == netmodel._parse_network(doc)


@PROPERTY
@given(mutated(SCHEDULE))
def test_mutated_schedule_verifies_or_raises_package_error(doc):
    outcome("schedule", doc)


@PROPERTY
@given(mutated(SCENARIO))
def test_mutated_scenario_parses_or_raises_package_error(doc):
    try:
        parse_scenario(doc, CASE[1])
    except GridshedError:
        pass


# --values tokens: numbers of every size, non-finite ones and non-numbers
TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e-320", "-1e308", "1e308", "",
                     " ", "x", "1e400"]),
    st.text(max_size=4),
)


@PROPERTY
@given(st.one_of(st.tuples(TOKENS, TOKENS, TOKENS).map(":".join),
                 st.lists(TOKENS, min_size=1, max_size=4).map(",".join)))
def test_values_spec_gives_list_or_raises_package_error(spec):
    try:
        values = _parse_values(spec)
    except GridshedError:
        return
    assert isinstance(values, list)
    assert all(isinstance(v, float) for v in values)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.booleans(), st.data())
def test_check_command_exits_cleanly_on_mutated_input(tmp_path, capsys,
                                                      network, data):
    net_doc = data.draw(mutated(NETWORK)) if network else NETWORK
    sched_doc = SCHEDULE if network else data.draw(mutated(SCHEDULE))
    paths = []
    for name, doc in (("net", net_doc), ("scen", SCENARIO), ("sched", sched_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    capsys.readouterr()
    code = main(["check", "--net", paths[0], "--scen", paths[1],
                 "--schedule", paths[2]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
