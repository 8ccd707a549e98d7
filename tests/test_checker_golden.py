"""The checker's reports, pinned against recorded ones.

``data/checker_golden.json`` holds a few schedule documents, each stored
once: solved schedules of the bundled ``13bus`` case (23 buses; both
modes), of a two-block case with a horizon of 1 and no storage, and of
8- and 16-block desk systems, plus two hand-made schedules of a network
with no DERs.  Each check names one of them, a scenario override, a
short list of edits to the document and the mode, and holds the full
report that the checker gave on it before its families were rewritten
as array operations.
Every constraint family appears in some recorded report, and the checks
include the three ``check-replay`` corruptions of ``bench/cases.py``.
"""

import copy
import json
import pathlib

import pytest

from gridshed import instances, schedule_from_dict, verify_schedule

DATA = json.loads(
    (pathlib.Path(__file__).parent / "data" / "checker_golden.json").read_text()
)

FAMILIES = {
    "wildfire_cap", "block_budget", "switch_budget", "fixed_line",
    "alignment", "grid_forming", "radiality", "voltage_gating", "gen_gating",
    "load_gating", "ramping", "voltage_drop", "flow_gating", "nodal_balance",
    "storage_energy", "storage_status", "emergency", "alpha_cap",
    "status_changes", "shed_window", "share_cap", "pair_ratio",
}


def _document(spec):
    """A stored document, or [generator in gridshed.instances, kwargs]."""
    if isinstance(spec, list):
        name, kwargs = spec
        return getattr(instances, name)(**kwargs)
    return copy.deepcopy(spec)


def _inputs(check):
    case = DATA["cases"][check["case"]]
    scen = _document(case["scenario"])
    for key, value in check["scenario"].items():
        if key == "limits":
            scen.setdefault("limits", {}).update(value)
        else:
            scen[key] = value
    return instances.load_case(_document(case["network"]), scen)


def _edited_schedule(check):
    doc = copy.deepcopy(
        DATA["cases"][check["case"]]["schedules"][check["schedule"]]
    )
    for path, value in check["edits"]:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


def test_recorded_reports_cover_every_family():
    assert {v[0] for c in DATA["checks"] for v in c["report"]} == FAMILIES
    assert any(v[1].endswith(":dead-block")
               for c in DATA["checks"] for v in c["report"])


@pytest.mark.parametrize("check", DATA["checks"],
                         ids=[c["name"] for c in DATA["checks"]])
def test_report_matches_recording(check):
    net, part, scen = _inputs(check)
    sched = schedule_from_dict(_edited_schedule(check))
    report = verify_schedule(net, part, scen, sched, check["mode"])
    assert [(v.family, v.entity, v.period) for v in report.violations] == [
        tuple(r[:3]) for r in check["report"]
    ]
    for v, recorded in zip(report.violations, check["report"]):
        values = (v.lhs, v.rhs, v.slack)
        if v.family == "nodal_balance":
            # sums over incidence arrays may round in another order
            assert values == pytest.approx(recorded[3:], rel=0, abs=1e-12)
        else:
            assert [x.hex() for x in values] == [
                float(x).hex() for x in recorded[3:]
            ], v
