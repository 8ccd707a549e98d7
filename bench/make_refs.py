"""Write the benchmark's stored inputs and reference answers.

    python3 bench/make_refs.py

Copies the bundled 23-bus case and the desk systems from
``gridshed.instances`` into ``bench/data/`` when a copy is missing, then
solves every catalog entry with the program as it stands and writes
``bench/data/refs.json``.  Run it only when a catalog or the stored
systems change on purpose; the references then certify the new inputs
against the program at that commit.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
import gridshed  # noqa: E402
from gridshed import instances  # noqa: E402
from gridshed.errors import InfeasibleError  # noqa: E402
from gridshed.solver import SolverOptions  # noqa: E402


def _write_once(name: str, doc: dict) -> None:
    path = os.path.join(cases.DATA_DIR, name)
    if os.path.exists(path):
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def snapshot() -> None:
    _write_once("13bus.json", {
        "network": instances.thirteen_bus_network(),
        "scenario": instances.thirteen_bus_scenario(),
    })
    for s in cases.DESK_SYSTEMS:
        _write_once(f"desk-{s}.json", {
            "network": instances.desk_network(seed=s, n_blocks=cases.DESK_BLOCKS),
            "scenario": instances.desk_scenario(seed=s, n_blocks=cases.DESK_BLOCKS),
        })


def horizon_refs(opts) -> dict:
    net_doc, base = cases.thirteen_bus()
    net = gridshed.parse_network(net_doc)
    part = gridshed.compute_load_blocks(net)
    out = {}
    for i in range(cases.HORIZON_CATALOG_SIZE):
        mode, scen_doc = cases.horizon_entry(base, i)
        scen = gridshed.parse_scenario(scen_doc, part)
        t0 = time.perf_counter()
        try:
            sched, _ = gridshed.run_horizon(net, scen, mode=mode, opts=opts, part=part)
            ref = {"status": "solved",
                   "objective": cases.schedule_objective(part, scen, sched.block_status,
                                                       mode)}
        except InfeasibleError:
            ref = {"status": "infeasible", "objective": None}
        ref["ref_s"] = round(time.perf_counter() - t0, 4)
        ref["key"] = cases.input_key(net_doc, scen_doc, mode)
        out[str(i)] = ref
        print(f"horizon {i:3d} {mode:9s} {ref['status']:10s} {ref['ref_s']:7.3f}s",
              flush=True)
    return out


def desk_refs(opts) -> dict:
    """Every catalog epsilon of every desk system, solved one at a time so
    that ``ref_s`` is the time of a point with no other work running."""
    out = {}
    for s in cases.DESK_SYSTEMS:
        net_doc, scen_doc = cases.desk_system(s)
        net = gridshed.parse_network(net_doc)
        scen = gridshed.parse_scenario(scen_doc, gridshed.compute_load_blocks(net))
        res = gridshed.sweep_epsilon(net, scen, cases.DESK_EPSILONS, opts=opts)
        out[str(s)] = {
            "key": cases.input_key(net_doc, scen_doc),
            "points": [{"epsilon": p.value, "status": p.status,
                        "objective": p.objective,
                        "ref_s": round(p.wall_ms / 1e3, 4)}
                       for p in res.points],
        }
        print(f"desk {s} {[(p.value, p.status) for p in res.points]}", flush=True)
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    snapshot()
    opts = SolverOptions(gap_target=cases.GAP, time_limit=cases.TIME_LIMIT_S)
    refs = {
        "gap": cases.GAP,
        "horizon-13bus": horizon_refs(opts),
        "sweep-desk": desk_refs(opts),
    }
    with open(cases.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
