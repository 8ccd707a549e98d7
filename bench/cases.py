"""Seeded benchmark inputs and their stored references.

The benchmark carries its own copies of the test systems (``data/``), so a
change to ``gridshed.instances`` cannot silently change what is measured.
Scenarios are drawn from fixed catalogs: entry ``i`` of a catalog is a pure
function of its index, and ``data/refs.json`` stores the status and
objective the reference build of the program reached on it, together with
a hash of the exact input, so drift in either the generator or the program
shows up as a mismatch.  A run's ``--seed`` picks which catalog entries it
sends and in which order; it never changes an entry.

Corruptions for ``check-replay`` are built so that their verdict is known
without running the checker: each one breaks a constraint by construction.
"""

import copy
import hashlib
import json
import os
import random

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REFS_PATH = os.path.join(DATA_DIR, "refs.json")

# relative MIP gap every solve targets; reference objectives were reached
# at the same target, so two correct answers differ by at most this much
GAP = 1e-4
# safety net only: a solve that hits it counts as a failed operation
TIME_LIMIT_S = 60.0

# horizon-13bus: a catalog of scenarios, half per mode, grouped by their
# reference solve time into strata of STRATUM entries; one cycle sends one
# entry of every stratum, so each cycle carries the same mix of easy and
# hard requests whatever the seed
HORIZON_CATALOG_SIZE = 96
STRATUM = 4
# sweep-desk: two stored desk systems; every sweep takes one epsilon from
# each of SWEEP_POINTS cost strata of that system's epsilon catalog
DESK_SYSTEMS = (3, 4)
DESK_BLOCKS = 8
DESK_EPSILONS = tuple(round(0.5 + 0.01 * i, 2) for i in range(30))
SWEEP_POINTS = 6


def load_json(name: str):
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def input_key(*parts) -> str:
    """Stable hash of JSON-serialisable inputs."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def thirteen_bus():
    """(network dict, base scenario dict) of the bundled 23-bus case."""
    doc = load_json("13bus.json")
    return doc["network"], doc["scenario"]


def horizon_entry(base_scenario: dict, index: int):
    """Catalog entry ``index``: (mode, scenario dict).

    Even entries are ``original``, odd ones ``equitable``; epsilon, rho,
    psi, alpha, the switch budget and a +-5 % demand jitter are drawn from
    a generator seeded by the index alone.
    """
    rng = random.Random(f"horizon-13bus/{index}")
    scen = copy.deepcopy(base_scenario)
    limits = scen["limits"]
    limits["epsilon"] = round(rng.uniform(0.5, 0.7), 4)
    limits["rho"] = round(rng.uniform(0.0, 2.0), 3)
    limits["psi"] = round(rng.uniform(0.5, 1.0), 3)
    limits["alpha"] = float(rng.randint(5, 7))
    limits["k_sw_max"] = rng.randint(3, 4)
    scen["demand_multiplier"] = [
        round(m * rng.uniform(0.95, 1.05), 4) for m in scen["demand_multiplier"]
    ]
    mode = "original" if index % 2 == 0 else "equitable"
    return mode, scen


def desk_system(system: int):
    """(network dict, scenario dict) of one stored desk system."""
    doc = load_json(f"desk-{system}.json")
    return doc["network"], doc["scenario"]


def strata(keys, cost: dict, size: int) -> list:
    """``keys`` sorted by ``cost`` and cut into groups of ``size``."""
    ranked = sorted(keys, key=lambda k: (cost[k], k))
    return [ranked[i:i + size] for i in range(0, len(ranked), size)]


def spread_order(n: int) -> list:
    """0..n-1 ordered so that every prefix samples the range evenly
    (radical-inverse order)."""
    def radical_inverse(i: int) -> float:
        x, f = 0.0, 0.5
        while i:
            x += f * (i & 1)
            i >>= 1
            f /= 2
        return x
    return sorted(range(n), key=radical_inverse)


def horizon_cycle(seed: int, refs: dict, cycle: int) -> list:
    """Catalog indices of request cycle ``cycle``: modes alternate, one
    entry from every cost stratum of each mode, no index repeated before
    cycle ``STRATUM``."""
    cost = {int(i): r["ref_s"] for i, r in refs["horizon-13bus"].items()}
    by_mode = [
        strata(range(parity, HORIZON_CATALOG_SIZE, 2), cost, STRATUM)
        for parity in (0, 1)
    ]
    rng = random.Random(f"horizon-13bus/{seed}")
    members = [[rng.sample(g, len(g)) for g in groups] for groups in by_mode]
    order = spread_order(len(by_mode[0]))
    shift = rng.randrange(len(order))
    out = []
    for j in order[shift:] + order[:shift]:
        for mode_members in members:
            out.append(mode_members[j][cycle % STRATUM])
    return out


def sweep_cycle(seed: int, refs: dict, cycle: int) -> list:
    """[(system, epsilons)] of sweep cycle ``cycle``: one sweep per desk
    system, each with one epsilon from every cost stratum."""
    out = []
    for system in DESK_SYSTEMS:
        points = refs["sweep-desk"][str(system)]["points"]
        cost = {p["epsilon"]: p["ref_s"] for p in points}
        groups = strata(cost, cost, len(cost) // SWEEP_POINTS)
        rng = random.Random(f"sweep-desk/{seed}/{system}")
        members = [rng.sample(g, len(g)) for g in groups]
        out.append((system, sorted(m[cycle % len(m)] for m in members)))
    return out


def check_entries(refs: dict) -> list:
    """The cheapest solved catalog entry of each mode, which
    ``check-replay`` solves in set-up; fixed, so set-up time does not
    depend on the seed."""
    entries = refs["horizon-13bus"]
    return [
        min((i for i in range(parity, HORIZON_CATALOG_SIZE, 2)
             if entries[str(i)]["status"] == "solved"),
            key=lambda i: (entries[str(i)]["ref_s"], i))
        for parity in (0, 1)
    ]


def schedule_objective(part, scen, block_status, mode: str) -> float:
    """Shed cost of a block-status grid, recomputed from the raw inputs."""
    rho = scen.rho if mode == "equitable" else 0.0
    total = 0.0
    for blk in part.blocks:
        for t in range(scen.horizon):
            if block_status[blk.index][t] == 0:
                total += (blk.nominal_demand * scen.demand_multiplier[t]
                          + rho * scen.vulnerability[blk.index])
    return total


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- check-replay corruptions ------------------------------------------------

CORRUPTIONS = ("valid", "flip_block", "perturb_flow", "switch_budget")


def corrupt(sched: dict, kind: str, rng: random.Random, loaded_blocks,
            switchable, k_sw_max: int) -> dict:
    """A copy of a clean schedule dict broken in one way.

    ``flip_block`` flips the status of a block that carries fixed demand,
    leaving its dispatch untouched, so load gating breaks; ``perturb_flow``
    moves one line flow by at least 0.05 MW, so nodal balance breaks at
    both ends; ``switch_budget`` opens one switch more than the per-period
    budget allows.
    """
    if kind == "valid":
        return sched
    out = copy.deepcopy(sched)
    horizon = out["horizon"]
    t = rng.randrange(horizon)
    if kind == "flip_block":
        k = rng.choice(sorted(loaded_blocks))
        out["block_status"][k][t] = 1 - out["block_status"][k][t]
    elif kind == "perturb_flow":
        line = rng.choice(sorted(out["dispatch"]["flow_p"]))
        delta = rng.uniform(0.05, 0.5) * rng.choice((-1.0, 1.0))
        out["dispatch"]["flow_p"][line][t] += delta
    elif kind == "switch_budget":
        switches = sorted(switchable)
        for line in switches:
            out["switch_status"][line][t] = 1
        for line in rng.sample(switches, k_sw_max + 1):
            out["switch_status"][line][t] = 0
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return out
