"""Bundled and generated test systems.

``thirteen_bus_network`` and ``thirteen_bus_scenario`` give the bundled
``13bus`` case (23 buses, 6 blocks), a networked microgrid with six
switches and six DER units (one diesel genset, two PV inverters, three
batteries) plus the substation intertie.
Block demands are {2.453, 0.185, 0, 1.013, 0.025, 0.2} MW and block
vulnerability indices {2, 9, 2, 4, 6, 3}; block 5 hosts emergency
services.  Per-block wildfire risk drifts linearly across the horizon:
blocks 0, 3, 4 start risky and calm down while blocks 1, 2, 5 heat up,
with the system total constant in every period.

``desk_network`` and ``desk_scenario`` generate a larger reconfigurable
system (default 16 blocks, 20 buses, 12 periods) with seeded randomness for
sweep studies, ``small_network`` and ``small_scenario`` emit tiny
instances whose free binary count fits the exhaustive-enumeration oracle,
and ``load_case`` parses a (network, scenario) pair.
"""

import math

import numpy as np

from .netmodel import NetworkModel, Scenario, compute_load_blocks, parse_network, parse_scenario


def _linear_risk(start, end, horizon: int) -> list:
    if horizon == 1:
        return [float(start)]
    return [
        start + (end - start) * t / (horizon - 1) for t in range(horizon)
    ]


def thirteen_bus_network() -> dict:
    buses = [{"id": "b01", "is_substation": True, "v_min": 1.0, "v_max": 1.0}]
    buses += [{"id": f"b{i:02d}"} for i in range(2, 24)]

    def line(lid, a, b, switchable=False):
        r, x = (0.015, 0.03) if switchable else (0.01, 0.02)
        return {
            "id": lid, "from": a, "to": b, "r": r, "x": x,
            "p_min": -6.0, "p_max": 6.0, "q_min": -6.0, "q_max": 6.0,
            "switchable": switchable,
        }

    intra = [
        ("l01", "b01", "b02"), ("l02", "b02", "b03"), ("l03", "b03", "b04"),
        ("l04", "b04", "b05"), ("l05", "b05", "b06"),
        ("l06", "b07", "b08"), ("l07", "b08", "b09"), ("l08", "b09", "b10"),
        ("l09", "b11", "b12"), ("l10", "b12", "b13"),
        ("l11", "b14", "b15"), ("l12", "b15", "b16"), ("l13", "b16", "b17"),
        ("l14", "b18", "b19"), ("l15", "b19", "b20"),
        ("l16", "b21", "b22"), ("l17", "b22", "b23"),
    ]
    switches = [
        ("s1", "b02", "b07"), ("s2", "b10", "b11"), ("s3", "b04", "b14"),
        ("s4", "b17", "b18"), ("s5", "b20", "b21"), ("s6", "b06", "b23"),
    ]
    lines = [line(lid, a, b) for lid, a, b in intra]
    lines += [line(lid, a, b, switchable=True) for lid, a, b in switches]

    ders = [
        {"id": "grid", "bus": "b01", "p_min": 0.0, "p_max": 10.0,
         "q_min": -8.0, "q_max": 8.0, "can_grid_form": False},
        {"id": "diesel", "bus": "b18", "p_min": 0.0, "p_max": 1.8,
         "q_min": -0.9, "q_max": 0.9, "ramp_up": 1.2, "ramp_down": 1.2,
         "can_grid_form": True},
        {"id": "pv1", "bus": "b09", "p_min": 0.0, "p_max": 0.4,
         "q_min": -0.3, "q_max": 0.3, "can_grid_form": True},
        {"id": "pv2", "bus": "b15", "p_min": 0.0, "p_max": 0.35,
         "q_min": -0.4, "q_max": 0.4, "can_grid_form": True},
    ]
    storage = [
        {"id": "bat1", "bus": "b12", "e_max": 1.2, "p_charge_max": 0.6,
         "p_discharge_max": 0.6, "eta_charge": 0.95, "eta_discharge": 0.95},
        {"id": "bat2", "bus": "b14", "e_max": 1.0, "p_charge_max": 0.5,
         "p_discharge_max": 0.5, "eta_charge": 0.9, "eta_discharge": 0.9},
        {"id": "bat3", "bus": "b21", "e_max": 0.8, "p_charge_max": 0.4,
         "p_discharge_max": 0.4, "eta_charge": 0.95, "eta_discharge": 0.95},
    ]

    def load(lid, bus, p):
        q = round(p * 0.33, 6)
        return {"id": lid, "bus": bus, "p_min": p, "p_max": p,
                "q_min": q, "q_max": q}

    loads = [
        load("d1", "b02", 1.0), load("d2", "b03", 0.8), load("d3", "b04", 0.653),
        load("d4", "b08", 0.185),
        load("d5", "b15", 0.6), load("d6", "b16", 0.413),
        load("d7", "b19", 0.025),
        load("d8", "b22", 0.2),
    ]
    return {"buses": buses, "lines": lines, "ders": ders,
            "storage": storage, "loads": loads}


def thirteen_bus_scenario(horizon: int = 8, epsilon: float = 0.5,
                          k_bl_max: int = 3, alpha: float = 6.0,
                          m: int = 2, psi: float = 1.0,
                          rho: float = 0.0) -> dict:
    starts = [5.0, 1.0, 1.0, 4.0, 3.0, 1.0]
    ends = [1.0, 4.0, 4.0, 1.0, 1.0, 4.0]
    risk = [_linear_risk(s, e, horizon) for s, e in zip(starts, ends)]
    mult = [0.85, 0.9, 1.0, 1.05, 1.1, 1.05, 0.95, 0.9]
    if horizon != 8:
        mult = [1.0] * horizon
    return {
        "horizon": horizon,
        "period_hours": 1.0,
        "risk": risk,
        "vulnerability": [2.0, 9.0, 2.0, 4.0, 6.0, 3.0],
        "demand_multiplier": mult,
        "limits": {
            "epsilon": epsilon,
            "k_bl_max": k_bl_max,
            "alpha": alpha,
            "m": m,
            "psi": psi,
            "rho": rho,
        },
        "emergency_blocks": [5],
    }


def desk_network(seed: int = 0, n_blocks: int = 16) -> dict:
    """Reconfigurable multi-block system for sweep studies."""
    rng = np.random.default_rng(seed)
    two_bus_blocks = min(4, n_blocks)
    block_buses: list = []
    counter = 1
    for k in range(n_blocks):
        size = 2 if k < two_bus_blocks else 1
        block_buses.append([f"b{counter + i:02d}" for i in range(size)])
        counter += size

    buses = []
    for k, members in enumerate(block_buses):
        for bid in members:
            entry: dict = {"id": bid}
            if k == 0 and bid == members[0]:
                entry.update({"is_substation": True, "v_min": 1.0, "v_max": 1.0})
            buses.append(entry)

    lines = []

    def add_line(a, b, switchable):
        r, x = (0.015, 0.03) if switchable else (0.01, 0.02)
        lines.append({
            "id": f"l{len(lines) + 1:02d}", "from": a, "to": b, "r": r, "x": x,
            "p_min": -40.0, "p_max": 40.0, "q_min": -40.0, "q_max": 40.0,
            "switchable": switchable,
        })

    for members in block_buses:
        for a, b in zip(members, members[1:]):
            add_line(a, b, switchable=False)

    edges = set()
    for k in range(1, n_blocks):
        j = int(rng.integers(0, k))
        edges.add((j, k))
        add_line(block_buses[j][0], block_buses[k][-1], switchable=True)
    extra = 0
    while extra < 4:
        a, b = sorted(rng.integers(0, n_blocks, size=2).tolist())
        if a == b or (a, b) in edges:
            continue
        edges.add((a, b))
        add_line(block_buses[a][0], block_buses[b][-1], switchable=True)
        extra += 1

    ders = [{
        "id": "grid", "bus": block_buses[0][0], "p_min": 0.0, "p_max": 40.0,
        "q_min": -25.0, "q_max": 25.0, "can_grid_form": False,
    }]
    former_blocks = sorted(
        rng.choice(np.arange(1, n_blocks), size=min(5, n_blocks - 1),
                   replace=False).tolist()
    )
    for i, k in enumerate(former_blocks):
        ders.append({
            "id": f"gen{i + 1}", "bus": block_buses[k][0],
            "p_min": 0.0, "p_max": 3.0, "q_min": -1.5, "q_max": 1.5,
            "can_grid_form": True,
        })

    storage = []
    for i, k in enumerate(sorted(rng.choice(np.arange(n_blocks), size=2,
                                            replace=False).tolist())):
        storage.append({
            "id": f"bat{i + 1}", "bus": block_buses[k][-1], "e_max": 2.0,
            "p_charge_max": 1.0, "p_discharge_max": 1.0,
            "eta_charge": 0.95, "eta_discharge": 0.95,
        })

    loads = []
    for k, members in enumerate(block_buses):
        p = round(float(rng.uniform(0.1, 1.2)), 3)
        q = round(p * 0.33, 6)
        loads.append({
            "id": f"d{k + 1}", "bus": members[-1],
            "p_min": p, "p_max": p, "q_min": q, "q_max": q,
        })
    return {"buses": buses, "lines": lines, "ders": ders,
            "storage": storage, "loads": loads}


def desk_scenario(seed: int = 0, n_blocks: int = 16, horizon: int = 12,
                  epsilon: float = 0.8, k_bl_max: int = 16) -> dict:
    rng = np.random.default_rng(seed + 1)
    nominal = rng.uniform(1.0, 10.0, size=n_blocks)
    nominal[0] = 1.0  # the substation block stays cheap to keep energized
    phase = rng.uniform(0.0, 1.0, size=n_blocks)
    risk = [
        [
            float(nominal[k] * (1.0 + 0.5 * math.sin(2 * math.pi * (t / horizon + phase[k]))))
            for t in range(horizon)
        ]
        for k in range(n_blocks)
    ]
    mult = [0.7, 0.75, 0.85, 0.95, 1.0, 1.05, 1.1, 1.05, 1.0, 0.9, 0.8, 0.75]
    if horizon != 12:
        mult = [1.0] * horizon
    return {
        "horizon": horizon,
        "period_hours": 1.0,
        "risk": risk,
        "vulnerability": [round(float(v), 3) for v in rng.uniform(1.0, 10.0, size=n_blocks)],
        "demand_multiplier": mult,
        "limits": {"epsilon": epsilon, "k_bl_max": k_bl_max},
        "emergency_blocks": [0],
    }


def small_network(seed: int = 0, n_blocks: int = 3,
                  with_former: bool = True, with_storage: bool = False) -> dict:
    """Path-of-blocks toy system, one bus per block."""
    rng = np.random.default_rng(seed)
    buses = [{"id": "b1", "is_substation": True, "v_min": 1.0, "v_max": 1.0}]
    buses += [{"id": f"b{i + 1}"} for i in range(1, n_blocks)]
    lines = [
        {
            "id": f"s{i}", "from": f"b{i}", "to": f"b{i + 1}",
            "r": 0.01, "x": 0.02,
            "p_min": -5.0, "p_max": 5.0, "q_min": -5.0, "q_max": 5.0,
            "switchable": True,
        }
        for i in range(1, n_blocks)
    ]
    ders = [{"id": "grid", "bus": "b1", "p_min": 0.0, "p_max": 5.0,
             "q_min": -3.0, "q_max": 3.0, "can_grid_form": False}]
    if with_former and n_blocks > 1:
        ders.append({
            "id": "gen1", "bus": f"b{n_blocks}", "p_min": 0.0, "p_max": 2.0,
            "q_min": -1.0, "q_max": 1.0, "can_grid_form": True,
        })
    storage = []
    if with_storage:
        storage.append({
            "id": "bat1", "bus": f"b{min(2, n_blocks)}", "e_max": 0.5,
            "p_charge_max": 0.25, "p_discharge_max": 0.25,
            "eta_charge": 0.9, "eta_discharge": 0.9,
        })
    loads = []
    for i in range(1, n_blocks):
        p = round(float(rng.uniform(0.1, 0.9)), 3)
        loads.append({
            "id": f"d{i}", "bus": f"b{i + 1}", "p_min": p, "p_max": p,
            "q_min": round(0.3 * p, 6), "q_max": round(0.3 * p, 6),
        })
    return {"buses": buses, "lines": lines, "ders": ders,
            "storage": storage, "loads": loads}


def small_scenario(seed: int = 0, n_blocks: int = 3, horizon: int = 2,
                   equity: bool = False, emergency_root: bool = False) -> dict:
    rng = np.random.default_rng(seed + 17)
    risk = [
        [round(float(rng.uniform(0.5, 3.0)), 3) for _ in range(horizon)]
        for _ in range(n_blocks)
    ]
    limits: dict = {
        "epsilon": float(rng.choice([0.5, 0.7, 0.9, 1.0])),
        "k_bl_max": int(rng.integers(1, n_blocks + 1)),
    }
    if equity:
        limits["alpha"] = float(rng.integers(1, horizon + 1))
        if rng.random() < 0.5:
            limits["beta"] = float(rng.choice([2.0, 4.0]))
        if rng.random() < 0.5:
            limits["psi"] = float(rng.choice([0.6, 0.8]))
    return {
        "horizon": horizon,
        "period_hours": 1.0,
        "risk": risk,
        "vulnerability": [round(float(v), 3) for v in rng.uniform(1.0, 9.0, size=n_blocks)],
        "demand_multiplier": [1.0] * horizon,
        "limits": limits,
        "emergency_blocks": [0] if emergency_root else [],
    }


def load_case(net_dict: dict, scen_dict: dict):
    """Parse a (network, scenario) dict pair into validated objects."""
    net = parse_network(net_dict)
    part = compute_load_blocks(net)
    scen = parse_scenario(scen_dict, part)
    return net, part, scen
