import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshed import (
    DimensionError,
    ParseError,
    RangeError,
    ValidationError,
    compute_load_blocks,
    load_network,
    load_scenario,
    network_to_dict,
    parse_network,
    parse_scenario,
)
from gridshed.instances import thirteen_bus_network, thirteen_bus_scenario


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_network(**extra):
    doc = {"buses": [{"id": "b1", "is_substation": True}], "lines": []}
    doc.update(extra)
    return doc


class TestLoadNetwork:
    def test_bundled_case_loads(self, tmp_path):
        path = write_json(tmp_path, "net.json", thirteen_bus_network())
        net = load_network(path)
        assert len(net.buses) == 23
        part = compute_load_blocks(net)
        assert part.n_blocks == 6
        assert len(net.switchable_lines) == 6
        # six DER units next to the substation intertie
        assert len(net.ders) + len(net.storage) == 7

    def test_minimal_network(self):
        net = parse_network(minimal_network())
        assert len(net.buses) == 1
        assert net.substation.id == "b1"

    def test_dangling_der_reference(self):
        doc = minimal_network(ders=[{"id": "g", "bus": "b99"}])
        with pytest.raises(ValidationError, match="unknown bus b99"):
            parse_network(doc)

    def test_two_substations_rejected(self):
        doc = {
            "buses": [
                {"id": "a", "is_substation": True},
                {"id": "b", "is_substation": True},
            ],
            "lines": [],
        }
        with pytest.raises(ValidationError, match="exactly one substation"):
            parse_network(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_network(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_network(path)

    def test_intra_block_switch_rejected(self):
        doc = {
            "buses": [
                {"id": "a", "is_substation": True},
                {"id": "b"},
                {"id": "c"},
            ],
            "lines": [
                {"id": "l1", "from": "a", "to": "b"},
                {"id": "l2", "from": "b", "to": "c"},
                {"id": "l3", "from": "a", "to": "c", "switchable": True},
            ],
        }
        with pytest.raises(ValidationError, match="intra-block"):
            parse_network(doc)

    def test_non_dispatchable_needs_pinned_bounds(self):
        doc = minimal_network(
            ders=[{"id": "g", "bus": "b1", "p_min": 0.0, "p_max": 1.0,
                   "dispatchable": False}]
        )
        with pytest.raises(ValidationError, match="pinned"):
            parse_network(doc)

    def test_roundtrip(self):
        net = parse_network(thirteen_bus_network())
        again = parse_network(network_to_dict(net))
        assert again == net


class TestBlocks:
    def test_no_switches_single_block(self):
        doc = {
            "buses": [{"id": "a", "is_substation": True}, {"id": "b"}],
            "lines": [{"id": "l1", "from": "a", "to": "b"}],
        }
        part = compute_load_blocks(parse_network(doc))
        assert part.n_blocks == 1
        assert part.blocks[0].buses == frozenset({"a", "b"})

    def test_five_bus_path_two_switches(self):
        # path a-b-c-d-e, switches on (b,c) and (d,e): hand union-find gives
        # components {a,b}, {c,d}, {e}
        doc = {
            "buses": [{"id": "a", "is_substation": True}] + [
                {"id": x} for x in "bcde"
            ],
            "lines": [
                {"id": "l1", "from": "a", "to": "b"},
                {"id": "l2", "from": "b", "to": "c", "switchable": True},
                {"id": "l3", "from": "c", "to": "d"},
                {"id": "l4", "from": "d", "to": "e", "switchable": True},
            ],
        }
        part = compute_load_blocks(parse_network(doc))
        assert [set(b.buses) for b in part.blocks] == [
            {"a", "b"}, {"c", "d"}, {"e"}
        ]
        assert part.block_graph == (("l2", 0, 1), ("l4", 1, 2))

    def test_block_indexing_ignores_line_order(self):
        base = thirteen_bus_network()
        part0 = compute_load_blocks(parse_network(base))
        shuffled = dict(base)
        shuffled["lines"] = list(reversed(base["lines"]))
        part1 = compute_load_blocks(parse_network(shuffled))
        assert part0.block_of_bus == part1.block_of_bus
        assert [b.buses for b in part0.blocks] == [b.buses for b in part1.blocks]

    def test_nominal_demand_sums_loads(self):
        part = compute_load_blocks(parse_network(thirteen_bus_network()))
        assert [round(b.nominal_demand, 3) for b in part.blocks] == [
            2.453, 0.185, 0.0, 1.013, 0.025, 0.2
        ]


@st.composite
def random_networks(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    bus_ids = [f"b{i}" for i in range(n)]
    lines = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        switchable = draw(st.booleans())
        lines.append((f"l{i}", bus_ids[j], bus_ids[i], switchable))
    doc = {
        "buses": [{"id": bus_ids[0], "is_substation": True}]
        + [{"id": b} for b in bus_ids[1:]],
        "lines": [
            {"id": lid, "from": a, "to": b, "switchable": sw}
            for lid, a, b, sw in lines
        ],
    }
    return doc


@settings(max_examples=60, deadline=None)
@given(random_networks())
def test_partition_soundness(doc):
    """Same-block pairs reach each other over non-switchable lines only;
    cross-block pairs cannot (exhaustive reachability on small graphs)."""
    net = parse_network(doc)
    part = compute_load_blocks(net)

    adjacency = {b.id: set() for b in net.buses}
    for line in net.lines:
        if not line.switchable:
            adjacency[line.from_bus].add(line.to_bus)
            adjacency[line.to_bus].add(line.from_bus)

    def reachable(start):
        seen, stack = {start}, [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for bus in net.buses:
        comp = reachable(bus.id)
        same_block = {
            b.id for b in net.buses
            if part.block_of(b.id) == part.block_of(bus.id)
        }
        assert comp == same_block


@settings(max_examples=30, deadline=None)
@given(random_networks(), st.randoms(use_true_random=False))
def test_partition_deterministic_under_permutation(doc, rng):
    part0 = compute_load_blocks(parse_network(doc))
    shuffled = dict(doc)
    shuffled["lines"] = list(doc["lines"])
    rng.shuffle(shuffled["lines"])
    part1 = compute_load_blocks(parse_network(shuffled))
    assert part0.block_of_bus == part1.block_of_bus


class TestScenario:
    @pytest.fixture()
    def part(self):
        return compute_load_blocks(parse_network(thirteen_bus_network()))

    def test_base_scenario_echoes_inputs(self, part, tmp_path):
        path = write_json(tmp_path, "scen.json", thirteen_bus_scenario())
        scen = load_scenario(path, part)
        assert scen.horizon == 8
        assert scen.epsilon == 0.5
        assert scen.k_bl_max == 3
        assert scen.vulnerability == (2.0, 9.0, 2.0, 4.0, 6.0, 3.0)
        assert scen.emergency == frozenset({5})
        assert scen.alpha == (6.0,) * 6
        assert scen.m == 2
        # system risk stays constant across the horizon by construction
        totals = [
            sum(scen.risk[k][t] for k in range(6)) for t in range(8)
        ]
        assert all(abs(x - totals[0]) < 1e-9 for x in totals)

    def test_defaults_are_non_binding(self, part):
        scen = parse_scenario(
            {"horizon": 4, "risk": [[1.0] * 4] * 6}, part
        )
        assert scen.epsilon == 1.0
        assert scen.lam == 1.0
        assert scen.m == 4
        assert scen.alpha == (4.0,) * 6
        assert scen.psi == (1.0,) * 6
        assert all(math.isinf(b) for row in scen.beta for b in row)
        assert scen.k_bl_max == 6
        assert scen.k_sw_max == 6
        assert scen.rho == 0.0
        assert scen.emergency == frozenset()

    def test_wrong_series_length(self, part):
        with pytest.raises(DimensionError):
            parse_scenario(
                {"horizon": 8, "risk": [[1.0] * 7] * 6}, part
            )

    def test_wrong_block_count(self, part):
        with pytest.raises(DimensionError):
            parse_scenario({"horizon": 2, "risk": [[1.0] * 2] * 5}, part)

    def test_epsilon_out_of_range(self, part):
        with pytest.raises(RangeError):
            parse_scenario(
                {"horizon": 2, "risk": [[1.0] * 2] * 6,
                 "limits": {"epsilon": 1.5}},
                part,
            )

    def test_beta_scalar_expands(self, part):
        scen = parse_scenario(
            {"horizon": 2, "risk": [[1.0] * 2] * 6, "limits": {"beta": 4.0}},
            part,
        )
        assert scen.beta_at(0, 1) == 4.0
        assert math.isinf(scen.beta_at(2, 2))

    def test_negative_risk_rejected(self, part):
        with pytest.raises(RangeError):
            parse_scenario({"horizon": 1, "risk": [[-1.0]] + [[1.0]] * 5}, part)

    def test_emergency_index_out_of_range(self, part):
        with pytest.raises(RangeError):
            parse_scenario(
                {"horizon": 1, "risk": [[1.0]] * 6, "emergency_blocks": [9]},
                part,
            )

    @pytest.mark.parametrize("field, value", [
        ("horizon", True),
        ("window", False),
        ("m", False),
        ("k_bl_max", True),
        ("k_sw_max", True),
        ("emergency_blocks", [True]),
    ])
    def test_boolean_counts_rejected(self, part, field, value):
        doc = {"horizon": 2, "risk": [[1.0] * 2] * 6, "limits": {}}
        if field in ("horizon", "emergency_blocks"):
            doc[field] = value
        else:
            doc["limits"][field] = value
        with pytest.raises(RangeError):
            parse_scenario(doc, part)

    @pytest.mark.parametrize("doc", [
        {"vulnerability": [math.nan] + [1.0] * 5},
        {"vulnerability": math.nan},
        {"risk": [[1.0, math.nan]] + [[1.0] * 2] * 5},
    ])
    def test_nan_rejected(self, part, doc, tmp_path):
        doc = {"horizon": 2, "risk": [[1.0] * 2] * 6, **doc}
        # json.dump writes NaN and json.load reads it back
        path = write_json(tmp_path, "scen.json", doc)
        with pytest.raises(ParseError):
            load_scenario(path, part)

    def test_negative_demand_multiplier_rejected(self, part):
        with pytest.raises(RangeError):
            parse_scenario(
                {"horizon": 2, "risk": [[1.0] * 2] * 6,
                 "demand_multiplier": [1.0, -0.5]},
                part,
            )
