import dataclasses
import json
import math

import numpy as np
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
    parse_network,
    parse_scenario,
)
from gridshed import netmodel
from gridshed.instances import thirteen_bus_network, thirteen_bus_scenario
from gridshed.netmodel import Bus, Der, Line, LoadPoint, Storage

from conftest import unschedulable_network


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
        assert sum(l.switchable for l in net.lines) == 6
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

    @pytest.mark.parametrize("case, message", [
        ("loop", "line t3: closes a loop of non-switchable lines"),
        ("island", "bus lonely: no line path to the substation"),
    ])
    def test_unschedulable_network_rejected(self, case, message):
        with pytest.raises(ValidationError, match=message):
            parse_network(unschedulable_network(case))

    def test_non_dispatchable_needs_pinned_bounds(self):
        doc = minimal_network(
            ders=[{"id": "g", "bus": "b1", "p_min": 0.0, "p_max": 1.0,
                   "dispatchable": False}]
        )
        with pytest.raises(ValidationError, match="pinned"):
            parse_network(doc)


# Per collection, one record that sets every JSON key to a value other
# than its field's default, and the record it must parse to.
FULL_RECORDS = {
    "buses": (
        {"id": "b1", "is_substation": True, "v_min": 0.9, "v_max": 1.1},
        Bus("b1", True, 0.9, 1.1)),
    "lines": (
        {"id": "l1", "from": "b1", "to": "b2", "r": 0.01, "x": 0.02,
         "p_min": -5.0, "p_max": 6.0, "q_min": -3.0, "q_max": 4.0,
         "switchable": True},
        Line("l1", "b1", "b2", 0.01, 0.02, -5.0, 6.0, -3.0, 4.0, True)),
    "ders": (
        {"id": "g1", "bus": "b2", "p_min": 0.3, "p_max": 0.3, "q_min": 0.1,
         "q_max": 0.1, "ramp_up": 0.5, "ramp_down": 0.25,
         "can_grid_form": True, "dispatchable": False},
        Der("g1", "b2", 0.3, 0.3, 0.1, 0.1, 0.5, 0.25, True, False)),
    "storage": (
        {"id": "s1", "bus": "b2", "e_max": 2.0, "p_charge_max": 1.0,
         "p_discharge_max": 0.5, "eta_charge": 0.9, "eta_discharge": 0.95,
         "e_initial": 0.5},
        Storage("s1", "b2", 2.0, 1.0, 0.5, 0.9, 0.95, 0.5)),
    "loads": (
        {"id": "d1", "bus": "b2", "p_min": 0.1, "p_max": 0.2, "q_min": 0.01,
         "q_max": 0.05},
        LoadPoint("d1", "b2", 0.1, 0.2, 0.01, 0.05)),
}


class TestRecordTables:
    @pytest.mark.parametrize("name", list(FULL_RECORDS))
    def test_every_key_reaches_its_field(self, name):
        raw, expected = FULL_RECORDS[name]
        assert all(getattr(expected, f.name) != f.default
                   for f in dataclasses.fields(expected))
        base = {"buses": [{"id": "b1", "is_substation": True}, {"id": "b2"}],
                "lines": [{"id": "l1", "from": "b1", "to": "b2"}]}
        # the record under test takes the place of its collection's first
        doc = {**base, name: [raw, *base.get(name, [])[1:]]}
        record = getattr(parse_network(doc), name)[0]
        assert record == expected
        assert (list(map(type, dataclasses.astuple(record)))
                == list(map(type, dataclasses.astuple(expected))))

    @pytest.mark.parametrize("collection, record_id, key", [
        ("lines", "l05", "switchable"),
        ("buses", "b01", "is_substation"),
        ("ders", "pv1", "can_grid_form"),
        ("ders", "pv1", "dispatchable"),
    ])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flags_must_be_json_booleans(self, collection, record_id, key,
                                         value):
        doc = thirteen_bus_network()
        record = next(r for r in doc[collection] if r["id"] == record_id)
        record[key] = value
        with pytest.raises(ParseError, match=key):
            parse_network(doc)

    @pytest.mark.parametrize("collection, key", [
        ("buses", "v_max"), ("lines", "p_max"), ("ders", "ramp_up"),
        ("storage", "e_initial"), ("loads", "q_max"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, 10**400],
                             ids=["inf", "-inf", "oversize-int"])
    def test_infinity_rejected(self, collection, key, value, tmp_path):
        doc = thirteen_bus_network()
        doc[collection][-1][key] = value
        # json.dump writes Infinity and json.load reads it back
        path = write_json(tmp_path, "net.json", doc)
        with pytest.raises(ParseError, match=key):
            load_network(path)

    def test_null_ramp_is_unlimited(self):
        doc = minimal_network(ders=[{"id": "g", "bus": "b1", "ramp_up": None,
                                     "ramp_down": 2}])
        der = parse_network(doc).ders[0]
        assert der.ramp_up == math.inf and der.ramp_down == 2.0

    @pytest.mark.parametrize("doc", [
        {"buses": [5]},
        {"buses": {"id": "b1", "is_substation": True}},
        minimal_network(lines=[None]),
    ])
    def test_malformed_records_rejected(self, doc):
        with pytest.raises(ParseError):
            parse_network(doc)


def _read(parse, doc):
    """The network ``parse`` reads from ``doc``, or its error's type and
    message."""
    try:
        return parse(doc)
    except Exception as exc:
        return type(exc), str(exc)


class TestSharedNetworks:
    def test_equal_documents_share_one_network(self):
        text = json.dumps(thirteen_bus_network())
        net = parse_network(json.loads(text))
        assert parse_network(json.loads(text)) is net
        assert parse_network(json.loads(text.replace("0.95", "0.94"))) != net

    def test_partition_is_read_only(self):
        part = compute_load_blocks(parse_network(thirteen_bus_network()))
        with pytest.raises(TypeError):
            part.block_of_bus["b01"] = 3
        assert part.block_of_bus["b01"] == 0

    def test_values_of_other_types_read_as_without_sharing(self):
        # marshal writes any buffer as bytes: a numpy float marshals as the
        # bytes of its value, a bytearray as bytes of its content; and a
        # set is marshallable, an arbitrary object is not
        weird = [np.float64(0.97), bytes(np.float64(0.97)), bytearray(b"x"),
                 b"x", {"x"}, object()]
        for collection, key in (("buses", "v_min"), ("loads", "id")):
            for value in weird:
                doc = thirteen_bus_network()
                doc[collection][1][key] = value
                expected = _read(netmodel._parse_network, doc)
                assert _read(parse_network, doc) == expected
                assert _read(parse_network, doc) == expected


class TestBlocks:
    def test_partition_computed_once_per_network(self):
        net = parse_network(thirteen_bus_network())
        assert compute_load_blocks(net) is compute_load_blocks(net)
        # a copy with other lines is another network, with its own partition
        opened = dataclasses.replace(net, lines=tuple(
            dataclasses.replace(l, switchable=True) if l.id == "l05" else l
            for l in net.lines))
        assert compute_load_blocks(opened).n_blocks == 7

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
        assert scen.beta[0][1] == 4.0
        assert math.isinf(scen.beta[2][2])

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

    # json.load reads 10**400 as an int no float or sequence length holds;
    # 2**64 fits a float but not a sequence length; the scalar risk rows
    # would be expanded to one value per period
    @pytest.mark.parametrize("field, value", [
        pytest.param("horizon", 10**400, id="horizon-1e400"),
        pytest.param("horizon", 2**64, id="horizon-2**64"),
        pytest.param("horizon", 2**62, id="horizon-2**62"),
        pytest.param("horizon", 10**15, id="horizon-1e15"),
        pytest.param("window", 10**400, id="window-1e400"),
        pytest.param("m", 10**400, id="m-1e400"),
        pytest.param("k_bl_max", 10**400, id="k_bl_max-1e400"),
        pytest.param("k_sw_max", 10**400, id="k_sw_max-1e400"),
    ])
    def test_oversized_counts_rejected(self, part, field, value):
        doc = {"horizon": 2, "risk": [0.1] * 6, "limits": {}}
        if field == "horizon":
            doc[field] = value
        else:
            doc["limits"][field] = value
        with pytest.raises(RangeError, match=f"{field} must be"):
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

    @pytest.mark.parametrize("doc", [
        {"period_hours": math.inf},
        {"period_hours": 10**400},
        {"limits": {"rho": math.inf}},
        {"limits": {"epsilon": -math.inf}},
        {"limits": {"beta": math.inf}},
        {"risk": [[1.0, math.inf]] + [[1.0] * 2] * 5},
    ])
    def test_infinity_rejected(self, part, doc, tmp_path):
        doc = {"horizon": 2, "risk": [[1.0] * 2] * 6, **doc}
        path = write_json(tmp_path, "scen.json", doc)
        with pytest.raises(ParseError):
            load_scenario(path, part)

    def test_null_and_inf_string_disable_beta_pairs(self, part):
        row = [2.0, None, "inf", 2.0, 2.0, 2.0]
        scen = parse_scenario(
            {"horizon": 2, "risk": [[1.0] * 2] * 6,
             "limits": {"beta": [row] * 6}},
            part,
        )
        assert scen.beta[0][:3] == (2.0, math.inf, math.inf)

    def test_negative_demand_multiplier_rejected(self, part):
        with pytest.raises(RangeError):
            parse_scenario(
                {"horizon": 2, "risk": [[1.0] * 2] * 6,
                 "demand_multiplier": [1.0, -0.5]},
                part,
            )
