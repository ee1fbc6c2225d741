import copy
import math
import os
import re

import pytest
import yaml

from uwansim.channel import ChannelModelConfig, Environment, generate_cir
from uwansim.mac import MacTimers
from uwansim.presets import ExperimentPreset
from uwansim.tr_phy import PhyConfig
from uwansim.scenario import (
    FIELDS,
    NetworkConfig,
    Scenario,
    ScenarioError,
    config_hash,
    emit_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from uwansim.sim import placement


def test_empty_config_gets_reference_defaults():
    sc = scenario_from_dict({})
    assert sc.environment.water_depth == 80.0
    assert sc.network.region_size == 4000.0
    assert sc.network.node_depth_max == 50.0
    assert sc.network.one_hop_range == 1000.0
    assert sc.network.node_count == 20
    assert sc.network.link_count == 10
    assert sc.network.max_hops == 6
    assert sc.network.data_rate == 512.0
    assert sc.phy.updown_factor == 4
    assert sc.environment.bandwidth == 4000.0
    assert sc.traffic.mean_interarrival == 8.0
    assert sc.traffic.packet_bits == 256
    assert sc.mac.coherence_time == 30.0
    assert sc.mac.guard_time == 0.25
    assert sc.mac.n_max == 3
    assert sc.mac.s_csma_max_backoff == 2.0
    assert len(sc.network.nodes) == 20
    assert len(sc.network.routes) == 10
    # generated links are single-hop and within range
    for a, b in sc.network.routes:
        assert math.dist(sc.network.nodes[a], sc.network.nodes[b]) <= 1000.0


def test_the_scenario_phy_is_the_phy_config_defaults():
    # the paper's PHY is written once, as PhyConfig's defaults
    assert Scenario().phy == PhyConfig() == PhyConfig(avg_transmit_power=1.0, noise_variance=1e-7,
                                                      updown_factor=4, min_required_sinr=0.5)
    assert scenario_from_dict({}).phy == PhyConfig()


def test_topology_is_seed_deterministic():
    a = scenario_from_dict({"seed": 11})
    b = scenario_from_dict({"seed": 11})
    c = scenario_from_dict({"seed": 12})
    assert a.network.nodes == b.network.nodes
    assert a.network.routes == b.network.routes
    assert a.network.routes != c.network.routes


def test_divisibility_rejected():
    # the message is tr_phy's rule, prefixed with the key
    with pytest.raises(ScenarioError, match=r"^phy\.updown_factor: \(L-1\) must be divisible .*L=130, D=4$"):
        scenario_from_dict({"channel": {"tap_count": 130}, "phy": {"updown_factor": 4}})
    # 129 % 3 == 0, so D=3 with the L=130 configuration is accepted
    sc = scenario_from_dict({"channel": {"tap_count": 130}, "phy": {"updown_factor": 3}})
    assert sc.channel.tap_count == 130


def test_node_depth_beyond_limit_rejected():
    with pytest.raises(ScenarioError, match="depth"):
        scenario_from_dict({
            "network": {"nodes": [[60.0, 0, 0], [10.0, 500, 0]], "routes": [[0, 1]]},
            "traffic": {"mean_interarrival_s": None},
        })


def test_route_validation_errors():
    nodes = [[10, 0, 0], [10, 500, 0], [10, 2500, 0]]
    with pytest.raises(ScenarioError, match="one_hop_range"):
        scenario_from_dict({"network": {"nodes": nodes, "routes": [[1, 2]]}})
    with pytest.raises(ScenarioError, match="out of range"):
        scenario_from_dict({"network": {"nodes": nodes, "routes": [[0, 9]]}})
    with pytest.raises(ScenarioError, match="repeated"):
        scenario_from_dict({"network": {"nodes": nodes, "routes": [[0, 1, 0]]}})
    with pytest.raises(ScenarioError, match="two nodes"):
        scenario_from_dict({"network": {"nodes": nodes, "routes": [[0]]}})


def test_unknown_field_named_in_error():
    with pytest.raises(ScenarioError, match="phy.transmit_powr_w"):
        scenario_from_dict({"phy": {"transmit_powr_w": 2.0}})
    with pytest.raises(ScenarioError, match="config.bogus"):
        scenario_from_dict({"bogus": 1})
    # nothing reads a carrier frequency: the statistical channel has only 1/d^2 spreading
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"environment": {"carrier_frequency_hz": 25000}})
    assert str(err.value) == "environment.carrier_frequency_hz: unknown field"


def test_a_channel_seed_is_an_unknown_field():
    # the channel draws its taps with the scenario's seed; there is no second one
    for value in (3, None):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"channel": {"rng_seed": value}})
        assert str(err.value) == "channel.rng_seed: unknown field"
    assert "rng_seed" not in scenario_to_dict(scenario_from_dict({}))["channel"]


def test_invalid_values_name_the_field():
    with pytest.raises(ScenarioError, match="mac.protocol"):
        scenario_from_dict({"mac": {"protocol": "tdma"}})
    with pytest.raises(ScenarioError, match="environment"):
        scenario_from_dict({"environment": {"nominal_sound_speed_mps": 300.0}})
    with pytest.raises(ScenarioError, match="traffic"):
        scenario_from_dict({"traffic": {"mean_interarrival_s": -3}})


def test_roundtrip_through_yaml(tmp_path):
    sc = scenario_from_dict({"seed": 21, "duration_s": 123.5, "mac": {"protocol": "csma_ca"}})
    path = tmp_path / "scenario.yaml"
    emit_scenario(sc, str(path))
    again = load_scenario(str(path))
    assert scenario_to_dict(again) == scenario_to_dict(sc)
    assert config_hash(again) == config_hash(sc)
    assert again.network.routes == sc.network.routes
    assert again.network.nodes == sc.network.nodes


def test_an_arrival_file_scenario_roundtrips_without_a_model_key(tmp_path):
    # the file is not read until a link table is built, so it need not exist here
    sc = scenario_from_dict({"seed": 3, "channel": {"arrival_file": str(tmp_path / "arrivals.txt")}})
    path = tmp_path / "scenario.yaml"
    emit_scenario(sc, str(path))
    emitted = yaml.safe_load(path.read_text())["channel"]
    assert "model" not in emitted and emitted["arrival_file"] == str(tmp_path / "arrivals.txt")
    again = load_scenario(str(path))
    assert placement(again) == placement(sc)
    assert config_hash(again) == config_hash(sc)


def test_explicit_nodes_without_routes_get_paired():
    nodes = [[10, 0, 0], [12, 400, 0], [30, 2000, 2000], [28, 2300, 2000]]
    sc = scenario_from_dict({
        "network": {"nodes": nodes, "link_count": 2, "node_count": 4},
    })
    assert len(sc.network.routes) == 2
    used = {n for r in sc.network.routes for n in r}
    assert used == {0, 1, 2, 3}


def test_scenario_dataclass_direct_resolution():
    sc = Scenario(seed=33, duration=10.0)
    resolved = sc.resolved()
    assert len(resolved.network.nodes) == 20
    assert resolved is not sc


def test_resolution_shares_no_list_with_its_input():
    sc = Scenario(network=NetworkConfig(nodes=[[10, 0, 0], [10, 500, 0]], routes=[[0, 1]]))
    resolved = sc.resolved()
    assert resolved.network.nodes == [(10.0, 0.0, 0.0), (10.0, 500.0, 0.0)]
    assert resolved.network.routes == [(0, 1)]
    assert resolved.network.nodes is not sc.network.nodes
    assert resolved.network.routes is not sc.network.routes
    # the input is left as it was: lists
    assert sc.network.nodes == [[10, 0, 0], [10, 500, 0]] and sc.network.routes == [[0, 1]]
    generated = Scenario(seed=3).resolved()
    assert Scenario().network.nodes is None and Scenario().network.routes is None
    assert generated.network.nodes is not generated.resolved().network.nodes


NAN = float("nan")

# (config, dotted key its error must start with)
INVALID = [
    ({"duration_s": NAN}, "duration_s"),
    ({"duration_s": float("inf")}, "duration_s"),
    ({"warmup_s": NAN}, "warmup_s"),
    ({"duration_s": True}, "duration_s"),
    ({"seed": "abc"}, "seed"),
    ({"traffic": {"mean_interarrival_s": NAN}}, "traffic.mean_interarrival_s"),
    ({"traffic": {"packet_bits": 2.7}}, "traffic.packet_bits"),
    ({"network": {"link_count": 0}}, "network.link_count"),
    ({"network": {"region_size_m": NAN}}, "network.region_size_m"),
    ({"network": {"nodes": 5}}, "network.nodes"),
    ({"network": {"nodes": [[-5, 0, 0], [10, 500, 0]], "routes": [[0, 1]]}}, "network.nodes"),
    ({"phy": {"noise_variance_w": NAN}}, "phy.noise_variance_w"),
    ({"phy": {"min_required_sinr": NAN}}, "phy.min_required_sinr"),
    ({"mac": {"sense_threshold_w": NAN}}, "mac.sense_threshold_w"),
    ({"mac": {"guard_time_s": NAN}}, "mac.guard_time_s"),
    ({"mac": {"max_retransmissions": 1.9}}, "mac.max_retransmissions"),
    ({"mac": {"s_csma_max_backoff_s": -1}}, "mac.s_csma_max_backoff_s"),
    ({"channel": {"pdp_decay_s": NAN}}, "channel.pdp_decay_s"),
    ({"environment": {"bandwidth_hz": NAN}}, "environment.bandwidth_hz"),
    # a node is exactly (depth >= 0, x, y)
    ({"network": {"nodes": [[1, 2]]}}, "network.nodes"),
    ({"network": {"nodes": [[1, 2, 3, 4]]}}, "network.nodes"),
    ({"network": {"nodes": [[-0.5, 0, 0], [10, 500, 0]], "routes": [[0, 1]]}}, "network.nodes"),
    ({"network": {"nodes": ["200", "950"], "routes": [[0, 1]]}}, "network.nodes"),
]


@pytest.mark.parametrize("config, key", INVALID, ids=[key for _, key in INVALID])
def test_invalid_value_rejected_with_its_key(config, key):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(config)
    assert str(err.value).startswith(f"{key}: ")


INF = float("inf")
TIMERS = {"t_p": 0.5, "t_tr": 0.5, "delta": 0.25, "coherence_time": 30.0, "n_max": 3}

# configs built directly, as presets and library callers do
NON_FINITE = [
    ("PhyConfig(noise_variance=nan)", lambda: PhyConfig(noise_variance=NAN)),
    ("PhyConfig(avg_transmit_power=inf)", lambda: PhyConfig(avg_transmit_power=INF)),
    ("PhyConfig(updown_factor=inf)", lambda: PhyConfig(updown_factor=INF)),
    ("Environment(bandwidth=nan)", lambda: Environment(bandwidth=NAN)),
    ("Environment(water_depth=inf)", lambda: Environment(water_depth=INF)),
    ("ChannelModelConfig(pdp_decay_constant=nan)", lambda: ChannelModelConfig(pdp_decay_constant=NAN)),
    ("MacTimers(t_p=nan)", lambda: MacTimers(**{**TIMERS, "t_p": NAN})),
    ("MacTimers(coherence_time=inf)", lambda: MacTimers(**{**TIMERS, "coherence_time": INF})),
]


@pytest.mark.parametrize("build", [b for _, b in NON_FINITE], ids=[i for i, _ in NON_FINITE])
def test_directly_built_config_rejects_non_finite(build):
    with pytest.raises(ValueError, match="finite|integer"):
        build()


# non-integral counts, and booleans, in configs built directly
NON_INTEGRAL = [
    ("ChannelModelConfig(tap_count=2.5)", lambda: ChannelModelConfig(tap_count=2.5),
     "ChannelModelConfig.tap_count", "2.5"),
    ("ChannelModelConfig(tap_count=True)", lambda: ChannelModelConfig(tap_count=True),
     "ChannelModelConfig.tap_count", "True"),
    ("MacTimers(n_max=2.5)", lambda: MacTimers(**{**TIMERS, "n_max": 2.5}), "MacTimers.n_max", "2.5"),
    ("MacTimers(n_max=True)", lambda: MacTimers(**{**TIMERS, "n_max": True}), "MacTimers.n_max", "True"),
    ("PhyConfig(updown_factor=True)", lambda: PhyConfig(updown_factor=True),
     "PhyConfig.updown_factor", "True"),
]


@pytest.mark.parametrize("build, field, value", [c[1:] for c in NON_INTEGRAL],
                         ids=[c[0] for c in NON_INTEGRAL])
def test_directly_built_config_rejects_non_integral_counts(build, field, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a positive integer, got {value}$"):
        build()


# the dataclass attribute whose rule each key reads; other keys' rules live only in FIELDS
OWNERS = {"environment": Environment, "channel": ChannelModelConfig, "phy": PhyConfig}
TIMER_ATTRS = {"mac.guard_time": "delta", "mac.coherence_time": "coherence_time", "mac.n_max": "n_max"}
OWNED = [f for f in FIELDS if f.attr.split(".")[0] in OWNERS or f.attr in TIMER_ATTRS]
BAD_VALUES = [True, NAN, INF, -1.0, 0, 2.5, 1e9, "bogus", "", [1, 2]]


def owner_of(f):
    """The dataclass and attribute whose rule the key reads."""
    if f.attr in TIMER_ATTRS:
        return MacTimers, TIMER_ATTRS[f.attr]
    section, name = f.attr.split(".")
    return OWNERS[section], name


def breaks(rule, value):
    try:
        rule.parse(value)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("f", OWNED, ids=[f.key for f in OWNED])
def test_owned_rule_rejects_alike_in_dataclass_and_scenario(f):
    owner, name = owner_of(f)
    assert f.rule is owner.RULES[name]
    article = "an" if f.expected[0] in "aeiou" else "a"
    section, _, sub = f.key.partition(".")
    bad = [v for v in BAD_VALUES if breaks(f.rule, v)]
    assert bad
    for value in bad:
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({section: {sub: value}})
        assert str(err.value) == f"{f.key}: expected {f.expected}, got {value!r}"
        with pytest.raises(ValueError) as err:
            owner(**{**(TIMERS if owner is MacTimers else {}), name: value})
        assert str(err.value) == f"{owner.__name__}.{name} must be {article} {f.expected}, got {value!r}"


def test_every_dataclass_rule_but_the_derived_timers_has_a_key():
    owned = {(c, name) for c in (*OWNERS.values(), MacTimers) for name in c.RULES}
    derived = {(MacTimers, "t_p"), (MacTimers, "t_tr")}  # from the range, rate and packet size
    keyed = [owner_of(f) for f in OWNED]
    assert len(set(keyed)) == len(keyed)
    assert set(keyed) == owned - derived


def test_impossible_link_count_fails_before_placement_naming_both_counts():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": {"node_count": 12}})
    assert str(err.value) == (
        "network.link_count: 10 disjoint links need at least 20 nodes, node_count is 12"
    )


def test_failed_placement_names_both_counts():
    # 20 nodes scattered over 1000 km x 1000 km never form 10 one-hop links
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": {"region_size_m": 1e6}})
    assert str(err.value) == "network: could not place 20 nodes admitting 10 disjoint links"


def test_given_nodes_that_cannot_host_the_links_name_both_counts():
    # only nodes 0 and 1 are within the 1000-m range of each other
    nodes = [[10, 0, 0], [10, 500, 0], [10, 3000, 3000], [10, 3000, 0]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": {"nodes": nodes, "link_count": 2}})
    assert str(err.value) == (
        "network.link_count: 2 disjoint links requested, but the given network.nodes admit at most 1"
    )


def test_nodes_deeper_than_the_water_are_rejected():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": {"node_depth_max_m": 90.0}})
    assert str(err.value) == "network.node_depth_max_m: exceeds environment.water_depth_m"


def test_a_node_outside_the_region_is_rejected():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": {"nodes": [[10, 0, 0], [10, -100, 0]], "routes": [[0, 1]]}})
    assert str(err.value) == "network.nodes[1]: position outside the region"


@pytest.mark.parametrize("channel", [{}, {"arrival_file": "arrivals.txt"}], ids=["statistical", "arrival_file"])
def test_two_nodes_at_one_position_are_refused_naming_both(channel):
    # a link between them has no length, so no channel model gives it a CIR
    nodes = [[20, 0, 0], [20, 600, 0], [20, 600, 0], [30, 0, 700]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"duration_s": 100, "channel": channel,
                            "network": {"nodes": nodes, "routes": [[0, 1], [3, 0]]}})
    assert str(err.value) == "network.nodes[2]: same position as network.nodes[1]"


@pytest.mark.parametrize("seed", [2**64 + 1, -1])
def test_a_seed_outside_64_bits_is_refused_not_aliased(seed):
    # reduced mod 2**64, 2**64 + 1 would run seed 1's network and -1 that of 2**64 - 1
    expected = r"expected integer in \[0, 2\*\*64\), got " + re.escape(repr(seed)) + "$"
    with pytest.raises(ScenarioError, match=f"^seed: {expected}"):
        scenario_from_dict({"seed": seed})
    with pytest.raises(ValueError, match=f"^load_sweep: seeds: {expected}"):
        ExperimentPreset("load_sweep", seeds=(1, seed))
    with pytest.raises(ValueError, match=f"^generate_taps: seed: {expected}"):
        generate_cir((20.0, 0.0, 0.0), (20.0, 500.0, 0.0), Environment(), ChannelModelConfig(), seed)
    assert scenario_from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1


def test_a_warmup_past_the_duration_is_refused():
    # such a run counts nothing: 0 delivered, 0 dropped and a nan delay
    with pytest.raises(ScenarioError, match=r"^warmup_s: 500\.0 exceeds duration_s 100\.0$"):
        scenario_from_dict({"duration_s": 100, "warmup_s": 500})
    for duration in (100.0, 0.0):
        assert scenario_from_dict({"duration_s": duration, "warmup_s": duration}).warmup == duration


def test_a_config_or_section_that_is_no_mapping_is_rejected():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"network": 5})
    assert str(err.value) == "network: expected a mapping, got int"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict([1])
    assert str(err.value) == "config: expected a mapping, got list"


def test_a_channel_model_key_is_an_unknown_field():
    # whether channel.arrival_file names a file selects the model; no second key does
    for model in ("arrival_file", "statistical_pdp"):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"channel": {"model": model, "arrival_file": "arrivals.txt"}})
        assert str(err.value) == "channel.model: unknown field"
    assert len(FIELDS) == 33


def test_dataclass_scenario_is_checked_on_resolution():
    with pytest.raises(ScenarioError, match=r"^duration_s: "):
        Scenario(duration=NAN).resolved()


@pytest.mark.parametrize("seed, duration", [(1, 2000.0), (5, 300.0)])
def test_dataclass_and_dict_entry_points_agree(seed, duration):
    built = Scenario(seed=seed, duration=duration).resolved()
    parsed = scenario_from_dict({"seed": seed, "duration_s": duration})
    assert built.seed == parsed.seed == seed
    assert config_hash(built) == config_hash(parsed)


def test_from_dict_leaves_its_argument_unchanged():
    data = {
        "seed": 4,
        "mac": {"protocol": "csma_ca"},
        "traffic": {"mean_interarrival_s": None},
        "network": {"nodes": [[10, 0, 0], [10, 500, 0]], "routes": [[0, 1]]},
    }
    before = copy.deepcopy(data)
    scenario_from_dict(data)
    assert data == before


def test_null_selects_default_except_where_null_is_a_value():
    sc = scenario_from_dict({"duration_s": None, "mac": {"protocol": None},
                             "traffic": {"mean_interarrival_s": None}})
    assert sc.duration == Scenario().duration
    assert sc.mac.protocol == Scenario().mac.protocol
    assert sc.traffic.mean_interarrival is None
    # a null config, as YAML reads an empty file, is the defaults
    assert scenario_from_dict(None) == scenario_from_dict({})


def test_readme_table_lists_every_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z_.]+)` \| .+ \| (.+) \|$", section, re.MULTILINE)
    assert [key for key, _ in rows] == [f.key for f in FIELDS]
    assert [rule for _, rule in rows] == [f.expected for f in FIELDS]
