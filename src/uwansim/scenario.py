"""Scenario definition: validated simulation inputs with network defaults.

A scenario wires together the environment, channel model, physical layer,
MAC protocol and timers, traffic, and the placement: the node positions
``network.nodes`` and the static routes ``network.routes``.  The
dataclasses below hold every default (the reference multi-hop deployment),
so an empty config file is a runnable scenario.  ``FIELDS`` gives each YAML
key once with its attribute and rule; parsing and emitting walk it, and so
does ``Scenario.resolved``, which also fills in a missing placement.  The
``Simulator`` runs a resolved scenario as it is, after ``check_scenario``.
One ``seed`` keys every random stream of a scenario: the generated
placement, the channel taps, the traffic and the MAC backoffs.
The rules of the environment, channel, phy and MAC timer keys are those
their dataclasses check on construction; ``FIELDS`` holds the only copy of
the others.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

import numpy as np

from .channel import SEED_MASK, ChannelModelConfig, Environment, Point
from .mac import PROTOCOLS, TRMAC, MacTimers
from .matching import max_cardinality_matching
from .rules import NODES, NON_NEGATIVE, POSITIVE, ROUTES, Bound, Rule, integer, number, one_of, string
from .tr_phy import PhyConfig, check_divisible


class ScenarioError(ValueError):
    """A config field or invariant is violated; the message names it."""


@dataclass
class TrafficConfig:
    mean_interarrival: float | None = 8.0
    packet_bits: int = 256


@dataclass
class MacConfig:
    protocol: str = TRMAC
    guard_time: float = 0.25
    coherence_time: float = 30.0
    n_max: int = 3
    control_bits: int = 32
    s_csma_max_backoff: float = 2.0
    # carrier-sense energy threshold for the baselines; None means the
    # receiver sensitivity (min_required_sinr * noise_variance)
    sense_threshold_w: float | None = None


@dataclass
class NetworkConfig:
    region_size: float = 4000.0
    node_depth_max: float = 50.0
    one_hop_range: float = 1000.0
    data_rate: float = 512.0
    max_hops: int = 6
    node_count: int = 20
    link_count: int = 10
    # the placement: (depth, x, y) per node and node indices per route;
    # null until Scenario.resolved generates what is missing
    nodes: list[Point] | None = None
    routes: list[tuple[int, ...]] | None = None

    @property
    def hop_limit(self) -> float:
        """Longest one-hop distance: the range, widened by 1e-9 of it for float error."""
        return self.one_hop_range * (1 + 1e-9)


@dataclass
class Scenario:
    seed: int = 1
    duration: float = 2000.0
    warmup: float = 0.0
    environment: Environment = field(default_factory=Environment)
    channel: ChannelModelConfig = field(default_factory=ChannelModelConfig)
    phy: PhyConfig = field(
        default_factory=lambda: PhyConfig(noise_variance=1.0e-7, updown_factor=4, min_required_sinr=0.5)
    )
    mac: MacConfig = field(default_factory=MacConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def resolved(self) -> "Scenario":
        """A new scenario, sharing no list with this one: every field checked
        and normalized, a null or empty ``network.nodes`` generated (with routes
        unless given), given nodes without routes paired, and the whole validated."""
        out = _with_values(self, _parsed_fields(self))
        net = out.network
        nodes, routes = net.nodes, net.routes
        if not nodes:
            nodes, generated = _generate_topology(out)
            routes = routes or generated
        elif not routes:
            routes = _pair_nodes(nodes, net.link_count, net.one_hop_range, _topology_rng(out.seed))
            if routes is None:
                most = len(max_cardinality_matching(_within_range(nodes, net.one_hop_range)))
                raise ScenarioError(
                    f"network.link_count: {net.link_count} disjoint links requested, but the "
                    f"given network.nodes admit at most {most}"
                )
        out.network = dataclasses.replace(net, nodes=nodes, routes=routes)
        validate_scenario(out)
        return out


# ------------------------------------------------------------ field table


@dataclass(frozen=True)
class Field:
    """One scenario key: the YAML key, the ``Scenario`` attribute it sets
    and its rule, which is the owning dataclass's own where there is one."""

    key: str    # dotted YAML key
    attr: str   # dotted attribute path on Scenario
    rule: Rule

    @property
    def expected(self) -> str:
        return self.rule.expected

    def parse(self, value):
        """``value`` converted by the rule; ScenarioError naming the key when
        it cannot be converted or breaks the rule."""
        try:
            return self.rule.parse(value)
        except ValueError:
            raise ScenarioError(f"{self.key}: expected {self.expected}, got {value!r}") from None


_ENV, _CHANNEL, _PHY, _TIMERS = (c.RULES for c in (Environment, ChannelModelConfig, PhyConfig, MacTimers))

FIELDS: tuple[Field, ...] = (
    Field("seed", "seed", integer()),
    Field("duration_s", "duration", number(NON_NEGATIVE)),
    Field("warmup_s", "warmup", number(NON_NEGATIVE)),
    Field("environment.water_depth_m", "environment.water_depth", _ENV["water_depth"]),
    Field("environment.bandwidth_hz", "environment.bandwidth", _ENV["bandwidth"]),
    Field("environment.nominal_sound_speed_mps", "environment.nominal_sound_speed", _ENV["nominal_sound_speed"]),
    Field("channel.model", "channel.model_kind", _CHANNEL["model_kind"]),
    Field("channel.tap_count", "channel.tap_count", _CHANNEL["tap_count"]),
    Field("channel.pdp_decay_s", "channel.pdp_decay_constant", _CHANNEL["pdp_decay_constant"]),
    Field("channel.arrival_file", "channel.arrival_file_path", _CHANNEL["arrival_file_path"]),
    Field("channel.depth_quantum_m", "channel.depth_quantum", _CHANNEL["depth_quantum"]),
    Field("channel.range_quantum_m", "channel.range_quantum", _CHANNEL["range_quantum"]),
    Field("phy.transmit_power_w", "phy.avg_transmit_power", _PHY["avg_transmit_power"]),
    Field("phy.noise_variance_w", "phy.noise_variance", _PHY["noise_variance"]),
    Field("phy.updown_factor", "phy.updown_factor", _PHY["updown_factor"]),
    Field("phy.min_required_sinr", "phy.min_required_sinr", _PHY["min_required_sinr"]),
    Field("mac.protocol", "mac.protocol", string(one_of(*PROTOCOLS))),
    Field("mac.guard_time_s", "mac.guard_time", _TIMERS["delta"]),
    Field("mac.coherence_time_s", "mac.coherence_time", _TIMERS["coherence_time"]),
    Field("mac.max_retransmissions", "mac.n_max", _TIMERS["n_max"]),
    Field("mac.control_bits", "mac.control_bits", integer(POSITIVE)),
    Field("mac.s_csma_max_backoff_s", "mac.s_csma_max_backoff", number(NON_NEGATIVE)),
    Field("mac.sense_threshold_w", "mac.sense_threshold_w", number(NON_NEGATIVE, nullable=True)),
    Field("traffic.mean_interarrival_s", "traffic.mean_interarrival", number(POSITIVE, nullable=True)),
    Field("traffic.packet_bits", "traffic.packet_bits", integer(POSITIVE)),
    Field("network.region_size_m", "network.region_size", number(POSITIVE)),
    Field("network.node_depth_max_m", "network.node_depth_max", number(NON_NEGATIVE)),
    Field("network.one_hop_range_m", "network.one_hop_range", number(POSITIVE)),
    Field("network.data_rate_bps", "network.data_rate", number(POSITIVE)),
    Field("network.max_hops", "network.max_hops", integer(POSITIVE)),
    Field("network.node_count", "network.node_count", integer(Bound("{} >= 2", lambda v: v >= 2))),
    Field("network.link_count", "network.link_count", integer(POSITIVE)),
    Field("network.nodes", "network.nodes", NODES),
    Field("network.routes", "network.routes", ROUTES),
)

_SECTIONS = {f.key.split(".")[0] for f in FIELDS if "." in f.key}
# top-level keys carry a "config." prefix here, as in error messages
_BY_KEY = {f.key if "." in f.key else f"config.{f.key}": f for f in FIELDS}


def _parsed_fields(scenario: Scenario) -> dict[str, Any]:
    """Every field's value converted by its rule, by dotted attribute."""
    return {f.attr: f.parse(attrgetter(f.attr)(scenario)) for f in FIELDS}


def _with_values(scenario: Scenario, values: dict[str, Any]) -> Scenario:
    """Copy of ``scenario`` with the given dotted attributes replaced."""
    sections: dict[str, dict[str, Any]] = {}
    for attr, value in values.items():
        section, _, name = attr.rpartition(".")
        sections.setdefault(section, {})[name] = value
    top = sections.pop("", {})
    for section, changes in sections.items():
        try:
            top[section] = dataclasses.replace(getattr(scenario, section), **changes)
        except ValueError as exc:  # cross-field rules of the section's own dataclass
            raise ScenarioError(f"{section}: {exc}") from None
    return dataclasses.replace(scenario, **top)


# -------------------------------------------------------------- topology


def _topology_rng(seed: int) -> np.random.Generator:
    """The stream that places nodes and draws link directions."""
    return np.random.default_rng(np.random.SeedSequence((seed & SEED_MASK, 0x7090)))


def _generate_topology(scenario: Scenario) -> tuple[list[Point], list[tuple[int, int]]]:
    """Random placement plus disjoint single-hop link set, deterministically
    retried until the requested link count is feasible."""
    net = scenario.network
    if 2 * net.link_count > net.node_count:
        raise ScenarioError(
            f"network.link_count: {net.link_count} disjoint links need at least "
            f"{2 * net.link_count} nodes, node_count is {net.node_count}"
        )
    rng = _topology_rng(scenario.seed)
    for _ in range(200):
        nodes = [
            (float(rng.uniform(0.0, net.node_depth_max)),
             float(rng.uniform(0.0, net.region_size)),
             float(rng.uniform(0.0, net.region_size)))
            for _ in range(net.node_count)
        ]
        routes = _pair_nodes(nodes, net.link_count, net.one_hop_range, rng)
        if routes is not None:
            return nodes, routes
    raise ScenarioError(
        f"network: could not place {net.node_count} nodes admitting {net.link_count} disjoint links"
    )


def _pair_nodes(nodes, link_count, hop_range, rng) -> list[tuple[int, int]] | None:
    """Disjoint single-hop link set of (depth, x, y) nodes via
    maximum-cardinality matching on the within-range graph.  Returns None
    when the placement cannot host link_count links; link directions are
    drawn from the given stream."""
    pairs = max_cardinality_matching(_within_range(nodes, hop_range))
    if len(pairs) < link_count:
        return None
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs[:link_count]]


def _within_range(nodes, hop_range) -> list[list[int]]:
    """Each node's neighbours within ``hop_range``, in increasing order: the
    order in which the matching breaks ties, so it decides the routes."""
    adjacency = [[] for _ in nodes]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if math.dist(nodes[i], nodes[j]) <= hop_range:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def check_scenario(scenario: Scenario) -> None:
    """Every field rule and every rule of ``validate_scenario``, applied to
    a resolved scenario as it is: nothing is copied, converted or placed."""
    _parsed_fields(scenario)
    validate_scenario(scenario)


def validate_scenario(scenario: Scenario) -> None:
    """The rules across fields and the topology checks of a scenario whose
    fields are already parsed and whose placement is filled in."""
    net = scenario.network
    if not net.nodes or not net.routes:
        raise ScenarioError("network.nodes: the scenario is not placed; resolve it first (Scenario.resolved)")
    try:
        check_divisible(scenario.channel.tap_count, scenario.phy.updown_factor)
    except ValueError as exc:
        raise ScenarioError(f"phy.updown_factor: {exc}") from None
    if net.node_depth_max > scenario.environment.water_depth:
        raise ScenarioError("network.node_depth_max_m: exceeds environment.water_depth_m")

    for i, (depth, x, y) in enumerate(net.nodes):
        if not (0.0 <= depth <= net.node_depth_max):
            raise ScenarioError(
                f"network.nodes[{i}]: depth {depth} outside [0, {net.node_depth_max}]"
            )
        if not (0.0 <= x <= net.region_size and 0.0 <= y <= net.region_size):
            raise ScenarioError(f"network.nodes[{i}]: position outside the region")

    n = len(net.nodes)
    for r, route in enumerate(net.routes):
        if len(route) < 2:
            raise ScenarioError(f"network.routes[{r}]: needs at least two nodes")
        if len(route) - 1 > net.max_hops:
            raise ScenarioError(
                f"network.routes[{r}]: {len(route) - 1} hops exceeds max_hops {net.max_hops}"
            )
        if len(set(route)) != len(route):
            raise ScenarioError(f"network.routes[{r}]: repeated node")
        for node in route:
            if not (0 <= node < n):
                raise ScenarioError(f"network.routes[{r}]: node index {node} out of range")
        for a, b in zip(route, route[1:]):
            hop = math.dist(net.nodes[a], net.nodes[b])
            if hop > net.hop_limit:
                raise ScenarioError(
                    f"network.routes[{r}]: hop {a}->{b} length {hop:.1f} m exceeds "
                    f"one_hop_range {net.one_hop_range} m"
                )


# ----------------------------------------------------------- serialization


def scenario_to_dict(scenario: Scenario) -> dict:
    out: dict = {}
    for f in FIELDS:
        section, _, name = f.key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[name] = attrgetter(f.attr)(scenario)
    # as lists, which YAML writes; a resolved placement is written out, so
    # reloading reproduces it
    net = scenario.network
    out["network"]["nodes"] = [list(n) for n in net.nodes or ()] or None
    out["network"]["routes"] = [list(r) for r in net.routes or ()] or None
    return out


def _expect_mapping(value, context: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected a mapping, got {type(value).__name__}")
    return value


def scenario_from_dict(data: dict | None) -> Scenario:
    """Parse a scenario mapping (as read from YAML) without modifying it.

    A null value selects the default, except for keys whose rule admits null.
    """
    items = []
    for key, value in _expect_mapping(data, "config").items():
        if key in _SECTIONS:
            items += [(f"{key}.{sub}", v) for sub, v in _expect_mapping(value, key).items()]
        else:
            items.append((f"config.{key}", value))
    values: dict[str, Any] = {}
    for key, value in items:
        f = _BY_KEY.get(key)
        if f is None:
            raise ScenarioError(f"{key}: unknown field")
        if value is not None or f.rule.nullable:
            values[f.attr] = f.parse(value)
    return _with_values(Scenario(), values).resolved()


def load_scenario(path: str) -> Scenario:
    """Parse a scenario YAML file; ScenarioError naming the file when it
    does not parse as YAML."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not valid YAML: {exc}") from None
    return scenario_from_dict(data)


def emit_scenario(scenario: Scenario, path: str) -> None:
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)


def config_hash(scenario: Scenario) -> str:
    """Short stable digest of the full scenario for output provenance."""
    blob = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
