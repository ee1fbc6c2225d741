"""Experiment presets: canned sweeps emitting CSV files.

Each preset writes one CSV with a leading provenance comment line
(`# preset=<name> config=<hash> seeds=<...>`), a header row, and one row
per grid point -- never fewer, never more.  Each preset's params, with
their rules and defaults, are one table in ``PARAMS``.  The hash covers the
params given, each scalar as parsed, so values equal under their rules hash
alike.  A network preset resolves its placement once per seed and derives
each run's scenario from it; the runs go to a pool of ``workers``
processes, or run in-process when that is 1.  Rows are assembled in grid
order regardless of completion order, and the runs of one placement share
one link table.  A PHY preset draws its channel taps with its one seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Callable, NamedTuple

import numpy as np

from .channel import (
    ChannelModelConfig,
    Environment,
    Point,
    generate_cir,
    generate_taps,
    norm,
    normalized_cross_correlations,
)
from .mac import PROTOCOLS
from .rules import NODES, POSITIVE, Bound, Rule, integer, number, one_of, string
from .scenario import NetworkConfig, Scenario, scenario_from_dict
from .sim import LinkTable, MetricsRecord, Simulator, placement
from .tr_phy import (
    PhyConfig,
    crosscorr_sampled_stats,
    ili_power_from_parts,
    p_ili,
    p_isi,
    p_sig,
    sdt_powers,
    sinr_atrsts_from_parts,
    sinr_from_parts,
)

# receivers per tap matrix of the correlation heatmap, each matrix drawn and
# correlated by a few numpy calls; a longer depth row is split into matrices
# of this many rows.  A matrix's scratch space (its n x taps float scale and
# complex taps) is most of the heatmap's peak memory once its draws are kept
# per depth cell.  At the 1 m x 10 m, 401-cell-row benchmark grid, against
# 512: a tracemalloc peak of 0.80 MiB instead of 1.73, the phy_maps peak RSS
# 57.8-58.1 MiB instead of 59.0-59.2, and 3 % more time (best of 25
# interleaved runs, 0.1085 s against 0.1050 s); 64 saves no more RSS and
# takes 12 % more time
_PROBE_BLOCK = 128

# two-link reference geometry used by the SINR presets: (depth m, range m)
REFERENCE_GEOMETRY = {"a": (20.0, 0.0), "b": (20.0, 1000.0), "i": (50.0, 0.0), "j": (70.0, 1000.0)}


class Param(NamedTuple):
    """One preset parameter.  ``read`` turns the value as given into the
    value the preset uses, or raises ValueError saying what it expected;
    ``default`` stands in for an absent value.  The provenance hash takes a
    scalar as read, so values equal under its rule hash alike, and any
    other param as given."""

    read: Callable[[Any], Any]
    default: Any
    scalar: bool = False


def _scalar(rule: Rule, default) -> Param:
    return Param(rule.parse, default, scalar=True)


def _list(rule: Rule, default: tuple) -> Param:
    """A nonempty list whose items are each already of the kind ``rule``
    converts to and within its bound, each used as ``rule`` parses it (2.0
    as 2 under an integer rule); null reads as ``default``."""

    def read(value) -> tuple:
        value = default if value is None else value
        try:
            if isinstance(value, str):  # "trmac" would iterate as letters
                raise ValueError(value)
            items = tuple(value)
            parsed = tuple(map(rule.parse, items))
            if not items or parsed != items:
                raise ValueError(value)
        except (TypeError, ValueError):
            raise ValueError(f"a nonempty list, each item a {rule.expected}") from None
        return parsed

    return Param(read, default)


def _spot(value) -> tuple[tuple, Point]:
    """A reference node of the heatmap as given and as a ``(depth, range, 0)``
    point, checked as a node of ``network.nodes`` is."""
    try:
        if isinstance(value, str):  # "70" would unpack to two digits
            raise ValueError(value)
        spot = tuple(value)
        return spot, NODES.parse([(*spot, 0.0)])[0]
    except (TypeError, ValueError):
        raise ValueError("a finite (depth >= 0, range) pair") from None


def _base_scenario(value) -> dict:
    """The base scenario mapping of the network presets, as a scenario file
    holds one: null reads as empty, and so does a null ``network``, whose
    ``link_count`` the preset sets; ``scenario_from_dict`` checks the rest."""
    value = {} if value is None else value
    network = value.get("network") if isinstance(value, dict) else None
    network = {} if network is None else network
    if not isinstance(value, dict) or not isinstance(network, dict):
        raise ValueError("a scenario mapping, its network section a mapping")
    return {**value, "network": network}


# the taps per CIR of the PHY presets, under ChannelModelConfig's rule and default
_TAPS = _scalar(ChannelModelConfig.RULES["tap_count"], ChannelModelConfig.tap_count)
_D_FACTORS = _list(integer(POSITIVE), (1, 2, 4, 8))
_PROTOCOLS = _list(string(one_of(*PROTOCOLS)), PROTOCOLS)
_DURATION = _scalar(number(POSITIVE), Scenario.duration)
# the pool size of the network presets; null means one worker per CPU
_WORKERS = integer(POSITIVE, nullable=True)
_SCENARIO = Param(_base_scenario, {})

# the params each preset reads, in the order it reads them; a preset given
# any other is refused
PARAMS: dict[str, dict[str, Param]] = {
    "sinr_vs_snr": {
        "d_factors": _D_FACTORS,
        # 40..80 dB, artifact-chosen
        "snr_db_grid": _list(number(), tuple(40.0 + 2.0 * k for k in range(21))),
        "tap_count": _TAPS,
    },
    "sinr_vs_eta": {
        "d_factors": _D_FACTORS,
        "eta_grid": _list(number(Bound("{} in [0, 1)", lambda v: 0 <= v < 1)),
                          tuple(round(0.05 * k, 2) for k in range(19))),  # 0 .. 0.9
        "snr_db": _scalar(number(), 65.0),
        "tap_count": _TAPS,
    },
    "correlation_heatmap": {
        "depth_step": _scalar(number(POSITIVE), 5.0),
        "range_step": _scalar(number(POSITIVE), 50.0),
        "water_depth": _scalar(number(POSITIVE), Environment.water_depth),
        "max_range": _scalar(number(POSITIVE), NetworkConfig.region_size),
        "tap_count": _TAPS,
        "reference_tx": Param(_spot, REFERENCE_GEOMETRY["i"]),
        "reference_rx": Param(_spot, REFERENCE_GEOMETRY["j"]),
    },
    "load_sweep": {
        "loads": _list(integer(POSITIVE), (4, 6, 8, 10)),
        "protocols": _PROTOCOLS,
        "duration": _DURATION,
        "workers": _scalar(_WORKERS, None),
        "scenario": _SCENARIO,
    },
    "timeseries": {
        "protocols": _PROTOCOLS,
        "duration": _DURATION,
        "sample_every": _scalar(number(POSITIVE), 100.0),
        "links": _scalar(integer(POSITIVE), NetworkConfig.link_count),
        # in-process unless asked: a pool saves little beyond its start-up on
        # three runs, and in-process runs stay visible to a profiler
        "workers": _scalar(_WORKERS, 1),
        "scenario": _SCENARIO,
    },
}
PRESET_NAMES = tuple(PARAMS)


@dataclass
class ExperimentPreset:
    name: str
    params: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "."

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}; expected one of {PRESET_NAMES}")
        self.seeds = tuple(_parsed(self.name, "seeds", integer().parse, s) for s in self.seeds)
        if len(self.seeds) < 1:
            raise ValueError("ExperimentPreset.seeds must contain at least one seed")
        if len(self.seeds) > 1 and self.name != "load_sweep":
            raise ValueError(f"{self.name}: seeds: expected one seed, got {self.seeds!r}")
        for key in self.params:
            if key not in PARAMS[self.name]:
                raise ValueError(f"{self.name}: {key}: unknown parameter; expected one of "
                                 f"{', '.join(PARAMS[self.name])}")


def _parsed(name: str, key: str, read: Callable[[Any], Any], value):
    """``value`` as ``read`` turns it; ValueError naming the preset and key."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {key}: expected {exc}, got {value!r}") from None


def _read(preset: ExperimentPreset) -> dict:
    """Every param of the preset's table, read from its value as given or its default."""
    return {key: _parsed(preset.name, key, param.read, preset.params.get(key, param.default))
            for key, param in PARAMS[preset.name].items()}


def _params_hash(preset: ExperimentPreset, values: dict) -> str:
    """Digest of the preset's name, seeds and given params, each scalar
    param as read into ``values``."""
    table = PARAMS[preset.name]
    params = {key: values[key] if table[key].scalar else value for key, value in preset.params.items()}
    blob = json.dumps({"name": preset.name, "params": params, "seeds": list(preset.seeds)},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _csv_line(row) -> str:
    """One CSV line of ``row``, as ``csv.writer``'s default dialect writes a
    row whose fields hold no comma, quote or line break.  Every preset field
    is such an int, protocol name or float, and ``str`` of a float is the
    repr that ``csv.writer`` writes."""
    return ",".join(map(str, row)) + "\r\n"


def _write_csv(path: str, provenance: str, header: list[str], lines) -> str:
    """Write the provenance comment, the header and the finished ``lines``
    as they come; a file that could not be completed is removed, so a
    preset never leaves fewer rows than its grid."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(provenance + "\n")
            fh.write(_csv_line(header))
            fh.writelines(lines)
    except BaseException:
        os.remove(path)
        raise
    return path


def _reference_links(seed: int, tap_count: int):
    env = Environment()
    cfg = ChannelModelConfig(tap_count=tap_count)
    g = {k: (depth, rng, 0.0) for k, (depth, rng) in REFERENCE_GEOMETRY.items()}
    h_ab = generate_cir(g["a"], g["b"], env, cfg, seed)
    h_ib = generate_cir(g["i"], g["b"], env, cfg, seed)
    h_ij = generate_cir(g["i"], g["j"], env, cfg, seed)
    return h_ab, h_ib, h_ij


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else math.nan


def preset_sinr_vs_snr(preset: ExperimentPreset) -> str:
    """Effective SINR of the reference link versus acoustic SNR, for the
    TR-based simultaneous transmissions (one interfering link active) and
    the single direct transmission, at several up/down-sampling factors."""
    p = _read(preset)
    seed = preset.seeds[0]
    h_ab, h_ib, h_ij = _reference_links(seed, p["tap_count"])

    rows = []
    for d in p["d_factors"]:
        # the noise-free powers depend on D only
        phy = PhyConfig(avg_transmit_power=1.0, updown_factor=d, min_required_sinr=0.5)
        sig, isi, ili = p_sig(h_ab, phy), p_isi(h_ab, phy), p_ili(h_ib, h_ij, phy)
        sdt = sdt_powers(h_ab, phy)
        for snr_db in p["snr_db_grid"]:
            sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)
            phy = PhyConfig(avg_transmit_power=1.0, noise_variance=sigma2,
                            updown_factor=d, min_required_sinr=0.5)
            atrsts = sinr_atrsts_from_parts(sig, isi, [ili], phy)
            rows.append([d, snr_db, _db(atrsts), _db(sinr_from_parts(*sdt, 0.0, phy))])
    path = os.path.join(preset.output_dir, "sinr_vs_snr.csv")
    prov = f"# preset=sinr_vs_snr config={_params_hash(preset, p)} seeds={seed}"
    header = ["d_factor", "snr_db", "sinr_atrsts_db", "sinr_sdt_db"]
    return _write_csv(path, prov, header, map(_csv_line, rows))


def preset_sinr_vs_eta(preset: ExperimentPreset) -> str:
    """Effective SINR of the reference link versus the peak normalized
    cross-correlation between the interfering link and the victim-bound
    channel, with the measured off-peak structure held fixed."""
    p = _read(preset)
    seed, snr_db = preset.seeds[0], p["snr_db"]
    h_ab, h_ib, h_ij = _reference_links(seed, p["tap_count"])
    norm_ib = norm(h_ib)
    sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)

    rows = []
    for d in p["d_factors"]:
        phy = PhyConfig(avg_transmit_power=1.0, noise_variance=sigma2,
                        updown_factor=d, min_required_sinr=0.5)
        sig = p_sig(h_ab, phy)
        isi = p_isi(h_ab, phy)
        _, offpeak = crosscorr_sampled_stats(h_ib, h_ij, d)
        for eta in p["eta_grid"]:
            ili = ili_power_from_parts(norm_ib, float(eta), offpeak, phy)
            rows.append([d, eta, _db(sinr_atrsts_from_parts(sig, isi, [ili], phy))])
    path = os.path.join(preset.output_dir, "sinr_vs_eta.csv")
    prov = f"# preset=sinr_vs_eta config={_params_hash(preset, p)} seeds={seed} snr_db={snr_db}"
    return _write_csv(path, prov, ["d_factor", "eta", "sinr_db"], map(_csv_line, rows))


def preset_correlation_heatmap(preset: ExperimentPreset) -> str:
    """|eta| between the reference link and the link from the reference
    transmitter to a probe node swept over (depth, range) cells.

    The CSV is written a depth row at a time as the row is computed, each
    row one string of its lines, so no list of all cells is kept.  Each
    link signature is drawn once, into a memo of the probe's depth cell:
    every signature of a cell's links holds that cell, and depths only
    grow, so the memo is dropped when the rows leave the cell.

    ValueError naming the param, before any file is written, for a
    reference node below ``water_depth`` or a ``reference_rx`` at
    ``reference_tx``.
    """
    p = _read(preset)
    depth_step, range_step, water_depth = p["depth_step"], p["range_step"], p["water_depth"]
    tx_spot, tx = p["reference_tx"]
    rx_spot, rx = p["reference_rx"]
    seed = preset.seeds[0]
    for key in ("reference_tx", "reference_rx"):
        spot, (depth, _, _) = p[key]
        if depth > water_depth:
            raise ValueError(f"correlation_heatmap: {key}: expected a depth in [0, water_depth {water_depth!r}], "
                             f"got {spot!r}")
    if rx == tx:
        raise ValueError(f"correlation_heatmap: reference_rx: expected a node apart from reference_tx, got {rx_spot!r}")

    env = Environment(water_depth=water_depth)
    cfg = ChannelModelConfig(tap_count=p["tap_count"])
    h_ref = generate_cir(tx, rx, env, cfg, seed)

    # cells are (depth, x, y) points, as generate_taps takes them
    depths = [round(k * depth_step, 9) for k in range(int(water_depth / depth_step) + 1)]
    ranges = [round(k * range_step, 9) for k in range(int(p["max_range"] / range_step) + 1)]
    # the "<range>," field of each column, formatted once
    columns = [f"{rng!r}," for rng in ranges]

    def lines():
        memo_cell = None
        for depth in depths:
            # a new memo at each probe depth cell, the cell generate_taps computes
            depth_cell = math.floor(depth / cfg.depth_quantum)
            if depth_cell != memo_cell:
                memo_cell, draws = depth_cell, {}
            cells = [(depth, rng, 0.0) for rng in ranges]
            linked = [cell for cell in cells if cell != tx]
            magnitudes = []
            for k in range(0, len(linked), _PROBE_BLOCK):
                etas = normalized_cross_correlations(
                    generate_taps(tx, linked[k : k + _PROBE_BLOCK], env, cfg, seed, draws), h_ref, 0)
                magnitudes += np.hypot(etas.real, etas.imag).tolist()
            if len(linked) < len(cells):
                # the cell at the reference transmitter is an undefined link to itself
                magnitudes.insert(cells.index(tx), math.nan)
            lead = f"{depth!r},"
            # lead + column + repr(eta) per cell, each line ended by "\r\n"
            yield lead + f"\r\n{lead}".join(map(str.__add__, columns, map(repr, magnitudes))) + "\r\n"

    path = os.path.join(preset.output_dir, "correlation_heatmap.csv")
    prov = (f"# preset=correlation_heatmap config={_params_hash(preset, p)} "
            f"seeds={seed} reference_tx={tx_spot} reference_rx={rx_spot}")
    return _write_csv(path, prov, ["depth_m", "range_m", "eta_abs"], lines())


def _placed(p: dict, seed: int, links: int) -> Scenario:
    """The network preset's base scenario at ``seed`` with ``links`` links,
    resolved once: the placement every run of the seed derives from."""
    base = p["scenario"]
    return scenario_from_dict({**base, "seed": seed, "duration_s": p["duration"],
                               "network": {**base["network"], "link_count": links}})


def _protocol(scenario: Scenario, protocol: str) -> Scenario:
    return replace(scenario, mac=replace(scenario.mac, protocol=protocol))


def _run(scenario: Scenario, sample_every: float | None, links: LinkTable) -> MetricsRecord:
    return Simulator(scenario, links=links).run(sample_every).metrics


# the link tables of the running call by placement, in a pool worker
_worker_tables: dict[tuple, LinkTable] = {}


def _set_worker_tables(tables: dict[tuple, LinkTable]) -> None:
    global _worker_tables
    _worker_tables = tables


def _run_pooled(scenario: Scenario, sample_every: float | None) -> MetricsRecord:
    return _run(scenario, sample_every, _worker_tables[placement(scenario)])


def run_network_jobs(scenarios: list[Scenario], workers: int | None = None,
                     sample_every: float | None = None) -> list[MetricsRecord]:
    """Run resolved scenarios, in parallel when ``workers`` allows (null
    means one worker per CPU); one ``MetricsRecord`` per scenario, in order.

    One link table is built per placement and shared by its runs: a pool
    gets the tables through its initializer.  With ``sample_every`` each
    record also holds the metric ``series``.
    """
    tables: dict[tuple, LinkTable] = {}
    for scenario in scenarios:
        key = placement(scenario)
        if key not in tables:
            tables[key] = LinkTable(scenario)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(scenarios))
    if workers <= 1:
        return [_run(sc, sample_every, tables[placement(sc)]) for sc in scenarios]
    from concurrent.futures import ProcessPoolExecutor  # a serial call never loads it

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_tables,
                             initargs=(tables,)) as pool:
        return list(pool.map(_run_pooled, scenarios, repeat(sample_every)))


def preset_load_sweep(preset: ExperimentPreset) -> str:
    """Delay / drop ratio / throughput for each protocol across network loads."""
    p = _read(preset)
    labels, scenarios = [], []
    for seed in preset.seeds:
        # one placement per seed; lighter loads run its first routes
        placed = _placed(p, seed, max(p["loads"]))
        for links in p["loads"]:
            loaded = replace(placed, network=replace(placed.network, routes=placed.network.routes[:links]))
            for protocol in p["protocols"]:
                labels.append((links, protocol, seed))
                scenarios.append(_protocol(loaded, protocol))
    rows = [[*label, m.generated, m.delivered, m.dropped, m.mean_delay, m.drop_ratio, m.throughput]
            for label, m in zip(labels, run_network_jobs(scenarios, p["workers"]))]
    path = os.path.join(preset.output_dir, "load_sweep.csv")
    prov = (f"# preset=load_sweep config={_params_hash(preset, p)} "
            f"seeds={','.join(str(s) for s in preset.seeds)}")
    header = ["links", "protocol", "seed", "generated", "delivered", "dropped",
              "mean_delay_s", "drop_ratio", "throughput_bps"]
    return _write_csv(path, prov, header, map(_csv_line, rows))


def preset_timeseries(preset: ExperimentPreset) -> str:
    """Cumulative metric-versus-time curves for each protocol at one load."""
    p = _read(preset)
    seed, links = preset.seeds[0], p["links"]
    placed = _placed(p, seed, links)
    records = run_network_jobs([_protocol(placed, protocol) for protocol in p["protocols"]],
                               p["workers"], p["sample_every"])
    rows = [[protocol, row["time"], row["mean_delay"], row["drop_ratio"], row["throughput"]]
            for protocol, m in zip(p["protocols"], records) for row in m.series]
    path = os.path.join(preset.output_dir, "timeseries.csv")
    prov = f"# preset=timeseries config={_params_hash(preset, p)} seeds={seed} links={links}"
    header = ["protocol", "time_s", "mean_delay_s", "drop_ratio", "throughput_bps"]
    return _write_csv(path, prov, header, map(_csv_line, rows))


_RUNNERS = {
    "sinr_vs_snr": preset_sinr_vs_snr,
    "sinr_vs_eta": preset_sinr_vs_eta,
    "correlation_heatmap": preset_correlation_heatmap,
    "load_sweep": preset_load_sweep,
    "timeseries": preset_timeseries,
}


def run_preset(preset: ExperimentPreset) -> str:
    """Execute one preset; returns the written CSV path."""
    return _RUNNERS[preset.name](preset)
