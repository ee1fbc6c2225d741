"""Experiment presets: canned sweeps emitting CSV files.

Each preset writes one CSV with a leading provenance comment line
(`# preset=<name> config=<hash> seeds=<...>`), a header row, and one row
per grid point -- never fewer, never more.  The hash covers the params
as parsed, so values equal under their rules hash alike.  Network presets
run their jobs in a pool of ``workers`` processes, or in-process when that
is 1; rows are assembled in grid order regardless of completion order, and
the runs of one placement share one link table.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

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
from .scenario import scenario_from_dict, scenario_to_dict
from .sim import LinkTable, Simulator, placement
from .tr_phy import (
    PhyConfig,
    crosscorr_sampled_stats,
    ili_power_from_parts,
    p_ili,
    p_isi,
    p_sig,
    sdt_signal_and_isi,
    sinr_atrsts_from_parts,
    sinr_sdt_from_parts,
)

# the params each preset reads; a preset given any other is refused
PARAMS = {
    "sinr_vs_snr": ("d_factors", "snr_db_grid", "tap_count"),
    "sinr_vs_eta": ("d_factors", "eta_grid", "snr_db", "tap_count"),
    "correlation_heatmap": ("depth_step", "range_step", "water_depth", "max_range", "tap_count",
                            "reference_tx", "reference_rx"),
    "load_sweep": ("loads", "protocols", "duration", "workers", "scenario"),
    "timeseries": ("protocols", "duration", "sample_every", "links", "workers", "scenario"),
}
PRESET_NAMES = tuple(PARAMS)

# receivers per tap matrix of the correlation heatmap: a whole 401-cell
# row raised the peak memory by ~1.3 MiB, while 64 costs no more than one
# CIR per cell and keeps numpy's per-call overhead small
_PROBE_BLOCK = 64

# the taps per CIR of the PHY presets, under ChannelModelConfig's rule and default
_TAPS = ("tap_count", ChannelModelConfig.RULES["tap_count"], ChannelModelConfig.tap_count)
# the pool size of the network presets; null means one worker per CPU
_WORKERS = integer(POSITIVE, nullable=True)
# the items of the list params
_D_FACTOR = integer(POSITIVE)
_ETA = number(Bound("{} in [0, 1)", lambda v: 0 <= v < 1))
_PROTOCOL = string(one_of(*PROTOCOLS))

# two-link reference geometry used by the SINR presets: (depth m, range m)
REFERENCE_GEOMETRY = {"a": (20.0, 0.0), "b": (20.0, 1000.0), "i": (50.0, 0.0), "j": (70.0, 1000.0)}


@dataclass
class ExperimentPreset:
    name: str
    params: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "."

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}; expected one of {PRESET_NAMES}")
        self.seeds = tuple(_parsed(self.name, "seeds", integer(), s) for s in self.seeds)
        if len(self.seeds) < 1:
            raise ValueError("ExperimentPreset.seeds must contain at least one seed")
        if len(self.seeds) > 1 and self.name != "load_sweep":
            raise ValueError(f"{self.name}: seeds: expected one seed, got {self.seeds!r}")
        for key in self.params:
            if key not in PARAMS[self.name]:
                raise ValueError(f"{self.name}: {key}: unknown parameter; expected one of "
                                 f"{', '.join(PARAMS[self.name])}")


def _params_hash(preset: ExperimentPreset, **parsed) -> str:
    """Digest of the preset's name, seeds and params, with the ``parsed``
    value of each param given in place of the value as given."""
    params = {**preset.params, **{k: v for k, v in parsed.items() if k in preset.params}}
    blob = json.dumps({"name": preset.name, "params": params, "seeds": list(preset.seeds)},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv(path: str, provenance: str, header: list[str], rows: list[list]) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(provenance + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _reference_links(seed: int, tap_count: int):
    env = Environment()
    cfg = ChannelModelConfig(tap_count=tap_count, rng_seed=seed)
    g = {k: (depth, rng, 0.0) for k, (depth, rng) in REFERENCE_GEOMETRY.items()}
    h_ab = generate_cir(g["a"], g["b"], env, cfg)
    h_ib = generate_cir(g["i"], g["b"], env, cfg)
    h_ij = generate_cir(g["i"], g["j"], env, cfg)
    return h_ab, h_ib, h_ij


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else math.nan


def preset_sinr_vs_snr(preset: ExperimentPreset) -> str:
    """Effective SINR of the reference link versus acoustic SNR, for the
    TR-based simultaneous transmissions (one interfering link active) and
    the single direct transmission, at several up/down-sampling factors."""
    d_factors = _list_param(preset, "d_factors", _D_FACTOR, (1, 2, 4, 8))
    # 40..80 dB, artifact-chosen
    snr_grid = _list_param(preset, "snr_db_grid", number(), [40.0 + 2.0 * k for k in range(21)])
    tap_count = _param(preset, *_TAPS)
    seed = preset.seeds[0]
    h_ab, h_ib, h_ij = _reference_links(seed, tap_count)

    rows = []
    for d in d_factors:
        # the noise-free powers depend on D only
        phy = PhyConfig(avg_transmit_power=1.0, updown_factor=d, min_required_sinr=0.5)
        sig, isi, ili = p_sig(h_ab, phy), p_isi(h_ab, phy), p_ili(h_ib, h_ij, phy)
        peak, isi_sum = sdt_signal_and_isi(h_ab, d)
        for snr_db in snr_grid:
            sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)
            phy = PhyConfig(avg_transmit_power=1.0, noise_variance=sigma2,
                            updown_factor=d, min_required_sinr=0.5)
            atrsts = sinr_atrsts_from_parts(sig, isi, [ili], phy)
            sdt = sinr_sdt_from_parts(peak, isi_sum, phy)
            rows.append([d, snr_db, _db(atrsts), _db(sdt)])
    path = os.path.join(preset.output_dir, "sinr_vs_snr.csv")
    prov = f"# preset=sinr_vs_snr config={_params_hash(preset, tap_count=tap_count)} seeds={seed}"
    return _write_csv(path, prov, ["d_factor", "snr_db", "sinr_atrsts_db", "sinr_sdt_db"], rows)


def preset_sinr_vs_eta(preset: ExperimentPreset) -> str:
    """Effective SINR of the reference link versus the peak normalized
    cross-correlation between the interfering link and the victim-bound
    channel, with the measured off-peak structure held fixed."""
    d_factors = _list_param(preset, "d_factors", _D_FACTOR, (1, 2, 4, 8))
    eta_grid = _list_param(preset, "eta_grid", _ETA, [round(0.05 * k, 2) for k in range(19)])  # 0 .. 0.9
    snr_db = _param(preset, "snr_db", number(), 65.0)
    tap_count = _param(preset, *_TAPS)
    seed = preset.seeds[0]
    h_ab, h_ib, h_ij = _reference_links(seed, tap_count)
    sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)

    rows = []
    for d in d_factors:
        phy = PhyConfig(avg_transmit_power=1.0, noise_variance=sigma2,
                        updown_factor=d, min_required_sinr=0.5)
        sig = p_sig(h_ab, phy)
        isi = p_isi(h_ab, phy)
        _, offpeak = crosscorr_sampled_stats(h_ib, h_ij, d)
        for eta in eta_grid:
            ili = ili_power_from_parts(norm(h_ib), float(eta), offpeak, phy)
            rows.append([d, eta, _db(sinr_atrsts_from_parts(sig, isi, [ili], phy))])
    path = os.path.join(preset.output_dir, "sinr_vs_eta.csv")
    prov = (f"# preset=sinr_vs_eta config={_params_hash(preset, tap_count=tap_count, snr_db=snr_db)} "
            f"seeds={seed} snr_db={snr_db}")
    return _write_csv(path, prov, ["d_factor", "eta", "sinr_db"], rows)


def _parsed(name: str, key: str, rule: Rule, value):
    """``value`` converted by its rule; ValueError naming the preset and key."""
    try:
        return rule.parse(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {key}: expected {exc}, got {value!r}") from None


def _param(preset: ExperimentPreset, key: str, rule: Rule, default):
    """A preset parameter converted by its rule; ValueError naming the preset and key."""
    return _parsed(preset.name, key, rule, preset.params.get(key, default))


def _list_param(preset: ExperimentPreset, key: str, rule: Rule, default) -> tuple:
    """A list parameter's items as given (``default`` when it is absent or
    null), each already of the kind ``rule`` converts to and within its
    bound; ValueError naming the preset and key when it is no such
    nonempty list."""
    value = preset.params.get(key)
    if value is None:
        value = default
    try:
        if isinstance(value, str):  # "trmac" would iterate as letters
            raise ValueError(value)
        items = tuple(value)
        if not items or any(rule.parse(item) != item for item in items):
            raise ValueError(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{preset.name}: {key}: expected a nonempty list, each item a {rule.expected}, got {value!r}"
        ) from None
    return items


def _grid_spot(params: dict, key: str, default: tuple[float, float]) -> tuple[tuple, Point]:
    """A reference node of the heatmap as given and as a ``(depth, range, 0)``
    point, checked as a node of ``network.nodes`` is."""
    value = params.get(key, default)
    try:
        if isinstance(value, str):  # "70" would unpack to two digits
            raise ValueError(value)
        spot = tuple(value)
        return spot, NODES.parse([(*spot, 0.0)])[0]
    except (TypeError, ValueError):
        raise ValueError(
            f"correlation_heatmap: {key}: expected a finite (depth >= 0, range) pair, got {value!r}"
        ) from None


def preset_correlation_heatmap(preset: ExperimentPreset) -> str:
    """|eta| between the reference link and the link from the reference
    transmitter to a probe node swept over (depth, range) cells."""
    params = preset.params
    depth_step = _param(preset, "depth_step", number(POSITIVE), 5.0)
    range_step = _param(preset, "range_step", number(POSITIVE), 50.0)
    water_depth = _param(preset, "water_depth", number(POSITIVE), 80.0)
    max_range = _param(preset, "max_range", number(POSITIVE), 4000.0)
    tap_count = _param(preset, *_TAPS)
    tx_spot, tx = _grid_spot(params, "reference_tx", REFERENCE_GEOMETRY["i"])
    rx_spot, rx = _grid_spot(params, "reference_rx", REFERENCE_GEOMETRY["j"])
    seed = preset.seeds[0]

    env = Environment(water_depth=water_depth)
    cfg = ChannelModelConfig(tap_count=tap_count, rng_seed=seed)
    h_ref = generate_cir(tx, rx, env, cfg)

    # cells are (depth, x, y) points, as generate_taps takes them
    depths = [round(k * depth_step, 9) for k in range(int(water_depth / depth_step) + 1)]
    ranges = [round(k * range_step, 9) for k in range(int(max_range / range_step) + 1)]
    rows = []
    for depth in depths:
        cells = [(depth, rng, 0.0) for rng in ranges]
        linked = [cell for cell in cells if cell != tx]
        etas = []
        for k in range(0, len(linked), _PROBE_BLOCK):
            etas += normalized_cross_correlations(
                generate_taps(tx, linked[k : k + _PROBE_BLOCK], env, cfg), h_ref, 0)
        etas = iter(etas)
        for cell in cells:
            # the cell at the reference transmitter is an undefined link to itself
            rows.append((depth, cell[1], math.nan if cell == tx else abs(next(etas))))
    path = os.path.join(preset.output_dir, "correlation_heatmap.csv")
    config = _params_hash(preset, depth_step=depth_step, range_step=range_step, water_depth=water_depth,
                          max_range=max_range, tap_count=tap_count)
    prov = (f"# preset=correlation_heatmap config={config} "
            f"seeds={seed} reference_tx={tx_spot} reference_rx={rx_spot}")
    return _write_csv(path, prov, ["depth_m", "range_m", "eta_abs"], rows)


def _network_scenario_dict(seed: int, protocol: str, duration: float, params: dict) -> dict:
    # a deep copy: callers fill in sections, and params must stay as given
    data = copy.deepcopy(params.get("scenario", {}))
    data["seed"] = seed
    data["duration_s"] = duration
    data.setdefault("mac", {})["protocol"] = protocol
    return data


def _nested_load_scenarios(seed: int, duration: float, loads, protocols, params) -> list[dict]:
    """One resolved topology per seed; lighter loads reuse its first routes."""
    max_links = max(loads)
    base_dict = _network_scenario_dict(seed, protocols[0], duration, params)
    base_dict.setdefault("network", {})["link_count"] = max_links
    base = scenario_from_dict(base_dict)
    jobs = []
    for links in loads:
        for protocol in protocols:
            d = scenario_to_dict(base)
            d["network"]["routes"] = [list(r) for r in base.network.routes[:links]]
            d["mac"]["protocol"] = protocol
            jobs.append({"links": links, "protocol": protocol, "seed": seed, "scenario": d})
    return jobs


def _run_network_job(job: dict, scenario, links: LinkTable) -> dict:
    metrics = Simulator(scenario, links=links).run(job.get("sample_every")).metrics
    return {
        "links": job["links"],
        "protocol": job["protocol"],
        "seed": job["seed"],
        "generated": metrics.generated,
        "delivered": metrics.delivered,
        "dropped": metrics.dropped,
        "mean_delay_s": metrics.mean_delay,
        "drop_ratio": metrics.drop_ratio,
        "throughput_bps": metrics.throughput,
        "series": metrics.series,
    }


# the link tables of the running call by placement, in a pool worker
_worker_tables: dict[tuple, LinkTable] = {}


def _set_worker_tables(tables: dict[tuple, LinkTable]) -> None:
    global _worker_tables
    _worker_tables = tables


def _run_pooled_job(job: dict, scenario) -> dict:
    return _run_network_job(job, scenario, _worker_tables[placement(scenario)])


def run_network_jobs(jobs: list[dict], workers: int | None = None) -> list[dict]:
    """Run scenario jobs, in parallel when workers allows; results keep job order.

    A job's ``scenario`` mapping is resolved once, here, and one link table
    is built per placement and shared by its jobs: a pool gets the tables
    through its initializer.  A job with ``sample_every`` also returns the
    metric ``series``.
    """
    scenarios = [scenario_from_dict(job["scenario"]) for job in jobs]
    tables: dict[tuple, LinkTable] = {}
    for scenario in scenarios:
        key = placement(scenario)
        if key not in tables:
            tables[key] = LinkTable(scenario)
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_run_network_job(job, sc, tables[placement(sc)]) for job, sc in zip(jobs, scenarios)]
    from concurrent.futures import ProcessPoolExecutor  # a serial call never loads it

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_tables,
                             initargs=(tables,)) as pool:
        return list(pool.map(_run_pooled_job, jobs, scenarios))


def preset_load_sweep(preset: ExperimentPreset) -> str:
    """Delay / drop ratio / throughput for each protocol across network loads."""
    loads = _list_param(preset, "loads", integer(POSITIVE), (4, 6, 8, 10))
    protocols = _list_param(preset, "protocols", _PROTOCOL, PROTOCOLS)
    duration = _param(preset, "duration", number(POSITIVE), 2000.0)
    workers = _param(preset, "workers", _WORKERS, None)

    jobs = []
    for seed in preset.seeds:
        jobs.extend(_nested_load_scenarios(seed, duration, loads, protocols, preset.params))
    rows = [
        [r["links"], r["protocol"], r["seed"], r["generated"], r["delivered"], r["dropped"],
         r["mean_delay_s"], r["drop_ratio"], r["throughput_bps"]]
        for r in run_network_jobs(jobs, workers)
    ]
    path = os.path.join(preset.output_dir, "load_sweep.csv")
    prov = (f"# preset=load_sweep config={_params_hash(preset, duration=duration, workers=workers)} "
            f"seeds={','.join(str(s) for s in preset.seeds)}")
    header = ["links", "protocol", "seed", "generated", "delivered", "dropped",
              "mean_delay_s", "drop_ratio", "throughput_bps"]
    return _write_csv(path, prov, header, rows)


def preset_timeseries(preset: ExperimentPreset) -> str:
    """Cumulative metric-versus-time curves for each protocol at one load."""
    protocols = _list_param(preset, "protocols", _PROTOCOL, PROTOCOLS)
    duration = _param(preset, "duration", number(POSITIVE), 2000.0)
    sample_every = _param(preset, "sample_every", number(POSITIVE), 100.0)
    links = _param(preset, "links", integer(POSITIVE), 10)
    # in-process unless asked: a pool saves little beyond its start-up on
    # three runs, and in-process runs stay visible to a profiler
    workers = _param(preset, "workers", _WORKERS, 1)
    seed = preset.seeds[0]

    jobs = []
    for protocol in protocols:
        data = _network_scenario_dict(seed, protocol, duration, preset.params)
        data.setdefault("network", {})["link_count"] = links
        jobs.append({"links": links, "protocol": protocol, "seed": seed, "scenario": data,
                     "sample_every": sample_every})
    rows = [
        [r["protocol"], row["time"], row["mean_delay"], row["drop_ratio"], row["throughput"]]
        for r in run_network_jobs(jobs, workers)
        for row in r["series"]
    ]
    path = os.path.join(preset.output_dir, "timeseries.csv")
    config = _params_hash(preset, duration=duration, links=links, workers=workers,
                          sample_every=sample_every)
    prov = f"# preset=timeseries config={config} seeds={seed} links={links}"
    header = ["protocol", "time_s", "mean_delay_s", "drop_ratio", "throughput_bps"]
    return _write_csv(path, prov, header, rows)


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
