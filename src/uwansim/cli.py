"""Command-line front end: run scenarios, execute presets, validate configs."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .channel import ChannelModel
from .mac import PROTOCOLS
from .presets import PRESET_NAMES, PRESETS, ExperimentPreset, run_preset
from .scenario import ScenarioError, config_hash, load_scenario, read_scenario_file, scenario_from_dict
from .sim import run_scenario


def _load(path: str, overrides: argparse.Namespace):
    # the overrides edit the file's own mapping, as editing the file would,
    # and the result is resolved once: a placement the file does not give
    # follows --seed, and one it gives is kept unless --reseed-topology
    data = read_scenario_file(path) if path else {}
    if overrides.seed is not None:
        data["seed"] = overrides.seed
    if overrides.reseed_topology:
        _edit_section(data, "network", nodes=None, routes=None)
    if overrides.duration is not None:
        data["duration_s"] = overrides.duration
    if overrides.protocol:
        _edit_section(data, "mac", protocol=overrides.protocol)
    return scenario_from_dict(data)


def _edit_section(data: dict, key: str, **values) -> None:
    """Set ``values`` in a copy of the section ``key`` of ``data``; a null
    section reads as empty, and one that is no mapping is left for
    ``scenario_from_dict`` to refuse by name."""
    section = {} if data.get(key) is None else data[key]
    if isinstance(section, dict):
        data[key] = {**section, **values}


def _write_run_csv(path: str, scenario, header: list[str], rows) -> None:
    """The provenance line ``# config=<hash> seed=<seed>``, the header and
    the rows, each field as ``str`` writes it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config={config_hash(scenario)} seed={scenario.seed}\n")
        for row in [header, *rows]:
            fh.write(",".join(map(str, row)) + "\n")


def _cmd_run(args) -> int:
    scenario = _load(args.scenario, args)
    result = run_scenario(scenario, sample_every=args.sample_every,
                          record_events=args.trace is not None)
    metrics = result.metrics
    out_dir = args.out
    _write_run_csv(os.path.join(out_dir, "metrics.csv"), scenario,
                   ["generated", "delivered", "dropped", "in_flight", "mean_delay_s",
                    "drop_ratio", "throughput_bps", "busy_time_s", "data_frames_transmitted"],
                   [[metrics.generated, metrics.delivered, metrics.dropped, metrics.in_flight,
                     metrics.mean_delay, metrics.drop_ratio, metrics.throughput,
                     metrics.busy_time, metrics.data_frames_transmitted]])
    if args.sample_every is not None:
        _write_run_csv(os.path.join(out_dir, "metrics_series.csv"), scenario,
                       ["time_s", "mean_delay_s", "drop_ratio", "throughput_bps"],
                       [[row["time"], row["mean_delay"], row["drop_ratio"], row["throughput"]]
                        for row in metrics.series])
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for record in result.trace.events:
                fh.write(json.dumps(record) + "\n")
    delay = "nan" if math.isnan(metrics.mean_delay) else f"{metrics.mean_delay:.3f}"
    print(
        f"{scenario.mac.protocol}: generated={metrics.generated} delivered={metrics.delivered} "
        f"dropped={metrics.dropped} mean_delay={delay}s in_flight={metrics.in_flight} "
        f"drop_ratio={metrics.drop_ratio:.4f} throughput={metrics.throughput:.1f}bps"
    )
    if 2 * metrics.in_flight > metrics.generated:
        # a MAC that never sends its queued packets drops few of the frames it does send
        print(f"warning: {metrics.in_flight} of {metrics.generated} generated packets are still in "
              "flight at the end: the network is saturated, and drop_ratio counts only the data "
              "frames that were transmitted", file=sys.stderr)
    print(f"metrics written to {os.path.join(out_dir, 'metrics.csv')}")
    return 0


def _cmd_preset(args) -> int:
    given = {"--duration": ("duration", args.duration), "--jobs": ("workers", args.jobs),
             "--loads": ("loads", None if args.loads is None else tuple(args.loads))}
    params: dict = {}
    for flag, (key, value) in given.items():
        if value is not None:
            if key not in PRESETS[args.name].params:
                raise ValueError(f"preset {args.name} does not read {flag}")
            params[key] = value
    preset = ExperimentPreset(
        name=args.name,
        params=params,
        seeds=tuple(args.seeds) if args.seeds else (args.seed if args.seed is not None else 1,),
        output_dir=args.out,
    )
    path = run_preset(preset)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    # draws every pair's channel as a run's LinkTable does, which is where a
    # run refuses a channel, but keeps none of them
    pairs = ChannelModel(scenario.environment, scenario.channel).pairs(scenario.network.nodes, scenario.seed)
    for _ in pairs:
        pass
    print(f"OK: {args.scenario} (config={config_hash(scenario)}, "
          f"{len(scenario.network.nodes)} nodes, {len(scenario.network.routes)} routes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwansim",
        description="Simulate multi-hop underwater acoustic networks with a "
                    "time-reversal physical layer and MAC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write metrics CSV")
    run_p.add_argument("scenario", nargs="?", default=None, help="scenario YAML (defaults when omitted)")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--reseed-topology", action="store_true",
                       help="regenerate node placement for the overridden seed")
    run_p.add_argument("--duration", type=float, default=None)
    run_p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--sample-every", type=float, default=None,
                       help="also write cumulative metric series at this period")
    run_p.add_argument("--trace", default=None, help="write an NDJSON event trace here")
    run_p.set_defaults(func=_cmd_run)

    preset_p = sub.add_parser("preset", help="run a canned experiment preset")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    preset_p.add_argument("--out", default=".", help="output directory")
    seeds = preset_p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None)
    seeds.add_argument("--seeds", type=int, nargs="+", default=None)
    preset_p.add_argument("--duration", type=float, default=None)
    preset_p.add_argument("--loads", type=int, nargs="+", default=None)
    preset_p.add_argument("--jobs", type=int, default=None, help="parallel run workers")
    preset_p.set_defaults(func=_cmd_preset)

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "reseed_topology", False) and args.seed is None:
        parser.error("argument --reseed-topology: needs --seed")
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
