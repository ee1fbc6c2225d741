"""Command-line front end: run scenarios, execute presets, validate configs."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .channel import ChannelModel
from .mac import PROTOCOLS
from .presets import PARAMS, PRESET_NAMES, ExperimentPreset, run_preset
from .scenario import ScenarioError, config_hash, load_scenario, scenario_from_dict, scenario_to_dict
from .sim import run_scenario


def _load(path: str, overrides: argparse.Namespace):
    # a file's placement is explicit once resolved; without a file nothing
    # is, so the defaults (placement included) follow the overrides.  With a
    # file, --seed is the same as editing its seed: key
    data = scenario_to_dict(load_scenario(path)) if path else {}
    if overrides.seed is not None:
        data["seed"] = overrides.seed
        if getattr(overrides, "reseed_topology", False):
            data.setdefault("network", {}).pop("nodes", None)
            data["network"].pop("routes", None)
    if overrides.duration is not None:
        data["duration_s"] = overrides.duration
    if getattr(overrides, "protocol", None):
        data.setdefault("mac", {})["protocol"] = overrides.protocol
    return scenario_from_dict(data)


def _write_metrics_csv(path: str, scenario, metrics) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = ["generated", "delivered", "dropped", "in_flight", "mean_delay_s",
              "drop_ratio", "throughput_bps", "busy_time_s", "data_frames_transmitted"]
    row = [metrics.generated, metrics.delivered, metrics.dropped, metrics.in_flight,
           metrics.mean_delay, metrics.drop_ratio, metrics.throughput,
           metrics.busy_time, metrics.data_frames_transmitted]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config={config_hash(scenario)} seed={scenario.seed}\n")
        fh.write(",".join(header) + "\n")
        fh.write(",".join(str(v) for v in row) + "\n")


def _cmd_run(args) -> int:
    scenario = _load(args.scenario, args)
    result = run_scenario(scenario, sample_every=args.sample_every,
                          record_events=args.trace is not None)
    metrics = result.metrics
    out_dir = args.out
    _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), scenario, metrics)
    if metrics.series:
        series_path = os.path.join(out_dir, "metrics_series.csv")
        with open(series_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# config={config_hash(scenario)} seed={scenario.seed}\n")
            fh.write("time_s,mean_delay_s,drop_ratio,throughput_bps\n")
            for row in metrics.series:
                fh.write(f"{row['time']},{row['mean_delay']},{row['drop_ratio']},{row['throughput']}\n")
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
            if key not in PARAMS[args.name]:
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
