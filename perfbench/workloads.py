"""The benchmark's workloads and the checks on their simulated output.

A workload has a set-up step, which builds every Scenario, Simulator or
ExperimentPreset it needs, and a timed step made of named parts.  Each
part returns raw output (a RunResult or the path of a preset CSV); after
the timed step the raw output is turned into plain data and checked:

* against the outputs recorded under ``expected/`` for the seed, when a
  recording exists -- exactly for network runs and sweeps, to a relative
  tolerance of 1e-9 for the PHY maps (NaN equals NaN);
* otherwise against the first repetition of the same run (the simulator
  is deterministic) and against structural invariants.

Nothing here writes to ``expected/``; ``record.py`` does that on request.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

PROTOCOLS = ("trmac", "csma_ca", "s_csma_ca")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # recorded, but not to be used while writing a change
PHY_REL_TOL = 1e-9

# "full" is the benchmark; "tiny" runs every code path in about a second
# and exists for the self-tests.
SIZES = {
    "full": {
        "reference": {"duration": 2000.0},
        "sweep": {"loads": [4, 6, 8, 10], "sweep_duration": 500.0, "workers": 2,
                  "series_duration": 1000.0, "sample_every": 5.0},
        "phy_maps": {"depth_step": 1.0, "range_step": 10.0, "tap_count": 1025,
                     "snr_db_grid": [round(40.0 + 0.2 * k, 1) for k in range(201)],
                     "eta_grid": [round(0.005 * k, 3) for k in range(181)]},
    },
    "tiny": {
        "reference": {"duration": 60.0},
        "sweep": {"loads": [2, 4], "sweep_duration": 60.0, "workers": 2,
                  "series_duration": 60.0, "sample_every": 5.0},
        "phy_maps": {"depth_step": 10.0, "range_step": 500.0, "tap_count": 129,
                     "snr_db_grid": [40.0, 60.0, 80.0], "eta_grid": [0.0, 0.45, 0.9]},
    },
}


def _run_output(result) -> dict:
    """The metrics.csv fields and engine_stats of one network run."""
    m = result.metrics
    return {
        "generated": m.generated,
        "delivered": m.delivered,
        "dropped": m.dropped,
        "in_flight": m.in_flight,
        "mean_delay_s": m.mean_delay,
        "drop_ratio": m.drop_ratio,
        "throughput_bps": m.throughput,
        "busy_time_s": m.busy_time,
        "data_frames_transmitted": m.data_frames_transmitted,
        "engine_stats": dict(sorted(result.engine_stats.items())),
    }


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _csv_output(path: str) -> dict:
    """A preset CSV: its provenance comment, header and parsed rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        comment = fh.readline().rstrip("\n")
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_number(v) for v in row] for row in reader]
    return {"comment": comment, "header": header, "rows": rows}


def _reference_parts(uw, seed, size, workdir):
    """One default 2000-s run per protocol, in-process."""
    parts = []
    for protocol in PROTOCOLS:
        scenario = uw.scenario_from_dict(
            {"seed": seed, "duration_s": size["duration"], "mac": {"protocol": protocol}}
        )
        parts.append((protocol, uw.Simulator(scenario).run, _run_output))
    return parts


def _preset_parts(uw, seed, workdir, specs):
    parts = []
    for name, params in specs:
        preset = uw.ExperimentPreset(name, params=params, seeds=(seed,), output_dir=str(workdir))
        parts.append((name, lambda preset=preset: uw.run_preset(preset), _csv_output))
    return parts


def _sweep_parts(uw, seed, size, workdir):
    """load_sweep in a process pool, then the sampled timeseries."""
    return _preset_parts(uw, seed, workdir, [
        ("load_sweep", {"loads": size["loads"], "duration": size["sweep_duration"],
                        "workers": size["workers"]}),
        ("timeseries", {"links": 10, "duration": size["series_duration"],
                        "sample_every": size["sample_every"]}),
    ])


def _phy_parts(uw, seed, size, workdir):
    """The three PHY presets; no event engine runs."""
    return _preset_parts(uw, seed, workdir, [
        ("correlation_heatmap", {"depth_step": size["depth_step"], "range_step": size["range_step"],
                                 "tap_count": 129}),
        ("sinr_vs_snr", {"tap_count": size["tap_count"], "snr_db_grid": size["snr_db_grid"]}),
        ("sinr_vs_eta", {"tap_count": size["tap_count"], "eta_grid": size["eta_grid"]}),
    ])


def _reference_invariant(part, out, size):
    if out["delivered"] + out["dropped"] + out["in_flight"] != out["generated"]:
        return "generated != delivered + dropped + in_flight"
    if not 0.0 <= out["drop_ratio"] <= 1.0:
        return f"drop_ratio {out['drop_ratio']} outside [0, 1]"
    return None


def _sweep_invariant(part, out, size):
    if part == "load_sweep":
        want = len(size["loads"]) * len(PROTOCOLS)
    else:
        want = len(PROTOCOLS) * round(size["series_duration"] / size["sample_every"])
    return None if len(out["rows"]) == want else f"{len(out['rows'])} rows, expected {want}"


def _phy_invariant(part, out, size):
    if part == "correlation_heatmap":
        want = (round(80.0 / size["depth_step"]) + 1) * (round(4000.0 / size["range_step"]) + 1)
        nans = sum(1 for row in out["rows"] if math.isnan(row[2]))
        if nans != 1:
            return f"{nans} NaN cells, expected only the reference transmitter's own cell"
    elif part == "sinr_vs_snr":
        want = 4 * len(size["snr_db_grid"])
    else:
        want = 4 * len(size["eta_grid"])
    return None if len(out["rows"]) == want else f"{len(out['rows'])} rows, expected {want}"


# name -> (set-up, invariant check, relative tolerance against recordings)
WORKLOADS = {
    "reference": (_reference_parts, _reference_invariant, 0.0),
    "sweep": (_sweep_parts, _sweep_invariant, 0.0),
    "phy_maps": (_phy_parts, _phy_invariant, PHY_REL_TOL),
}


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-seed{seed}.json.gz"


def load_expected(workload: str, seed: int, size: str) -> dict | None:
    """Recorded outputs per part, or None when this seed was not recorded."""
    path = expected_path(workload, seed)
    if size != "full" or not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["parts"]


def mismatch(got, want, rel_tol: float, where: str = "") -> str | None:
    """Describe the first difference between two outputs, or return None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], rel_tol, f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length {len(got) if isinstance(got, list) else '-'} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, rel_tol, f"{where}[{k}]")
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return None
        if got == want or (rel_tol and math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)):
            return None
        return f"{where}: {got!r} != {want!r}"
    return None if got == want and type(got) is type(want) else f"{where}: {got!r} != {want!r}"
