"""Golden CSV text of the presets.

``tests/golden/presets.json`` holds, for seed 1, the exact text (provenance
line, header and every row) that these presets write:

* ``load_sweep`` (loads 4 and 10) and ``timeseries`` (10 links, a sample
  every 30 s) over 300 simulated seconds;
* ``timeseries_warmup``: the same ``timeseries`` with a 45-s warmup and a
  sample every 7 s, so some samples fall before the warmup and the float
  sample clock does not land on the duration;
* ``correlation_heatmap`` on a 10 m x 250 m grid, which keeps the NaN cell
  of the reference transmitter;
* ``sinr_vs_snr`` and ``sinr_vs_eta`` at 1025 taps on five grid points.

Under ``sha256`` it holds the digest of the heatmap CSV at the benchmark
grid (1 m x 10 m, 129 taps, 32,481 cells).  Every comparison is exact.  A
change that is meant to alter results re-records the file and says why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden_presets.py

A change made only for speed or structure must never re-record it.
"""

import hashlib
import json
import os

import pytest

from uwansim.presets import ExperimentPreset, run_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "presets.json")

# golden key -> (preset name, params)
PRESETS = {
    "load_sweep": ("load_sweep", {"loads": [4, 10], "duration": 300.0, "workers": 1}),
    "timeseries": ("timeseries", {"links": 10, "duration": 300.0, "sample_every": 30.0}),
    "timeseries_warmup": ("timeseries", {"links": 10, "duration": 300.0, "sample_every": 7.0,
                                         "scenario": {"warmup_s": 45.0}}),
    "correlation_heatmap": ("correlation_heatmap", {"depth_step": 10.0, "range_step": 250.0}),
    "sinr_vs_snr": ("sinr_vs_snr", {"tap_count": 1025, "snr_db_grid": [40.0, 50.0, 60.0, 70.0, 80.0]}),
    "sinr_vs_eta": ("sinr_vs_eta", {"tap_count": 1025, "eta_grid": [0.0, 0.2, 0.45, 0.7, 0.9]}),
}

# pinned by digest only: the full text would be ~1.3 MB
DIGESTS = {
    "correlation_heatmap_benchmark_grid": (
        "correlation_heatmap", {"depth_step": 1.0, "range_step": 10.0, "tap_count": 129}
    ),
}


def preset_csv(name: str, params: dict, out_dir: str) -> str:
    preset = ExperimentPreset(name, params=dict(params), seeds=(1,), output_dir=out_dir)
    with open(run_preset(preset), encoding="utf-8", newline="") as fh:
        return fh.read()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(PRESETS))
def test_golden_preset_csv(key, tmp_path):
    name, params = PRESETS[key]
    assert preset_csv(name, params, str(tmp_path)) == _load()[key]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_golden_preset_csv_digest(key, tmp_path):
    name, params = DIGESTS[key]
    assert _sha256(preset_csv(name, params, str(tmp_path))) == _load()["sha256"][key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {key: preset_csv(name, params, tmp) for key, (name, params) in sorted(PRESETS.items())}
        recorded["sha256"] = {
            key: _sha256(preset_csv(name, params, tmp)) for key, (name, params) in sorted(DIGESTS.items())
        }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
