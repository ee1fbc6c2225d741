"""Golden CSV text of the network presets.

``tests/golden/presets.json`` holds the exact text that ``load_sweep``
(loads 4 and 10) and ``timeseries`` (10 links, a sample every 30 s) write
for seed 1 over 300 simulated seconds: provenance line, header and every
row.  The comparison is exact.  A change that is meant to alter simulated
results re-records the file and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_presets.py

A change made only for speed or structure must never re-record it.
"""

import json
import os

import pytest

from uwansim.presets import ExperimentPreset, run_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "presets.json")

PRESETS = {
    "load_sweep": {"loads": [4, 10], "duration": 300.0, "workers": 1},
    "timeseries": {"links": 10, "duration": 300.0, "sample_every": 30.0},
}


def preset_csv(name: str, out_dir: str) -> str:
    preset = ExperimentPreset(name, params=dict(PRESETS[name]), seeds=(1,), output_dir=out_dir)
    with open(run_preset(preset), encoding="utf-8", newline="") as fh:
        return fh.read()


def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_golden_preset_csv(name, tmp_path):
    assert preset_csv(name, str(tmp_path)) == _load()[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: preset_csv(name, tmp) for name in sorted(PRESETS)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
