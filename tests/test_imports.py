"""Import budget: ``import uwansim`` loads no dependency that only some runs use.

PyYAML serves only scenario files and the process pool only ``workers`` >
1.  networkx serves nothing at run time: placement matches nodes with
``uwansim.matching``, and only the tests that check that port against
networkx import it.  Each check runs in a fresh interpreter, since this
one may have imported all of them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, tmp_path) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_placement_yaml_or_pool_modules(tmp_path):
    run_python(
        "import sys, uwansim\n"
        "loaded = {'networkx', 'yaml', 'concurrent.futures.process'} & set(sys.modules)\n"
        "assert not loaded, loaded\n",
        tmp_path,
    )


def test_phy_presets_run_without_networkx_or_yaml(tmp_path):
    run_python(
        "import sys\n"
        "sys.modules['networkx'] = sys.modules['yaml'] = None  # importing either now raises\n"
        "from uwansim import ExperimentPreset, run_preset\n"
        "for name, params in [\n"
        "    ('sinr_vs_snr', {'d_factors': (1,), 'snr_db_grid': (40.0,)}),\n"
        "    ('sinr_vs_eta', {'d_factors': (1,), 'eta_grid': (0.0,)}),\n"
        "    ('correlation_heatmap', {'depth_step': 40.0, 'range_step': 2000.0}),\n"
        "]:\n"
        "    run_preset(ExperimentPreset(name, params=params, output_dir='.'))\n",
        tmp_path,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "correlation_heatmap.csv", "sinr_vs_eta.csv", "sinr_vs_snr.csv"]


def test_a_network_is_placed_and_run_without_networkx(tmp_path):
    run_python(
        "import sys\n"
        "sys.modules['networkx'] = None  # importing it now raises\n"
        "from uwansim import Scenario, run_scenario\n"
        "scenario = Scenario(duration=60.0).resolved()\n"
        "assert len(scenario.network.routes) == 10, scenario.network.routes\n"
        "assert run_scenario(scenario).metrics.delivered > 0\n",
        tmp_path,
    )


def test_every_name_in_all_resolves():
    import uwansim

    assert [name for name in uwansim.__all__ if not hasattr(uwansim, name)] == []
    assert len(set(uwansim.__all__)) == len(uwansim.__all__)
