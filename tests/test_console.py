"""Console-script cases run in a separate process, one table row each.

Each row writes its files into a fresh directory, runs
``python -m uwansim.cli`` from this checkout there with its argv and checks
the exit code and a line of stderr; no row may print a traceback.  A
refusal of the console script is a case in ``tests/test_cli.py``, which
calls ``uwansim.cli.main`` in this process; it is a row here only when it
needs a separate process.  CI adds only smoke runs of the installed
script, a no-skip run of the networkx comparison and ``perfbench``, never
a shell block for an error path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _full_line(text):
    return "^" + re.escape(text) + "$"


# id, argv, files to write, exit code, stderr pattern (a line matches it)
ROWS = [
    ("deleted-carrier-frequency", ["validate", "carrier.yaml"],
     {"carrier.yaml": "environment: {carrier_frequency_hz: 25000}\n"},
     2, _full_line("error: environment.carrier_frequency_hz: unknown field")),
    # the channel draws its taps with the scenario's seed; there is no second one
    ("deleted-channel-seed", ["validate", "channel-seed.yaml"],
     {"channel-seed.yaml": "channel: {rng_seed: 3}\n"},
     2, _full_line("error: channel.rng_seed: unknown field")),
    # whether channel.arrival_file names a file selects the channel model
    ("deleted-channel-model", ["validate", "channel-model.yaml"],
     {"channel-model.yaml": "channel: {model: arrival_file, arrival_file: arrivals.txt}\n"},
     2, _full_line("error: channel.model: unknown field")),
]


def _command():
    """The command line and the environment that run the CLI of this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "uwansim.cli"], {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("argv, files, code, pattern",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_console_script(tmp_path, argv, files, code, pattern):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    command, env = _command()
    proc = subprocess.run(command + argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert re.search(pattern, proc.stderr, re.MULTILINE), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
