#!/usr/bin/env python3
"""Record the expected simulated outputs of one workload and seed.

    python3 perfbench/record.py --workload reference --seed 1

Writes ``perfbench/expected/<workload>-seed<N>.json.gz`` from one run of
the checked-out code.  It refuses to replace an existing recording: a
change that alters simulated results must delete the file on purpose and
say why.  PHY values, which are compared to a relative tolerance of
1e-9, are stored to 12 significant digits.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import sys

import worker
import workloads


def _round(value):
    if isinstance(value, float) and math.isfinite(value) and value != 0.0:
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    path = workloads.expected_path(args.workload, args.seed)
    if path.exists():
        print(f"error: {path} exists; delete it first to re-record", file=sys.stderr)
        return 1
    uw = worker.import_uwansim()
    workdir = worker.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, _, outputs, _ = worker._rep(uw, args.workload, args.seed,
                                       workloads.SIZES["full"][args.workload], workdir, worker.SpeedProbe(), None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for part, out in outputs.items():
        if isinstance(out, Exception):
            print(f"error: {part} raised {out!r}", file=sys.stderr)
            return 1
    if workloads.WORKLOADS[args.workload][2]:
        outputs = _round(outputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps({"workload": args.workload, "seed": args.seed, "parts": outputs},
                             sort_keys=True).encode("utf-8"))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
