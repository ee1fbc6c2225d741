"""One benchmark process: set up a workload, and time or trace it.

    python3 perfbench/worker.py {setup|measure|trace} WORKLOAD SEED SECONDS SIZE

``setup`` times ``import uwansim`` plus the workload's set-up once.
``measure`` repeats set-up and the timed step until SECONDS have passed.
``trace`` does the same with the tracer installed and removes it after.
The last line of standard output is a JSON object with the results.
``uwansim`` is imported from the checkout's ``src/``, so each commit
measures its own code.

Host speed on a shared machine drifts: a CPU can run at half speed for
a second or for minutes while the other CPU does not.  So each timed
part runs under a speed probe.  A timer signal interrupts the process
every ``PROBE_INTERVAL_S`` of wall time, and the handler times a fixed
calibration kernel of heap, dict and float work on the same CPU.  The
kernel's time is subtracted from the part, and the rest is scaled to the
reference speed, at which the kernel takes ``PROBE_REF_S``:
``scaled = (raw - kernels) * mean(PROBE_REF_S / kernel)``.  The samples
are evenly spaced in wall time, so the mean follows the speed the part
actually ran at.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0008


def _kernel_s() -> float:
    """Host time of a fixed mix of heap, dict and float work (about 1 ms)."""
    start = time.perf_counter()
    heap, table, acc = [], {}, 0.0
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 1e-3
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return time.perf_counter() - start


class SpeedProbe:
    """Times calls while sampling host speed; see the module docstring.

    A pool's wall time depends on the speed of every CPU it runs on, so
    pool workers forked during a timed call sample their own CPUs too and
    send the samples back through a pipe."""

    def __init__(self):
        self.samples: list[float] = []
        self.sampling = self.timing = self.in_worker = False
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        signal.signal(signal.SIGALRM, self._sample)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.in_worker = True
        if self.timing:
            os.set_blocking(self.write_fd, False)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum=None, frame=None) -> None:
        if self.sampling:  # a signal that arrives during a sample is dropped
            return
        self.sampling = True
        kernel = _kernel_s()
        if not self.in_worker:
            self.samples.append(kernel)
        else:
            try:
                os.write(self.write_fd, struct.pack("d", kernel))
            except BlockingIOError:
                pass  # pipe full: the parent has enough samples
        self.sampling = False

    def _worker_samples(self) -> list[float]:
        data = b""
        while True:
            try:
                chunk = os.read(self.read_fd, 65536)
            except BlockingIOError:
                break
            data += chunk
        return [k for (k,) in struct.iter_unpack("d", data)]

    def time(self, fn):
        """Return (result or exception, host seconds, scaled seconds)."""
        self.samples = []
        self._sample()  # at least one sample, even for a part shorter than the interval
        self.timing = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing part is counted, the rest still run
            result = exc
        finally:
            raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.timing = False
        samples = self.samples
        work = raw - sum(samples[1:])
        speeds = [PROBE_REF_S / k for k in samples + self._worker_samples()]
        return result, work, work * statistics.fmean(speeds)


def import_uwansim():
    sys.path.insert(0, str(ROOT / "src"))
    import uwansim

    return uwansim


def _rep(uw, name, seed, size, workdir, probe, tracer):
    """One repetition: set-up, then the timed parts under the speed probe.

    Returns host and scaled part times, outputs and the trace summary,
    whose times are scaled like the parts'."""
    if tracer is not None:
        tracer.reset()
    parts = workloads.WORKLOADS[name][0](uw, seed, size, workdir)
    results, raw, scaled = [], {}, {}
    t0 = time.perf_counter()
    for part, run, _ in parts:
        result, raw[part], scaled[part] = probe.time(run)
        results.append(result)
    summary = None
    if tracer is not None:
        t1 = time.perf_counter()
        # the probe's kernels ran inside the spans; scaling by the rep's
        # factor removes them evenly and keeps the self times summing up
        factor = sum(scaled.values()) / (t1 - t0)
        summary = {k: v * factor if tracing.unit(k) in ("s", "us") else v
                   for k, v in tracer.summary(t0, t1 - t0).items()}
    outputs = {}
    for (part, _, to_output), result in zip(parts, results):
        outputs[part] = result if isinstance(result, Exception) else to_output(result)
    return raw, scaled, outputs, summary


def measure(mode, name, seed, seconds, size_name, workdir) -> dict:
    uw = import_uwansim()
    size = workloads.SIZES[size_name][name]
    invariant, rel_tol = workloads.WORKLOADS[name][1:]
    expected = workloads.load_expected(name, seed, size_name)
    probe = SpeedProbe()
    tracer = tracing.Tracer().install(uw) if mode == "trace" else None

    walls, raw_walls, part_times, summaries, failures = [], [], {}, [], []
    first: dict = {}
    attempted = 0
    deadline = time.perf_counter() + seconds
    try:
        while True:
            raw, scaled, outputs, summary = _rep(uw, name, seed, size, workdir, probe, tracer)
            walls.append(sum(scaled.values()))
            raw_walls.append(sum(raw.values()))
            summaries.append(summary)
            for part, t in scaled.items():
                part_times.setdefault(part, []).append(t)
            for part, out in outputs.items():
                attempted += 1
                if isinstance(out, Exception):
                    failures.append(f"{part}: raised {type(out).__name__}: {out}")
                    continue
                if expected is not None:
                    problem = workloads.mismatch(out, expected.get(part), rel_tol, part)
                elif part not in first:
                    first[part] = out
                    problem = invariant(part, out, size)
                    problem = problem and f"{part}: {problem}"
                else:
                    problem = workloads.mismatch(out, first[part], 0.0, f"{part} (vs first repetition)")
                if problem:
                    failures.append(problem)
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "walls": walls,
        "raw_walls": raw_walls,
        "part_times": part_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "expected": "recorded" if expected is not None else "first repetition",
        "peak_rss_mb": (self_rss + pool_rss) / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        median_rep = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
        result["trace"] = summaries[median_rep]
        result["wrappers_left"] = tracing.installed_wrappers(uw)
    return result


def main(argv) -> int:
    mode, name, seed, seconds, size_name = argv
    seed, seconds = int(seed), float(seconds)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "setup":
            size = workloads.SIZES[size_name][name]

            def setup():
                workloads.WORKLOADS[name][0](import_uwansim(), seed, size, workdir)

            failure, raw, scaled = SpeedProbe().time(setup)
            if failure is not None:
                raise failure
            result = {"setup_s": scaled, "raw_setup_s": raw}
        else:
            result = measure(mode, name, seed, seconds, size_name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
