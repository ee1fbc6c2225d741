"""Per-layer host-time tracing of uwansim, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``uwansim.sim``, ``mac``, ``tr_phy``, ``channel``, ``scenario``,
``presets``) and a few methods of their classes with timing wrappers.
``from .x import f`` binds ``f`` in the importing module at import time, so
a function is replaced in every ``uwansim`` module namespace that holds
it, not only where it is defined.  The ``heapq`` that ``uwansim.sim``
looks up is swapped for one whose ``heappush`` counts pushes.

Each call records a span (name, start, end, parent span) in memory.
``summary`` turns the spans of one repetition into per-layer numbers: a
layer's self time is the duration of its spans minus the time covered by
their child spans, and ``other.self_s`` is the part of the timed window no
span covers, so the self times add up to the traced wall time.

Pool workers forked while the tracer is installed inherit the wrappers;
there they call straight through, because their spans could not be
collected.  ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import heapq
import inspect
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("sim", "mac", "tr_phy", "channel", "scenario", "presets")

_MAC_HOOKS = ("enqueue", "on_frame", "on_timer", "on_tx_start")

# Methods traced in addition to each layer module's public functions; a
# method is wrapped on each listed class whose own __dict__ defines it.
METHODS = {
    "sim": {"Simulator": ("__init__", "run", "busy_until")},
    "mac": {"MacEngine": _MAC_HOOKS, "TrmacEngine": _MAC_HOOKS + ("compute_backoff",),
            "CsmaEngine": _MAC_HOOKS},
    "channel": {"ChannelModel": ("cir", "propagation_delay")},
    "scenario": {"Scenario": ("resolved",)},
}

# per-layer metric -> (span name, reported statistics)
CALL_METRICS = {
    "sim.busy_until": ("sim.Simulator.busy_until", ("calls", "us")),
    "sim.collect_metrics": ("sim.collect_metrics", ("calls", "s")),
    "mac.compute_backoff": ("mac.TrmacEngine.compute_backoff", ("calls", "s")),
    **{f"tr_phy.{fn}": (f"tr_phy.{fn}", ("calls", "us")) for fn in (
        "p_sig", "p_isi", "p_ili", "eta_threshold", "sinr_atrsts", "sinr_sdt",
        "sdt_signal_and_isi", "autocorr_offpeak_sum")},
    **{f"channel.{fn}": (f"channel.{fn}", ("calls", "us")) for fn in (
        "generate_cir", "normalized_cross_correlation", "peak_eta")},
    "scenario.from_dict": ("scenario.scenario_from_dict", ("calls", "s")),
    "presets.run_network_jobs": ("presets.run_network_jobs", ("s",)),
}

ENGINE_STATS = ("handshake_omissions", "step4_deferrals", "drops")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".us", "us_per_event")):
        return "us"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_ratio", "_per_frame")):
        return "1"
    return "count"


class Tracer:
    """Records spans and counts for the uwansim package while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []
        self.active = False

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self):
        counts = self.counts

        def run_result(args, result):
            for key in ENGINE_STATS:
                counts[f"engine.{key}"] += result.engine_stats.get(key, 0)

        def tx_start(args, result):
            if args[1].kind.name == "P_R":
                counts["frames.P_R"] += 1

        def jobs(args, result):
            counts["presets.jobs"] += len(args[0])

        return {"sim.Simulator.run": run_result, "mac.TrmacEngine.on_tx_start": tx_start,
                "presets.run_network_jobs": jobs}

    def _set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        observers = self._observers()
        replacements = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not fname.startswith("_"):
                    span = f"{layer}.{fname}"
                    replacements[id(fn)] = self._wrap(span, fn, observers.get(span))
            for cname, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cname)
                for meth in methods:
                    if meth in cls.__dict__:
                        span = f"{layer}.{cname}.{meth}"
                        self._set(cls, meth, self._wrap(span, cls.__dict__[meth], observers.get(span)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._set(module, attr, replacements[id(value)])

        counts = self.counts

        def heappush(heap, item, _push=heapq.heappush):
            counts["sim.events"] += 1
            _push(heap, item)

        sim = sys.modules[f"{package.__name__}.sim"]
        counting = types.SimpleNamespace(**{n: getattr(heapq, n) for n in heapq.__all__})
        counting.heappush = heappush
        self._set(sim, "heapq", counting)
        os.register_at_fork(after_in_child=self._deactivate)
        self.active = True
        return self

    def _deactivate(self) -> None:
        self.active = False

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # ------------------------------------------------------------- results

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def summary(self, t0: float, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since ``reset``.

        Self times cover the spans that start after ``t0``, when the timed
        parts began, and ``wall`` is the host time of those parts; call
        counts and per-call times cover the whole repetition, set-up
        included.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            inclusive[name] += end - start
            if start >= t0:
                self_s[name.split(".", 1)[0]] += (end - start) - child[k]
                if parent < 0:
                    covered += end - start

        counts = self.counts
        out = {"traced_wall_s": wall}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["other.self_s"] = wall - covered

        events = counts["sim.events"]
        frames = sum(calls[n] for n in calls if n.endswith(".on_tx_start"))
        out["sim.events"] = events
        out["sim.events_per_frame"] = events / frames if frames else 0.0
        out["sim.us_per_event"] = 1e6 * self_s["sim"] / events if events else 0.0
        out["mac.calls"] = sum(calls[n] for n in calls
                               if n.startswith("mac.") and n.rsplit(".", 1)[1] in _MAC_HOOKS)
        out["mac.frames_tx"] = frames
        for key in ENGINE_STATS:
            out[f"mac.{key}"] = counts[f"engine.{key}"]
        omissions = counts["engine.handshake_omissions"]
        attempts = omissions + counts["frames.P_R"]
        out["mac.omission_ratio"] = omissions / attempts if attempts else 0.0
        out["presets.jobs"] = counts["presets.jobs"]
        for metric, (span, stats) in CALL_METRICS.items():
            n = calls[span]
            for stat in stats:
                if stat == "calls":
                    out[f"{metric}.calls"] = n
                elif stat == "s":
                    out[f"{metric}.s"] = inclusive[span]
                else:
                    out[f"{metric}.us"] = 1e6 * inclusive[span] / n if n else 0.0
        return out


def installed_wrappers(package) -> list[str]:
    """Names of traced wrappers still reachable in the package (for checks)."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != package.__name__ and not name.startswith(package.__name__ + "."):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__qualname__", "").endswith("_wrap.<locals>.traced"):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__qualname__", "").endswith("_wrap.<locals>.traced"):
                        found.append(f"{name}.{attr}.{meth}")
        if name.endswith(".sim") and getattr(module, "heapq", heapq) is not heapq:
            found.append(f"{name}.heapq")
    return found
