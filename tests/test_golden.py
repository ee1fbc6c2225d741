"""Golden fingerprint: the simulator's outputs must not change by accident.

``tests/golden/fingerprint.json`` holds, for each case, the scenario and
what the engine produced for it: the ``metrics.csv`` fields, the summed MAC
``engine_stats`` and SHA-256 digests of the raw run trace and (for the
small scenarios) of the debug event log.  The cases are the default
20-node scenario for seeds 1-3 under each protocol, and twenty small,
dense, high-load random networks per protocol (3-6 nodes within 1 km, a
few seconds between packets), where overlapping arrivals, receiver-lock
clashes and carrier-sense deferrals are frequent.

The comparison is exact.  A change that is meant to alter simulated
results re-records the file and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py

A change made only for speed or structure must never re-record it.
"""

import collections
import copy
import hashlib
import json
import math
import os

import numpy as np
import pytest

from uwansim.mac import PROTOCOLS, Arm
from uwansim.scenario import scenario_from_dict
from uwansim.sim import Simulator, run_scenario

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fingerprint.json")

METRIC_FIELDS = {
    "generated": "generated",
    "delivered": "delivered",
    "dropped": "dropped",
    "in_flight": "in_flight",
    "mean_delay_s": "mean_delay",
    "drop_ratio": "drop_ratio",
    "throughput_bps": "throughput",
    "busy_time_s": "busy_time",
    "data_frames_transmitted": "data_frames_transmitted",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(config: dict, with_events: bool) -> dict:
    """Outputs of one run, as exact strings (``str`` of a float round-trips)."""
    result = run_scenario(scenario_from_dict(copy.deepcopy(config)), record_events=with_events)
    m, trace = result.metrics, result.trace
    out = {
        "metrics": {name: str(getattr(m, attr)) for name, attr in METRIC_FIELDS.items()},
        "engine_stats": dict(sorted(result.engine_stats.items())),
        "trace_sha256": _digest((trace.generated, trace.deliveries, trace.drops,
                                 trace.data_tx_times, trace.busy_intervals, trace.rx_success)),
    }
    if with_events:
        out["events_sha256"] = _digest(trace.events)
    return out


def make_cases() -> list[dict]:
    """The recorded scenarios; only used when (re-)recording."""
    cases = []
    for protocol in PROTOCOLS:
        for seed in (1, 2, 3):
            cases.append({"id": f"default-{protocol}-seed{seed}", "events": False,
                          "scenario": {"seed": seed, "mac": {"protocol": protocol}}})
    rng = np.random.default_rng(20190315)
    for protocol in PROTOCOLS:
        for k in range(20):
            n = int(rng.integers(3, 7))
            # inside a 450-m disc and 5-50 m deep every pair is within 1 km
            radius = 450.0 * np.sqrt(rng.uniform(0.0, 1.0, n))
            angle = rng.uniform(0.0, 2 * np.pi, n)
            nodes = [[round(float(rng.uniform(5.0, 50.0)), 1),
                      round(float(500.0 + r * np.cos(a)), 1),
                      round(float(500.0 + r * np.sin(a)), 1)] for r, a in zip(radius, angle)]
            routes = []
            for _ in range(int(rng.integers(2, 5))):
                hops = 3 if n >= 4 and rng.random() < 0.3 else 2
                routes.append([int(v) for v in rng.choice(n, size=hops, replace=False)])
            cases.append({"id": f"dense-{protocol}-{k:02d}", "events": True, "scenario": {
                "seed": int(rng.integers(1, 2**31)),
                "duration_s": 300.0,
                "mac": {"protocol": protocol},
                "traffic": {"mean_interarrival_s": round(float(rng.uniform(0.5, 3.0)), 2)},
                "network": {"nodes": nodes, "routes": routes},
            }})
    return cases


def _load() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


CASES = _load() if os.path.exists(GOLDEN) else []


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_fingerprint(case):
    assert fingerprint(case["scenario"], case["events"]) == case["expected"]


def _watch(engine, network, checked):
    """Wrap the engine's hooks to check, at every call, what the engine takes
    as given: a "response" timer that reaches it finds the phase and packet
    current when it was armed, and every next hop it is given is within
    ``network.hop_limit``."""
    armed = {}

    def recording(hook):
        def call(*args):
            actions = hook(*args)
            if any(isinstance(a, Arm) and a.key == "response" for a in actions):
                armed["response"] = (engine.phase, engine.current[0].packet_id)
            return actions
        return call

    on_timer, enqueue = recording(engine.on_timer), recording(engine.enqueue)

    def timer(key, now):
        if key == "response":
            assert engine.current is not None
            assert (engine.phase, engine.current[0].packet_id) == armed["response"]
            checked["response"] += 1
        return on_timer(key, now)

    def enqueued(packet, dst, now):
        assert math.dist(network.nodes[engine.node_id], network.nodes[dst]) <= network.hop_limit
        checked["enqueue"] += 1
        return enqueue(packet, dst, now)

    engine.on_timer, engine.enqueue = timer, enqueued
    engine.on_frame, engine.on_tx_start = recording(engine.on_frame), recording(engine.on_tx_start)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engines_find_what_their_timers_and_routes_promise(protocol):
    """The engines keep no check of their own that a response timer is not
    stale or that a next hop is in range: the simulator's timer generations
    and ``validate_scenario`` make both hold.  This pins both on every dense
    case of the protocol."""
    checked = collections.Counter()
    for case in CASES:
        if case["id"].startswith(f"dense-{protocol}-"):
            sim = Simulator(scenario_from_dict(copy.deepcopy(case["scenario"])))
            for state in sim.nodes:
                _watch(state.engine, sim.scenario.network, checked)
            sim.run()
    assert checked["response"] > 100 and checked["enqueue"] > 100, checked


def test_golden_covers_all_protocols():
    protocols = {c["scenario"]["mac"]["protocol"] for c in CASES}
    assert protocols == set(PROTOCOLS)
    assert len(CASES) == 3 * 3 + 3 * 20


if __name__ == "__main__":
    recorded = []
    for case in make_cases():
        case["expected"] = fingerprint(case["scenario"], case["events"])
        recorded.append(case)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"cases": recorded}, fh, indent=1)
        fh.write("\n")
