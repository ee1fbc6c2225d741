import collections
import copy
import dataclasses
import gc
import json
import math
import os
import random
import re
import weakref

import numpy as np
import pytest

from uwansim.channel import ArrivalFileError, ArrivalTable, generate_cir, norm
from uwansim.mac import PROTOCOLS, TR_KINDS, Arm, Cancel, Frame, FrameKind, Packet
from uwansim.scenario import Scenario, ScenarioError, scenario_from_dict
from uwansim import channel as channel_module
from uwansim import sim as sim_module
from uwansim.sim import (EV_TIMER, HALF_DUPLEX, PROBE_CLASH, RECEIVER_LOCKED, SINR, LinkTable, MetricsRecord,
                         RunTrace, Simulator, collect_metrics, run_scenario)
from uwansim.tr_phy import (autocorr_offpeak_sum, p_ili, p_isi, p_sig, sdt_powers, sdt_signal_and_isi,
                            sinr_from_parts, tr_powers)


def single_link_scenario(**overrides):
    cfg = {
        "seed": 5,
        "duration_s": 60,
        "traffic": {"mean_interarrival_s": None},
        "network": {"nodes": [[20, 0, 0], [20, 1000, 0]], "routes": [[0, 1]]},
    }
    cfg.update(overrides)
    return scenario_from_dict(cfg)


T_PROP = 1000.0 / 1500.0
T_CTRL = 32.0 / 512.0
T_DATA = 256.0 / 512.0
ONE_HOP_DELAY = 2 * T_CTRL + T_DATA + 3 * T_PROP  # P_R + PRO + TR_DATA legs


# ------------------------------------------------------------ basic runs


def test_zero_duration_run_has_no_activity():
    sc = scenario_from_dict({"seed": 1, "duration_s": 0})
    m = run_scenario(sc).metrics
    assert m.generated == m.delivered == m.dropped == 0
    assert m.throughput == 0.0 and m.drop_ratio == 0.0


@pytest.mark.parametrize("change, key", [
    (lambda sc: {"warmup": math.inf}, "warmup_s"),
    (lambda sc: {"duration": -5.0}, "duration_s"),
    (lambda sc: {"network": dataclasses.replace(sc.network, routes=[(0, 1, 0)])}, "repeated node"),
], ids=["warmup", "duration", "route"])
def test_placed_scenario_is_checked_before_it_runs(change, key):
    placed = scenario_from_dict({"duration_s": 50})
    with pytest.raises(ScenarioError, match=key):
        Simulator(dataclasses.replace(placed, **change(placed)))


def test_unresolved_scenario_is_refused():
    with pytest.raises(ScenarioError, match=r"^network\.nodes: .*resolve"):
        Simulator(Scenario())
    placed = scenario_from_dict({"duration_s": 50})
    unrouted = dataclasses.replace(placed, network=dataclasses.replace(placed.network, routes=None))
    with pytest.raises(ScenarioError, match=r"^network\.nodes: .*resolve"):
        Simulator(unrouted)


def test_placed_scenario_runs_as_it_is(monkeypatch):
    placed = scenario_from_dict({"duration_s": 50})
    monkeypatch.setattr(Scenario, "resolved", lambda self: pytest.fail("a placed scenario was resolved"))
    assert Simulator(placed).scenario is placed


def test_receptions_are_adjudicated_by_the_tr_phy_sinr(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return sinr_from_parts(*args)

    monkeypatch.setattr(sim_module, "sinr_from_parts", counting)
    sim = Simulator(single_link_scenario())
    sim.schedule_packet(0, 0.0)
    assert sim.run().metrics.delivered == 1
    # probe request, probe, TR data and TR ack, each alone on the medium
    assert [interference for _, _, interference, _ in calls] == [0.0] * 4


def test_single_link_hand_traced_latency():
    sim = Simulator(single_link_scenario())
    sim.schedule_packet(0, 0.0)
    m = sim.run().metrics
    assert m.generated == 1 and m.delivered == 1 and m.dropped == 0
    assert m.delay_samples[0] == pytest.approx(ONE_HOP_DELAY, abs=1e-9)


def test_trmac_cached_probe_shortens_second_packet():
    # within the coherence time the probe handshake is skipped entirely,
    # at the cost of waiting out the receiver's collision window
    sim = Simulator(single_link_scenario())
    sim.schedule_packet(0, 0.0)
    sim.schedule_packet(0, 20.0)
    m = sim.run().metrics
    assert m.delivered == 2
    t_cl = sim.timers.t_cl
    pro_time = T_CTRL + T_PROP + T_CTRL + T_PROP  # when the probe reached the sender
    wait = max(t_cl - (20.0 - pro_time), 0.0)
    expected = wait + T_DATA + T_PROP
    assert m.delay_samples[1] == pytest.approx(expected, abs=1e-9)
    assert sim.nodes[0].engine.stats["handshake_omissions"] == 1


def test_seed_determinism_bitwise():
    sc = scenario_from_dict({"seed": 3, "duration_s": 300})
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert a.trace.deliveries == b.trace.deliveries
    assert a.trace.drops == b.trace.drops
    assert a.trace.data_tx_times == b.trace.data_tx_times
    assert a.metrics == b.metrics


def test_conservation_and_causality():
    sc = scenario_from_dict({"seed": 2, "duration_s": 400})
    result = run_scenario(sc, record_events=True)
    m = result.metrics
    assert m.generated == m.delivered + m.dropped + m.in_flight
    assert m.in_flight >= 0
    times = [e["time"] for e in result.trace.events]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
    assert 0.0 <= m.drop_ratio <= 1.0


@pytest.mark.parametrize("protocol", ["trmac", "csma_ca"])
def test_finished_simulator_is_freed_by_refcounting(protocol):
    # no reference cycle: the engines' medium must not keep the run alive
    gc.disable()
    try:
        sim = Simulator(single_link_scenario(mac={"protocol": protocol}))
        sim.schedule_packet(0, 0.0)
        assert sim.run().metrics.delivered == 1
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------------- multihop


def test_two_hop_chain_delay_is_two_single_hops_plus_relay_turnaround():
    sc = scenario_from_dict({
        "seed": 4,
        "duration_s": 60,
        "traffic": {"mean_interarrival_s": None},
        "network": {"nodes": [[10, 0, 0], [10, 800, 0], [10, 1600, 0]], "routes": [[0, 1, 2]]},
    })
    sim = Simulator(sc)
    sim.schedule_packet(0, 0.0)
    m = sim.run().metrics
    assert m.delivered == 1
    prop = 800.0 / 1500.0
    hop = 2 * T_CTRL + T_DATA + 3 * prop
    # the relay's probe request waits for its own acknowledgment to finish
    expected = 2 * hop + T_CTRL
    assert m.delay_samples[0] == pytest.approx(expected, abs=1e-9)


def test_six_hops_accepted_seven_rejected():
    nodes = [[10, 500 * i, 0] for i in range(8)]
    base = {"traffic": {"mean_interarrival_s": None}, "duration_s": 1}
    ok = dict(base, network={"nodes": nodes[:7], "routes": [list(range(7))]})
    scenario_from_dict(ok)  # 6 hops
    bad = dict(base, network={"nodes": nodes, "routes": [list(range(8))]})
    with pytest.raises(Exception, match="max_hops"):
        scenario_from_dict(bad)


# ----------------------------------------------------------- adjudication


def test_lone_tr_frame_success_and_parallel_tr_frames_both_succeed():
    sc = scenario_from_dict({
        "seed": 6,
        "duration_s": 30,
        "traffic": {"mean_interarrival_s": None},
        "network": {
            "nodes": [[10, 0, 0], [10, 600, 0], [40, 0, 3800], [40, 600, 3800]],
            "routes": [[0, 1], [2, 3]],
        },
    })
    sim = Simulator(sc, record_events=True)
    for sender, dst, pid in ((0, 1, 1), (2, 3, 2)):
        pkt = Packet(packet_id=pid, route=(sender, dst), size_bits=256, created_at=0.0)
        frame = Frame(FrameKind.TR_DATA, sender, dst, 256, packet=pkt)
        sim._submit_frame(sender, frame, 0.0)
        sim.nodes[sender].tx_busy_until = 0.5
    sim.run()
    delivered = {d[1] for d in sim.trace.deliveries}
    assert delivered == {1, 2}


def test_frame_arriving_during_victim_transmission_fails():
    sc = single_link_scenario()
    sim = Simulator(sc, record_events=True)
    # keep the receiver transmitting across the probe request's arrival
    blocker = Frame(FrameKind.P_R, src=1, dst=0, payload_bits=1024)
    sim._submit_frame(1, blocker, 0.0)
    sim.schedule_packet(0, 0.0)
    result = sim.run()
    rx_fail = [e for e in result.trace.events
               if e["event"] == "rx_end" and e["node"] == 1 and e["frame"] == "P_R"]
    assert rx_fail and rx_fail[0]["outcome"] == "fail"


@pytest.mark.parametrize("protocol", ["trmac", "csma_ca"])
def test_airtime_is_the_frame_bits_over_the_scenario_data_rate(protocol):
    # frames carry bits and engines no rate: the simulator times every frame
    sc = single_link_scenario(mac={"protocol": protocol}, network={
        "data_rate_bps": 1024, "nodes": [[20, 0, 0], [20, 1000, 0]], "routes": [[0, 1]]})
    sim = Simulator(sc)
    assert sc.traffic.packet_bits == 256 and sim.timers.t_tr == 256 / 1024
    timed = []
    start_tx = sim._start_tx

    def recording(node_id, frame, now):
        start_tx(node_id, frame, now)
        timed.append((frame.kind, sim.nodes[node_id].tx_busy_until, now + frame.payload_bits / 1024))

    sim._start_tx = recording
    sim.schedule_packet(0, 0.0)
    m = sim.run().metrics
    assert len(timed) == 4 and all(busy_until == expected for _, busy_until, expected in timed)
    assert (m.delivered, m.data_frames_transmitted, m.received_bits) == (1, 1, 256)
    assert m.busy_time == pytest.approx(256 / 1024 + sim.links.delay[1][0], abs=1e-12)


def test_half_duplex_receiver_locks_to_first_addressed_frame():
    # two overlapping data frames addressed to the same node: at most one decodes
    sc = scenario_from_dict({
        "seed": 7,
        "duration_s": 30,
        "traffic": {"mean_interarrival_s": None},
        "network": {
            "nodes": [[10, 0, 0], [10, 600, 0], [10, 600, 600]],
            "routes": [[0, 1], [2, 1]],
        },
    })
    sim = Simulator(sc, record_events=True)
    for sender, pid in ((0, 1), (2, 2)):
        pkt = Packet(packet_id=pid, route=(sender, 1), size_bits=256, created_at=0.0)
        frame = Frame(FrameKind.TR_DATA, sender, 1, 256, packet=pkt)
        sim._submit_frame(sender, frame, 0.0)
        sim.nodes[sender].tx_busy_until = 0.5
    result = sim.run()
    assert len(result.trace.deliveries) <= 1


def test_far_separated_links_never_trigger_correlation_deferral():
    sc = scenario_from_dict({
        "seed": 8,
        "duration_s": 400,
        "network": {
            "nodes": [[10, 0, 0], [12, 700, 0], [45, 3900, 3900], [40, 3300, 3900]],
            "routes": [[0, 1], [2, 3]],
        },
    })
    result = run_scenario(sc)
    assert result.engine_stats["step4_deferrals"] == 0
    assert result.metrics.drop_ratio < 0.05


# ---------------------------------------------------------------- metrics


def test_collect_metrics_scripted_drop_ratio():
    # 9 delivered first try plus one packet dropped after N_max retries:
    # 13 data transmissions, 1 dropped frame
    trace = RunTrace(generated=10)
    for i in range(9):
        t = float(i + 1)
        trace.data_tx_times.append(t)
        trace.deliveries.append((t + 2.0, i + 1, 2.0))
        trace.busy_intervals.append((t, t + 1.0))
        trace.rx_success.append((t + 2.0, 256))
    for att in range(4):
        trace.data_tx_times.append(50.0 + 3 * att)
    trace.drops.append((62.0, 10))
    m = collect_metrics(trace, duration=100.0)
    assert m.data_frames_transmitted == 13
    assert m.drop_ratio == pytest.approx(1 / 13)
    assert m.generated == 10 and m.delivered == 9 and m.dropped == 1 and m.in_flight == 0
    assert m.mean_delay == pytest.approx(2.0)


def test_collect_metrics_idle_network():
    m = collect_metrics(RunTrace(), duration=100.0)
    assert m.throughput == 0.0
    assert m.drop_ratio == 0.0
    assert math.isnan(m.mean_delay)


def test_collect_metrics_busy_union_and_throughput():
    trace = RunTrace(generated=2)
    trace.busy_intervals = [(0.0, 2.0), (1.0, 3.0), (10.0, 11.0)]
    trace.rx_success = [(2.0, 512), (11.0, 512)]
    m = collect_metrics(trace, duration=20.0)
    assert m.busy_time == pytest.approx(4.0)
    assert m.throughput == pytest.approx(1024 / 4.0)


def test_collect_metrics_sender_side_drop_of_delivered_packet():
    trace = RunTrace(generated=1)
    trace.data_tx_times = [1.0, 4.0, 7.0, 10.0]
    trace.deliveries = [(2.0, 1, 1.0)]
    trace.drops = [(12.0, 1)]  # acknowledgments all lost
    m = collect_metrics(trace, duration=20.0)
    assert m.delivered == 1 and m.dropped == 0 and m.in_flight == 0
    assert m.drop_ratio == 0.0


def test_collect_metrics_warmup_and_series():
    trace = RunTrace(generated=4)
    trace.data_tx_times = [1.0, 30.0]
    trace.deliveries = [(2.0, 1, 1.0), (31.0, 2, 1.5)]
    trace.busy_intervals = [(1.0, 2.0), (30.0, 31.0)]
    trace.rx_success = [(2.0, 256), (31.0, 256)]
    m = collect_metrics(trace, duration=40.0, warmup=10.0)
    assert m.delivered == 1 and m.delay_samples == [1.5]
    series = collect_metrics(trace, duration=40.0, sample_every=20.0).series
    assert [row["time"] for row in series] == [20.0, 40.0]
    assert series[0]["drop_ratio"] == 0.0
    assert series[1]["throughput"] == pytest.approx(512 / 2.0)


def test_mean_delay_adds_delays_left_to_right():
    # (1e16 + 1.0) rounds back to 1e16, so the left-to-right total is 0.0;
    # sum() on Python 3.12+ compensates and gives 1.0
    trace = RunTrace(generated=3)
    trace.deliveries = [(1.0, 1, 1e16), (2.0, 2, 1.0), (3.0, 3, -1e16)]
    m = collect_metrics(trace, duration=10.0, sample_every=10.0)
    assert m.mean_delay == 0.0
    assert m.series[0]["mean_delay"] == 0.0


@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
def test_run_rejects_a_bad_sample_period_before_the_first_event(value):
    sim = Simulator(single_link_scenario(traffic={"mean_interarrival_s": 5.0}))
    with pytest.raises(ValueError, match="^sample_every: expected a positive finite number"):
        sim.run(value)
    assert not sim.heap and sim.trace.generated == 0


@pytest.mark.parametrize("name, duration, warmup", [
    ("duration", math.nan, 0.0), ("duration", -5.0, 0.0), ("duration", math.inf, 0.0),
    ("warmup", 40.0, math.nan), ("warmup", 40.0, -1.0), ("warmup", 40.0, math.inf),
])
@pytest.mark.parametrize("sample_every", [None, 10.0])
def test_collect_metrics_refuses_a_bad_duration_or_warmup(name, duration, warmup, sample_every):
    # refused before any bound is taken, so an infinite duration never samples
    trace = RunTrace(generated=1, data_tx_times=[1.0], deliveries=[(2.0, 1, 1.0)])
    with pytest.raises(ValueError, match=f"^{name}: expected a finite non-negative number, got "):
        collect_metrics(trace, duration, warmup, sample_every)


def test_collect_metrics_takes_a_zero_duration_and_warmup():
    trace = RunTrace(generated=1, data_tx_times=[0.0], deliveries=[(0.0, 1, 0.5)],
                     busy_intervals=[(0.0, 1.0)], rx_success=[(0.0, 256)])
    m = collect_metrics(trace, 0.0, 0.0, 10.0)
    assert (m.delivered, m.data_frames_transmitted, m.busy_time, m.throughput, m.series) == (1, 1, 0.0, 0.0, [])


def test_second_run_is_refused_before_any_event():
    sim = Simulator(scenario_from_dict({"seed": 1, "duration_s": 100}), record_events=True)
    sim.run()
    before = (list(sim.heap), len(sim.trace.events), sim.trace.generated, sim._event_seq)
    with pytest.raises(RuntimeError, match="^Simulator.run: "):
        sim.run()
    assert (list(sim.heap), len(sim.trace.events), sim.trace.generated, sim._event_seq) == before


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_without_record_events_builds_no_debug_record(monkeypatch, protocol):
    def refuse(*args):
        raise AssertionError("a debug record was built for a run that keeps none")

    monkeypatch.setattr(Simulator, "_log", refuse)
    result = run_scenario(scenario_from_dict({"seed": 1, "duration_s": 60, "mac": {"protocol": protocol}}))
    assert result.trace.events is None and result.metrics.delivered > 0


def test_run_scenario_collects_metrics_once(monkeypatch):
    calls = []
    monkeypatch.setattr("uwansim.sim.collect_metrics", lambda *a: calls.append(a) or collect_metrics(*a))
    result = run_scenario(single_link_scenario(traffic={"mean_interarrival_s": 5.0}), sample_every=20.0)
    assert len(calls) == 1
    assert [row["time"] for row in result.metrics.series] == [20.0, 40.0, 60.0]


def test_metrics_record_fields_complete():
    m = collect_metrics(RunTrace(), duration=1.0)
    assert isinstance(m, MetricsRecord)
    assert m.series is None


def _reference_busy(intervals, lo, hi):
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def reference_metrics(trace, duration, warmup=0.0, sample_every=None):
    """Brute-force ``collect_metrics``: filters the whole trace and merges
    every busy interval afresh at each bound."""

    def compute(until):
        deliveries = [d for d in trace.deliveries if warmup <= d[0] <= until]
        delivered_ids = {d[1] for d in trace.deliveries}
        drops = [
            d for d in trace.drops if warmup <= d[0] <= until and d[1] not in delivered_ids
        ]
        tx = [t for t in trace.data_tx_times if warmup <= t <= until]
        delays = [d[2] for d in deliveries]
        total_delay = 0.0
        for delay in delays:
            total_delay += delay
        mean_delay = total_delay / len(delays) if delays else math.nan
        n_tx = len(tx)
        n_drop = len(drops)
        if n_tx == 0:
            drop_ratio = 0.0 if n_drop == 0 else 1.0
        else:
            drop_ratio = min(1.0, n_drop / n_tx)
        busy = _reference_busy(trace.busy_intervals, warmup, until)
        bits = sum(b for t, b in trace.rx_success if warmup <= t <= until)
        throughput = bits / busy if busy > 0 else 0.0
        return deliveries, drops, tx, delays, mean_delay, drop_ratio, busy, bits, throughput

    deliveries, drops, tx, delays, mean_delay, drop_ratio, busy, bits, throughput = compute(duration)
    all_delivered = {d[1] for d in trace.deliveries}
    all_dropped = {d[1] for d in trace.drops} - all_delivered

    series = None
    if sample_every is not None and sample_every > 0:
        series = []
        t = sample_every
        while t <= duration + 1e-9:
            _, _, _, _, m, r, _, _, thr = compute(min(t, duration))
            series.append({"time": min(t, duration), "mean_delay": m,
                           "drop_ratio": r, "throughput": thr})
            t += sample_every

    return MetricsRecord(
        generated=trace.generated,
        delivered=len(deliveries),
        dropped=len(drops),
        in_flight=trace.generated - len(all_delivered) - len(all_dropped),
        delay_samples=delays,
        mean_delay=mean_delay,
        data_frames_transmitted=len(tx),
        drop_ratio=drop_ratio,
        busy_time=busy,
        received_bits=bits,
        throughput=throughput,
        series=series,
    )


def _same(a, b):
    """``==``, with NaN equal to NaN, through lists and dicts."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def random_trace(rng, duration, warmup, sample_every):
    """A time-ordered synthetic trace whose times often fall exactly on a
    sample bound, on ``warmup`` or on ``duration``, with nested, touching
    and warmup-straddling busy intervals and sender-side drops of
    delivered packets; any list may come out empty."""
    marks = [0.0, warmup, duration]
    if sample_every:
        t = sample_every
        while t <= duration + 1e-9:
            marks.append(min(t, duration))
            t += sample_every

    def times(n):
        return sorted(
            rng.choice(marks) if rng.random() < 0.4 else round(rng.uniform(0.0, 1.2 * duration), rng.choice((1, 9)))
            for _ in range(n)
        )

    def count():
        return 0 if rng.random() < 0.15 else rng.randint(1, 12)

    ids = list(range(1, 16))
    trace = RunTrace()
    trace.deliveries = [(t, pid, rng.uniform(0.1, 9.0))
                        for t, pid in zip(times(count()), rng.sample(ids, 12))]
    trace.drops = [(t, rng.choice(ids)) for t in times(count())]
    trace.data_tx_times = times(count())
    trace.rx_success = [(t, rng.choice((32, 256, 512))) for t in times(count())]
    a = b = None
    for _ in range(count()):
        if a is None:
            a = rng.choice(marks) if rng.random() < 0.4 else rng.uniform(0.0, duration)
        else:
            a = rng.choice((a, b, a + (b - a) * rng.random(), b + rng.uniform(0.0, 4.0),
                            max(a, rng.choice(marks))))
        b = a + rng.choice((0.0, rng.uniform(0.0, 6.0), rng.uniform(0.0, 0.5 * duration)))
        trace.busy_intervals.append((a, b))
    trace.generated = len({d[1] for d in trace.deliveries} | {d[1] for d in trace.drops}) + rng.randint(0, 3)
    return trace


@pytest.mark.parametrize("trace, duration, warmup, sample_every", [
    # touching intervals are one segment: (0.2 - 0.1) + (0.9 - 0.2) != 0.9 - 0.1
    (RunTrace(generated=1, busy_intervals=[(0.1, 0.2), (0.2, 0.9)], rx_success=[(0.9, 256)]),
     1.0, 0.0, 0.5),
    # every event at warmup or at a sample bound; a drop of a delivered packet
    (RunTrace(generated=3, deliveries=[(10.0, 1, 0.5), (20.0, 2, 0.7)], drops=[(20.0, 1), (40.0, 3)],
              data_tx_times=[10.0, 20.0, 40.0], rx_success=[(10.0, 256), (20.0, 32)],
              busy_intervals=[(5.0, 10.0), (8.0, 20.0), (20.0, 31.0)]),
     40.0, 10.0, 10.0),
    # nested, straddling warmup and ending after the run, on a 7-s clock
    (RunTrace(generated=1, data_tx_times=[1.0, 3.0, 9.0], rx_success=[(31.0, 512)],
              busy_intervals=[(1.0, 30.0), (2.0, 3.0), (3.0, 50.0), (41.0, 45.0)]),
     40.0, 2.5, 7.0),
    (RunTrace(), 10.0, 0.0, 25.0),  # empty, and no sample before the end
], ids=["touching", "at-bounds", "nested-straddling", "empty"])
def test_collect_metrics_matches_brute_force_reference_at_corners(trace, duration, warmup, sample_every):
    got = collect_metrics(trace, duration, warmup, sample_every)
    assert _same(vars(got), vars(reference_metrics(trace, duration, warmup, sample_every)))


def test_collect_metrics_matches_brute_force_reference():
    cases = []
    for seed in range(200):
        rng = random.Random(seed)
        duration = rng.choice((50.0, 37.3, 100.0))
        warmup = rng.choice((0.0, 10.0, 12.7, duration, duration + 5.0))
        sample_every = rng.choice((None, 5.0, 7.3, 10.0, 0.3 * duration, duration, 2 * duration))
        trace = random_trace(rng, duration, warmup, sample_every)
        got = collect_metrics(trace, duration, warmup, sample_every)
        want = reference_metrics(trace, duration, warmup, sample_every)
        assert _same(vars(got), vars(want)), f"seed {seed}"
        cases.append((trace, warmup, duration, want.series))
    # the generator reaches the corners it is meant to
    pairs = [p for t, _, _, _ in cases for p in zip(t.busy_intervals, t.busy_intervals[1:])]
    assert any(b0 == a1 for (_, b0), (a1, _) in pairs)  # touching
    assert any(b1 < b0 for (_, b0), (_, b1) in pairs)  # nested
    assert any(a < w < b for t, w, _, _ in cases for a, b in t.busy_intervals)  # straddling warmup
    assert any(b > d for t, _, d, _ in cases for _, b in t.busy_intervals)
    assert any(not t.busy_intervals and not t.deliveries for t, _, _, _ in cases)
    assert any(w > 0 and w in t.data_tx_times for t, w, _, _ in cases)
    assert any(d[0] == row["time"] for t, _, _, rows in cases for row in rows or () for d in t.deliveries)
    assert any(rows == [] for _, _, _, rows in cases)  # sample_every > duration
    delivered_drops = [{d[1] for d in t.drops} & {d[1] for d in t.deliveries} for t, _, _, _ in cases]
    assert sum(map(bool, delivered_drops)) > 20


@pytest.mark.parametrize("field, what", [
    ("deliveries", "times"), ("drops", "times"), ("data_tx_times", "times"),
    ("busy_intervals", "starts"), ("rx_success", "times"),
])
def test_collect_metrics_rejects_a_trace_list_out_of_time_order(field, what):
    backwards = {
        "deliveries": [(2.0, 1, 1.0), (1.0, 2, 1.0)],
        "drops": [(2.0, 1), (1.0, 2)],
        "data_tx_times": [2.0, 1.0],
        "busy_intervals": [(2.0, 9.0), (1.0, 3.0)],
        "rx_success": [(2.0, 256), (1.0, 256)],
    }
    trace = RunTrace(generated=2)
    setattr(trace, field, backwards[field])
    with pytest.raises(ValueError, match=rf"^RunTrace\.{field}: {what} must be non-decreasing$"):
        collect_metrics(trace, duration=10.0)
    # equal times are in order
    setattr(trace, field, backwards[field][:1] * 2)
    collect_metrics(trace, duration=10.0)


# ------------------------------------------------------------ event order


def test_equal_time_timers_fire_in_the_order_armed():
    sim = Simulator(single_link_scenario())
    fired = []
    for node in (0, 1):
        sim.nodes[node].engine.on_timer = (
            lambda key, now, node=node: fired.append((now, node, key)) or []
        )
    sim._process_actions(1, [Arm("b", 5.0), Arm("c", 4.0)], 0.0)
    sim._process_actions(0, [Arm("a", 5.0), Arm("d", 5.0)], 0.0)
    sim._process_actions(1, [Arm("e", 5.0)], 0.0)
    sim.run()
    assert fired == [(4.0, 1, "c"), (5.0, 1, "b"), (5.0, 0, "a"), (5.0, 0, "d"), (5.0, 1, "e")]


def test_only_a_timer_keys_latest_uncancelled_arming_reaches_the_engine():
    sim = Simulator(single_link_scenario())
    fired = []
    sim.nodes[0].engine.on_timer = lambda key, now: fired.append((now, key)) or []
    sim._process_actions(0, [Arm("cancelled", 3.0), Arm("later", 2.0), Arm("sooner", 7.0),
                             Arm("again", 4.0), Arm("kept", 6.0)], 0.0)
    sim._process_actions(0, [Cancel("cancelled"), Arm("later", 8.0), Arm("sooner", 1.0),
                             Cancel("again"), Arm("again", 5.0), Cancel("unarmed")], 0.5)
    sim.run()
    # each key fires at most once, at the time of its latest arming
    assert fired == [(1.5, "sooner"), (5.5, "again"), (6.0, "kept"), (8.5, "later")]


def test_a_timer_is_named_by_the_seq_of_its_latest_arm():
    sim = Simulator(single_link_scenario())
    sim._process_actions(0, [Arm("a", 2.0), Arm("b", 3.0), Arm("a", 1.0)], 0.0)
    # the event carries the key alone; the node keeps the seq of each live arm
    assert sorted(sim.heap) == [(1.0, 3, EV_TIMER, 0, "a"), (2.0, 1, EV_TIMER, 0, "a"),
                                (3.0, 2, EV_TIMER, 0, "b")]
    assert sim.nodes[0].timers == {"a": 3, "b": 2}
    sim._process_actions(0, [Cancel("b"), Cancel("never armed")], 0.0)
    assert sim.nodes[0].timers == {"a": 3}


def test_arrival_file_channel_end_to_end(tmp_path):
    # a two-node run whose only channel comes from ray-arrival records
    dt = 1.0 / 4000.0
    lines = ["ARRIVALS v1"]
    for k, amp in enumerate((1.0, 0.6, 0.3)):
        lines.append(f"0 1 {0.4 + k * dt} {amp * 5e-3} 0.0")
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("\n".join(lines) + "\n")
    sc = scenario_from_dict({
        "seed": 2,
        "duration_s": 30,
        "traffic": {"mean_interarrival_s": None},
        "channel": {"arrival_file": str(arrivals), "tap_count": 129},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0]], "routes": [[0, 1]]},
    })
    sim = Simulator(sc)
    assert LinkTable(sc).delay[0][1] == 0.4
    sim.schedule_packet(0, 0.0)
    m = sim.run().metrics
    assert m.delivered == 1
    # latency uses the file's direct-path delay, not distance/speed
    expected = 2 * T_CTRL + T_DATA + 3 * 0.4
    assert m.delay_samples[0] == pytest.approx(expected, abs=1e-9)


def test_a_channel_section_naming_only_a_file_builds_the_table_from_it(tmp_path):
    # 600 m at 1500 m/s would give the statistical model's 0.4 s; the file says 0.9 s
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("ARRIVALS v1\n0 1 0.9 5e-3 0.0\n")
    sc = scenario_from_dict({
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0]], "routes": [[0, 1]]},
    })
    table = LinkTable(sc)
    assert table.delay[0][1] == table.delay[1][0] == 0.9
    assert table.cir[0][1][0] == 5e-3 and not table.cir[0][1][1:].any()


def test_arrival_file_rewritten_between_runs_is_read_again(tmp_path):
    # the same path, first with a link strong enough to deliver, then with
    # one too weak to: each run's table reads the file as it is then
    arrivals = tmp_path / "arrivals.txt"
    sc = scenario_from_dict({
        "seed": 2,
        "duration_s": 30,
        "traffic": {"mean_interarrival_s": None},
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0]], "routes": [[0, 1]]},
    })
    delivered = []
    for amplitude in (5e-3, 1e-6):
        arrivals.write_text(f"ARRIVALS v1\n0 1 0.4 {amplitude} 0.0\n")
        sim = Simulator(sc)
        sim.schedule_packet(0, 0.0)
        delivered.append(sim.run().metrics.delivered)
        assert sim.links.power[0][1] == sc.phy.avg_transmit_power * amplitude**2
    assert delivered == [1, 0]


@pytest.mark.parametrize("first", [0, 1])
def test_arrival_file_pair_delay_from_lower_to_higher_index(tmp_path, first):
    # the file gives 0 -> 1 a 0.4-s and 1 -> 0 a 0.6-s delay; the pair uses
    # the 0 -> 1 record both ways, whichever node transmits first
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("ARRIVALS v1\n0 1 0.4 5e-3 0.0\n1 0 0.6 5e-3 0.0\n")
    sc = scenario_from_dict({
        "seed": 2,
        "duration_s": 5,
        "traffic": {"mean_interarrival_s": None},
        "mac": {"protocol": "csma_ca"},
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0]], "routes": [[0, 1]]},
    })
    sim = Simulator(sc, record_events=True)
    for src in (first, 1 - first):
        sim._submit_frame(src, Frame(FrameKind.ACK, src, 1 - src, 32), 0.0)
    sim.run()
    ends = sorted((e["node"], e["time"]) for e in sim.trace.events if e["event"] == "rx_end")
    assert ends == [(0, 0.4625), (1, 0.4625)]


def test_adjudicate_closed_form_threshold_margin():
    # lone TR frame on a single-tap-equivalent link with SINR = 2*gamma
    # succeeds; pushing interference to 3x the signal budget fails it on
    # SINR, and so does a NaN SINR; a reception an earlier rule hit fails
    # before the gate and keeps its cause
    from uwansim.mac import Frame, FrameKind
    from uwansim.sim import _RxRecord

    sc = single_link_scenario()
    sim = Simulator(sc, links=LinkTable(sc))
    gamma = sim.phy.min_required_sinr
    sigma2 = sim.phy.noise_variance
    sim.links.tr[0][1] = (2.0 * gamma * sigma2, 0.0, None)
    frame = Frame(FrameKind.TR_DATA, 0, 1, 256, packet=Packet(1, (0, 1), 256, 0.0))
    rec = _RxRecord(frame, 0.0, 0.5, 1)
    sim._interference = lambda *_: 0.0
    assert sim._adjudicate(rec, 1) is True and rec.cause is None
    sim._interference = lambda *_: 3.0 * gamma * sigma2
    assert sim._adjudicate(rec, 1) is False and rec.cause == SINR
    rec.cause = None
    sim._interference = lambda *_: math.nan
    assert sim._adjudicate(rec, 1) is False and rec.cause == SINR
    for interference in (0.0, 3.0 * gamma * sigma2):
        rec.cause = HALF_DUPLEX
        sim._interference = lambda *_: interference
        assert sim._adjudicate(rec, 1) is False and rec.cause == HALF_DUPLEX


# ------------------------------------------------------------- exact ties
#
# Dyadic geometry makes boundaries coincide exactly: 750 m at 1500 m/s is
# a 0.5-s delay, and 0.5-s frames starting together end exactly when a
# frame from twice as far begins to arrive.  At an equal time, the
# boundaries of the transmission that started first are handled first.


def line_scenario(xs, protocol="trmac", routes=((0, 1),), **phy):
    cfg = {
        "seed": 11,
        "duration_s": 20,
        "traffic": {"mean_interarrival_s": None},
        "mac": {"protocol": protocol},
        "network": {"nodes": [[10, x, 0] for x in xs], "routes": [list(r) for r in routes]},
    }
    if phy:
        cfg["phy"] = phy
    return scenario_from_dict(cfg)


def rx_outcomes(sim, node):
    return [(e["time"], e["outcome"]) for e in sim.trace.events
            if e["event"] == "rx_end" and e["node"] == node]


def record_causes(monkeypatch):
    """Record ``(time, node, frame kind, cause)`` at the end of every
    tracked reception of the runs that follow."""
    seen, handle = [], Simulator._handle_rx_end

    def recording(self, node_id, rec, now):
        handle(self, node_id, rec, now)
        seen.append((now, node_id, rec.frame.kind.value, rec.cause))

    monkeypatch.setattr(Simulator, "_handle_rx_end", recording)
    return seen


def _tr_ack(src, dst):
    return Frame(FrameKind.TR_ACK, src, dst, 256)


def _tie_run(scenario, frames, first):
    # node 1 hears C (from node 0, 0.5 s away) over [0.5, 1.0) and A (from
    # node 2, 1.0 s away) over [1.0, 1.5); both are sent at t = 0
    sim = Simulator(scenario, record_events=True)
    for name in sorted(frames, key=lambda name: name != first):
        sim._submit_frame(frames[name].src, frames[name], 0.0)
    sim.run()
    return sim


@pytest.mark.parametrize("first, a_outcome, a_cause", [("A", "fail", RECEIVER_LOCKED), ("C", "ok", None)],
                         ids=["A-fail", "C-ok"])
def test_tie_arrival_end_meets_arrival_start_under_rx_lock(first, a_outcome, a_cause, monkeypatch):
    # both frames are addressed to node 1; if A started first its arrival
    # start is handled before C's end, so it finds the receiver locked
    causes = record_causes(monkeypatch)
    frames = {"A": _tr_ack(2, 1), "C": _tr_ack(0, 1)}
    sim = _tie_run(line_scenario([0, 750, 2250]), frames, first)
    assert sim.links.delay[2][1] == 1.0
    assert rx_outcomes(sim, 1) == [(1.0, "ok"), (1.5, a_outcome)]
    assert [(t, cause) for t, node, _, cause in causes if node == 1] == [(1.0, None), (1.5, a_cause)]


@pytest.mark.parametrize("victim, first, outcome", [
    ("A", "A", "fail"), ("A", "C", "ok"), ("C", "A", "fail"), ("C", "C", "ok"),
])
def test_tie_arrival_end_meets_arrival_start_interference(victim, first, outcome):
    # the victim is for node 1, the other frame is for node 0 or 2 and only
    # interferes; gamma sits between the victim's SINR with and without it,
    # so the victim fails exactly when the two arrivals count as overlapping
    if victim == "A":
        frames = {"A": _tr_ack(2, 1), "C": _tr_ack(0, 2)}
        interferer = frames["C"]
    else:
        frames = {"A": _tr_ack(2, 0), "C": _tr_ack(0, 1)}
        interferer = frames["A"]
    probe = Simulator(line_scenario([0, 750, 2250]))
    table = LinkTable(probe.scenario)

    def cir(a, b):
        return table.cir[min(a, b)][max(a, b)]

    own = cir(frames[victim].src, 1)
    sig, isi = p_sig(own, probe.phy), p_isi(own, probe.phy)
    inter = p_ili(cir(interferer.src, 1), cir(interferer.src, interferer.dst), probe.phy)
    noise = probe.phy.noise_variance
    gamma = math.sqrt(sig / (isi + noise) * sig / (isi + inter + noise))
    sim = _tie_run(line_scenario([0, 750, 2250], min_required_sinr=gamma), frames, first)
    end = 1.5 if victim == "A" else 1.0
    assert rx_outcomes(sim, 1) == [(end, outcome)]


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def uniform(self, low, high):
        return self.value


def _air_from_timer(sim, node, frame, at):
    """Arm a timer at ``node`` now (t = 0) whose expiry at ``at`` returns
    ``frame``, as an engine airs whatever it sends later."""
    engine = sim.nodes[node].engine
    on_timer, key = engine.on_timer, f"air {id(frame)}"
    engine.on_timer = lambda k, now: [frame] if k == key else on_timer(k, now)
    sim._process_actions(node, [Arm(key, at)], 0.0)


def test_tie_csma_backoff_expires_at_end_of_later_arrival():
    # node 1 senses node 0's frame until 1.0, then backs off 0.25 s.  Node 4
    # (187.5 m away) starts a 0.0625-s frame at 1.0625, after the backoff
    # was drawn; it ends at node 1 exactly when the backoff expires, so the
    # medium is still busy: node 1 senses again and draws a second backoff
    sc = line_scenario([0, 750, 2250, 1500, 937.5], protocol="csma_ca", routes=[(1, 3)])
    sim = Simulator(sc, record_events=True)
    sim.nodes[1].engine.rng = _FixedDraw(0.25)
    sim._submit_frame(0, Frame(FrameKind.ACK, 0, 3, 256), 0.0)
    _air_from_timer(sim, 4, Frame(FrameKind.ACK, 4, 3, 32), 1.0625)
    sim.schedule_packet(0, 0.75)
    sim.run()
    rts = [e["time"] for e in sim.trace.events if e["event"] == "tx_start" and e["node"] == 1]
    assert rts[0] == 1.5


def _node0_starts(armed_after, at):
    """Node 0 submits a 512-bit frame, then a 32- and a 64-bit one, at t = 0;
    after the first ``armed_after`` of them it arms a timer whose expiry at
    ``at`` submits a 128-bit frame.  Returns the frames, each paired with
    the time it would start in submission order, and the starts seen."""
    sim = Simulator(single_link_scenario())
    frames = [Frame(FrameKind.TR_ACK, 0, 1, bits) for bits in (512, 32, 64, 128)]
    starts = []
    start_tx = sim._start_tx

    def recording(node_id, frame, now):
        if node_id == 0:
            starts.append((now, frame))
        start_tx(node_id, frame, now)

    sim._start_tx = recording
    for frame in frames[:armed_after]:
        sim._submit_frame(0, frame, 0.0)
    _air_from_timer(sim, 0, frames[3], at)
    for frame in frames[armed_after:3]:
        sim._submit_frame(0, frame, 0.0)
    sim.run()
    return list(zip((0.0, 1.0, 1.0625, 1.1875), frames)), starts


def test_waiting_frames_air_in_submission_order_back_to_back():
    # the three frames submitted at 0 air back to back; the frame submitted
    # when the transmitter frees keeps its place behind them
    in_order, starts = _node0_starts(3, 1.0)
    assert starts == in_order


@pytest.mark.parametrize("armed_after, at", [(3, 1.0625), (2, 1.0)],
                         ids=["as-second-resumes", "between-the-waiting-frames"])
def test_a_frame_submitted_as_a_waiting_frame_resumes_airs_after_it(armed_after, at):
    # the 128-bit frame is submitted at the instant a waiting frame's event
    # is due, with the transmitter free: at 1.0625, by a timer armed before
    # the 64-bit frame's event was pushed again at 1.0; or at 1.0, by a timer
    # armed between the two waiting frames, after the 32-bit frame starts
    # and before the 64-bit frame's event finds the transmitter busy.  It
    # still airs after the 64-bit frame
    in_order, starts = _node0_starts(armed_after, at)
    assert starts == in_order


@pytest.mark.parametrize("data_rate", [512, 1024])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_relayed_route_delivers_while_the_relays_frames_wait(protocol, data_rate):
    # node 1 relays route 0 -> 1 -> 2 and receives from node 3, so its
    # frames wait for its transmitter, which no single-hop run makes them do
    sim = Simulator(scenario_from_dict({
        "duration_s": 600, "mac": {"protocol": protocol},
        "network": {"data_rate_bps": data_rate, "nodes": [[20, 0, 0], [20, 800, 0], [20, 1600, 0], [30, 800, 800]],
                    "routes": [[0, 1, 2], [3, 1]]},
    }))
    handle_send, sends = sim._handle_send, []

    def counting(node_id, attachment, now):
        sends.append(node_id)
        handle_send(node_id, attachment, now)

    sim._handle_send = counting
    assert sim.run().metrics.delivered > 0
    assert sends


def _csma_exchange(replies, duration, second_packet):
    """Node 0 sends packet 1 to node 1 under CSMA/CA at t = 0, and a second
    packet at 0.1 if ``second_packet``; its backoffs draw 1.0 s.  Node 1
    answers nothing it hears: it airs each ``(time, kind)`` of ``replies``,
    naming node 0's current packet.  Returns the times node 0 starts each
    frame kind."""
    sim = Simulator(single_link_scenario(duration_s=duration, mac={"protocol": "csma_ca"}),
                    record_events=True)
    sim.nodes[0].engine.rng = _FixedDraw(1.0)
    peer = sim.nodes[1].engine
    peer.on_frame = lambda frame, now: []
    peer.on_timer = lambda kind, now: [Frame(FrameKind[kind], 1, 0, 32, sim.nodes[0].engine.current[0])]
    for at, kind in replies:
        sim._process_actions(1, [Arm(kind, at)], 0.0)
    sim.schedule_packet(0, 0.0)
    if second_packet:
        sim.schedule_packet(0, 0.1)
    sim.run()
    starts = collections.defaultdict(list)
    for e in sim.trace.events:
        if e["event"] == "tx_start" and e["node"] == 0:
            starts[e["frame"]].append(e["time"])
    return starts


def test_a_late_ack_during_a_csma_backoff_airs_no_second_request():
    # the RTS airs at 0 and the CTS (sent at 0.5) starts the DATA at 1.229;
    # its response timer expires at 3.3125 and arms a 1-s backoff.  The
    # first attempt's ack (sent at 3.4) ends packet 1 at 4.129, and packet
    # 2's RTS airs at once; the backoff, due at 4.3125, must not air another
    starts = _csma_exchange([(0.5, "CTS"), (3.4, "ACK")], duration=6.0, second_packet=True)
    assert starts["DATA"] == [pytest.approx(0.5 + T_PROP + T_CTRL)]
    assert starts["RTS"] == [0.0, pytest.approx(3.4 + T_PROP + T_CTRL)]


def test_a_late_cts_during_a_csma_backoff_airs_one_data_frame():
    # the RTS times out at 2.083 and arms a 1-s backoff; the CTS, sent at
    # 1.5, arrives late and starts the DATA at 2.229.  The backoff, due at
    # 3.083, must not air the DATA again
    starts = _csma_exchange([(1.5, "CTS")], duration=4.0, second_packet=False)
    assert starts["RTS"] == [0.0]
    assert starts["DATA"] == [pytest.approx(1.5 + T_PROP + T_CTRL)]


@pytest.mark.parametrize("bits, at, causes", [
    (256, 0.0, {0: None, 1: None}),
    (512, 0.0, {0: HALF_DUPLEX, 1: HALF_DUPLEX}),
    (256, 0.75, {0: None, 1: HALF_DUPLEX}),
], ids=["as-it-ends", "while-it-sends", "mid-reception"])
def test_a_reception_fails_on_half_duplex_only_while_its_node_transmits(bits, at, causes, monkeypatch):
    # nodes 750 m (0.5 s) apart: node 0 sends node 1 a frame at t = 0, and
    # node 1 sends node 0 one at ``at``.  A 0.5-s frame sent at 0 ends at
    # the very instant the other's arrival starts, a 1-s frame halfway
    # through it; node 1's frame at 0.75 starts halfway through its
    # reception of node 0's
    seen = record_causes(monkeypatch)
    sim = Simulator(line_scenario([0, 750]), record_events=True)
    sim._submit_frame(0, Frame(FrameKind.TR_ACK, 0, 1, bits), 0.0)
    _air_from_timer(sim, 1, Frame(FrameKind.TR_ACK, 1, 0, bits), at)
    assert sim.links.delay[0][1] == 0.5 and sim.nodes[0].tx_busy_until == bits / 512
    sim.run()
    assert {node: cause for _, node, _, cause in seen} == causes
    assert {node: rx_outcomes(sim, node)[0][1] for node in causes} == {
        node: "ok" if cause is None else "fail" for node, cause in causes.items()}


def test_an_event_at_exactly_the_duration_is_handled():
    sim = Simulator(single_link_scenario())
    sim.schedule_packet(0, 60.0)
    sim.schedule_packet(0, math.nextafter(60.0, math.inf))
    assert sim.run().metrics.generated == 1


def test_interference_sums_in_arrival_order():
    # three interferers reach node 0 at 0.1, 0.2 and 0.3 s and all overlap
    # its reception over [0.5, 1.0); they start in the reverse order.  Only
    # arrival order gives (1 + 2**-53) + 2**-53 == 1.0 exactly
    sc = line_scenario([450, 1200, 300, 150, 0])
    sim = Simulator(sc)
    powers = {2: 1.0, 3: 2.0 ** -53, 4: 2.0 ** -53}
    for node in (4, 3, 2):
        sim._submit_frame(node, _tr_ack(node, 1), 0.0)
    sim._submit_frame(1, _tr_ack(1, 0), 0.0)
    for node, power in powers.items():
        sim.links.tr[node][1][2][0] = power  # ILI of link (node, 1) at node 0
    seen = []
    interference = sim._interference

    def recording(rec, node_id):
        total = interference(rec, node_id)
        if node_id == 0:
            seen.append(total)
        return total

    sim._interference = recording
    sim.run()
    assert seen == [1.0]


def run_probe_listener_scenario(*airs):
    """Node 0 replies to requesters 1 (far, a weak link; at 0 s) and 2
    (near; at 40 s, past the coherence time, so node 2 cannot skip its
    request); node 3 sends to 4 near node 0, node 5 to 6 farther off.
    Each ``(node, frame, at)`` of ``airs`` is aired at ``at`` besides.
    Returns the run and the ``(src, dst)`` of each probe reply each node's
    engine was handed."""
    sim = Simulator(scenario_from_dict({
        "seed": 11, "duration_s": 80, "mac": {"protocol": "trmac"},
        "traffic": {"mean_interarrival_s": None},
        "network": {"nodes": [[20, 500, 500], [32.7, 1375.4, 588.3], [12.0, 682.8, 412.7], [20.3, 821.9, 643.4],
                              [20.3, 766.1, 1016.2], [17.3, 453.2, 1339.3], [17.3, 763.7, 1120.0]],
                    "routes": [[1, 0], [2, 0], [3, 4], [5, 6]]},
    }), record_events=True)
    heard = {v: [] for v in range(sim.n_nodes)}
    for v, state in enumerate(sim.nodes):
        def on_frame(frame, now, _v=v, _on_frame=state.engine.on_frame):
            if frame.kind is FrameKind.PRO:
                heard[_v].append((frame.src, frame.dst))
            return _on_frame(frame, now)
        state.engine.on_frame = on_frame
    sim.schedule_packet(0, 0.0)
    sim.schedule_packet(1, 40.0)
    for node, frame, at in airs:
        _air_from_timer(sim, node, frame, at)
    sim.run()
    return sim, heard


def test_overheard_probe_replies_are_tracked_only_at_nodes_that_send():
    # node 0's replies go to its requesters 1 and 2, which have node 0 as
    # their next hop, and to node 3, which the reply to 1 makes defer; no
    # reply of node 0 can make node 5 defer, so node 5 tracks none of them
    sim, heard = run_probe_listener_scenario()
    links = sim.links
    assert links.defers(0, 3, 4, 1) and not links.defers(0, 3, 4, 2)
    assert not any(links.defers(0, 5, 6, r) for r in (1, 2))
    assert sim._pro_listeners[0] == [1, 2, 3]
    # an addressee is a listener by construction: a requester has its
    # replier as a next hop
    sent = [(e["node"], int(e["outcome"].removeprefix("to "))) for e in sim.trace.events
            if e["event"] == "tx_start" and e["frame"] == "PRO"]
    assert sent == [(0, 1), (0, 2)]
    assert all(dst in sim._pro_listeners[src] for src, dst in sent)
    assert heard[5] == [] and 0 not in sim.nodes[5].engine.pro_cache
    tracked = sorted(e["node"] for e in sim.trace.events if e["event"] == "rx_end" and e["frame"] == "PRO")
    assert tracked == [1, 1, 2, 2, 3, 3]


def test_a_listener_tracks_every_probe_reply_of_an_origin_even_one_that_cannot_defer_it():
    # the reply to 2 cannot make node 3 defer, but it replaces the reply to
    # 1, which can, in node 3's cache; a listener list per (origin,
    # requester) would leave that stale reply in the cache
    sim, heard = run_probe_listener_scenario()
    assert heard[3] == [(0, 1), (0, 2)]
    assert sim.nodes[3].engine.pro_cache[0][0] == 2


def test_a_probe_reply_carries_no_numbers_and_its_listeners_cache_the_link_it_names():
    # a reply's (src, dst) is its victim link: frames hold no piggyback, and
    # a listener caches the requester and the time
    assert [f.name for f in dataclasses.fields(Frame)] == ["kind", "src", "dst", "payload_bits", "packet"]
    sim, _ = run_probe_listener_scenario()
    (pro_at_3,) = [e["time"] for e in sim.trace.events
                   if e["event"] == "rx_end" and e["node"] == 3 and e["frame"] == "PRO" and e["time"] > 40.0]
    assert sim.nodes[3].engine.pro_cache == {0: (2, pro_at_3)}


@pytest.mark.parametrize("airs, cause", [
    ([(4, 32, 0.5)], PROBE_CLASH),
    ([(4, 256, -0.5)], RECEIVER_LOCKED),
    ([(3, 16, 0.125), (4, 32, 0.75)], HALF_DUPLEX),
    ([(4, 256, -0.5), (3, 16, 0.125)], RECEIVER_LOCKED),
    ([(4, 256, -0.5), (3, 16, -0.25)], HALF_DUPLEX),
], ids=["probe-clash", "receiver-locked", "half-duplex-then-probe-clash", "receiver-locked-then-half-duplex",
        "half-duplex-over-a-locked-receiver"])
def test_an_overheard_probe_reply_fails_by_the_first_rule_that_hits_it(airs, cause, monkeypatch):
    # node 3 overhears node 0's first probe reply, clean when alone.  Each
    # ``(node, bits, offset)`` airs a frame to the other of nodes 3 and 4
    # that starts at node 3 ``offset`` probe lengths after the probe does.
    # Node 4's frame starts over the probe, or holds node 3's receiver from
    # before it starts; node 3's own frame hits the probe during it, or is
    # on the air when it starts.  A later rule leaves the first one's cause
    seen = record_causes(monkeypatch)

    def first_probe_at_3():
        return next((t, cause) for t, node, kind, cause in seen if (node, kind) == (3, "PRO"))

    sim, _ = run_probe_listener_scenario()
    end, clean = first_probe_at_3()
    assert clean is None
    start = end - T_CTRL
    frames = [(node, Frame(FrameKind.TR_ACK, node, 7 - node, bits),
               start + offset * T_CTRL - (sim.links.delay[node][3] if node == 4 else 0.0))
              for node, bits, offset in airs]
    seen.clear()
    run_probe_listener_scenario(*frames)
    assert first_probe_at_3() == (end, cause)


@pytest.mark.parametrize("protocol, failed, total, kind, data_failed, data_total", [
    ("trmac", 75, 6036, "TR_DATA", 34, 2497),
    ("csma_ca", 541, 10075, "DATA", 362, 2738),
    ("s_csma_ca", 601, 10200, "DATA", 388, 2775),
])
def test_at_20_nodes_only_sinr_fails_a_reception_and_tr_data_fails_least(
        protocol, failed, total, kind, data_failed, data_total, monkeypatch):
    # the default placement, seed 1, 2000 s: no tracked reception fails on
    # a rule of the receiver, only on SINR, and TR focusing shows as the
    # data-frame failure rate: TR_DATA 1.4 %, DATA 13.2 % and 14.0 % (the
    # abstract's "significantly diminishes the interference among parallel
    # links")
    seen = record_causes(monkeypatch)
    run_scenario(scenario_from_dict({"seed": 1, "mac": {"protocol": protocol}}))
    assert {cause for *_, cause in seen} == {None, SINR}
    assert (sum(cause is not None for *_, cause in seen), len(seen)) == (failed, total)
    data_causes = [cause for _, _, k, cause in seen if k == kind]
    assert (data_causes.count(SINR), len(data_causes)) == (data_failed, data_total)


def _every_sender_listens(sim, u):
    """The listeners of node u's probe replies when every node that sends
    but u tracks them, as before the step-4 check pruned them."""
    return sorted({v for route in sim.scenario.network.routes for v in route[:-1]} - {u})


def _multihop_trmac_config(seed):
    """A dense TRMAC network of 5-8 nodes within 1 km of each other: routes
    of three hops through two shared relays and of two hops through one."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    radius = 450.0 * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2 * np.pi, n)
    nodes = [[round(float(rng.uniform(5.0, 50.0)), 1), round(float(500.0 + r * np.cos(a)), 1),
              round(float(500.0 + r * np.sin(a)), 1)] for r, a in zip(radius, angle)]
    relays = [int(v) for v in rng.choice(n, size=2, replace=False)]
    ends = [v for v in range(n) if v not in relays]
    routes = []
    for k in range(int(rng.integers(2, 5))):
        a, b = (int(v) for v in rng.choice(ends, size=2, replace=False))
        routes.append([a, *relays, b] if k % 2 == 0 else [a, relays[0], b])
    return {"seed": seed, "duration_s": 300.0, "mac": {"protocol": "trmac"},
            "traffic": {"mean_interarrival_s": round(float(rng.uniform(0.5, 3.0)), 2)},
            "network": {"nodes": nodes, "routes": routes}}


def _assert_pruned_listeners_change_no_result(config, monkeypatch):
    """Run ``config`` with the pruned probe listeners and with every sender
    listening: the results must be equal, and the pruned debug log must be
    the other with only probe-reply ``rx_end`` records taken out.  Returns
    the engine stats and the number of records taken out."""
    pruned = Simulator(scenario_from_dict(copy.deepcopy(config)), record_events=True).run()
    with monkeypatch.context() as m:
        m.setattr(Simulator, "_pro_listeners_of", _every_sender_listens)
        full = Simulator(scenario_from_dict(copy.deepcopy(config)), record_events=True).run()
    assert _run_outputs(pruned) == _run_outputs(full)
    kept = iter(pruned.trace.events)
    expected = next(kept, None)
    taken_out = 0
    for record in full.trace.events:
        if record == expected:
            expected = next(kept, None)
        else:
            assert (record["event"], record["frame"]) == ("rx_end", "PRO"), record
            taken_out += 1
    assert expected is None
    return pruned.engine_stats, taken_out


def test_pruned_probe_listeners_change_no_result_of_random_multihop_networks(monkeypatch):
    deferring = 0
    for seed in range(30):
        stats, taken_out = _assert_pruned_listeners_change_no_result(_multihop_trmac_config(seed), monkeypatch)
        assert taken_out > 0, seed
        deferring += stats["step4_deferrals"] > 0
    assert deferring >= 10


@pytest.mark.parametrize("config", [
    {"seed": 2, "duration_s": 400},
    {"seed": 3, "duration_s": 400},
    {"seed": 1, "duration_s": 400, "network": {"node_count": 50, "link_count": 16}},
], ids=["default-seed2", "default-seed3", "50-nodes"])
def test_pruned_probe_listeners_change_no_result_of_larger_networks(config, monkeypatch):
    stats, taken_out = _assert_pruned_listeners_change_no_result({**config, "mac": {"protocol": "trmac"}}, monkeypatch)
    assert taken_out > 0 and stats["step4_deferrals"] > 0


def _dense_golden_cases(per_protocol):
    path = os.path.join(os.path.dirname(__file__), "golden", "fingerprint.json")
    with open(path, encoding="utf-8") as fh:
        dense = [c for c in json.load(fh)["cases"] if c["id"].startswith("dense-")]
    return [c for p in PROTOCOLS for c in [c for c in dense if c["scenario"]["mac"]["protocol"] == p][:per_protocol]]


def _reference_overlaps(log, links, node_id, lo, hi, seq):
    """``(start, seq, src, frame, end)`` of every transmission in ``log``
    whose arrival at the node has its start key below ``(hi, seq)`` and its
    end key above ``(lo, seq)``, in no particular order."""
    found = []
    for t, q, src, dur, frame in log:
        if src != node_id:
            start = t + links.delay[node_id][src]
            if (start, q) < (hi, seq) and (start + dur, q) > (lo, seq):
                found.append((start, q, src, frame, start + dur))
    return found


DENSE_CASES = _dense_golden_cases(8)
# every pair of these networks is sensed at the default threshold; 3e-5 W
# sits among their pair powers, so carrier sense also skips weak arrivals
OVERLAP_CASES = [(c, None) for c in DENSE_CASES] + [
    (c, 3e-5) for c in DENSE_CASES if c["scenario"]["mac"]["protocol"] != "trmac"]


@pytest.mark.parametrize("case, sense_threshold_w", OVERLAP_CASES,
                         ids=[c["id"] + ("" if w is None else f"-sense{w}") for c, w in OVERLAP_CASES])
def test_overlap_queries_match_an_untrimmed_brute_force_reference(case, sense_threshold_w):
    # every carrier-sense answer and every adjudicated interference sum of a
    # dense run, recomputed from a log that keeps every transmission
    config = copy.deepcopy(case["scenario"])
    config["duration_s"] = 100.0
    config["mac"]["sense_threshold_w"] = sense_threshold_w
    sim = Simulator(scenario_from_dict(config))
    log, queries, receptions = [], [], []
    start_tx, busy_until, summed = sim._start_tx, sim.busy_until, sim._interference

    def logging_start_tx(node_id, frame, now):
        start_tx(node_id, frame, now)
        log.append(sim._tx_log[-1][:5])  # (tx time, seq, src, duration, frame)

    def recording_busy_until(node_id, now):
        answer = busy_until(node_id, now)
        queries.append((node_id, now, sim._event_seq, answer))
        return answer

    def recording_interference(rec, node_id):
        total = summed(rec, node_id)
        receptions.append((rec, node_id, total))
        return total

    sim._start_tx, sim.busy_until = logging_start_tx, recording_busy_until
    sim._interference = recording_interference
    sim.run()
    links = sim.links
    assert receptions and (queries or case["scenario"]["mac"]["protocol"] == "trmac")
    for node_id, now, seq, answer in queries:
        power = links.power[node_id]
        ends = [end for _, _, src, _, end in _reference_overlaps(log, links, node_id, now, now, seq)
                if power[src] >= sim.sense_threshold]
        assert answer == (max(ends) if ends else None)
    for rec, node_id, interference in receptions:
        total = 0.0
        for _, q, src, frame, _ in sorted(_reference_overlaps(log, links, node_id, rec.rx_start, rec.rx_end, rec.seq)):
            if q != rec.seq:
                total += links.tr[frame.src][frame.dst][2][node_id] if frame.kind in TR_KINDS else links.power[node_id][src]
        assert interference == total


@pytest.mark.parametrize("case", DENSE_CASES, ids=[c["id"] for c in DENSE_CASES])
def test_trim_keeps_every_entry_an_open_reception_can_overlap(case):
    # at every transmission of a dense run, each entry the trim drops ends
    # before the earliest open tracked reception starts (a walk over every
    # node), and before now, where every future reception starts
    config = copy.deepcopy(case["scenario"])
    config["duration_s"] = 100.0
    sim = Simulator(scenario_from_dict(config))
    trim_log = sim._trim_log
    dropped, opened = 0, []

    def checking_trim_log(now):
        nonlocal dropped
        walk = min([now] + [rec.rx_start for state in sim.nodes for rec in state.tracked])
        before = list(sim._tx_log)
        trim_log(now)
        gone = before[:len(before) - len(sim._tx_log)]
        assert all(entry[5] < walk for entry in gone)
        dropped += len(gone)
        opened.append(walk < now)

    sim._trim_log = checking_trim_log
    sim.run()
    assert dropped > 0 and any(opened) and not all(opened)


def test_trim_log_adds_the_longest_frame_to_the_entry_end():
    # a reception of a 0.5-s frame starting at 15.702010662503652 is still
    # open at now = 16.202010662503653, and the entry ending just as it
    # starts may overlap it; now - 0.5 rounds to 15.702010662503653, so only
    # the added form keeps that entry
    sim = Simulator(single_link_scenario())
    sim._longest, now, tie_end = 0.5, 16.202010662503653, 15.702010662503652
    assert tie_end < now - sim._longest
    sim._tx_log.extend([(14.0, 1, 0, 0.5, None, 15.0), (15.0, 2, 0, 0.5, None, tie_end),
                        (16.0, 3, 1, 0.5, None, 17.0)])
    sim._trim_log(now)
    assert [entry[1] for entry in sim._tx_log] == [2, 3]


@pytest.mark.parametrize("protocol", ["trmac", "csma_ca"])
def test_transmission_log_stays_short_in_a_default_run(protocol):
    # trimming by the longest frame keeps the log bounded over a whole
    # default run, so a trim that stopped dropping entries would show here
    sim = Simulator(scenario_from_dict({"seed": 1, "mac": {"protocol": protocol}}))
    start_tx, lengths = sim._start_tx, []

    def measuring_start_tx(node_id, frame, now):
        start_tx(node_id, frame, now)
        lengths.append(len(sim._tx_log))

    sim._start_tx = measuring_start_tx
    sim.run()
    assert len(lengths) > 1000 and max(lengths) <= 40


def test_default_sense_threshold_is_receiver_sensitivity():
    # sense_threshold_w left null: a node senses exactly the arrivals whose
    # pair power reaches min_required_sinr * noise_variance.  Seen from node
    # 0, node 1 lies below that power and node 2 within [1x, 2x) of it.
    sc = scenario_from_dict({
        "seed": 11,
        "duration_s": 20,
        "traffic": {"mean_interarrival_s": None},
        "mac": {"protocol": "csma_ca"},
        "network": {"region_size_m": 20000,
                    "nodes": [[10, 0, 0], [10, 0, 13000], [10, 8500, 0], [10, 500, 0]],
                    "routes": [[0, 3]]},
    })
    assert sc.mac.sense_threshold_w is None
    sensitivity = sc.phy.min_required_sinr * sc.phy.noise_variance
    power = LinkTable(sc).power[0]
    assert power[1] < sensitivity <= power[2] < 2 * sensitivity
    for src, sensed in ((1, False), (2, True)):
        sim = Simulator(sc)
        sim._submit_frame(src, Frame(FrameKind.ACK, src, 3, 512), 0.0)
        arrival = sim.links.delay[src][0]
        assert sim.busy_until(0, arrival + 0.5) == (arrival + 1.0 if sensed else None)


@pytest.mark.parametrize("far_frame, sensed_until", [(False, 1.0), (True, 1.5)])
def test_tie_csma_sense_timer_expires_at_arrival_end(far_frame, sensed_until):
    # node 1 gets a packet at 0.75 while node 0's frame arrives over
    # [0.5, 1.0), so its sense timer expires exactly at 1.0.  That arrival
    # has ended by then; node 2's frame, sent at t = 0 from 1.0 s away,
    # has begun and holds the medium until 1.5.  Then the first backoff
    # draw u sends the RTS.
    sc = line_scenario([0, 750, 2250, 1500], protocol="csma_ca", routes=[(1, 3)])
    sim = Simulator(sc, record_events=True)
    u = copy.deepcopy(sim.nodes[1].engine.rng).uniform(0.0, 2.0)
    sim._submit_frame(0, Frame(FrameKind.ACK, 0, 3, 256), 0.0)
    if far_frame:
        sim._submit_frame(2, Frame(FrameKind.ACK, 2, 3, 256), 0.0)
    sim.schedule_packet(0, 0.75)
    sim.run()
    rts = [e["time"] for e in sim.trace.events if e["event"] == "tx_start" and e["node"] == 1]
    assert rts[0] == sensed_until + u
    assert len(sim.trace.deliveries) == 1


# ------------------------------------------------------------- link table


def _reference_pair(sc, i, j):
    """A pair's quantities the way a per-pair loop computes them, from
    ``generate_cir`` and the straight-line delay, or from the arrival file
    read afresh."""
    nodes, env, phy = sc.network.nodes, sc.environment, sc.phy
    if sc.channel.arrival_file_path is not None:
        arrivals = ArrivalTable.from_file(sc.channel.arrival_file_path, len(nodes))
        c, delay = arrivals.pair(i, j, env.sample_interval, sc.channel.tap_count)
    else:
        c = generate_cir(nodes[i], nodes[j], env, sc.channel, sc.seed)
        delay = math.dist(nodes[i], nodes[j]) / env.nominal_sound_speed
    d = phy.updown_factor
    peak, isi_sum = sdt_signal_and_isi(c, d)
    dp = d * phy.avg_transmit_power
    power = phy.avg_transmit_power * float(np.sum(np.abs(c) ** 2))
    return c, delay, power, (dp * peak, dp * isi_sum)


def assert_table_matches_per_pair(sc):
    table = LinkTable(sc)
    n = len(sc.network.nodes)
    for i in range(n):
        assert table.cir[i][i] is None and table.delay[i][i] is None
        for j in range(i + 1, n):
            c, delay, power, direct = _reference_pair(sc, i, j)
            for a, b in ((i, j), (j, i)):
                assert np.array_equal(table.cir[a][b], c)
                assert table.delay[a][b] == delay
                assert table.power[a][b] == power
                assert table.direct[a][b] == direct
        assert table.reach[i] == max(table.delay[i][v] for v in range(n) if v != i)
    return table


@pytest.mark.parametrize("seed, tap_count", [(1, 129), (7, 257)])
def test_link_table_matches_per_pair_statistical_model(seed, tap_count):
    sc = scenario_from_dict({"seed": seed, "channel": {"tap_count": tap_count}})
    table = assert_table_matches_per_pair(sc)
    # a shared table's taps cannot be written by one of its runs
    with pytest.raises(ValueError):
        table.cir[0][1][0] = 0.0


def test_a_table_build_draws_each_signature_once_and_keeps_no_draws(monkeypatch):
    drawn = []

    def recording(seed, signature, tap_count):
        draws = tap_draws(seed, signature, tap_count)
        drawn.append((signature, weakref.ref(draws)))
        return draws

    tap_draws = channel_module._tap_draws
    monkeypatch.setattr(channel_module, "_tap_draws", recording)
    sc = scenario_from_dict({"seed": 3, "network": {"node_count": 50, "link_count": 16}})
    nodes, cfg = sc.network.nodes, sc.channel
    # a pair's signature: its sorted depth cells and its length cell
    signatures = {(*sorted(math.floor(nodes[k][0] / cfg.depth_quantum) for k in (i, j)),
                   math.floor(math.dist(nodes[i], nodes[j]) / cfg.range_quantum))
                  for i in range(len(nodes)) for j in range(i + 1, len(nodes))}
    assert len(signatures) < len(nodes) * (len(nodes) - 1) // 2
    table = LinkTable(sc)
    assert sorted(signature for signature, _ in drawn) == sorted(signatures)
    del table
    gc.collect()
    assert not [signature for signature, ref in drawn if ref() is not None]


def test_link_table_matches_per_pair_arrival_file(tmp_path):
    # 0 -> 1 and 1 -> 0 differ, and the table takes 0 -> 1; 2 -> 3 is only
    # given reversed; one- to six-tap responses all get channel.tap_count taps
    dt = 1.0 / 4000.0
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("\n".join([
        "ARRIVALS v1",
        "0 1 0.4 5e-3 0.0", f"0 1 {0.4 + 2 * dt} 2e-3 1.0",
        "1 0 0.6 4e-3 0.5",
        "0 2 0.5 3e-3 0.0", "0 3 0.55 3e-3 0.2", "1 2 0.3 6e-3 0.1",
        "1 3 0.35 2e-3 0.0", f"1 3 {0.35 + 5 * dt} 1e-3 2.0",
        "3 2 0.45 1e-3 0.3",
    ]) + "\n")
    sc = scenario_from_dict({
        "seed": 2,
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0], [30, 0, 700], [30, 600, 700]],
                    "routes": [[0, 1], [2, 3]]},
    })
    table = assert_table_matches_per_pair(sc)
    assert table.delay[1][0] == 0.4
    assert {len(c) for c in cirs(table)} == {sc.channel.tap_count}


def cirs(table):
    """The tap rows of every ordered pair of ``table``."""
    return [c for row in table.cir for c in row if c is not None]


def image_source_arrivals(path, nodes, env):
    """Write an ``ARRIVALS v1`` file of every pair of ``nodes`` in isovelocity
    water of depth ``env.water_depth``: the direct path, one surface
    reflection (phase pi) and one bottom reflection, each of amplitude
    1/path length and delay path length/sound speed (image sources, Jensen
    et al., *Computational Ocean Acoustics*, 2nd ed., 2011)."""
    lines = ["ARRIVALS v1"]
    for i, (zi, xi, yi) in enumerate(nodes):
        for j, (zj, xj, yj) in enumerate(nodes[i + 1:], start=i + 1):
            r = math.hypot(xi - xj, yi - yj)
            for dz, phase in ((zi - zj, 0.0), (zi + zj, math.pi), (2 * env.water_depth - zi - zj, 0.0)):
                length = math.hypot(r, dz)
                lines.append(f"{i} {j} {length / env.nominal_sound_speed!r} {1 / length!r} {phase!r}")
    path.write_text("\n".join(lines) + "\n")


def test_twenty_node_image_source_file_builds_the_per_pair_table_and_runs(tmp_path):
    arrivals = tmp_path / "arrivals.txt"
    placed = scenario_from_dict({"seed": 1})
    image_source_arrivals(arrivals, placed.network.nodes, placed.environment)
    sc = scenario_from_dict({"seed": 1, "channel": {"arrival_file": str(arrivals)}})
    assert sc.network.nodes == placed.network.nodes
    table = assert_table_matches_per_pair(sc)
    assert max(np.flatnonzero(c)[-1] + 1 for c in cirs(table)) == 80
    assert {len(c) for c in cirs(table)} == {129}
    for protocol in PROTOCOLS:
        result = run_scenario(dataclasses.replace(sc, duration=300.0,
                                                  mac=dataclasses.replace(sc.mac, protocol=protocol)))
        m = result.metrics
        assert m.generated == m.delivered + m.dropped + m.in_flight and m.in_flight >= 0
        assert ((m.generated, m.delivered, m.dropped, m.in_flight, m.mean_delay, m.drop_ratio,
                 m.throughput, m.busy_time, m.data_frames_transmitted), result.engine_stats) \
            == IMAGE_SOURCE_RUNS[protocol]


# (metrics as in ARRIVAL_FILE_METRICS, engine_stats) of 300-s seed-1 runs of
# the 20-node image-source file, recorded before the channel took the
# scenario's seed as an argument; an arrival file draws no taps, so no seed
# reaches it
IMAGE_SOURCE_RUNS = {
    "trmac": ((356, 356, 0, 0, 1.6493405507023313, 0.0, 431.9648320854928, 210.9801382672808, 363),
              {"drops": 0, "handshake_omissions": 278, "step4_deferrals": 0}),
    "csma_ca": ((356, 340, 0, 16, 10.355785763246136, 0.0, 422.53597308059847, 207.81189199067478, 363),
                {"drops": 0, "handshake_omissions": 0, "step4_deferrals": 0}),
    "s_csma_ca": ((356, 340, 0, 16, 10.100804706083064, 0.0, 429.1145548884858, 203.4328572767373, 369),
                  {"drops": 0, "handshake_omissions": 0, "step4_deferrals": 0}),
}


THREE_NODE_ARRIVALS = ("0 1 0.4 5e-3 0.0\n0 1 0.40025 3e-3 1.0\n0 2 0.5 5e-3 0.0\n"
                       "1 2 0.45 4e-3 0.0\n1 2 0.4505 2e-3 0.5\n1 2 0.4510 1e-3 0.5\n")
TWO_NODE_ARRIVALS = "0 1 0.4 5e-3 0.0\n0 1 0.40025 3e-3 1.0\n0 1 0.4005 1e-3 2.0\n"

# (generated, delivered, dropped, in_flight, mean_delay, drop_ratio,
# throughput, busy_time, data_frames_transmitted) of 200-s runs, recorded
# when each pair's CIR still had its own binned length, except the
# three-node TRMAC run (TRMAC refused CIRs of lengths 1 and 5), recorded
# once every CIR had channel.tap_count taps
ARRIVAL_FILE_METRICS = {
    ("three", "trmac"): (53, 53, 0, 0, 1.438586783047951, 0.0, 279.331277968607, 48.573149769231556, 56),
    ("three", "csma_ca"): (53, 53, 0, 0, 3.7142125151203107, 0.0, 279.1769547325099, 48.600000000000065, 53),
    ("three", "s_csma_ca"): (53, 53, 0, 0, 3.740471480227936, 0.0, 279.1769547325099, 48.600000000000065, 53),
    ("two", "trmac"): (35, 35, 0, 0, 1.3378227075454008, 0.0, 284.44444444444326, 31.500000000000128, 35),
    ("two", "csma_ca"): (35, 35, 0, 0, 2.57494395478844, 0.0, 284.4444444444433, 31.500000000000124, 35),
    ("two", "s_csma_ca"): (35, 35, 0, 0, 2.57494395478844, 0.0, 284.4444444444433, 31.500000000000124, 35),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name, body, nodes, routes", [
    ("three", THREE_NODE_ARRIVALS, [[20, 0, 0], [20, 600, 0], [25, 300, 500]], [[0, 1], [2, 1]]),
    ("two", TWO_NODE_ARRIVALS, [[20, 0, 0], [20, 600, 0]], [[0, 1]]),
], ids=["three-node", "two-node"])
def test_arrival_files_whose_pairs_bin_to_different_lengths_run_every_protocol(
        name, body, nodes, routes, protocol, tmp_path):
    # the three-node file's pairs bin to 2, 1 and 3 taps; each CIR gets
    # channel.tap_count taps, so TRMAC's correlations of links of two pairs run
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("ARRIVALS v1\n" + body)
    sc = scenario_from_dict({
        "duration_s": 200,
        "mac": {"protocol": protocol},
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": nodes, "routes": routes},
    })
    sim = Simulator(sc)
    m = sim.run().metrics
    assert m.delivered > 0
    assert {len(c) for c in cirs(sim.links)} == {sc.channel.tap_count}
    assert (m.generated, m.delivered, m.dropped, m.in_flight, m.mean_delay, m.drop_ratio,
            m.throughput, m.busy_time, m.data_frames_transmitted) == ARRIVAL_FILE_METRICS[name, protocol]


def test_reply_row_holds_each_links_norm_and_offpeak_sum():
    sc = scenario_from_dict({})
    table = LinkTable(sc)
    n = len(sc.network.nodes)
    for a in range(n):
        for b in range(a + 1, n):
            table.reply_quantities(a, b)  # fills both directions
    for a in range(n):
        assert table.reply[a][a] is None
        for b in set(range(n)) - {a}:
            c = table.cir[a][b]
            assert table.reply[a][b] == (norm(c), autocorr_offpeak_sum(c, sc.phy.updown_factor))


@pytest.mark.parametrize("phy", [{}, {"updown_factor": 4, "transmit_power_w": 0.7}], ids=["default", "d4"])
def test_link_powers_from_the_reply_row_are_the_per_cir_powers_bit_for_bit(phy):
    sc = scenario_from_dict({"seed": 2, "phy": phy})
    table = LinkTable(sc)
    n = len(sc.network.nodes)
    for a in range(n):
        for b in set(range(n)) - {a}:
            c = table.cir[a][b]
            tr = tr_powers(*table.reply_quantities(a, b), sc.phy)
            assert list(map(float.hex, tr)) == [p_sig(c, sc.phy).hex(), p_isi(c, sc.phy).hex()]
            assert list(map(float.hex, sdt_powers(c, sc.phy))) == list(map(float.hex, table.direct[a][b]))


def test_each_links_offpeak_sum_is_computed_once_per_table(monkeypatch):
    """The off-peak autocorrelation sum of a link feeds its probe replies and
    the ISI of the TR frames of both its directions: one computation each."""
    computed = []

    def counting(c, d_factor):
        computed.append(c)
        return autocorr_offpeak_sum(c, d_factor)

    monkeypatch.setattr("uwansim.tr_phy.autocorr_offpeak_sum", counting)
    monkeypatch.setattr("uwansim.sim.autocorr_offpeak_sum", counting)
    case = next(c for c in DENSE_CASES if c["scenario"]["mac"]["protocol"] == "trmac")
    sim = Simulator(scenario_from_dict(copy.deepcopy(case["scenario"])))
    sim.run()
    links, n = sim.links, sim.n_nodes
    read = {frozenset((a, b)) for a in range(n) for b in range(n)
            if links.reply[a][b] is not None or links.tr[a][b] is not None}
    assert sum(entry is not None for row in links.tr for entry in row) > len(read) > 1
    # the table holds one CIR object per unordered pair
    assert len({id(c) for c in computed}) == len(computed) <= len(read)


def step4_scenario():
    """Four nodes where a probe reply of node 2 to node 1 makes node 0 defer
    its frames to node 3 (``LinkTable.defers(2, 0, 3, 1)``)."""
    return scenario_from_dict({
        "seed": 5, "mac": {"protocol": "trmac"},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0], [30, 0, 700], [40, 600, 700]],
                    "routes": [[0, 1], [2, 3]]},
    })


def test_step4_check_is_computed_once_per_table_and_key(monkeypatch):
    import uwansim.mac as mac

    calls = []
    for name in ("peak_eta", "eta_threshold"):
        real = getattr(mac, name)
        monkeypatch.setattr(mac, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    sc = step4_scenario()
    table = LinkTable(sc)
    # node 0 overheard node 2's probe reply to node 1 and sends to node 3
    assert table.defers(2, 0, 3, 1) is True
    assert calls == ["peak_eta", "eta_threshold"]
    # the same check again, also through an engine's backoff: the kept one
    sim = Simulator(sc, links=table)
    engine = sim.nodes[0].engine
    engine.pro_cache[2] = (1, 4.8)
    assert table.defers(2, 0, 3, 1) is True
    assert engine.compute_backoff(5.0, None, dst=3) > 0.0
    assert len(calls) == 2 and engine.stats["step4_deferrals"] == 1
    # another destination, another listener, another victim: new checks
    table.defers(2, 0, 1, 1)
    table.defers(2, 3, 0, 1)
    assert table.defers(2, 0, 3, 0) is False
    assert len(calls) == 8
    # another table computes its own
    assert LinkTable(sc).defers(2, 0, 3, 1) is True
    assert calls == ["peak_eta", "eta_threshold"] * 5


def test_backoff_with_kept_checks_equals_fresh_tables():
    # one engine and table across a run of probes and destinations against
    # an engine on a fresh table, which keeps no check yet, for every call
    sc = step4_scenario()
    kept_sim = Simulator(sc, links=LinkTable(sc))  # engines reach their simulator by weak reference
    kept = kept_sim.nodes[0].engine
    deferrals = 0
    # (origin, its requester, heard at, now, dst): only node 2's replies to
    # node 1 make node 0 defer, and only for node 3
    steps = [
        (2, 1, 4.8, 5.0, 3), (3, 2, 5.0, 5.1, 1),
        (2, 1, 4.8, 5.2, 1), (2, 3, 5.3, 5.4, 3),
        (1, 2, 5.5, 5.6, 3), (2, 1, 5.3, 5.7, 3),
    ]
    for origin, requester, heard_at, now, dst in steps:
        kept.pro_cache[origin] = (requester, heard_at)
        fresh_sim = Simulator(sc, links=LinkTable(sc))
        fresh = fresh_sim.nodes[0].engine
        fresh.pro_cache = dict(kept.pro_cache)
        for t_pro_b in (None, 0.3):
            assert kept.compute_backoff(now, t_pro_b, dst) == fresh.compute_backoff(now, t_pro_b, dst)
        deferrals += fresh.stats["step4_deferrals"]
        assert kept.stats["step4_deferrals"] == deferrals
    assert deferrals > 0


def test_trmac_run_fills_the_reply_row_of_the_links_that_sent_probe_replies():
    sim = Simulator(scenario_from_dict({"seed": 1}), record_events=True)
    sim.run()
    replied = {frozenset((e["node"], int(e["outcome"].removeprefix("to ")))) for e in sim.trace.events
               if e["event"] == "tx_start" and e["frame"] == "PRO"}
    filled = {frozenset((a, b)) for a, row in enumerate(sim.links.reply) for b, q in enumerate(row) if q is not None}
    assert len(replied) == 10
    assert filled == replied


def _run_outputs(result):
    trace = result.trace
    return (repr(dataclasses.asdict(result.metrics)), result.engine_stats, trace.deliveries,
            trace.drops, trace.data_tx_times, trace.busy_intervals, trace.rx_success)


def test_shared_link_table_gives_the_fresh_table_results():
    scenarios = {p: scenario_from_dict({"seed": 3, "duration_s": 400, "mac": {"protocol": p}})
                 for p in ("trmac", "csma_ca", "s_csma_ca")}
    fresh = {p: _run_outputs(Simulator(sc).run()) for p, sc in scenarios.items()}
    table = LinkTable(scenarios["trmac"])
    # trmac twice: the second run reads the TR quantities the first filled in
    for p in ("trmac", "csma_ca", "s_csma_ca", "trmac"):
        sim = Simulator(scenarios[p], links=table)
        assert _run_outputs(sim.run()) == fresh[p]
        assert sim.links is table
    assert any(entry is not None for row in table.tr for entry in row)


@pytest.mark.parametrize("change", [
    {"seed": 4},
    {"phy": {"noise_variance_w": 2.0e-7}},
    {"channel": {"pdp_decay_s": 2.0e-3}},
    {"environment": {"nominal_sound_speed_mps": 1490.0}},
])
def test_link_table_of_another_placement_is_refused(change):
    base = {"seed": 3, "duration_s": 50}
    table = LinkTable(scenario_from_dict(base))
    Simulator(scenario_from_dict({**base, "mac": {"protocol": "csma_ca"}}), links=table)  # same placement
    other = scenario_from_dict({**base, **change})
    with pytest.raises(ValueError, match="another placement"):
        Simulator(other, links=table)


def test_a_table_of_another_seed_on_the_same_nodes_is_refused():
    # the statistical channel draws its taps with the scenario's seed, so a
    # table is keyed by it even where the nodes are the same
    sc = scenario_from_dict({"seed": 1, "duration_s": 50})
    table = LinkTable(sc)
    other = dataclasses.replace(sc, seed=2)
    assert other.network == sc.network
    with pytest.raises(ValueError, match="another placement"):
        Simulator(other, links=table)
    assert not np.array_equal(LinkTable(other).cir[0][1], table.cir[0][1])


def test_arrival_file_missing_pair_raises_at_the_first_transmission(tmp_path):
    # pair 1-2 is missing; node 0's first frame builds the whole table
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("ARRIVALS v1\n0 1 0.4 5e-3 0.0\n0 2 0.5 5e-3 0.0\n")
    sc = scenario_from_dict({
        "seed": 2,
        "duration_s": 5,
        "traffic": {"mean_interarrival_s": None},
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0], [20, 0, 700]], "routes": [[0, 1]]},
    })
    sim = Simulator(sc)
    with pytest.raises(ArrivalFileError, match="1->2"):
        sim._submit_frame(0, Frame(FrameKind.ACK, 0, 1, 32), 0.0)


def test_arrival_file_keyed_by_names_fails_at_the_table_build_naming_the_line(tmp_path):
    # a file names nodes by their index in network.nodes, so "n0 n1" is refused as it is read
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("ARRIVALS v1\nn0 n1 0.4 5e-3 0.0\n")
    sc = scenario_from_dict({
        "seed": 2,
        "channel": {"arrival_file": str(arrivals)},
        "network": {"nodes": [[20, 0, 0], [20, 600, 0]], "routes": [[0, 1]]},
    })
    with pytest.raises(ArrivalFileError, match=rf"^{re.escape(str(arrivals))}:2: a node id is a 0-based node index"):
        LinkTable(sc)
