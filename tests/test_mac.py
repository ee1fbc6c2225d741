import numpy as np
import pytest

from uwansim.mac import (
    Arm,
    Cancel,
    CsmaEngine,
    Deliver,
    Drop,
    Frame,
    FrameKind,
    MacTimers,
    Packet,
    Send,
    TrmacEngine,
    make_engine,
    step4_defers,
)
from uwansim.scenario import scenario_from_dict
from uwansim.sim import LinkTable, run_scenario
from uwansim.tr_phy import PhyConfig

TIMERS = MacTimers(t_p=1000.0 / 1500.0, t_tr=0.5, delta=0.25, coherence_time=30.0, n_max=3)
# engines read their links from the table of a placed four-node network
SCENARIO = scenario_from_dict({
    "seed": 5,
    "network": {"nodes": [[20, 0, 0], [20, 600, 0], [30, 0, 700], [40, 600, 700]],
                "routes": [[0, 1], [2, 3]]},
})
MAC = SCENARIO.mac  # the only source of the engines' defaults


def packet(pid=1, route=(0, 1)):
    return Packet(packet_id=pid, route=tuple(route), size_bits=256, created_at=0.0)


class FakeMedium:
    """A settable carrier-sense answer and the placed network's table.  With
    ``conflicting``, step 4 is steered: a probe reply from an origin in it
    makes the listener defer and any other does not, and ``checks`` records
    the ``(origin, listener, dst, victim)`` of every check asked."""

    def __init__(self, conflicting=None):
        self.busy = None
        self.links = LinkTable(SCENARIO)
        self.checks = []
        if conflicting is not None:
            def defers(origin, listener, dst, victim):
                self.checks.append((origin, listener, dst, victim))
                return origin in conflicting
            self.links.defers = defers

    def busy_until(self, node_id, now):
        return self.busy


def trmac(node=0, conflicting=None):
    return TrmacEngine(node, TIMERS, control_bits=MAC.control_bits,
                       rng=np.random.default_rng(0), medium=FakeMedium(conflicting))


def csma(node=0, kind="csma_ca", cap=MAC.s_csma_max_backoff):
    engine = make_engine(kind, node, TIMERS, control_bits=MAC.control_bits,
                         rng=np.random.default_rng(0), medium=FakeMedium(),
                         s_csma_cap=cap)
    return engine


def sends(actions, kind=None):
    out = [a for a in actions if isinstance(a, Send)]
    if kind is not None:
        out = [a for a in out if a.frame.kind is kind]
    return out


def arms(actions, key=None):
    out = [a for a in actions if isinstance(a, Arm)]
    if key is not None:
        out = [a for a in out if a.key == key]
    return out


# ------------------------------------------------------------------- types


def test_mac_timers_identities():
    assert TIMERS.t_cl == pytest.approx(TIMERS.t_p + TIMERS.t_tr + TIMERS.delta)
    assert TIMERS.t_th == pytest.approx(2 * TIMERS.t_p + TIMERS.t_tr + TIMERS.delta)
    assert f"{TIMERS.t_cl:.4f}" == "1.4167"
    assert f"{TIMERS.t_th:.4f}" == "2.0833"
    with pytest.raises(ValueError):
        MacTimers(t_p=0.0, t_tr=0.5, delta=0.25, coherence_time=30.0, n_max=3)
    with pytest.raises(ValueError):
        MacTimers(t_p=0.1, t_tr=0.5, delta=0.25, coherence_time=30.0, n_max=0)


def test_timer_actions_compare_by_value_and_hold_no_dict():
    assert Arm("response", 2.0) == Arm("response", 2.0)
    assert Arm("response", 2.0) != Arm("reservation", 2.0)
    assert Cancel("response") == Cancel("response") != Cancel("sense")
    assert not hasattr(Arm("a", 1.0), "__dict__") and not hasattr(Cancel("a"), "__dict__")


def test_frame_invariants():
    with pytest.raises(ValueError):
        Frame(FrameKind.RTS, 0, 1, -1)
    with pytest.raises(ValueError, match="payload_bits"):
        Frame(FrameKind.TR_DATA, 0, 1, 0)


# --------------------------------------------------------- TRMAC enqueue


def test_trmac_enqueue_without_cached_probe_sends_pr_and_arms_timeout():
    engine = trmac()
    actions = engine.enqueue(packet(), 1, now=0.0)
    (send,) = sends(actions, FrameKind.P_R)
    assert send.frame.dst == 1
    assert send.frame.payload_bits == MAC.control_bits
    # the retransmission timer starts when the frame actually airs
    (arm,) = arms(engine.on_tx_start(send.frame, 0.0), "response")
    assert arm.delay == pytest.approx(TIMERS.t_th)


def test_trmac_enqueue_with_fresh_cached_probe_skips_handshake():
    engine = trmac()
    engine.pro_cache[1] = (0, 0.0)  # node 1 replied to node 0 at 0 s
    actions = engine.enqueue(packet(), 1, now=TIMERS.coherence_time / 2)
    assert not sends(actions, FrameKind.P_R)
    (send,) = sends(actions, FrameKind.TR_DATA)
    assert (send.frame.src, send.frame.dst) == (0, 1)
    assert engine.stats["handshake_omissions"] == 1
    # probe age exceeds the collision window, so no receiver-side deferral
    assert send.delay == 0.0


def test_trmac_enqueue_with_stale_probe_falls_back_to_pr():
    engine = trmac()
    engine.pro_cache[1] = (0, 0.0)
    actions = engine.enqueue(packet(), 1, now=2 * TIMERS.coherence_time)
    assert sends(actions, FrameKind.P_R)


# --------------------------------------------------------- TRMAC backoff


def test_backoff_no_overheard_pro_is_zero():
    engine = trmac()
    assert engine.compute_backoff(10.0, TIMERS.t_cl, dst=1) == 0.0
    assert engine.compute_backoff(10.0, None, dst=1) == 0.0


def test_backoff_conflicting_neighbor_hand_value():
    # T_Pro^j = 0.2 s at T_cl = 1.4167 s -> deferral 1.2167 s
    engine = trmac(conflicting={2})
    now = 5.0
    engine.pro_cache[2] = (3, now - 0.2)
    backoff = engine.compute_backoff(now, TIMERS.t_cl, dst=1)
    assert backoff == pytest.approx(TIMERS.t_cl - 0.2, abs=1e-9)
    assert f"{backoff:.4f}" == "1.2167"
    assert engine.stats["step4_deferrals"] == 1
    # the check names the probe's victim link by its requester
    assert engine.medium.checks == [(2, 0, 1, 3)]


def test_backoff_ignores_low_correlation_neighbor():
    engine = trmac(conflicting=set())
    now = 5.0
    engine.pro_cache[2] = (3, now - 0.2)
    assert engine.compute_backoff(now, TIMERS.t_cl, dst=1) == 0.0
    assert engine.stats["step4_deferrals"] == 0
    assert engine.medium.checks == [(2, 0, 1, 3)]


def test_backoff_ignores_expired_and_destination_probes():
    engine = trmac(conflicting={1, 2})
    now = 5.0
    engine.pro_cache[1] = (0, now - 0.1)
    engine.pro_cache[2] = (3, now - 2 * TIMERS.t_cl)
    assert engine.compute_backoff(now, TIMERS.t_cl, dst=1) == 0.0
    assert engine.medium.checks == []


def test_backoff_takes_max_over_conflicting_neighbors():
    engine = trmac(conflicting={2, 3})
    now = 5.0
    engine.pro_cache[2] = (3, now - 0.9)
    engine.pro_cache[3] = (2, now - 0.2)
    backoff = engine.compute_backoff(now, TIMERS.t_cl, dst=1)
    assert backoff == pytest.approx(TIMERS.t_cl - 0.2, abs=1e-9)
    assert engine.stats["step4_deferrals"] == 2


def test_backoff_compares_the_heard_channel_with_the_own_link(monkeypatch):
    # node 0 overheard node 2's probe reply to node 3 and sends to node 1:
    # eta and its threshold take the 2 -> 0 channel and the 0 -> 1 link from
    # the table, and the threshold the quantities of the victim link (2, 3)
    import uwansim.mac as mac

    seen = []

    def peak_eta(heard, own):
        seen.append((heard, own))
        return 0.0

    def eta_threshold(victim_norm, victim_offpeak, heard, own, phy):
        seen.append((heard, own))
        seen.append((victim_norm, victim_offpeak))
        return 1.0

    monkeypatch.setattr(mac, "peak_eta", peak_eta)
    monkeypatch.setattr(mac, "eta_threshold", eta_threshold)
    engine = trmac()
    engine.pro_cache[2] = (3, 4.8)
    assert engine.compute_backoff(5.0, None, dst=1) == 0.0
    links = engine.medium.links
    # the table holds one read-only row per pair, in both directions
    assert links.cir[2][0] is links.cir[0][2] and links.cir[0][1] is links.cir[1][0]
    assert seen.pop() == links.reply_quantities(2, 3)
    assert len(seen) == 2
    for heard, own in seen:
        assert heard is links.cir[2][0] and own is links.cir[0][1]


@pytest.mark.parametrize("victim_norm, peak, defers", [
    (1e-4, 0.3, True),   # a tiny victim norm makes the radicand negative (near-far)
    (1e4, 0.99, False),  # a huge one clamps the threshold at 1, which |eta| cannot exceed
    (1.0, 0.3, False),   # the threshold is ||h_victim|| / ||h_interferer|| = 0.5
    (1.0, 0.7, True),
])
def test_step4_defers_when_the_threshold_is_missing_or_exceeded(victim_norm, peak, defers):
    # a lone spike of norm 2 heard, against a unit-norm own link whose peak
    # |eta| with it is ``peak`` and whose rest falls off the sampled lags
    phy = PhyConfig(noise_variance=1e-14, updown_factor=2, min_required_sinr=1.0)
    heard = np.zeros(9, dtype=complex)
    heard[0] = 2.0
    own = np.zeros(9, dtype=complex)
    own[0], own[3] = peak, np.sqrt(1.0 - peak**2)
    assert step4_defers(heard, own, victim_norm, 0.0, phy) is defers


def test_backoff_includes_receiver_window_on_cached_path():
    engine = trmac()
    engine.pro_cache[1] = (0, 10.0)
    actions = engine.enqueue(packet(), 1, now=10.3)
    (send,) = sends(actions, FrameKind.TR_DATA)
    assert send.delay == pytest.approx(TIMERS.t_cl - 0.3, abs=1e-9)


# -------------------------------------------------------- TRMAC receiver


def test_pr_at_idle_receiver_replies_pro_naming_the_link():
    engine = trmac(node=1)
    pr = Frame(FrameKind.P_R, src=0, dst=1, payload_bits=32)
    actions = engine.on_frame(pr, now=1.0)
    (send,) = sends(actions, FrameKind.PRO)
    # the reply carries no numbers: its (src, dst) is the victim link
    assert (send.frame.src, send.frame.dst) == (1, 0)
    assert send.frame.packet is None and not hasattr(send.frame, "piggyback")
    assert engine.reserved_for == 0
    assert arms(actions, "reservation")


def test_pr_at_reserved_receiver_defers_reply():
    engine = trmac(node=1)
    engine.on_frame(Frame(FrameKind.P_R, 0, 1, 32), now=1.0)
    actions = engine.on_frame(Frame(FrameKind.P_R, 2, 1, 32), now=1.5)
    assert not sends(actions)
    assert list(engine.deferred_prs) == [2]


def test_overheard_pro_is_cached_without_transmission():
    engine = trmac(node=0)
    pro = Frame(FrameKind.PRO, src=3, dst=2, payload_bits=32)
    actions = engine.on_frame(pro, now=4.0)
    assert actions == []
    assert engine.pro_cache[3] == (2, 4.0)


def test_tr_data_delivery_ack_and_deferred_pro_flush():
    engine = trmac(node=1)
    engine.on_frame(Frame(FrameKind.P_R, 0, 1, 32), now=1.0)
    engine.on_frame(Frame(FrameKind.P_R, 2, 1, 32), now=1.5)
    pkt = packet(pid=42)
    data = Frame(FrameKind.TR_DATA, 0, 1, 256, packet=pkt)
    actions = engine.on_frame(data, now=3.0)
    assert [a.packet.packet_id for a in actions if isinstance(a, Deliver)] == [42]
    (ack,) = sends(actions, FrameKind.TR_ACK)
    # the acknowledgement is focused on the reverse link
    assert (ack.frame.src, ack.frame.dst) == (1, 0)
    assert ack.frame.packet is pkt
    # reservation passes to the deferred requester, whose link the reply names
    (pro,) = sends(actions, FrameKind.PRO)
    assert (pro.frame.src, pro.frame.dst) == (1, 2) and pro.frame.packet is None
    assert engine.reserved_for == 2

    # duplicate data is acknowledged but not delivered twice
    again = engine.on_frame(data, now=3.6)
    assert not [a for a in again if isinstance(a, Deliver)]
    assert sends(again, FrameKind.TR_ACK)


def test_full_sender_handshake_and_ack_completion():
    engine = trmac(node=0)
    pkt = packet(pid=5)
    actions = engine.enqueue(pkt, 1, now=0.0)
    (pr,) = sends(actions, FrameKind.P_R)
    engine.on_tx_start(pr.frame, 0.0)

    pro = Frame(FrameKind.PRO, 1, 0, 32)
    actions = engine.on_frame(pro, now=1.46)
    assert any(isinstance(a, Cancel) and a.key == "response" for a in actions)
    (data,) = sends(actions, FrameKind.TR_DATA)
    assert data.delay == 0.0  # fresh handshake: no receiver-side deferral
    engine.on_tx_start(data.frame, 1.46)

    ack = Frame(FrameKind.TR_ACK, 1, 0, 32, packet=pkt)
    actions = engine.on_frame(ack, now=3.4)
    assert any(isinstance(a, Cancel) for a in actions)
    assert engine.current is None


@pytest.mark.parametrize("make", [trmac, csma], ids=["trmac", "csma_ca"])
def test_ack_for_abandoned_packet_is_ignored(make):
    engine = make(node=0)
    engine.enqueue(packet(pid=7), 1, now=1.0)
    engine.on_frame(Frame(engine.REPLY, 1, 0, 32), now=1.1)
    assert engine.phase == "data"
    stale = Frame(engine.ACK, 1, 0, 32, packet=packet(pid=6))
    assert engine.on_frame(stale, now=1.2) == []
    assert engine.current is not None


@pytest.mark.parametrize("make, phase", [(trmac, "probe"), (csma, "rts")], ids=["trmac", "csma_ca"])
def test_timeout_retransmits_then_drops(make, phase):
    engine = make(node=0)
    actions = engine.enqueue(packet(pid=9), 1, now=0.0)
    engine.on_tx_start(sends(actions)[0].frame, 0.0)
    # three retransmissions allowed; CSMA airs each one after a backoff
    for retry in range(1, TIMERS.n_max + 1):
        actions = engine.on_timer("response", now=float(retry))
        if arms(actions, "backoff"):
            actions = engine.on_timer("backoff", now=float(retry))
        assert sends(actions, engine.REQUEST)
        assert engine.retries == retry
    # the next expiry drops the packet
    actions = engine.on_timer("response", now=10.0)
    drops = [a for a in actions if isinstance(a, Drop)]
    assert len(drops) == 1 and drops[0].packet.packet_id == 9
    assert drops[0].reason == f"{phase} retry limit"
    assert engine.stats["drops"] == 1
    assert engine.current is None


def test_trmac_data_timeout_recomputes_backoff_from_cache():
    engine = trmac(node=0)
    engine.pro_cache[1] = (0, 0.0)
    engine.enqueue(packet(pid=11), 1, now=5.0)
    actions = engine.on_timer("response", now=8.0)
    (send,) = sends(actions, FrameKind.TR_DATA)
    assert engine.retries == 1
    assert send.delay == 0.0  # probe is older than the collision window


def test_reservation_timeout_releases_and_flushes():
    engine = trmac(node=1)
    engine.on_frame(Frame(FrameKind.P_R, 0, 1, 32), now=1.0)
    engine.on_frame(Frame(FrameKind.P_R, 2, 1, 32), now=1.5)
    actions = engine.on_timer("reservation", now=1.0 + TIMERS.t_th)
    (pro,) = sends(actions, FrameKind.PRO)
    assert pro.frame.dst == 2
    assert engine.reserved_for == 2


# ----------------------------------------------------------------- CSMA


def test_csma_idle_channel_sends_rts_immediately():
    engine = csma()
    actions = engine.enqueue(packet(), 1, now=0.0)
    (send,) = sends(actions, FrameKind.RTS)
    (arm,) = arms(engine.on_tx_start(send.frame, 0.0), "response")
    assert arm.delay == pytest.approx(TIMERS.t_th)


def test_csma_busy_channel_defers_then_backs_off():
    engine = csma()
    engine.medium.busy = 4.0
    actions = engine.enqueue(packet(), 1, now=0.0)
    (arm,) = arms(actions, "sense")
    assert arm.delay == pytest.approx(4.0)
    # at idle, a backoff is drawn before transmitting
    engine.medium.busy = None
    actions = engine.on_timer("sense", now=4.0)
    (arm,) = arms(actions, "backoff")
    assert 0.0 <= arm.delay <= 2.0
    actions = engine.on_timer("backoff", now=4.0 + arm.delay)
    assert sends(actions, FrameKind.RTS)


def test_csma_backoff_windows():
    # both variants are one engine, apart only in the backoff cap
    uncapped, capped = csma(kind="csma_ca", cap=5.0), csma(kind="s_csma_ca", cap=5.0)
    assert type(uncapped) is type(capped) is CsmaEngine
    for retries, window in enumerate((2.0, 2.0, 4.0, 8.0)):  # retry 0: the initial-attempt window
        uncapped.retries = capped.retries = retries
        assert uncapped.backoff_window() == window  # CSMA/CA ignores the cap
        assert capped.backoff_window() == 5.0


@pytest.mark.parametrize("protocol, moves", [("csma_ca", False), ("s_csma_ca", True)])
def test_only_s_csma_runs_read_the_backoff_cap(protocol, moves):
    def metrics(cap):
        scenario = scenario_from_dict({"duration_s": 300.0, "mac": {"protocol": protocol,
                                                                    "s_csma_max_backoff_s": cap}})
        return run_scenario(scenario).metrics

    assert (metrics(2.0) != metrics(5.0)) is moves


def test_csma_retransmission_draws_bounded_backoff():
    engine = csma(kind="csma_ca")
    engine.enqueue(packet(pid=3), 1, now=0.0)
    for retry, bound in ((1, 2.0), (2, 4.0), (3, 8.0)):
        actions = engine.on_timer("response", now=float(retry * 10))
        (arm,) = arms(actions, "backoff")
        assert 0.0 <= arm.delay <= bound
        assert engine.retries == retry
    actions = engine.on_timer("response", now=100.0)
    assert [a for a in actions if isinstance(a, Drop)]


def test_csma_handshake_flow_and_reservation():
    sender = csma(node=0)
    receiver = csma(node=1)
    pkt = packet(pid=21)
    (rts,) = sends(sender.enqueue(pkt, 1, now=0.0), FrameKind.RTS)
    sender.on_tx_start(rts.frame, 0.0)

    actions = receiver.on_frame(rts.frame, now=0.5)
    (cts,) = sends(actions, FrameKind.CTS)
    assert receiver.reserved_for == 0
    # a competing RTS gets silence while reserved
    competing = Frame(FrameKind.RTS, 2, 1, 32, packet=packet(pid=22))
    assert receiver.on_frame(competing, now=0.6) == []

    actions = sender.on_frame(cts.frame, now=1.1)
    (data,) = sends(actions, FrameKind.DATA)
    assert data.frame.packet is pkt
    sender.on_tx_start(data.frame, 1.1)

    actions = receiver.on_frame(data.frame, now=2.2)
    assert [a for a in actions if isinstance(a, Deliver)]
    (ack,) = sends(actions, FrameKind.ACK)
    assert receiver.reserved_for is None

    actions = sender.on_frame(ack.frame, now=3.0)
    assert sender.current is None


def test_csma_stale_cts_ignored():
    sender = csma(node=0)
    sender.enqueue(packet(pid=31), 1, now=0.0)
    stale = Frame(FrameKind.CTS, 1, 0, 32, packet=packet(pid=30))
    assert sender.on_frame(stale, now=0.5) == []
    assert sender.phase == CsmaEngine.FIRST_PHASE


def test_make_engine_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        make_engine("tdma", 0, TIMERS, MAC.control_bits,
                    s_csma_cap=MAC.s_csma_max_backoff)


def test_engines_reject_foreign_frame_kinds():
    engine = trmac(node=1)
    rts = Frame(FrameKind.RTS, src=0, dst=1, payload_bits=32)
    with pytest.raises(ValueError, match="RTS"):
        engine.on_frame(rts, now=0.0)
    baseline = csma(node=1)
    pr = Frame(FrameKind.P_R, src=0, dst=1, payload_bits=32)
    with pytest.raises(ValueError, match="P_R"):
        baseline.on_frame(pr, now=0.0)
