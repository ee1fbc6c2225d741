"""MAC protocol engines: TRMAC and the CSMA/CA / S-CSMA/CA baselines.

Engines are event-driven state machines decoupled from the scheduler:
the simulator feeds them decoded frames, transmit-start notifications,
and timer expiries, and they answer with action lists (send a frame
after an optional delay, arm/cancel a named timer, deliver or drop a
packet).  Cross-node interaction happens only through the scheduler, so
an engine never touches another node's state.  Engines name links by node
ids and read their static quantities from the run's ``LinkTable`` through
``medium.links``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .channel import peak_eta
from .rules import POSITIVE, Checked, integer, number
from .tr_phy import eta_threshold

TRMAC = "trmac"
CSMA_CA = "csma_ca"
S_CSMA_CA = "s_csma_ca"
PROTOCOLS = (TRMAC, CSMA_CA, S_CSMA_CA)


class FrameKind(enum.Enum):
    P_R = "P_R"
    PRO = "PRO"
    TR_DATA = "TR_DATA"
    TR_ACK = "TR_ACK"
    RTS = "RTS"
    CTS = "CTS"
    DATA = "DATA"
    ACK = "ACK"


TR_KINDS = (FrameKind.TR_DATA, FrameKind.TR_ACK)
DATA_KINDS = (FrameKind.TR_DATA, FrameKind.DATA)


@dataclass
class Packet:
    """Application-layer data unit routed over a static multi-hop route."""

    packet_id: int
    flow_id: int
    route: tuple[int, ...]
    size_bits: int
    created_at: float

    @property
    def source(self) -> int:
        return self.route[0]

    @property
    def final_dst(self) -> int:
        return self.route[-1]

    def next_hop(self, node: int) -> int:
        return self.route[self.route.index(node) + 1]


@dataclass(frozen=True)
class Piggyback:
    """Victim-side quantities a receiver attaches to its probe reply."""

    victim_link_norm: float
    victim_autocorr_offpeak_sum: float


@dataclass(eq=False)
class Frame:
    """MAC protocol data unit."""

    kind: FrameKind
    src: int
    dst: int
    payload_bits: int
    tx_duration: float
    piggyback: Optional[Piggyback] = None
    tr_basis: Optional[tuple[int, int]] = None
    packet: Optional[Packet] = None
    frame_id: int = -1

    def __post_init__(self):
        if self.payload_bits < 0:
            raise ValueError("Frame.payload_bits must be >= 0")
        if self.tx_duration <= 0:
            raise ValueError("Frame.tx_duration must be > 0")
        if self.kind in TR_KINDS and (self.tr_basis is None or self.tr_basis[0] != self.src):
            raise ValueError(f"{self.kind.value} frames must carry a tr_basis starting at their src")


@dataclass(frozen=True)
class MacTimers(Checked):
    """Protocol timer set; the collision and retransmission windows are
    derived so their defining identities hold exactly."""

    t_p: float
    t_tr: float
    delta: float
    coherence_time: float
    n_max: int

    RULES = {
        "t_p": number(POSITIVE),
        "t_tr": number(POSITIVE),
        "delta": number(POSITIVE),
        "coherence_time": number(POSITIVE),
        "n_max": integer(POSITIVE),
    }

    @property
    def t_cl(self) -> float:
        return self.t_p + self.t_tr + self.delta

    @property
    def t_th(self) -> float:
        return 2.0 * self.t_p + self.t_tr + self.delta


@dataclass
class ProCacheEntry:
    piggyback: Piggyback
    received_at: float


# ------------------------------------------------------------------ actions


@dataclass(eq=False)
class Send:
    frame: Frame
    delay: float = 0.0


@dataclass(frozen=True)
class Arm:
    key: str
    delay: float
    context: tuple = ()


@dataclass(frozen=True)
class Cancel:
    key: str


@dataclass(eq=False)
class Deliver:
    packet: Packet


@dataclass(eq=False)
class Drop:
    packet: Packet
    reason: str


Action = Send | Arm | Cancel | Deliver | Drop


class MacEngine:
    """Common queueing/retry skeleton shared by both protocol families."""

    kind = "abstract"

    def __init__(self, node_id, timers, phy, neighbors, data_rate, control_bits=32, rng=None, medium=None):
        self.node_id = node_id
        self.timers = timers
        self.phy = phy
        self.neighbors = frozenset(neighbors)
        self.data_rate = data_rate
        self.control_bits = control_bits
        self.rng = rng
        self.medium = medium
        self.queue: deque[tuple[Packet, int]] = deque()
        self.current: Optional[tuple[Packet, int]] = None
        self.retries = 0
        self.stats = {"drops": 0, "handshake_omissions": 0, "step4_deferrals": 0}

    # -- hooks the simulator drives ---------------------------------------

    def enqueue(self, packet: Packet, dst: int, now: float) -> list[Action]:
        if dst not in self.neighbors:
            raise ValueError(f"node {self.node_id}: destination {dst} is not a neighbor")
        self.queue.append((packet, dst))
        if self.current is None:
            return self._begin_next(now)
        return []

    def on_frame(self, frame: Frame, now: float) -> list[Action]:
        raise NotImplementedError

    def on_tx_start(self, frame: Frame, now: float) -> list[Action]:
        return []

    def on_timer(self, key: str, context: tuple, now: float) -> list[Action]:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _begin_next(self, now: float) -> list[Action]:
        if not self.queue:
            self.current = None
            return []
        self.current = self.queue.popleft()
        self.retries = 0
        return self._start_packet(now)

    def _start_packet(self, now: float) -> list[Action]:
        raise NotImplementedError

    def _drop_current(self, now: float, reason: str) -> list[Action]:
        packet, _ = self.current
        self.stats["drops"] += 1
        actions: list[Action] = [Cancel("response"), Drop(packet, reason)]
        actions.extend(self._begin_next(now))
        return actions

    def _control_frame(self, kind: FrameKind, dst: int, **extra) -> Frame:
        return Frame(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload_bits=self.control_bits,
            tx_duration=self.control_bits / self.data_rate,
            **extra,
        )

    def _data_frame(self, kind: FrameKind, dst: int, packet: Packet, **extra) -> Frame:
        return Frame(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload_bits=packet.size_bits,
            tx_duration=packet.size_bits / self.data_rate,
            packet=packet,
            **extra,
        )


class TrmacEngine(MacEngine):
    """Probe-reservation MAC with time-reversed data transfer.

    Handshake: P_R -> PRO (with victim piggyback) -> TR_DATA -> TR_ACK.
    A probe overheard from the intended receiver within the coherence
    time lets the sender skip the P_R/PRO exchange entirely; probes
    overheard from third parties feed the correlation-threshold backoff
    that protects their in-progress receptions.
    """

    kind = TRMAC

    PROBE = "probe"
    DATA = "data"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pro_cache: dict[int, ProCacheEntry] = {}
        self.phase: Optional[str] = None
        self.reserved_for: Optional[int] = None
        self.deferred_prs: deque[int] = deque()  # requester ids
        self.delivered_ids: set[int] = set()

    # -- sender side -------------------------------------------------------

    def _start_packet(self, now: float) -> list[Action]:
        dst = self.current[1]
        entry = self.pro_cache.get(dst)
        if entry is not None and now - entry.received_at < self.timers.coherence_time:
            # handshake omission: the cached probe still describes the link
            self.stats["handshake_omissions"] += 1
            self.phase = self.DATA
            return self._schedule_tr_data(now, t_pro_b=now - entry.received_at)
        self.phase = self.PROBE
        return [Send(self._control_frame(FrameKind.P_R, dst))]

    def _schedule_tr_data(self, now: float, t_pro_b: Optional[float]) -> list[Action]:
        packet, dst = self.current
        backoff = self.compute_backoff(now, t_pro_b, dst)
        frame = self._data_frame(FrameKind.TR_DATA, dst, packet, tr_basis=(self.node_id, dst))
        return [Send(frame, delay=backoff)]

    def compute_backoff(self, now: float, t_pro_b: Optional[float], dst: int) -> float:
        """Steps 3-5 deferral before sending to ``dst``.

        t_pro_b None marks the fresh-handshake path, where the receiver
        term is defined to vanish.  Each third-party probe overheard
        within the collision window is checked against its threshold;
        conflicting ones extend the deferral to the end of their window.
        """
        t_cl = self.timers.t_cl
        backoff = max(t_cl - t_pro_b, 0.0) if t_pro_b is not None else 0.0
        cir = self.medium.links.cir
        own = cir[self.node_id][dst]
        for origin, entry in self.pro_cache.items():
            if origin == dst:
                continue
            age = now - entry.received_at
            if age >= t_cl:
                continue
            heard = cir[origin][self.node_id]
            eta = peak_eta(heard, own)
            threshold = eta_threshold(
                entry.piggyback.victim_link_norm,
                entry.piggyback.victim_autocorr_offpeak_sum,
                heard,
                own,
                self.phy,
            )
            if threshold is None or eta > threshold:
                self.stats["step4_deferrals"] += 1
                backoff = max(backoff, t_cl - age)
        return backoff

    def on_tx_start(self, frame: Frame, now: float) -> list[Action]:
        if self.current is None:
            return []
        if frame.kind is FrameKind.P_R and self.phase == self.PROBE:
            return [Arm("response", self.timers.t_th, (self.PROBE, self.current[0].packet_id))]
        if frame.kind is FrameKind.TR_DATA and self.phase == self.DATA:
            return [Arm("response", self.timers.t_th, (self.DATA, self.current[0].packet_id))]
        return []

    def on_timer(self, key: str, context: tuple, now: float) -> list[Action]:
        if key == "reservation":
            return self._release_reservation(now)
        if key != "response" or self.current is None:
            return []
        phase, packet_id = context
        packet, dst = self.current
        if packet.packet_id != packet_id or phase != self.phase:
            return []
        if self.retries >= self.timers.n_max:
            return self._drop_current(now, f"{phase} retry limit")
        self.retries += 1
        if self.phase == self.PROBE:
            return [Send(self._control_frame(FrameKind.P_R, dst))]
        # the probe that opened the data phase stays cached
        return self._schedule_tr_data(now, t_pro_b=now - self.pro_cache[dst].received_at)

    # -- receiver side -----------------------------------------------------

    def on_frame(self, frame: Frame, now: float) -> list[Action]:
        kind = frame.kind
        if kind is FrameKind.PRO:
            return self._on_pro(frame, now)
        if frame.dst != self.node_id:
            return []  # overheard non-probe frames are discarded
        if kind is FrameKind.P_R:
            return self._on_probe_request(frame)
        if kind is FrameKind.TR_DATA:
            return self._on_tr_data(frame, now)
        if kind is FrameKind.TR_ACK:
            return self._on_tr_ack(frame, now)
        raise ValueError(f"TRMAC engine cannot handle frame kind {kind.value}")

    def _pro_reply(self, requester: int) -> list[Action]:
        self.reserved_for = requester
        piggyback = Piggyback(*self.medium.links.reply_quantities(self.node_id, requester))
        return [
            Send(self._control_frame(FrameKind.PRO, requester, piggyback=piggyback)),
            Arm("reservation", self.timers.t_th),
        ]

    def _on_probe_request(self, frame: Frame) -> list[Action]:
        if self.reserved_for in (None, frame.src):
            return self._pro_reply(frame.src)
        # already reserved by another link: defer the reply until it clears
        if frame.src in self.deferred_prs:
            self.deferred_prs.remove(frame.src)
        self.deferred_prs.append(frame.src)
        return []

    def _on_pro(self, frame: Frame, now: float) -> list[Action]:
        self.pro_cache[frame.src] = ProCacheEntry(frame.piggyback, now)
        if frame.dst != self.node_id:
            return []
        if self.current is None or self.phase != self.PROBE or frame.src != self.current[1]:
            return []
        # reservation and recording complete; move to the transmission step
        self.retries = 0
        self.phase = self.DATA
        actions: list[Action] = [Cancel("response")]
        actions.extend(self._schedule_tr_data(now, t_pro_b=None))
        return actions

    def _on_tr_data(self, frame: Frame, now: float) -> list[Action]:
        # the acknowledgment rides the updated link CIR back to the sender;
        # it goes first so a relayed packet's probe request queues behind it
        ack = self._control_frame(
            FrameKind.TR_ACK, frame.src, tr_basis=(self.node_id, frame.src), packet=frame.packet
        )
        actions: list[Action] = [Send(ack)]
        if frame.packet.packet_id not in self.delivered_ids:
            self.delivered_ids.add(frame.packet.packet_id)
            actions.append(Deliver(frame.packet))
        if self.reserved_for == frame.src:
            actions.extend(self._release_reservation(now))
        return actions

    def _on_tr_ack(self, frame: Frame, now: float) -> list[Action]:
        if self.current is None or self.phase != self.DATA or frame.src != self.current[1]:
            return []
        if frame.packet is not None and frame.packet.packet_id != self.current[0].packet_id:
            return []  # acknowledgment for an already-abandoned packet
        actions: list[Action] = [Cancel("response")]
        self.phase = None
        actions.extend(self._begin_next(now))
        return actions

    def _release_reservation(self, now: float) -> list[Action]:
        self.reserved_for = None
        actions: list[Action] = [Cancel("reservation")]
        if self.deferred_prs:
            actions.extend(self._pro_reply(self.deferred_prs.popleft()))
        return actions


class CsmaEngine(MacEngine):
    """Carrier-sense four-frame handshake (RTS/CTS/DATA/ACK).

    CSMA/CA backs off uniformly in [0, 2^i] seconds for the i-th
    retransmission; the simplified variant always uses [0, 2] seconds.
    Sensing reflects only signals currently impinging at this node, so
    the long propagation delays leave it largely blind -- which is the
    point of the comparison.
    """

    RTS_PHASE = "rts"
    DATA_PHASE = "data"

    def __init__(self, *args, kind=CSMA_CA, s_csma_cap=2.0, **kwargs):
        super().__init__(*args, **kwargs)
        if kind not in (CSMA_CA, S_CSMA_CA):
            raise ValueError(f"unknown CSMA engine kind {kind!r}")
        self.kind = kind
        self.s_csma_cap = s_csma_cap
        self.phase: Optional[str] = None
        self.reserved_for: Optional[int] = None
        self.delivered_ids: set[int] = set()

    def backoff_window(self) -> float:
        if self.kind == S_CSMA_CA:
            return self.s_csma_cap
        return 2.0 ** max(1, self.retries)

    def _start_packet(self, now: float) -> list[Action]:
        self.phase = self.RTS_PHASE
        return self._attempt(now, initial=True)

    def _attempt(self, now: float, initial: bool = False) -> list[Action]:
        busy_until = self.medium.busy_until(self.node_id, now)
        if busy_until is None:
            if initial:
                return self._transmit_pending(now)
            return [Arm("backoff", float(self.rng.uniform(0.0, self.backoff_window())))]
        return [Arm("sense", max(busy_until - now, 0.0))]

    def _transmit_pending(self, now: float) -> list[Action]:
        packet, dst = self.current
        if self.phase == self.RTS_PHASE:
            return [Send(self._control_frame(FrameKind.RTS, dst, packet=packet))]
        return [Send(self._data_frame(FrameKind.DATA, dst, packet))]

    def on_tx_start(self, frame: Frame, now: float) -> list[Action]:
        if self.current is None:
            return []
        if frame.kind is FrameKind.RTS and self.phase == self.RTS_PHASE:
            return [Arm("response", self.timers.t_th, (self.RTS_PHASE, self.current[0].packet_id))]
        if frame.kind is FrameKind.DATA and self.phase == self.DATA_PHASE:
            return [Arm("response", self.timers.t_th, (self.DATA_PHASE, self.current[0].packet_id))]
        return []

    def on_timer(self, key: str, context: tuple, now: float) -> list[Action]:
        if key == "reservation":
            self.reserved_for = None
            return []
        if self.current is None:
            return []
        if key == "sense":
            return self._attempt(now)
        if key == "backoff":
            busy_until = self.medium.busy_until(self.node_id, now)
            if busy_until is None:
                return self._transmit_pending(now)
            # busy again: defer until idle, then draw a fresh backoff
            return [Arm("sense", max(busy_until - now, 0.0))]
        if key == "response":
            phase, packet_id = context
            if self.current[0].packet_id != packet_id or phase != self.phase:
                return []
            if self.retries >= self.timers.n_max:
                return self._drop_current(now, f"{phase} retry limit")
            self.retries += 1
            return [Arm("backoff", float(self.rng.uniform(0.0, self.backoff_window())))]
        return []

    def on_frame(self, frame: Frame, now: float) -> list[Action]:
        if frame.dst != self.node_id:
            return []
        kind = frame.kind
        if kind is FrameKind.RTS:
            if self.reserved_for in (None, frame.src):
                self.reserved_for = frame.src
                return [
                    Send(self._control_frame(FrameKind.CTS, frame.src, packet=frame.packet)),
                    Arm("reservation", self.timers.t_th),
                ]
            return []  # busy receiver stays silent; the sender times out
        if kind is FrameKind.CTS:
            if self.current is None or self.phase != self.RTS_PHASE or frame.src != self.current[1]:
                return []
            if frame.packet is not None and frame.packet.packet_id != self.current[0].packet_id:
                return []
            self.retries = 0
            self.phase = self.DATA_PHASE
            packet, dst = self.current
            return [Cancel("response"), Send(self._data_frame(FrameKind.DATA, dst, packet))]
        if kind is FrameKind.DATA:
            actions: list[Action] = [
                Send(self._control_frame(FrameKind.ACK, frame.src, packet=frame.packet))
            ]
            if frame.packet.packet_id not in self.delivered_ids:
                self.delivered_ids.add(frame.packet.packet_id)
                actions.append(Deliver(frame.packet))
            if self.reserved_for == frame.src:
                self.reserved_for = None
                actions.append(Cancel("reservation"))
            return actions
        if kind is FrameKind.ACK:
            if self.current is None or self.phase != self.DATA_PHASE or frame.src != self.current[1]:
                return []
            if frame.packet is not None and frame.packet.packet_id != self.current[0].packet_id:
                return []
            actions = [Cancel("response")]
            self.phase = None
            actions.extend(self._begin_next(now))
            return actions
        raise ValueError(f"CSMA engine cannot handle frame kind {kind.value}")


def make_engine(protocol: str, *args, s_csma_cap: float = 2.0, **kwargs) -> MacEngine:
    if protocol == TRMAC:
        return TrmacEngine(*args, **kwargs)
    if protocol in (CSMA_CA, S_CSMA_CA):
        return CsmaEngine(*args, kind=protocol, s_csma_cap=s_csma_cap, **kwargs)
    raise ValueError(f"unknown MAC protocol {protocol!r}")
