"""MAC protocol engines: TRMAC and the CSMA/CA / S-CSMA/CA baselines.

Engines are event-driven state machines decoupled from the scheduler:
the simulator feeds them decoded frames, transmit-start notifications,
and timer expiries, and they answer with action lists (send a frame
after an optional delay, arm/cancel a named timer, deliver or drop a
packet).  Cross-node interaction happens only through the scheduler, so
an engine never touches another node's state.  Engines name links by node
ids and read their static quantities from the run's ``LinkTable`` through
``medium.links``.

Both families run one request/reply/data/ack handshake, written once in
``MacEngine``; the subclasses keep only their protocol hooks.  A TR frame
is focused on its own link: its basis is always its ``(src, dst)`` pair.
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
    route: tuple[int, ...]
    size_bits: int
    created_at: float

    @property
    def final_dst(self) -> int:
        return self.route[-1]

    def next_hop(self, node: int) -> int:
        return self.route[self.route.index(node) + 1]


@dataclass(eq=False)
class Frame:
    """MAC protocol data unit."""

    kind: FrameKind
    src: int
    dst: int
    payload_bits: int
    tx_duration: float
    packet: Optional[Packet] = None

    def __post_init__(self):
        if self.payload_bits < 0:
            raise ValueError("Frame.payload_bits must be >= 0")
        if self.tx_duration <= 0:
            raise ValueError("Frame.tx_duration must be > 0")


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


# ------------------------------------------------------------------ actions


@dataclass(eq=False)
class Send:
    frame: Frame
    delay: float = 0.0


@dataclass(slots=True)
class Arm:
    key: str
    delay: float


@dataclass(slots=True)
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
    """The four-frame reservation handshake both protocol families share.

    A sender's request wins a reply that moves it to the data phase, and
    the acknowledgement of its data frame starts the next packet; a phase
    left unanswered is retried ``n_max`` times, then its packet is dropped.
    A receiver reserves itself for one requester until that requester's
    data arrives or the reservation timer expires.  Subclasses set the
    frame kinds ``REQUEST``, ``REPLY``, ``DATA`` and ``ACK`` and the
    ``FIRST_PHASE`` name, and define ``_start_packet`` (which sets
    ``phase``), ``_send_data`` and ``_retry``.
    """

    kind = "abstract"
    DATA_PHASE = "data"

    def __init__(self, node_id, timers, data_rate, control_bits, rng=None, medium=None):
        self.node_id = node_id
        self.timers = timers
        self.data_rate = data_rate
        self.control_bits = control_bits
        self.rng = rng
        self.medium = medium
        self.queue: deque[tuple[Packet, int]] = deque()
        self.current: Optional[tuple[Packet, int]] = None
        self.retries = 0
        self.phase: Optional[str] = None
        self.reserved_for: Optional[int] = None
        self.delivered_ids: set[int] = set()
        self.stats = {"drops": 0, "handshake_omissions": 0, "step4_deferrals": 0}

    # -- hooks the simulator drives ---------------------------------------
    # (a hook never calls another hook, so traced hook calls do not nest)

    def enqueue(self, packet: Packet, dst: int, now: float) -> list[Action]:
        self.queue.append((packet, dst))
        if self.current is None:
            return self._begin_next(now)
        return []

    def on_frame(self, frame: Frame, now: float) -> list[Action]:
        if frame.dst != self.node_id:
            return []  # overheard frames are discarded
        return self._addressed(frame, now)

    def on_tx_start(self, frame: Frame, now: float) -> list[Action]:
        """Arm the response timer when the current phase's frame airs."""
        if self.current is None:
            return []
        if frame.kind is (self.REQUEST if self.phase == self.FIRST_PHASE else self.DATA):
            return [Arm("response", self.timers.t_th)]
        return []

    def on_timer(self, key: str, now: float) -> list[Action]:
        """A response timer always finds the phase and packet it was armed
        for: every change of either cancels it or comes while it is not armed."""
        if key == "reservation":
            return self._release_reservation()
        if self.current is None:
            return []
        if key != "response":
            return self._on_timer(key, now)
        if self.retries >= self.timers.n_max:
            return self._drop_current(now, f"{self.phase} retry limit")
        self.retries += 1
        return self._retry(now)

    # -- the handshake -----------------------------------------------------

    def _addressed(self, frame: Frame, now: float) -> list[Action]:
        kind = frame.kind
        if kind is self.REQUEST:
            if self.reserved_for in (None, frame.src):
                return self._reply(frame.src, frame.packet)
            return self._on_reserved(frame)
        if kind is self.REPLY:
            if not self._answers(frame, self.FIRST_PHASE):
                return []
            # reservation complete; move to the data phase
            self.retries = 0
            self.phase = self.DATA_PHASE
            return [Cancel("response"), *self._send_data(now)]
        if kind is self.DATA:
            # the acknowledgement goes first, so a relayed packet's request
            # queues behind it
            actions: list[Action] = [Send(self._control_frame(self.ACK, frame.src, packet=frame.packet))]
            if frame.packet.packet_id not in self.delivered_ids:
                self.delivered_ids.add(frame.packet.packet_id)
                actions.append(Deliver(frame.packet))
            if self.reserved_for == frame.src:
                actions.extend(self._release_reservation())
            return actions
        if kind is self.ACK:
            if not self._answers(frame, self.DATA_PHASE):
                return []
            self.phase = None
            return [Cancel("response"), *self._begin_next(now)]
        raise ValueError(f"{self.kind} engine cannot handle frame kind {kind.value}")

    def _answers(self, frame: Frame, phase: str) -> bool:
        """Whether ``frame`` answers the current packet's ``phase`` frame; a
        frame naming another packet answers an already-abandoned one."""
        current = self.current
        return (current is not None and self.phase == phase and frame.src == current[1]
                and (frame.packet is None or frame.packet.packet_id == current[0].packet_id))

    def _reply(self, requester: int, packet: Optional[Packet]) -> list[Action]:
        self.reserved_for = requester
        reply = self._control_frame(self.REPLY, requester, packet=packet)
        return [Send(reply), Arm("reservation", self.timers.t_th)]

    def _begin_next(self, now: float) -> list[Action]:
        if not self.queue:
            self.current = None
            return []
        self.current = self.queue.popleft()
        self.retries = 0
        return self._start_packet(now)

    def _drop_current(self, now: float, reason: str) -> list[Action]:
        packet, _ = self.current
        self.stats["drops"] += 1
        actions: list[Action] = [Cancel("response"), Drop(packet, reason)]
        actions.extend(self._begin_next(now))
        return actions

    # -- protocol hooks with a default -------------------------------------

    def _on_reserved(self, frame: Frame) -> list[Action]:
        return []  # a busy receiver stays silent; the sender times out

    def _release_reservation(self) -> list[Action]:
        self.reserved_for = None
        return [Cancel("reservation")]

    def _on_timer(self, key: str, now: float) -> list[Action]:
        return []

    # -- frames ------------------------------------------------------------

    def _control_frame(self, kind: FrameKind, dst: int, **extra) -> Frame:
        return Frame(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload_bits=self.control_bits,
            tx_duration=self.control_bits / self.data_rate,
            **extra,
        )

    def _data_frame(self, kind: FrameKind, dst: int, packet: Packet) -> Frame:
        return Frame(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload_bits=packet.size_bits,
            tx_duration=packet.size_bits / self.data_rate,
            packet=packet,
        )


def step4_defers(heard, own, victim_norm: float, victim_offpeak: float, phy) -> bool:
    """TRMAC step 4: whether a probe reply heard over the channel ``heard``,
    on a victim link of norm ``victim_norm`` and off-peak autocorrelation
    sum ``victim_offpeak``, makes a sender on the ``own`` link defer: the
    link pair's threshold does not exist or the peak cross-correlation
    exceeds it."""
    eta = peak_eta(heard, own)
    threshold = eta_threshold(victim_norm, victim_offpeak, heard, own, phy)
    return threshold is None or eta > threshold


class TrmacEngine(MacEngine):
    """Probe-reservation MAC with time-reversed data transfer.

    Handshake: P_R -> PRO -> TR_DATA -> TR_ACK.  A PRO carries no numbers:
    its ``(src, dst)`` names the victim link, whose norm and off-peak
    autocorrelation sum the paper's receiver piggybacks, and a listener
    reads them from the ``LinkTable``.  ``pro_cache`` maps each origin to
    the requester of its latest probe heard and the time it was heard.  A
    probe overheard from the intended receiver within the coherence time
    lets the sender skip the P_R/PRO exchange entirely; probes overheard
    from third parties feed the correlation-threshold backoff that
    protects their in-progress receptions.  The simulator hands an
    engine only the overheard probes that can change what it does: every
    probe of its next hops, and every probe of an origin one of whose
    probes can make it defer (``Simulator._pro_listeners_of``).
    """

    kind = TRMAC
    REQUEST, REPLY, DATA, ACK = FrameKind.P_R, FrameKind.PRO, FrameKind.TR_DATA, FrameKind.TR_ACK
    FIRST_PHASE = "probe"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pro_cache: dict[int, tuple[int, float]] = {}  # origin -> (requester, heard at)
        self.deferred_prs: deque[int] = deque()  # requester ids

    # bound here so that tracing TRMAC's hooks sees every P_R that airs
    on_tx_start = MacEngine.on_tx_start

    def on_frame(self, frame: Frame, now: float) -> list[Action]:
        if frame.kind is FrameKind.PRO:
            # every probe reply heard, addressed or overheard, is cached
            self.pro_cache[frame.src] = (frame.dst, now)
        if frame.dst != self.node_id:
            return []
        return self._addressed(frame, now)

    # -- sender side -------------------------------------------------------

    def _start_packet(self, now: float) -> list[Action]:
        dst = self.current[1]
        entry = self.pro_cache.get(dst)
        if entry is not None and now - entry[1] < self.timers.coherence_time:
            # handshake omission: the cached probe still describes the link
            self.stats["handshake_omissions"] += 1
            self.phase = self.DATA_PHASE
            return self._send_data(now, t_pro_b=now - entry[1])
        self.phase = self.FIRST_PHASE
        return [Send(self._control_frame(FrameKind.P_R, dst))]

    def _send_data(self, now: float, t_pro_b: Optional[float] = None) -> list[Action]:
        packet, dst = self.current
        backoff = self.compute_backoff(now, t_pro_b, dst)
        return [Send(self._data_frame(FrameKind.TR_DATA, dst, packet), delay=backoff)]

    def _retry(self, now: float) -> list[Action]:
        dst = self.current[1]
        if self.phase == self.FIRST_PHASE:
            return [Send(self._control_frame(FrameKind.P_R, dst))]
        # the probe that opened the data phase stays cached
        return self._send_data(now, t_pro_b=now - self.pro_cache[dst][1])

    def compute_backoff(self, now: float, t_pro_b: Optional[float], dst: int) -> float:
        """Steps 3-5 deferral before sending to ``dst``.

        t_pro_b None marks the fresh-handshake path, where the receiver
        term is defined to vanish.  Each third-party probe overheard
        within the collision window is checked against the threshold of
        its victim link (``LinkTable.defers``, which keeps each check it
        computes); conflicting ones extend the deferral to the end of
        their window.
        """
        t_cl = self.timers.t_cl
        backoff = max(t_cl - t_pro_b, 0.0) if t_pro_b is not None else 0.0
        defers, node = self.medium.links.defers, self.node_id
        for origin, (requester, heard_at) in self.pro_cache.items():
            if origin == dst:
                continue
            age = now - heard_at
            if age >= t_cl:
                continue
            if defers(origin, node, dst, requester):
                self.stats["step4_deferrals"] += 1
                backoff = max(backoff, t_cl - age)
        return backoff

    # -- receiver side -----------------------------------------------------

    def _on_reserved(self, frame: Frame) -> list[Action]:
        # already reserved by another link: defer the reply until it clears
        if frame.src in self.deferred_prs:
            self.deferred_prs.remove(frame.src)
        self.deferred_prs.append(frame.src)
        return []

    def _release_reservation(self) -> list[Action]:
        actions = super()._release_reservation()
        if self.deferred_prs:
            actions.extend(self._reply(self.deferred_prs.popleft(), None))
        return actions


class CsmaEngine(MacEngine):
    """Carrier-sense four-frame handshake (RTS/CTS/DATA/ACK).

    CSMA/CA backs off uniformly in [0, 2^i] seconds for the i-th
    retransmission; the simplified variant always uses [0, 2] seconds.
    Sensing reflects only signals currently impinging at this node, so
    the long propagation delays leave it largely blind -- which is the
    point of the comparison.
    """

    REQUEST, REPLY, DATA, ACK = FrameKind.RTS, FrameKind.CTS, FrameKind.DATA, FrameKind.ACK
    FIRST_PHASE = "rts"

    def __init__(self, *args, s_csma_cap, kind=CSMA_CA, **kwargs):
        super().__init__(*args, **kwargs)
        if kind not in (CSMA_CA, S_CSMA_CA):
            raise ValueError(f"unknown CSMA engine kind {kind!r}")
        self.kind = kind
        self.s_csma_cap = s_csma_cap

    def backoff_window(self) -> float:
        if self.kind == S_CSMA_CA:
            return self.s_csma_cap
        return 2.0 ** max(1, self.retries)

    def _start_packet(self, now: float) -> list[Action]:
        self.phase = self.FIRST_PHASE
        return self._when_idle(now, self._transmit_pending)

    def _when_idle(self, now: float, then) -> list[Action]:
        """``then(now)`` if the channel is idle, else sense again once it clears."""
        busy_until = self.medium.busy_until(self.node_id, now)
        if busy_until is None:
            return then(now)
        return [Arm("sense", max(busy_until - now, 0.0))]

    def _transmit_pending(self, now: float) -> list[Action]:
        if self.phase == self.FIRST_PHASE:
            packet, dst = self.current
            return [Send(self._control_frame(FrameKind.RTS, dst, packet=packet))]
        return self._send_data(now)

    def _send_data(self, now: float) -> list[Action]:
        packet, dst = self.current
        return [Send(self._data_frame(FrameKind.DATA, dst, packet))]

    def _retry(self, now: float) -> list[Action]:
        """Draw a backoff, after which the pending frame airs if still idle."""
        return [Arm("backoff", float(self.rng.uniform(0.0, self.backoff_window())))]

    def _on_timer(self, key: str, now: float) -> list[Action]:
        if key == "sense":
            return self._when_idle(now, self._retry)
        if key == "backoff":
            # busy again: defer until idle, then draw a fresh backoff
            return self._when_idle(now, self._transmit_pending)
        return []


def make_engine(protocol: str, *args, s_csma_cap: float, **kwargs) -> MacEngine:
    if protocol == TRMAC:
        return TrmacEngine(*args, **kwargs)
    if protocol in (CSMA_CA, S_CSMA_CA):
        return CsmaEngine(*args, kind=protocol, s_csma_cap=s_csma_cap, **kwargs)
    raise ValueError(f"unknown MAC protocol {protocol!r}")
