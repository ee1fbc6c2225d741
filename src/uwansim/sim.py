"""Discrete-event engine binding channel, physical layer, and MAC engines.

One run owns one event heap and one set of RNG streams, so identical
scenarios and seeds replay identically.

Every frame reaches every other node after the pair's propagation delay:
its arrival at node v covers ``[tx + delay(src, v), ... + duration)``,
where the duration is the frame's ``payload_bits / network.data_rate_bps``.
Only *tracked* receptions are events, a start and an end each: frames
addressed to the node and, under TRMAC, probe replies (PROs) overheard by a
sender whose actions they can change.  An overheard probe never holds a
receiver or corrupts another reception; it only enters the listener's
``TrmacEngine.pro_cache``, which keeps the latest probe of each origin.  A
sender reads that cache for its next hops (handshake omission and retry)
and for the step-4 backoff, where a probe counts only if it makes the
sender defer (``LinkTable.defers``).  So a sender v tracks the probes of an
origin u only if u is a next hop of v or some probe u can send (to a route
predecessor, whose link is then the victim) defers v for a next hop other
than u; and then every probe of u, since a probe that does not defer still
replaces one that does.  Every other
arrival matters only as interference or carrier-sense power, so the engine
keeps a log with one entry per transmission (tx time, the event sequence
number taken at tx start, the frame) and answers from it:

* the interference of a tracked reception, summed at its end over every
  other transmission whose arrival at that node overlaps it (the worst
  case of chunk-wise SINR over overlapping signals);
* ``busy_until``, the latest end among arrivals sensed at a node now,
  for CSMA carrier sense.

Each query scans the log once and applies the key rule below inline.
``busy_until`` and ``_interference`` keep a loop each: one shared scan
returning the overlapping entries made a default 2000-s CSMA/CA run slower,
0.1793 -> 0.1887 s of CPU (least of 10 alternating pairs, 2-vCPU VM).  At
each transmission the log drops, from its front, every entry whose latest
arrival end plus the longest frame sent so far is before now.  This relies
on every reception lasting no longer than the longest frame sent before
it: a reception open now ends at or after now, so it began after such an
entry ended everywhere, and one still to come begins at or after now; no
query can find the entry again.  The test adds the longest frame to the
entry's end because subtracting it from now can round past a reception's
start (``Simulator._trim_log``).

Debug records (``record_events``) are built only when they are kept.

Half-duplex and receiver-lock rules act on the node's open tracked
receptions only.

Per-pair quantities live in a ``LinkTable``: symmetric n x n rows of CIR,
delay, impinging power and direct-transmission signal and ISI, read by
plain indexing.  They depend only on the placement (node positions,
seed, environment, channel model and phy), so a table is built for a
placement in one pass and may serve every run on it: a run builds its own
at its first transmission unless it is handed one (``Simulator(...,
links=)``), and a preset call shares one per placement across its runs.
The seed is part of the placement because the statistical channel draws
its taps with it, so no table serves two seeds.  A link's norm
and off-peak autocorrelation sum, which the paper's probe replies carry, are
filled in once, at the first step-4 check with it as the victim or at its
first TR frame; its TR quantities (signal and ISI from those two, ILI at
every victim) at its first TR frame.  MAC engines read the table by node
ids: a probe reply carries no numbers, its ``(src, dst)`` names the victim
link, and ``LinkTable.defers`` keys each step-4 check by four node ids.  A
pair's CIR and delay come from its lower -> higher node index direction, so
an arrival file that gives the two directions different records yields the
same results whichever node speaks first.

Ties.  Heap entries are ``(time, seq, kind, subject, attachment)`` tuples;
``seq`` grows with every push, so equal-time events run in the order they
were scheduled.  Every arrival boundary of a transmission has the key
``(time, seq of the transmission)``; while the event with key ``(t, s)`` is
handled, a boundary has passed iff its key is smaller.  Overlapping
arrivals are sorted by ``(arrival start, seq)`` and added to a ``0.0``
accumulator.  This is the order in which one event per arrival boundary
would be handled, so the float sums and every equal-time outcome are the
same as scheduling all of them.  A frame that finds its transmitter busy
waits as an ``EV_SEND``, the event of a delayed ``Send``, pushed at its
submission for the time the transmitter frees; if that event finds the
transmitter busy again, the frame is pushed again at the new free time.  So
frames waiting at one node start back to back in the order they were
submitted, with one exception: an event scheduled for exactly the instant a
second waiting frame resumes, after the frame ahead of it started and
before the second frame's event ran, comes before that frame's new event.
Say a third frame is submitted at the node at the very instant its
transmitter frees: it airs before the second.  No golden case and no
recorded benchmark seed schedules such an event.

Timers.  Each ``Arm`` or ``Cancel`` of a key starts a new generation of it;
a timer reaches its engine only if it holds the key's latest generation.
"""

from __future__ import annotations

import heapq
import math
import operator
import weakref
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .channel import ChannelModel, norm
from .mac import (
    Arm,
    Cancel,
    DATA_KINDS,
    Deliver,
    Drop,
    Frame,
    FrameKind,
    MacTimers,
    Packet,
    Send,
    TR_KINDS,
    make_engine,
    step4_defers,
)
from .scenario import Scenario, check_scenario
from .tr_phy import autocorr_offpeak_sum, p_ili, sdt_powers, sinr_from_parts, tr_powers

# event kinds, which index the handler table of ``Simulator.run``
EV_ARRIVAL = 0
EV_RX_START = 1
EV_RX_END = 2
EV_TIMER = 3
EV_SEND = 4  # a delayed Send, or a frame waiting for its transmitter


class _RxRecord:
    """One tracked reception: a frame addressed to, or a probe overheard by, a node."""

    __slots__ = ("frame", "rx_start", "rx_end", "seq", "corrupted")

    def __init__(self, frame, rx_start, rx_end, seq):
        self.frame = frame
        self.rx_start = rx_start
        self.rx_end = rx_end
        self.seq = seq  # of the transmission
        self.corrupted = False


class _NodeState:
    __slots__ = ("engine", "tx_busy_until", "tracked", "rx_lock", "timer_gen")

    def __init__(self, engine):
        self.engine = engine
        self.tx_busy_until = 0.0
        self.tracked = []  # tracked receptions that started and have not ended
        self.rx_lock = None
        self.timer_gen = {}


@dataclass
class RunTrace:
    """Raw per-run observations the metrics are computed from."""

    generated: int = 0
    deliveries: list = field(default_factory=list)      # (time, packet_id, delay)
    drops: list = field(default_factory=list)           # (time, packet_id)
    data_tx_times: list = field(default_factory=list)
    busy_intervals: list = field(default_factory=list)  # (start, end)
    rx_success: list = field(default_factory=list)      # (time, payload_bits)
    events: Optional[list] = None                       # debug records when enabled


@dataclass
class MetricsRecord:
    generated: int
    delivered: int
    dropped: int
    in_flight: int
    delay_samples: list
    mean_delay: float
    data_frames_transmitted: int
    drop_ratio: float
    busy_time: float
    received_bits: int
    throughput: float
    series: Optional[list] = None


@dataclass
class RunResult:
    metrics: MetricsRecord
    trace: RunTrace
    engine_stats: dict


def _time_ordered(field_name: str, times: list, what: str = "times") -> list:
    """``times`` itself, checked non-decreasing, as ``collect_metrics``
    bisects it."""
    if any(map(operator.gt, times, times[1:])):
        raise ValueError(f"RunTrace.{field_name}: {what} must be non-decreasing")
    return times


def _check_sample_every(sample_every: float | None) -> None:
    if sample_every is not None and not 0.0 < sample_every < math.inf:
        raise ValueError(f"sample_every: expected a positive finite number, got {sample_every!r}")


def collect_metrics(trace: RunTrace, duration: float, warmup: float = 0.0,
                    sample_every: float | None = None) -> MetricsRecord:
    """Aggregate a run trace into delay / drop-ratio / throughput metrics.

    Drop ratio counts dropped data frames against transmitted data frames
    including retransmissions; a sender-side drop of a packet that still
    reached its destination (its acknowledgments were lost) is no loss.
    Throughput counts correctly received payload bits over the union of
    data-frame in-flight intervals.

    The figures at a bound ``until`` count the entries with ``warmup <=
    time <= until``, both bounds inclusive, and the union of the busy
    intervals that start before ``until``, clipped to ``[warmup, until]``.
    A bound below ``warmup`` gives ``nan`` / ``0.0`` / ``0.0``.  The record
    is taken at ``duration``; with ``sample_every`` (positive and finite, or
    ValueError), ``series`` adds one row at ``min(t, duration)`` for ``t =
    sample_every, t += sample_every, ...`` while ``t <= duration + 1e-9``.
    ``duration`` and ``warmup`` must be finite and non-negative, or
    ValueError naming the argument.

    The five trace lists must be in time order (busy intervals by start),
    as the engine appends them, or ValueError naming the list.  Running
    totals of the entries from ``warmup`` on are added left to right from
    ``0.0``, so the sums do not depend on how the Python version's ``sum()``
    rounds; so is the busy union, whose state is kept after each interval.
    Each bound then reads its figures from them with a few bisects.
    """
    for name, value in (("duration", duration), ("warmup", warmup)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name}: expected a finite non-negative number, got {value!r}")
    _check_sample_every(sample_every)
    deliveries, drops, rx_success = trace.deliveries, trace.drops, trace.rx_success
    delivery_t = _time_ordered("deliveries", [d[0] for d in deliveries])
    drop_t = _time_ordered("drops", [d[0] for d in drops])
    tx_t = _time_ordered("data_tx_times", trace.data_tx_times)
    _time_ordered("busy_intervals", [iv[0] for iv in trace.busy_intervals], "starts")
    rx_t = _time_ordered("rx_success", [r[0] for r in rx_success])
    delivered_ids = {d[1] for d in deliveries}

    # entries before warmup never count: each total starts at the first after it
    i_del, i_drop, i_tx, i_rx = (bisect_left(ts, warmup) for ts in (delivery_t, drop_t, tx_t, rx_t))
    delays = [d[2] for d in deliveries[i_del:]]
    delay_sums = list(accumulate(delays, initial=0.0))
    drop_counts = list(accumulate((d[1] not in delivered_ids for d in drops[i_drop:]), initial=0))
    bit_sums = list(accumulate((r[1] for r in rx_success[i_rx:]), initial=0))
    # the union after each interval, clipped to start at warmup: the length of
    # the segments no later interval reaches, and the open segment, which
    # starts as the empty [0, 0] (no bound is negative)
    starts, unions = [], [(0.0, 0.0, 0.0)]
    closed, lo, hi = unions[0]
    for a, b in trace.busy_intervals:
        a = max(a, warmup)
        if b <= a:
            continue  # empty after clipping
        if a > hi:
            closed += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
        starts.append(a)
        unions.append((closed, lo, hi))

    def figures(until: float) -> tuple:
        n = bisect_right(delivery_t, until, i_del) - i_del
        n_drop = drop_counts[bisect_right(drop_t, until, i_drop) - i_drop]
        n_tx = bisect_right(tx_t, until, i_tx) - i_tx
        bits = bit_sums[bisect_right(rx_t, until, i_rx) - i_rx]
        closed, lo, hi = unions[bisect_left(starts, until)]
        busy = closed + (min(hi, until) - lo)
        drop_ratio = min(1.0, n_drop / n_tx) if n_tx else (1.0 if n_drop else 0.0)
        row = {"time": until, "mean_delay": delay_sums[n] / n if n else math.nan,
               "drop_ratio": drop_ratio, "throughput": bits / busy if busy > 0 else 0.0}
        return row, n, n_drop, n_tx, bits, busy

    series = None
    if sample_every is not None:
        series = []
        t = sample_every
        while t <= duration + 1e-9:
            series.append(figures(min(t, duration))[0])
            t += sample_every
    row, n, n_drop, n_tx, bits, busy = figures(duration)
    dropped_ids = {d[1] for d in drops} - delivered_ids
    return MetricsRecord(
        generated=trace.generated,
        delivered=n,
        dropped=n_drop,
        in_flight=trace.generated - len(delivered_ids) - len(dropped_ids),
        delay_samples=delays[:n],
        mean_delay=row["mean_delay"],
        data_frames_transmitted=n_tx,
        drop_ratio=row["drop_ratio"],
        busy_time=busy,
        received_bits=bits,
        throughput=row["throughput"],
        series=series,
    )


def placement(scenario: Scenario) -> tuple:
    """What the link table of a scenario depends on: its node positions,
    seed, environment, channel model and phy, as hashable values."""
    nodes = tuple(map(tuple, scenario.network.nodes))
    return nodes, scenario.seed, scenario.environment, scenario.channel, scenario.phy


class LinkTable:
    """The per-pair quantities of one placement (module docstring).

    ``cir`` (read-only tap rows), ``delay``, ``power`` (impinging) and
    ``direct`` (signal, ISI) are symmetric n x n rows, ``None`` on the
    diagonal; ``reach[v]`` is the latest arrival offset of v's frames at
    any node.  ``tr[a][b]`` is the
    ``(signal, ISI, ILI by victim)`` of frames a sends on link (a, b),
    ``None`` until ``fill_tr`` computes it; ``reply[a][b]``, symmetric, is
    ``None`` until ``reply_quantities`` computes it.  ``defers`` keeps each
    TRMAC step-4 check it computes.
    """

    def __init__(self, scenario: Scenario):
        """Build every pair of the placement of ``scenario``, a resolved one."""
        self.key = placement(scenario)
        self.phy = phy = scenario.phy
        nodes = scenario.network.nodes
        n = len(nodes)
        self.cir: list[list] = [[None] * n for _ in range(n)]
        self.delay: list[list] = [[None] * n for _ in range(n)]
        self.power: list[list] = [[None] * n for _ in range(n)]
        self.direct: list[list] = [[None] * n for _ in range(n)]
        self.tr: list[list] = [[None] * n for _ in range(n)]
        self.reply: list[list] = [[None] * n for _ in range(n)]
        self._defers: dict[tuple, bool] = {}
        pairs = ChannelModel(scenario.environment, scenario.channel).pairs(nodes, scenario.seed)
        for i, j, c, energy, delay in pairs:
            direct = sdt_powers(c, phy)
            for a, b in ((i, j), (j, i)):
                self.cir[a][b] = c
                self.delay[a][b] = delay
                self.power[a][b] = phy.avg_transmit_power * energy
                self.direct[a][b] = direct
        self.reach = [max(x for x in row if x is not None) for row in self.delay]

    def fill_tr(self, a: int, b: int) -> None:
        """Fill the TR quantities of frames a sends on link (a, b)."""
        own, row = self.cir[a][b], self.cir[a]
        ili = [None if v == a else p_ili(row[v], own, self.phy) for v in range(len(row))]
        self.tr[a][b] = (*tr_powers(*self.reply_quantities(a, b), self.phy), ili)

    def reply_quantities(self, a: int, b: int) -> tuple[float, float]:
        """The ``(norm, off-peak autocorrelation sum)`` of link (a, b), which
        the paper's probe replies on it piggyback."""
        if self.reply[a][b] is None:
            c = self.cir[a][b]
            self.reply[a][b] = self.reply[b][a] = (norm(c), autocorr_offpeak_sum(c, self.phy.updown_factor))
        return self.reply[a][b]

    def defers(self, origin: int, listener: int, dst: int, victim: int) -> bool:
        """Whether a probe reply from ``origin`` to ``victim``, overheard at
        ``listener``, makes the listener defer its frames to ``dst``
        (``mac.step4_defers`` on the victim link's ``reply_quantities``).
        Each check depends only on the four node ids, so it is computed once."""
        key = (origin, listener, dst, victim)
        check = self._defers.get(key)
        if check is None:
            check = self._defers[key] = step4_defers(
                self.cir[origin][listener], self.cir[listener][dst], *self.reply_quantities(origin, victim), self.phy)
        return check


class Simulator:
    """One scenario, one seed, one deterministic event loop."""

    def __init__(self, scenario: Scenario, record_events: bool = False, links: LinkTable | None = None):
        """Check ``scenario``, which must be resolved, and set up to run it as
        it is.  ``links`` is a table of the scenario's placement to use, and
        fill, instead of building one; ValueError if it is another's."""
        check_scenario(scenario)
        if links is not None and links.key != placement(scenario):
            raise ValueError("Simulator: links: the table was built for another placement")
        self.links = links
        self.scenario = scenario
        self.phy = scenario.phy
        self.n_nodes = len(scenario.network.nodes)
        self.timers = MacTimers(
            t_p=scenario.network.one_hop_range / scenario.environment.nominal_sound_speed,
            t_tr=scenario.traffic.packet_bits / scenario.network.data_rate,
            delta=scenario.mac.guard_time,
            coherence_time=scenario.mac.coherence_time,
            n_max=scenario.mac.n_max,
        )

        # engines reach the medium through a proxy, so a finished run holds
        # no reference cycle and is freed as soon as it is dropped
        medium = weakref.proxy(self)
        self.nodes: list[_NodeState] = []
        for i in range(self.n_nodes):
            engine = make_engine(
                scenario.mac.protocol,
                i,
                self.timers,
                control_bits=scenario.mac.control_bits,
                rng=np.random.default_rng(np.random.SeedSequence((scenario.seed, 0x3AC, i))),
                medium=medium,
                s_csma_cap=scenario.mac.s_csma_max_backoff,
            )
            self.nodes.append(_NodeState(engine))

        self.flow_rngs = [
            np.random.default_rng(np.random.SeedSequence((scenario.seed, 0xF10, f)))
            for f in range(len(scenario.network.routes))
        ]

        if scenario.mac.sense_threshold_w is not None:
            self.sense_threshold = scenario.mac.sense_threshold_w
        else:
            # receiver sensitivity: the weakest decodable signal is sensed
            self.sense_threshold = self.phy.min_required_sinr * self.phy.noise_variance

        # the nodes that track the PROs node u sends, built at u's first PRO
        self._pro_listeners: list[list | None] = [None] * self.n_nodes

        # transmission log in tx order: (tx time, seq, src, duration, frame,
        # latest arrival end at any node)
        self._tx_log: deque = deque()
        self._longest = 0.0  # the longest tx duration sent so far
        self.heap: list[tuple] = []
        self._seq = 0
        self._event_seq = 0  # seq of the event being handled
        self._ran = False
        self.trace = RunTrace(events=[] if record_events else None)

    # ---------------------------------------------------- transmission log

    def busy_until(self, node_id: int, now: float) -> float | None:
        """Latest arrival end among signals currently sensed at the node."""
        if not self._tx_log:
            return None  # nothing sent yet, so no link table either
        delay, power = self.links.delay[node_id], self.links.power[node_id]
        threshold, seq = self.sense_threshold, self._event_seq
        latest = None
        for t, q, src, dur, _, _ in self._tx_log:
            if src == node_id or power[src] < threshold:
                continue
            start = t + delay[src]
            if start > now or (start == now and q > seq):
                continue
            end = start + dur
            if end < now or (end == now and q < seq):
                continue
            if latest is None or end > latest:
                latest = end
        return latest

    def _interference(self, rec: _RxRecord, node_id: int) -> float:
        """Power of every other arrival overlapping a tracked reception,
        added in arrival order (seq is unique, so powers are never compared)."""
        links = self.links
        delay, power, tr = links.delay[node_id], links.power[node_id], links.tr
        lo, hi, seq = rec.rx_start, rec.rx_end, rec.seq
        found = []
        for t, q, src, dur, frame, _ in self._tx_log:
            if src == node_id or q == seq:
                continue
            start = t + delay[src]
            if start > hi or (start == hi and q > seq):
                continue
            end = start + dur
            if end < lo or (end == lo and q < seq):
                continue
            part = tr[frame.src][frame.dst][2][node_id] if frame.kind in TR_KINDS else power[src]
            found.append((start, q, part))
        if len(found) > 1:
            found.sort()
        total = 0.0
        for _, _, part in found:
            total += part
        return total

    def _trim_log(self, now: float) -> None:
        """Drop the oldest transmissions whose latest arrival end ``e``
        has ``e + _longest < now``.

        This relies on every reception lasting no longer than the longest
        frame sent before it.  A reception open now ends at ``fl(rx_start +
        duration) >= now`` with ``duration <= _longest``, and rounding is
        monotone, so ``e + _longest < now`` gives ``e < rx_start``: the entry
        ended before the reception began, even at an exact tie; a reception
        still to come starts at or after ``now > e``.  The test adds
        ``_longest`` to ``e`` rather than checking ``e < now - _longest``,
        whose subtraction can round past a reception's start."""
        log, longest = self._tx_log, self._longest
        while log and log[0][5] + longest < now:
            log.popleft()

    # ---------------------------------------------------------- scheduling

    def _push(self, time: float, kind: int, subject, attachment) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (time, self._seq, kind, subject, attachment))

    def schedule_packet(self, flow_idx: int, time: float) -> None:
        """Inject one packet arrival on a flow (test and tooling hook)."""
        self._push(time, EV_ARRIVAL, flow_idx, None)

    def _schedule_flow_arrival(self, flow_idx: int, now: float) -> None:
        mean = self.scenario.traffic.mean_interarrival
        if mean is None:
            return
        gap = float(self.flow_rngs[flow_idx].exponential(mean))
        when = now + gap
        if when <= self.scenario.duration:
            self._push(when, EV_ARRIVAL, flow_idx, "auto")

    # -------------------------------------------------------------- events

    def run(self, sample_every: float | None = None) -> RunResult:
        """Simulate to ``scenario.duration``; ``sample_every`` adds the
        metrics series of ``collect_metrics``, whose ValueError for a bad
        period comes before the first event.  A simulator runs once; a
        second call raises RuntimeError before it handles any event."""
        if self._ran:
            raise RuntimeError("Simulator.run: this simulator has already run; build a new one")
        _check_sample_every(sample_every)
        self._ran = True
        for flow_idx in range(len(self.scenario.network.routes)):
            self._schedule_flow_arrival(flow_idx, 0.0)
        duration = self.scenario.duration
        heap = self.heap
        heappop = heapq.heappop
        handlers = (self._handle_arrival, self._handle_rx_start, self._handle_rx_end,
                    self._handle_timer, self._submit_frame)
        while heap:
            time, seq, kind, subject, attachment = heappop(heap)
            if time > duration:
                break
            self._event_seq = seq
            handlers[kind](subject, attachment, time)
        metrics = collect_metrics(self.trace, duration, self.scenario.warmup, sample_every)
        stats = {key: sum(state.engine.stats[key] for state in self.nodes) for key in self.nodes[0].engine.stats}
        return RunResult(metrics=metrics, trace=self.trace, engine_stats=stats)

    def _handle_arrival(self, flow_idx: int, tag, now: float) -> None:
        route = self.scenario.network.routes[flow_idx]
        self.trace.generated += 1
        packet = Packet(
            packet_id=self.trace.generated,
            route=route,
            size_bits=self.scenario.traffic.packet_bits,
            created_at=now,
        )
        if self.trace.events is not None:
            self._log(now, route[0], "packet_arrival", "-", f"flow{flow_idx}")
        actions = self.nodes[route[0]].engine.enqueue(packet, route[1], now)
        self._process_actions(route[0], actions, now)
        if tag == "auto":
            self._schedule_flow_arrival(flow_idx, now)

    def _process_actions(self, node_id: int, actions, now: float) -> None:
        state = self.nodes[node_id]
        for action in actions:
            kind = type(action)  # no action class has a subclass
            if kind is Send:
                if action.delay > 0.0:
                    self._push(now + action.delay, EV_SEND, node_id, action.frame)
                else:
                    self._submit_frame(node_id, action.frame, now)
            elif kind is Arm:
                gen = state.timer_gen.get(action.key, 0) + 1
                state.timer_gen[action.key] = gen
                self._push(now + action.delay, EV_TIMER, node_id, (action.key, gen))
            elif kind is Cancel:
                state.timer_gen[action.key] = state.timer_gen.get(action.key, 0) + 1
            elif kind is Deliver:
                self._handle_delivery(node_id, action.packet, now)
            elif kind is Drop:
                self.trace.drops.append((now, action.packet.packet_id))
                if self.trace.events is not None:
                    self._log(now, node_id, "drop", "-", action.reason)
            else:
                raise TypeError(f"unknown MAC action {action!r}")

    def _submit_frame(self, node_id: int, frame: Frame, now: float) -> None:
        state = self.nodes[node_id]
        if state.tx_busy_until > now:
            self._push(state.tx_busy_until, EV_SEND, node_id, frame)
            return
        self._start_tx(node_id, frame, now)

    def _start_tx(self, node_id: int, frame: Frame, now: float) -> None:
        state = self.nodes[node_id]
        duration = frame.payload_bits / self.scenario.network.data_rate
        state.tx_busy_until = now + duration
        # half-duplex: transmitting destroys anything currently arriving here
        for rec in state.tracked:
            rec.corrupted = True
        self._process_actions(node_id, state.engine.on_tx_start(frame, now), now)
        links = self.links
        if links is None:
            links = self.links = LinkTable(self.scenario)
        if frame.kind in TR_KINDS and links.tr[frame.src][frame.dst] is None:
            links.fill_tr(frame.src, frame.dst)
        if frame.kind in DATA_KINDS:
            self.trace.data_tx_times.append(now)
            self.trace.busy_intervals.append((now, now + duration + links.delay[frame.dst][node_id]))
        if self.trace.events is not None:
            self._log(now, node_id, "tx_start", frame.kind.value, f"to {frame.dst}")
        self._seq += 1
        seq = self._seq
        if duration > self._longest:
            self._longest = duration
        self._trim_log(now)
        self._tx_log.append((now, seq, node_id, duration, frame, now + links.reach[node_id] + duration))
        if frame.kind is FrameKind.PRO:  # its addressee is a listener too
            receivers = self._pro_listeners[node_id]
            if receivers is None:
                receivers = self._pro_listeners[node_id] = self._pro_listeners_of(node_id)
        else:
            receivers = (frame.dst,)
        heap, heappush, delay, n = self.heap, heapq.heappush, links.delay, self._seq
        for v in receivers:
            t0 = now + delay[v][node_id]
            rec = _RxRecord(frame, t0, t0 + duration, seq)
            heappush(heap, (t0, n + 1, EV_RX_START, v, rec))
            heappush(heap, (rec.rx_end, n + 2, EV_RX_END, v, rec))
            n += 2
        self._seq = n

    def _pro_listeners_of(self, u: int) -> list[int]:
        """The senders that track the probe replies of node u, in increasing
        node order (module docstring): those with u as a next hop, which
        include every node u replies to, and those that some reply of u
        makes defer for another next hop."""
        next_hops: dict[int, set] = {}
        for route in self.scenario.network.routes:
            for a, b in zip(route, route[1:]):
                next_hops.setdefault(a, set()).add(b)
        defers = self.links.defers
        requesters = [r for r, hops in next_hops.items() if u in hops]
        return [v for v in sorted(next_hops) if v != u and (u in next_hops[v] or any(
            defers(u, v, d, r) for d in next_hops[v] if d != u for r in requesters))]

    def _handle_rx_start(self, node_id: int, rec: _RxRecord, now: float) -> None:
        state = self.nodes[node_id]
        if state.tx_busy_until > now:
            rec.corrupted = True
        if rec.frame.dst == node_id:
            # one real reception at a time; opportunistically decoded probes
            # neither hold the receiver nor survive overlapping it
            if state.rx_lock is not None:
                rec.corrupted = True
            else:
                state.rx_lock = rec
            for other in state.tracked:
                if other.frame.dst != node_id:
                    other.corrupted = True
        elif state.rx_lock is not None:
            rec.corrupted = True
        state.tracked.append(rec)

    def _handle_rx_end(self, node_id: int, rec: _RxRecord, now: float) -> None:
        state = self.nodes[node_id]
        if state.rx_lock is rec:
            state.rx_lock = None
        state.tracked.remove(rec)
        success = self._adjudicate(rec, node_id)
        frame = rec.frame
        if self.trace.events is not None:
            self._log(now, node_id, "rx_end", frame.kind.value, "ok" if success else "fail")
        if not success:
            return
        if frame.kind in DATA_KINDS and frame.dst == node_id:
            self.trace.rx_success.append((now, frame.payload_bits))
        self._process_actions(node_id, state.engine.on_frame(frame, now), now)

    def _adjudicate(self, rec: _RxRecord, node_id: int) -> bool:
        """SINR gate over the full-overlap worst case, after half-duplex
        rules; the interference is summed only for a clean reception."""
        if rec.corrupted:
            return False
        frame = rec.frame
        if frame.kind in TR_KINDS:
            sig, isi, _ = self.links.tr[frame.src][frame.dst]
        else:
            sig, isi = self.links.direct[frame.src][node_id]
        phy = self.phy
        return sinr_from_parts(sig, isi, self._interference(rec, node_id), phy.noise_variance) >= phy.min_required_sinr

    def _handle_timer(self, node_id: int, payload, now: float) -> None:
        key, gen = payload
        state = self.nodes[node_id]
        if state.timer_gen.get(key) != gen:
            return  # cancelled or superseded
        self._process_actions(node_id, state.engine.on_timer(key, now), now)

    def _handle_delivery(self, node_id: int, packet: Packet, now: float) -> None:
        if node_id == packet.final_dst:
            self.trace.deliveries.append((now, packet.packet_id, now - packet.created_at))
            if self.trace.events is not None:
                self._log(now, node_id, "delivered", "-", f"packet {packet.packet_id}")
            return
        next_hop = packet.next_hop(node_id)
        actions = self.nodes[node_id].engine.enqueue(packet, next_hop, now)
        self._process_actions(node_id, actions, now)

    def _log(self, time, node, event, frame_kind, outcome) -> None:
        self.trace.events.append(
            {"time": time, "node": node, "event": event, "frame": frame_kind, "outcome": outcome}
        )


def run_scenario(scenario: Scenario, sample_every: float | None = None,
                 record_events: bool = False) -> RunResult:
    """Resolve, simulate, and aggregate one scenario."""
    return Simulator(scenario.resolved(), record_events=record_events).run(sample_every)
