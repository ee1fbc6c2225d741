"""Channel impulse responses and correlation math for underwater acoustic links.

The statistical model draws complex circular-Gaussian taps under an
exponential power-delay profile with 1/d^2 spherical spreading.  Tap
streams are seeded from quantized link geometry (sorted endpoint depth
cells plus a link-length cell), so links with similar geometry produce
highly correlated responses while dissimilar links stay essentially
uncorrelated -- the spatial-variability behaviour that the MAC layer
exploits.  Quantizing a symmetric geometry signature also makes the
model reciprocal and seed-deterministic by construction.  The seed is the
scenario's own ``seed``, passed to every function that draws taps.  A
signature's draws are shared through a memo that the caller owns and
dropped with it: one per ``ChannelModel.pairs`` call, and one per depth
cell of a correlation heatmap.  No draw is cached for the process; the one
process-wide cache is the decay profile's ``lru_cache(16)``.

An arrival file ingests precomputed ray arrivals for users who have
ray-traced data instead, keyed by node index and binned into the same
``tap_count`` taps per pair as the statistical model, so every CIR of a
placement has one length.  A config that names a file uses it, and one
that names none uses the statistical model; ``ChannelModel.pairs`` is
the one place that chooses between the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rules import POSITIVE, SEED, Bound, Checked, integer, number, string

# signature cells enter a SeedSequence as unsigned 64-bit words
SEED_MASK = (1 << 64) - 1


# a node location as plain numbers: (depth in meters, positive down, x, y)
Point = tuple[float, float, float]


class ArrivalFileError(ValueError):
    """Malformed arrival file, or a requested pair that is not present."""


@dataclass(frozen=True)
class Environment(Checked):
    """Acoustic environment shared by all links of a scenario."""

    water_depth: float = 80.0
    bandwidth: float = 4e3
    nominal_sound_speed: float = 1500.0

    RULES = {
        "water_depth": number(POSITIVE),
        "bandwidth": number(POSITIVE),
        "nominal_sound_speed": number(Bound("{} in [1400, 1600]", lambda v: 1400 <= v <= 1600)),
    }

    @property
    def sample_interval(self) -> float:
        """Seconds per CIR tap: one tap per symbol-rate sample (1/bandwidth)."""
        return 1.0 / self.bandwidth


@dataclass(frozen=True)
class ChannelModelConfig(Checked):
    """How CIRs are produced for node pairs: from the arrival file at
    ``arrival_file_path`` when it is set, else by the statistical model.
    A relative path is opened from the working directory, not from the
    directory of the scenario file that names it."""

    tap_count: int = 129
    pdp_decay_constant: float = 1.0e-3
    arrival_file_path: str | None = None
    depth_quantum: float = 5.0
    range_quantum: float = 50.0

    RULES = {
        "tap_count": integer(POSITIVE),
        "pdp_decay_constant": number(POSITIVE),
        "arrival_file_path": string(Bound("non-empty {}", lambda v: v != ""), nullable=True),
        "depth_quantum": number(POSITIVE),
        "range_quantum": number(POSITIVE),
    }


def norm(c: np.ndarray) -> float:
    """Euclidean norm of a CIR, a 1-D complex tap row, from the same two
    dot products (real and imaginary part) that ``np.linalg.norm`` makes.

    ValueError for a row with no taps or a norm that is not finite: a tap
    that is not finite, or taps whose energy overflows.
    """
    re, im = c.real, c.imag
    n = math.sqrt(re.dot(re) + im.dot(im))
    if not (c.size and n < math.inf):
        raise ValueError("a CIR needs at least one tap, and finite taps")
    return n


def cross_correlation(a: np.ndarray, b: np.ndarray, lag: int) -> complex:
    """r_{a,b}[lag] = sum_l a[l] * conj(b[l + lag]); out-of-range taps are zero.

    ValueError if a row has no taps or the result is not finite.
    """
    lo = max(0, -lag)
    hi = min(a.size, b.size - lag)
    r = complex(a[lo:hi].dot(np.conj(b)[lo + lag : hi + lag])) if lo < hi else 0j
    if not (a.size and b.size and cmath.isfinite(r)):
        raise ValueError("cross_correlation needs CIRs of at least one tap, and a finite result")
    return r


def normalized_cross_correlations(rows, b: np.ndarray, lag: int) -> np.ndarray:
    """eta[lag] = r[lag] / (||a|| * ||b||) of each tap row a against b, as a
    complex array; magnitudes are bounded by 1.

    ``rows`` is a 2-D tap matrix, or a list of tap rows of one length.  A
    stacked ``np.matmul`` of 1xL by Lx1 cores makes, for each row, the same
    BLAS dot products that ``norm`` and ``cross_correlation`` make of it
    alone, and the real and imaginary parts of r are divided by the real
    ||a|| * ||b|| one at a time, as Python divides a complex by a float.  So
    each value equals the one computed from ``norm`` and
    ``cross_correlation`` of its row alone, whatever the other rows hold.
    Take magnitudes with ``np.hypot``, which equals Python's ``abs`` of a
    complex; ``np.abs`` of the array rounds differently.

    ValueError if ``b`` or a row has no taps, or a norm that is zero or not
    finite, or if the rows are ragged.
    """
    nb = norm(b)
    rows = np.asarray(rows)
    if rows.ndim != 2 or not rows.shape[1]:
        raise ValueError("normalized_cross_correlations needs rows of one length, at least one tap each")
    re, im = rows.real, rows.imag
    na = np.sqrt(np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None]))
    na = na.reshape(-1)
    if not (na < math.inf).all():
        raise ValueError("a CIR needs at least one tap, and finite taps")
    den = na * nb
    if not den.all():
        raise ValueError("normalized_cross_correlation requires nonzero-norm CIRs")
    lo = max(0, -lag)
    hi = min(rows.shape[1], b.size - lag)
    if hi <= lo:
        return np.zeros(len(rows), dtype=np.complex128)
    r = np.matmul(rows[:, None, lo:hi], np.conj(b)[lo + lag : hi + lag, None]).reshape(-1)
    r.real /= den
    r.imag /= den
    return r


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray, lag: int) -> complex:
    """eta[lag] = r[lag] / (||a|| * ||b||); magnitude bounded by 1.

    From ``norm`` and ``cross_correlation`` of the two rows, each part of r
    divided by the real ||a|| * ||b||, so it equals the
    ``normalized_cross_correlations`` value of ``a`` as a one-row block.
    ValueError as there.
    """
    den = norm(a) * norm(b)
    if not den:
        raise ValueError("normalized_cross_correlation requires nonzero-norm CIRs")
    r = cross_correlation(a, b, lag)
    return complex(r.real / den, r.imag / den)


def peak_eta(a: np.ndarray, b: np.ndarray) -> float:
    """|eta[0]| between two links, the quantity the MAC compares to its threshold."""
    return abs(normalized_cross_correlation(a, b, 0))


def _tap_draws(seed: int, signature: tuple[int, int, int], tap_count: int) -> np.ndarray:
    """Unit-variance complex Gaussian tap stream of one link signature: the
    real parts are the first ``tap_count`` standard normals of the
    signature's generator, the imaginary parts the next ``tap_count``.

    The generator is seeded with ``seed`` (below 2**64) and each signature
    cell masked by ``SEED_MASK``, given as the uint32 words that
    ``SeedSequence`` would split those ints into: little-endian 32-bit
    words, at least one per value.  The same stream as seeding it with the
    tuple of ints, without ``SeedSequence`` converting each int itself.

    Read-only, because every link of the signature shares the array.
    """
    words = []
    for value in (seed, *(q & SEED_MASK for q in signature)):
        words += (value & 0xFFFFFFFF, value >> 32) if value >> 32 else (value,)
    bits = np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
    normals = np.random.Generator(bits).standard_normal(2 * tap_count)
    draws = np.empty(tap_count, dtype=np.complex128)
    draws.real = normals[:tap_count]
    draws.imag = normals[tap_count:]
    draws.flags.writeable = False
    return draws


@lru_cache(maxsize=16)
def _decay_profile(tap_count: int, sample_interval: float, pdp_decay_constant: float) -> np.ndarray:
    """exp(-l*dt/tau) of taps l = 0 .. tap_count - 1, read-only."""
    decay = np.exp(-np.arange(tap_count) * sample_interval / pdp_decay_constant)
    decay.flags.writeable = False
    return decay


def generate_taps(tx: Point, rxs: list[Point], env: Environment, cfg: ChannelModelConfig,
                  seed: int, draws: dict | None = None) -> np.ndarray:
    """Statistical-model taps of the links tx->rx, one row per receiver.

    ``tx`` and each receiver are ``(depth, x, y)`` points.  Tap l has
    expected power exp(-l*dt/tau) / d^2 with complex circular-Gaussian
    amplitude.  The draws are seeded from ``seed`` and the quantized link
    geometry, so the result is deterministic, reciprocal, and highly
    correlated across geometrically similar links.

    A link's signature is its sorted endpoint depth cells and its length
    cell: links whose endpoints fall in the same depth cells and whose
    lengths fall in the same range cell share a tap stream, and sorting
    the depth cells makes the CIR reciprocal.  Each signature of the call
    is drawn once, and the rows are gathered from those draws by index.
    ``draws`` is the caller's memo from signature to draws, for one
    ``seed`` and ``cfg``: signatures it holds are not drawn again, and new
    ones are added to it.  Without it the draws are dropped on return.
    Every signature holds the transmitter's and the receiver's depth cell,
    ``floor(depth / cfg.depth_quantum)``, so a caller whose receivers pass
    through depth cells in order, as the heatmap's rows do, can start a
    new memo at each cell and never draw a signature twice.

    ValueError if ``cfg`` names an arrival file, ``seed`` is no integer in
    [0, 2**64), a receiver coincides with ``tx``, a coordinate is not
    finite, or a link length is infinite or overflows when squared.
    """
    return _taps_and_distances(tx, rxs, env, cfg, seed, draws)[0]


def _taps_and_distances(tx: Point, rxs: list[Point], env: Environment, cfg: ChannelModelConfig,
                        seed: int, draws: dict | None) -> tuple[np.ndarray, list[float]]:
    """``generate_taps``' rows, and the ``math.dist`` length of each link."""
    if cfg.arrival_file_path is not None:
        raise ValueError(f"generate_taps: a config with arrival_file {cfg.arrival_file_path!r} has no statistical taps")
    try:
        seed = SEED.parse(seed)
    except ValueError:
        raise ValueError(f"generate_taps: seed: expected {SEED.expected}, got {seed!r}") from None
    distances = [math.dist(tx, rx) for rx in rxs]
    # a distance is 0.0 only where the points coincide
    if 0.0 in distances:
        raise ValueError("generate_taps: tx and rx positions coincide")
    # squared in Python: np.square rounds a few distances differently
    try:
        squares = np.array([d**2 for d in distances]).reshape(-1, 1)
        finite = (squares < math.inf).all()
    except OverflowError:
        finite = False
    # a square is not finite where a coordinate is not, or where a link
    # between finite points is too long; the coordinates tell which
    if not finite:
        if not all(map(math.isfinite, (*tx, *(c for rx in rxs for c in rx)))):
            raise ValueError("generate_taps: point coordinates must be finite")
        raise ValueError(f"generate_taps: a link length of {max(distances)!r} m overflows when squared")
    tap_count = cfg.tap_count
    scale = _decay_profile(tap_count, env.sample_interval, cfg.pdp_decay_constant) / squares
    scale /= 2.0
    np.sqrt(scale, out=scale)
    depth_quantum, range_quantum, floor = cfg.depth_quantum, cfg.range_quantum, math.floor
    tx_cell = floor(tx[0] / depth_quantum)
    signatures = [(tx_cell, cell, floor(d / range_quantum)) if tx_cell <= cell
                  else (cell, tx_cell, floor(d / range_quantum))
                  for cell, d in zip([floor(rx[0] / depth_quantum) for rx in rxs], distances)]
    # each distinct signature's position in the stack of draws, in first-seen order
    positions: dict[tuple[int, int, int], int] = {}
    index = [positions.setdefault(signature, len(positions)) for signature in signatures]
    if draws is None:
        draws = {}
    for signature in positions:
        if signature not in draws:
            draws[signature] = _tap_draws(seed, signature, tap_count)
    stack = np.array([draws[signature] for signature in positions]).reshape(-1, tap_count)
    taps = stack.take(np.array(index, dtype=np.intp), axis=0)
    np.multiply(scale, taps, out=taps)
    return taps, distances


def generate_cir(tx: Point, rx: Point, env: Environment, cfg: ChannelModelConfig, seed: int) -> np.ndarray:
    """The statistical-model CIR of the directed link tx->rx: the
    ``generate_taps`` row of the pair."""
    return generate_taps(tx, [rx], env, cfg, seed)[0]


class ArrivalTable:
    """Parsed arrival file: ray arrivals per directed node pair.

    Format: header line ``ARRIVALS v1``, then whitespace-separated records
    ``tx_id rx_id delay_s amplitude phase_rad``, ``#`` starting a comment.
    ``tx_id`` and ``rx_id`` are two different 0-based node indices of the
    placement.
    """

    def __init__(self, records: dict[tuple[int, int], list[tuple[float, float, float]]], path: str = "<memory>"):
        self.records = records
        self.path = path

    @classmethod
    def from_file(cls, path: str, node_count: int) -> "ArrivalTable":
        """Parse the file of a placement of ``node_count`` nodes;
        ArrivalFileError at ``path:line`` for a record that is not a pair of them."""
        records: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
        header_seen = False
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ArrivalFileError(f"{path}: cannot open: {exc.strerror}") from None
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if not header_seen:
                    if line != "ARRIVALS v1":
                        raise ArrivalFileError(f"{path}:{lineno}: expected header 'ARRIVALS v1', got {line!r}")
                    header_seen = True
                    continue
                fields = line.split()
                if len(fields) != 5:
                    raise ArrivalFileError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
                for node_id in fields[:2]:
                    if not (node_id.isascii() and node_id.isdigit()):
                        raise ArrivalFileError(f"{path}:{lineno}: a node id is a 0-based node index, got {node_id!r}")
                tx, rx = int(fields[0]), int(fields[1])
                if tx == rx:
                    raise ArrivalFileError(f"{path}:{lineno}: pair {tx}->{rx} links a node to itself")
                if max(tx, rx) >= node_count:
                    raise ArrivalFileError(
                        f"{path}:{lineno}: node id {max(tx, rx)} is not a node of the {node_count} placed")
                try:
                    delay, amplitude, phase = (float(v) for v in fields[2:])
                except ValueError as exc:
                    raise ArrivalFileError(f"{path}:{lineno}: non-numeric arrival record: {exc}") from None
                if not math.isfinite(delay) or delay < 0:
                    raise ArrivalFileError(f"{path}:{lineno}: delay must be finite and >= 0, got {delay}")
                if not math.isfinite(amplitude) or amplitude < 0:
                    raise ArrivalFileError(f"{path}:{lineno}: amplitude must be finite and >= 0, got {amplitude}")
                if not math.isfinite(phase):
                    raise ArrivalFileError(f"{path}:{lineno}: phase must be finite, got {phase}")
                records.setdefault((tx, rx), []).append((delay, amplitude, phase))
        if not header_seen:
            raise ArrivalFileError(f"{path}: missing 'ARRIVALS v1' header")
        return cls(records, path)

    def pair(self, i: int, j: int, sample_interval: float, tap_count: int) -> tuple[np.ndarray, float]:
        """``(taps, delay)`` of the pair i -> j, from its record or else, by
        reciprocity, the reverse one: arrivals binned at
        round(delay/sample_interval) past the earliest one into ``tap_count``
        taps, zeros after the last arrival, and the earliest delay.

        ArrivalFileError naming the pair if neither direction is listed, or
        if its arrivals span more than ``tap_count`` taps; that is checked
        before the taps are allocated.
        """
        arrivals = self.records.get((i, j)) or self.records.get((j, i))
        if not arrivals:
            raise ArrivalFileError(f"{self.path}: no arrivals for pair {i}->{j}")
        delays = [delay for delay, _, _ in arrivals]
        earliest = min(delays)
        span = (max(delays) - earliest) / sample_interval  # inf only if it overflows
        needed = round(span) + 1 if span < math.inf else span
        if needed > tap_count:
            raise ArrivalFileError(
                f"{self.path}: pair {i}->{j}: its arrivals span {needed} taps, more than channel.tap_count {tap_count}")
        taps = np.zeros(tap_count, dtype=np.complex128)
        for delay, amplitude, phase in arrivals:
            taps[round((delay - earliest) / sample_interval)] += amplitude * cmath.exp(1j * phase)
        return taps, earliest


class ChannelModel:
    """The per-pair CIRs and propagation delays of a placement, from the
    arrival file ``cfg`` names, or from the statistical model if it names none."""

    def __init__(self, env: Environment, cfg: ChannelModelConfig):
        self.env = env
        self.cfg = cfg

    def pairs(self, points: list[Point], seed: int):
        """``(i, j, CIR, sum of |taps|^2, delay)`` of every pair i < j of
        ``points``, CIR and delay in the i -> j direction, ``cfg.tap_count``
        taps each; taps are read-only, since tables that hold them are shared.

        Statistical taps come from one ``generate_taps`` call per node over
        its higher-index partners, drawn with ``seed`` and sharing one memo
        of draws, so each signature is drawn once per call of ``pairs`` and
        no draws outlive it.  The delay is the straight-line distance, which
        that call computes with the taps, over the nominal sound speed.  An
        arrival file names nodes by their index in ``points``;
        ``ArrivalTable.pair`` bins each pair, and ``seed`` is not read.

        A pair whose tap energy squared is not finite is refused, naming
        it: the TR correlations square products of two links' norms.  That
        is a ValueError naming the link length under the statistical model
        (a link too short), an ArrivalFileError naming the file otherwise.
        """
        env, cfg = self.env, self.cfg
        if cfg.arrival_file_path is None:
            draws: dict = {}
            for i in range(len(points) - 1):
                # a link too short for finite taps is reported below, naming the pair
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    taps, distances = _taps_and_distances(points[i], points[i + 1:], env, cfg, seed, draws)
                    energies = (np.abs(taps) ** 2).sum(axis=1).tolist()
                taps.flags.writeable = False
                for j, row, energy, distance in zip(range(i + 1, len(points)), taps, energies, distances):
                    if not energy * energy < math.inf:
                        raise ValueError(f"pair {i}->{j}: a link length of {distance!r} m is too short "
                                         "for a finite tap energy squared")
                    yield i, j, row, energy, distance / env.nominal_sound_speed
            return
        # read afresh for every table: a file may change between runs
        table = ArrivalTable.from_file(cfg.arrival_file_path, len(points))
        for i in range(len(points) - 1):
            for j in range(i + 1, len(points)):
                # an overflow is reported below, naming the file and the pair
                with np.errstate(over="ignore", invalid="ignore"):
                    c, delay = table.pair(i, j, env.sample_interval, cfg.tap_count)
                    energy = float(np.sum(np.abs(c) ** 2))
                if not energy * energy < math.inf:
                    raise ArrivalFileError(
                        f"{table.path}: pair {i}->{j}: tap energy squared not finite (amplitudes too large)")
                c.flags.writeable = False
                yield i, j, c, energy, delay
