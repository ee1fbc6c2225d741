"""Channel impulse responses and correlation math for underwater acoustic links.

The statistical model draws complex circular-Gaussian taps under an
exponential power-delay profile with 1/d^2 spherical spreading.  Tap
streams are seeded from quantized link geometry (sorted endpoint depth
cells plus a link-length cell), so links with similar geometry produce
highly correlated responses while dissimilar links stay essentially
uncorrelated -- the spatial-variability behaviour that the MAC layer
exploits.  Quantizing a symmetric geometry signature also makes the
model reciprocal and seed-deterministic by construction.

An arrival-file path ingests precomputed ray arrivals for users who
have ray-traced data instead, keyed by node index and binned into the
same ``tap_count`` taps per pair as the statistical model, so every CIR
of a placement has one length.  ``ChannelModel.pairs`` is the one place
that chooses between the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rules import POSITIVE, Bound, Checked, integer, number, one_of, string

STATISTICAL_PDP = "statistical_pdp"
ARRIVAL_FILE = "arrival_file"

# seeds and signature cells enter a SeedSequence as unsigned 64-bit words
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
    """How CIRs are produced for node pairs."""

    model_kind: str = STATISTICAL_PDP
    tap_count: int = 129
    pdp_decay_constant: float = 1.0e-3
    rng_seed: int | None = 0  # None inside a Scenario: follow Scenario.seed
    arrival_file_path: str | None = None
    depth_quantum: float = 5.0
    range_quantum: float = 50.0

    RULES = {
        "model_kind": string(one_of(STATISTICAL_PDP, ARRIVAL_FILE)),
        "tap_count": integer(POSITIVE),
        "pdp_decay_constant": number(POSITIVE),
        "rng_seed": integer(nullable=True),
        "arrival_file_path": string(nullable=True),
        "depth_quantum": number(POSITIVE),
        "range_quantum": number(POSITIVE),
    }

    def __post_init__(self):
        super().__post_init__()
        if self.model_kind == ARRIVAL_FILE and not self.arrival_file_path:
            raise ValueError("ChannelModelConfig.arrival_file_path required for arrival_file model")


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


@lru_cache(maxsize=128)
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


def generate_taps(tx: Point, rxs: list[Point], env: Environment, cfg: ChannelModelConfig) -> np.ndarray:
    """Statistical-model taps of the links tx->rx, one row per receiver.

    ``tx`` and each receiver are ``(depth, x, y)`` points.  Tap l has
    expected power exp(-l*dt/tau) / d^2 with complex circular-Gaussian
    amplitude.  The draws are seeded from the quantized link geometry, so
    the result is deterministic, reciprocal, and highly correlated across
    geometrically similar links; links that share a signature share one
    cached draw.

    A link's signature is its sorted endpoint depth cells and its length
    cell: links whose endpoints fall in the same depth cells and whose
    lengths fall in the same range cell share a tap stream, and sorting
    the depth cells makes the CIR reciprocal.
    """
    if cfg.model_kind != STATISTICAL_PDP:
        raise ValueError(f"generate_taps: needs the {STATISTICAL_PDP} model, got {cfg.model_kind!r}")
    if cfg.rng_seed is None:  # a Scenario sets it to its seed on resolution
        raise ValueError("generate_taps: ChannelModelConfig.rng_seed is None, a seed is needed")
    distances = [math.dist(tx, rx) for rx in rxs]
    # a distance is 0.0 only where the points coincide, and not finite
    # only where a coordinate is not
    if 0.0 in distances:
        raise ValueError("generate_taps: tx and rx positions coincide")
    if not math.isfinite(sum(distances)):
        raise ValueError("generate_taps: point coordinates must be finite")
    tap_count = int(cfg.tap_count)
    seed = cfg.rng_seed & SEED_MASK
    lags = np.arange(tap_count)
    decay = np.exp(-lags * env.sample_interval / cfg.pdp_decay_constant)
    # squared in Python: np.square rounds a few distances differently
    try:
        squares = [d**2 for d in distances]
    except OverflowError:
        raise ValueError(f"generate_taps: a link length of {max(distances)!r} m overflows when squared") from None
    scale = decay / np.array(squares).reshape(-1, 1)
    scale /= 2.0
    np.sqrt(scale, out=scale)
    depth_quantum, range_quantum = cfg.depth_quantum, cfg.range_quantum
    tx_cell = math.floor(tx[0] / depth_quantum)
    draws = []
    for rx, d in zip(rxs, distances):
        rx_cell = math.floor(rx[0] / depth_quantum)
        low, high = (tx_cell, rx_cell) if tx_cell <= rx_cell else (rx_cell, tx_cell)
        draws.append(_tap_draws(seed, (low, high, math.floor(d / range_quantum)), tap_count))
    taps = np.array(draws).reshape(-1, tap_count)
    np.multiply(scale, taps, out=taps)
    return taps


def generate_cir(tx: Point, rx: Point, env: Environment, cfg: ChannelModelConfig) -> np.ndarray:
    """The statistical-model CIR of the directed link tx->rx: the
    ``generate_taps`` row of the pair."""
    return generate_taps(tx, [rx], env, cfg)[0]


class ArrivalTable:
    """Parsed arrival file: ray arrivals per directed node pair.

    Format: header line ``ARRIVALS v1``, then whitespace-separated records
    ``tx_id rx_id delay_s amplitude phase_rad``, ``#`` starting a comment.
    ``tx_id`` and ``rx_id`` are 0-based node indices of the placement.
    """

    def __init__(self, records: dict[tuple[int, int], list[tuple[float, float, float]]], path: str = "<memory>"):
        self.records = records
        self.path = path

    @classmethod
    def from_file(cls, path: str) -> "ArrivalTable":
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
                records.setdefault((int(fields[0]), int(fields[1])), []).append((delay, amplitude, phase))
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
    statistical model or from an arrival file, whichever ``cfg`` names."""

    def __init__(self, env: Environment, cfg: ChannelModelConfig):
        self.env = env
        self.cfg = cfg

    def pairs(self, points: list[Point]):
        """``(i, j, CIR, sum of |taps|^2, delay)`` of every pair i < j of
        ``points``, CIR and delay in the i -> j direction, ``cfg.tap_count``
        taps each; taps are read-only, since tables that hold them are shared.

        Statistical taps come from one ``generate_taps`` call per node over
        its higher-index partners, and the delay is the straight-line
        distance over the nominal sound speed.  An arrival file names nodes
        by their index in ``points``; ``ArrivalTable.pair`` bins each pair.
        """
        env, cfg = self.env, self.cfg
        if cfg.model_kind == STATISTICAL_PDP:
            for i in range(len(points) - 1):
                taps = generate_taps(points[i], points[i + 1:], env, cfg)
                taps.flags.writeable = False
                energies = (np.abs(taps) ** 2).sum(axis=1)
                for j, row, energy in zip(range(i + 1, len(points)), taps, energies):
                    delay = math.dist(points[i], points[j]) / env.nominal_sound_speed
                    yield i, j, row, float(energy), delay
            return
        # read afresh for every table: a file may change between runs
        table = ArrivalTable.from_file(cfg.arrival_file_path)
        for i in range(len(points) - 1):
            for j in range(i + 1, len(points)):
                # an overflow is reported below, naming the file and the pair
                with np.errstate(over="ignore", invalid="ignore"):
                    c, delay = table.pair(i, j, env.sample_interval, cfg.tap_count)
                    energy = float(np.sum(np.abs(c) ** 2))
                if not energy < math.inf:
                    raise ArrivalFileError(
                        f"{table.path}: pair {i}->{j}: taps or tap energy not finite (amplitudes too large)")
                c.flags.writeable = False
                yield i, j, c, energy, delay
