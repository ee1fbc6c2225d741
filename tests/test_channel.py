import math
import re
import warnings

import numpy as np
import pytest

from uwansim import channel as channel_module
from uwansim.channel import (
    SEED_MASK,
    ArrivalFileError,
    ArrivalTable,
    ChannelModel,
    ChannelModelConfig,
    Environment,
    cross_correlation,
    generate_cir,
    generate_taps,
    norm,
    normalized_cross_correlation,
    normalized_cross_correlations,
    peak_eta,
    _tap_draws,
)
from uwansim.scenario import scenario_from_dict
from uwansim.tr_phy import (
    PhyConfig,
    autocorr_offpeak_sum,
    composite_response,
    crosscorr_sampled_stats,
    eta_threshold,
    p_ili,
    p_isi,
    p_sig,
    sdt_signal_and_isi,
    sinr_atrsts,
    sinr_sdt,
    tr_waveform,
)


def oracle_cross_correlation(a, b, lag):
    """Direct double-loop r[lag] = sum_l a[l] * conj(b[l+lag])."""
    total = 0j
    for l in range(len(a)):
        k = l + lag
        if 0 <= k < len(b):
            total += a[l] * np.conj(b[k])
    return total


def oracle_convolution(x, y):
    """Direct double-loop full convolution."""
    out = np.zeros(len(x) + len(y) - 1, dtype=complex)
    for k in range(len(out)):
        for m in range(len(x)):
            if 0 <= k - m < len(y):
                out[k] += x[m] * y[k - m]
    return out


def row(taps):
    """A CIR as the library takes it: a 1-D complex128 tap row."""
    return np.array(taps, dtype=np.complex128)


def random_cir(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


ENV = Environment()
CFG = ChannelModelConfig()
SEED = 7  # the scenario seed the statistical taps are drawn with


# -------------------------------------------------------- CIR rows checked


GOOD = row([1.0])
PHY = PhyConfig(noise_variance=1.0, updown_factor=1, min_required_sinr=1.0)
# every public function that takes a CIR, with the bad row in each CIR slot
CIR_FUNCTIONS = {
    "norm": norm,
    "cross_correlation_a": lambda c: cross_correlation(c, GOOD, 0),
    "cross_correlation_b": lambda c: cross_correlation(GOOD, c, 0),
    "normalized_cross_correlation_a": lambda c: normalized_cross_correlation(c, GOOD, 0),
    "normalized_cross_correlation_b": lambda c: normalized_cross_correlation(GOOD, c, 0),
    "normalized_cross_correlations_rows": lambda c: normalized_cross_correlations([GOOD, c], GOOD, 0),
    "normalized_cross_correlations_b": lambda c: normalized_cross_correlations([GOOD], c, 0),
    "peak_eta_a": lambda c: peak_eta(c, GOOD),
    "peak_eta_b": lambda c: peak_eta(GOOD, c),
    "tr_waveform": tr_waveform,
    "composite_response": lambda c: composite_response(c, 1),
    "autocorr_offpeak_sum": lambda c: autocorr_offpeak_sum(c, 1),
    "crosscorr_sampled_stats_a": lambda c: crosscorr_sampled_stats(c, GOOD, 1),
    "crosscorr_sampled_stats_b": lambda c: crosscorr_sampled_stats(GOOD, c, 1),
    "p_sig": lambda c: p_sig(c, PHY),
    "p_isi": lambda c: p_isi(c, PHY),
    "p_ili_to_victim": lambda c: p_ili(c, GOOD, PHY),
    "p_ili_own_link": lambda c: p_ili(GOOD, c, PHY),
    "sinr_atrsts_signal": lambda c: sinr_atrsts(c, [], PHY),
    "sinr_atrsts_to_victim": lambda c: sinr_atrsts(GOOD, [(c, GOOD)], PHY),
    "sinr_atrsts_own_link": lambda c: sinr_atrsts(GOOD, [(GOOD, c)], PHY),
    "sdt_signal_and_isi": lambda c: sdt_signal_and_isi(c, 1),
    "sinr_sdt": lambda c: sinr_sdt(c, PHY),
    "eta_threshold_to_victim": lambda c: eta_threshold(1.0, 0.0, c, GOOD, PHY),
    "eta_threshold_own_link": lambda c: eta_threshold(1.0, 0.0, GOOD, c, PHY),
}
BAD_ROWS = {"empty": row([]), "nan": row([np.nan]), "inf": row([1j * np.inf])}


@pytest.mark.parametrize("bad", BAD_ROWS)
@pytest.mark.parametrize("function", CIR_FUNCTIONS)
def test_cir_rejects_empty_and_nonfinite(function, bad):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError):
            CIR_FUNCTIONS[function](BAD_ROWS[bad])
    # the good row passes where the bad one failed
    CIR_FUNCTIONS[function](GOOD)


def test_norm_trivial_cases():
    assert norm(row([1.0])) == 1.0
    assert norm(row([3.0, 4.0j])) == pytest.approx(5.0, abs=1e-12)


def test_norm_matches_elementwise_oracle_on_130_taps():
    c = generate_cir((20, 0, 0), (20, 1000, 0), ENV, ChannelModelConfig(tap_count=130), 3)
    brute = math.sqrt(sum(abs(t) ** 2 for t in c))
    assert norm(c) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------- correlation operations


def test_cross_correlation_trivial_examples():
    one = row([1.0])
    assert cross_correlation(one, one, 0) == 1.0

    a = row([1.0, 0.0])
    b = row([0.0, 1.0])
    assert cross_correlation(a, b, 1) == 1.0
    assert cross_correlation(a, b, 0) == 0.0


def test_cross_correlation_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_cir(rng, 8)
        b = random_cir(rng, 8)
        for lag in range(-9, 10):
            got = cross_correlation(a, b, lag)
            want = oracle_cross_correlation(a, b, lag)
            assert got == pytest.approx(want, abs=1e-12)


def test_correlation_convolution_identity():
    # Full convolution of a with the reversed conjugate of b equals the
    # correlation sequence shifted by L-1: conv[k] = r[(L-1) - k].
    rng = np.random.default_rng(2)
    for _ in range(20):
        L = int(rng.integers(2, 17))
        a = random_cir(rng, L)
        b = random_cir(rng, L)
        conv = oracle_convolution(a, np.conj(b[::-1]))
        for k in range(2 * L - 1):
            want = cross_correlation(a, b, (L - 1) - k)
            assert conv[k] == pytest.approx(want, abs=1e-10)


def test_conjugate_symmetry():
    rng = np.random.default_rng(4)
    a = random_cir(rng, 10)
    b = random_cir(rng, 10)
    for lag in range(-9, 10):
        assert cross_correlation(a, b, lag) == pytest.approx(
            np.conj(cross_correlation(b, a, -lag)), abs=1e-12
        )


def test_normalized_cross_correlation_properties():
    rng = np.random.default_rng(5)
    a = random_cir(rng, 12)
    b = random_cir(rng, 12)

    # autocorrelation peak is exactly 1
    assert normalized_cross_correlation(a, a, 0) == pytest.approx(1.0, abs=1e-12)
    # orthogonal impulses
    e0 = row([1.0, 0.0])
    e1 = row([0.0, 1.0])
    assert normalized_cross_correlation(e0, e1, 0) == 0.0
    # scale invariance
    scaled = 2.0 * b
    assert normalized_cross_correlation(a, scaled, 0) == pytest.approx(
        normalized_cross_correlation(a, b, 0), abs=1e-12
    )
    # Cauchy-Schwarz bound over all lags
    for lag in range(-11, 12):
        assert abs(normalized_cross_correlation(a, b, lag)) <= 1 + 1e-12


def test_normalized_cross_correlation_rejects_zero_norm():
    zero = row([0.0, 0.0])
    good = row([1.0])
    with pytest.raises(ValueError):
        normalized_cross_correlation(zero, good, 0)
    with pytest.raises(ValueError):
        normalized_cross_correlation(good, zero, 0)


def random_rows(rng, count, length):
    return rng.standard_normal((count, length)) + 1j * rng.standard_normal((count, length))


@pytest.mark.parametrize("length", [1, 129, 1025])
@pytest.mark.parametrize("block", [1, 64])
def test_block_correlations_match_per_row_reference_bit_for_bit(length, block):
    rng = np.random.default_rng(length * 100 + block)
    rows = random_rows(rng, block, length)
    b = random_cir(rng, length)
    for lag in (-5, -3, 0, 3, 5, length, -length):
        etas = normalized_cross_correlations(rows, b, lag)
        magnitudes = np.hypot(etas.real, etas.imag)
        assert etas.shape == magnitudes.shape == (block,)
        for a, eta, magnitude in zip(rows, etas.tolist(), magnitudes.tolist()):
            want = cross_correlation(a, b, lag) / (norm(a) * norm(b))
            assert (eta.real.hex(), eta.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert magnitude.hex() == abs(want).hex()
            # the single-row function computes the pair directly, and equals
            # the row as a one-row block
            single = normalized_cross_correlation(a, b, lag)
            one_row = complex(normalized_cross_correlations(a[None], b, lag)[0])
            assert type(single) is complex
            assert (single.real.hex(), single.imag.hex()) == (one_row.real.hex(), one_row.imag.hex())
            assert (single.real.hex(), single.imag.hex()) == (want.real.hex(), want.imag.hex())
            if lag == 0:
                assert peak_eta(a, b).hex() == abs(want).hex()
        # a list of rows reads as the matrix it stacks to
        assert np.array_equal(normalized_cross_correlations(list(rows), b, lag), etas)
        if abs(lag) >= length:
            assert not etas.any()


BAD_BLOCK_ROWS = {"nan": row([np.nan] * 3), "inf": row([1.0, 1j * np.inf, 0.0]), "zero": row([0.0] * 3)}


@pytest.mark.parametrize("bad", BAD_BLOCK_ROWS)
def test_block_correlations_reject_a_bad_row_anywhere_in_the_block(bad):
    rows = random_rows(np.random.default_rng(2), 64, 3)
    b = rows[0].copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for k in (0, 37, 63):
            block = rows.copy()
            block[k] = BAD_BLOCK_ROWS[bad]
            with pytest.raises(ValueError):
                normalized_cross_correlations(block, b, 0)
        with pytest.raises(ValueError):
            normalized_cross_correlations(rows, BAD_BLOCK_ROWS[bad], 0)
    normalized_cross_correlations(rows, b, 0)


def test_block_correlations_reject_rows_with_no_taps_or_ragged_rows():
    good = row([1.0, 2.0j])
    for rows in (np.empty((2, 0), dtype=np.complex128), [row([]), row([])], [good, row([1.0])], [good, row([])]):
        with pytest.raises(ValueError):
            normalized_cross_correlations(rows, good, 0)
    with pytest.raises(ValueError):
        normalized_cross_correlations([good], row([]), 0)


# ------------------------------------------------------------- generate_cir


def test_generate_cir_deterministic_and_reciprocal():
    tx = (20.0, 0.0, 0.0)
    rx = (50.0, 800.0, 300.0)
    c1 = generate_cir(tx, rx, ENV, CFG, SEED)
    c2 = generate_cir(tx, rx, ENV, CFG, SEED)
    c3 = generate_cir(rx, tx, ENV, CFG, SEED)
    assert np.array_equal(c1, c2)
    assert np.array_equal(c1, c3)
    assert len(c1) == CFG.tap_count
    assert norm(c1) > 0


def test_generate_cir_changes_with_seed_and_geometry():
    tx = (20.0, 0.0, 0.0)
    rx = (50.0, 800.0, 300.0)
    c1 = generate_cir(tx, rx, ENV, CFG, SEED)
    c2 = generate_cir(tx, rx, ENV, CFG, 8)
    assert not np.array_equal(c1, c2)
    far = (5.0, 2500.0, 0.0)
    c3 = generate_cir(tx, far, ENV, CFG, SEED)
    assert not np.array_equal(c1, c3)


def test_generate_cir_rejects_coincident_positions():
    p = (10.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="coincide"):
        generate_cir(p, (10.0, 5.0, 5.0), ENV, CFG, SEED)


def test_generate_cir_accepts_a_130_tap_configuration():
    env = Environment()
    cfg = ChannelModelConfig(tap_count=130)
    c = generate_cir((20, 0, 0), (20, 1000, 0), env, cfg, 1)
    assert len(c) == 130


def test_statistical_pair_delay_hand_value():
    # 1000 m at 1500 m/s
    [(_, _, _, _, delay)] = ChannelModel(ENV, CFG).pairs([(20.0, 0.0, 0.0), (20.0, 1000.0, 0.0)], SEED)
    assert delay == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert f"{delay:.4f}" == "0.6667"


def test_same_signature_links_share_tap_pattern():
    # distances in the same 50 m range cell and depths in the same 5 m cells
    # share the tap stream; amplitudes scale exactly as 1/d.
    tx = (20.0, 0.0, 0.0)
    rx_a = (30.0, 1000.0, 0.0)
    rx_b = (30.0, 1010.0, 0.0)
    ca = generate_cir(tx, rx_a, ENV, CFG, SEED)
    cb = generate_cir(tx, rx_b, ENV, CFG, SEED)
    ratio = math.dist(tx, rx_a) / math.dist(tx, rx_b)
    assert np.allclose(cb * 1.0 / ratio, ca, rtol=1e-12)
    assert abs(normalized_cross_correlation(ca, cb, 0)) == pytest.approx(1.0, abs=1e-12)


def test_dissimilar_links_weakly_correlated():
    tx = (20.0, 0.0, 0.0)
    ref = generate_cir(tx, (30.0, 1000.0, 0.0), ENV, CFG, SEED)
    other = generate_cir((45.0, 500.0, 900.0), (10.0, 2000.0, 2000.0), ENV, CFG, SEED)
    assert abs(normalized_cross_correlation(ref, other, 0)) < 0.5


# ------------------------------------------------------------ generate_taps


def single_link_oracle(tx, rx, env, cfg, seed):
    """The statistical model drawn for one link, step by step."""
    distance = math.dist(tx, rx)
    signature = (math.floor(min(tx[0], rx[0]) / cfg.depth_quantum),
                 math.floor(max(tx[0], rx[0]) / cfg.depth_quantum),
                 math.floor(distance / cfg.range_quantum))
    rng = np.random.default_rng(np.random.SeedSequence((seed, *signature)))
    pdp = np.exp(-np.arange(cfg.tap_count) * env.sample_interval / cfg.pdp_decay_constant) / distance**2
    draws = rng.standard_normal(cfg.tap_count) + 1j * rng.standard_normal(cfg.tap_count)
    return np.sqrt(pdp / 2.0) * draws


TX_POINT = (50.0, 0.0, 0.0)
# (0 m, 3550 m) is a cell where np.square(d) and d ** 2 differ in the last bit
PROBE_POINTS = [(0.0, 3550.0, 0.0), (0.0, 10.0, 0.0), (70.0, 1000.0, 0.0),
                (50.0, 10.0, 0.0), (80.0, 4000.0, 0.0), (0.0, 3560.0, 0.0)]


def test_generate_taps_rows_equal_single_link_cirs_bit_for_bit():
    far = math.dist(TX_POINT, PROBE_POINTS[0])
    assert far**2 != np.square(far)
    rows = generate_taps(TX_POINT, PROBE_POINTS, ENV, CFG, 1)
    assert rows.shape == (len(PROBE_POINTS), CFG.tap_count)
    for row, probe in zip(rows, PROBE_POINTS):
        assert np.array_equal(row, generate_cir(TX_POINT, probe, ENV, CFG, 1))
        assert np.array_equal(row, single_link_oracle(TX_POINT, probe, ENV, CFG, 1))


@pytest.mark.parametrize("tap_count", [1, 129, 1025])
def test_tap_draws_are_two_standard_normal_draws_of_the_signature_generator(tap_count):
    # the real parts are one standard_normal(L) draw and the imaginary parts
    # the next, from a generator seeded by the tuple of the seed and the
    # masked signature cells; seeds and cells of one and of two 32-bit words
    for seed in (0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1):
        for signature in ((0, 0, 0), (-3, -1, 4), (2, 9, -7), (-1, 5, 80), (-1, 0, 2**32),
                          (-(2**40), 7, 2**63 + 5), (3, -5, 2**64 - 1)):
            seq = np.random.SeedSequence((seed, *(q & SEED_MASK for q in signature)))
            real, imag = np.split(np.random.default_rng(seq).standard_normal(2 * tap_count), 2)
            rng = np.random.default_rng(seq)
            assert np.array_equal(real, rng.standard_normal(tap_count))
            assert np.array_equal(imag, rng.standard_normal(tap_count))
            draws = _tap_draws(seed, signature, tap_count)
            assert draws.dtype == np.complex128 and draws.shape == (tap_count,)
            assert not draws.flags.writeable
            assert np.array_equal(draws.real, real) and np.array_equal(draws.imag, imag)
            assert np.array_equal(draws, real + 1j * imag)


def test_a_row_is_the_same_bytes_alone_in_a_block_repeated_or_from_a_shared_memo():
    # six receivers over five signatures (PROBE_POINTS[0] and [5] share one),
    # each also repeated, and drawn again in reverse with a memo kept across calls
    alone = [generate_cir(TX_POINT, probe, ENV, CFG, SEED).tobytes() for probe in PROBE_POINTS]
    block = generate_taps(TX_POINT, PROBE_POINTS, ENV, CFG, SEED)
    assert [row.tobytes() for row in block] == alone
    repeated = generate_taps(TX_POINT, PROBE_POINTS + PROBE_POINTS[::-1], ENV, CFG, SEED)
    assert [row.tobytes() for row in repeated] == alone + alone[::-1]
    memo = {}
    first = generate_taps(TX_POINT, PROBE_POINTS[:3], ENV, CFG, SEED, memo)
    drawn = dict(memo)
    again = generate_taps(TX_POINT, PROBE_POINTS[::-1], ENV, CFG, SEED, memo)
    assert [row.tobytes() for row in first] == alone[:3]
    assert [row.tobytes() for row in again] == alone[::-1]
    assert len(memo) == 5
    # a signature in the memo is not drawn again
    assert all(memo[signature] is draws for signature, draws in drawn.items())


@pytest.mark.parametrize("config", [
    {"seed": 1}, {"seed": 2}, {"seed": 3},
    {"seed": 1, "network": {"node_count": 100, "link_count": 30}},
], ids=["20-nodes-seed1", "20-nodes-seed2", "20-nodes-seed3", "100-nodes"])
def test_a_pair_is_the_same_bytes_whichever_pairs_are_drawn_with_it(config):
    # a table may draw a pair's taps alone, as a one-receiver generate_taps call
    sc = scenario_from_dict(config)
    env, cfg, nodes = sc.environment, sc.channel, sc.network.nodes
    count = 0
    for i, j, row, energy, _ in ChannelModel(env, cfg).pairs(nodes, sc.seed):
        alone = generate_taps(nodes[i], [nodes[j]], env, cfg, sc.seed)
        assert row.tobytes() == alone[0].tobytes(), (i, j)
        assert energy.hex() == float((np.abs(alone) ** 2).sum(axis=1)[0]).hex(), (i, j)
        count += 1
    assert count == len(nodes) * (len(nodes) - 1) // 2


def test_generate_taps_draws_each_signature_of_a_call_once(monkeypatch):
    signatures = []

    def counting(seed, signature, tap_count):
        signatures.append(signature)
        return draws(seed, signature, tap_count)

    draws = channel_module._tap_draws
    monkeypatch.setattr(channel_module, "_tap_draws", counting)
    generate_taps(TX_POINT, PROBE_POINTS * 3, ENV, CFG, SEED)
    assert len(signatures) == len(set(signatures)) == 5
    memo = {}
    generate_taps(TX_POINT, PROBE_POINTS[:2], ENV, CFG, SEED, memo)
    generate_taps(TX_POINT, PROBE_POINTS, ENV, CFG, SEED, memo)
    assert len(signatures) == 5 + 2 + 3
    assert not generate_taps(TX_POINT, [], ENV, CFG, SEED, memo).size


def test_writing_into_a_cir_does_not_change_the_next_draw():
    tx, rx = TX_POINT, PROBE_POINTS[2]
    first = generate_cir(tx, rx, ENV, CFG, SEED)
    kept = first.copy()
    first[:] = 0.0
    rows = generate_taps(tx, [rx, rx], ENV, CFG, SEED)
    rows[0] *= 2.0
    assert np.array_equal(rows[1], kept)
    assert np.array_equal(generate_cir(tx, rx, ENV, CFG, SEED), kept)
    assert np.array_equal(generate_cir(rx, tx, ENV, CFG, SEED), kept)


def test_integral_float_tap_count_draws_like_the_integer():
    tx, rx = TX_POINT, PROBE_POINTS[2]
    as_float = generate_cir(tx, rx, ENV, ChannelModelConfig(tap_count=129.0), SEED)
    assert np.array_equal(as_float, generate_cir(tx, rx, ENV, CFG, SEED))


def test_generate_taps_rejects_a_coincident_receiver():
    # -0.0 is the same coordinate as 0.0, and a list is the same point as a tuple
    for same in ((50.0, 0.0, 0.0), (50, -0.0, 0), [50.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="coincide"):
            generate_taps(TX_POINT, [PROBE_POINTS[0], same], ENV, CFG, SEED)


@pytest.mark.parametrize("bad", [(math.nan, 10.0, 0.0), (0.0, math.inf, 0.0), (0.0, 10.0, -math.inf)])
def test_generate_taps_rejects_a_nonfinite_point(bad):
    with pytest.raises(ValueError, match="finite"):
        generate_taps(TX_POINT, [PROBE_POINTS[0], bad], ENV, CFG, SEED)
    with pytest.raises(ValueError, match="finite"):
        generate_taps(bad, PROBE_POINTS[:2], ENV, CFG, SEED)


def test_generate_taps_rejects_a_link_length_whose_square_overflows():
    # 1e200 m is finite, but its square is not: a ValueError naming the length
    far = (20.0, 1e200, 0.0)
    with pytest.raises(ValueError, match=r"^generate_taps: a link length of 1e\+200 m overflows when squared$"):
        generate_taps(TX_POINT, [PROBE_POINTS[0], far], ENV, CFG, SEED)
    with pytest.raises(ValueError, match=r"1e\+200 m overflows"):
        generate_cir(far, TX_POINT, ENV, CFG, SEED)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rxs, length", [
    # finite lengths whose sum overflows
    ([(0.0, 1e308, 0.0)] * 2, "1e+308"),
    # finite coordinates whose distance is infinite
    ([(0.0, 1.7e308, 1.7e308)], "inf"),
    ([(0.0, 10.0, 0.0), (0.0, -1.7e308, -1.7e308)], "inf"),
])
def test_a_link_of_finite_points_is_refused_by_its_length(rxs, length):
    message = f"generate_taps: a link length of {length} m overflows when squared"
    with pytest.raises(ValueError) as err:
        generate_taps((0.0, 0.0, 0.0), rxs, Environment(), ChannelModelConfig(), 1)
    assert str(err.value) == message
    # a coordinate that is not finite is named first, wherever it is
    with pytest.raises(ValueError, match="^generate_taps: point coordinates must be finite$"):
        generate_taps((0.0, 0.0, 0.0), [*rxs, (0.0, 0.0, math.nan)], Environment(), ChannelModelConfig(), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("length", [1e-200, 1e-160, 1e-154, 1e-150, 1e-80, 1e-77])
def test_a_link_too_short_for_finite_taps_is_refused_naming_the_pair(length):
    # 1e-200 m squares to 0.0, 1e-160 m to a power that overflows, 1e-154 m
    # to taps whose energy overflows, and 1e-150 to 1e-77 m to a finite energy
    # whose square, which the TR correlations reach, overflows: each a
    # ValueError, without a numpy warning
    points = [(20.0, 0.0, 0.0), (20.0, length, 0.0), (20.0, 600.0, 0.0)]
    with pytest.raises(ValueError) as err:
        list(ChannelModel(ENV, CFG).pairs(points, SEED))
    assert str(err.value) == f"pair 0->1: a link length of {length!r} m is too short for a finite tap energy squared"
    # 1e-75 m gives a tap energy of about 6.6e150, whose square is finite
    points[1] = (20.0, 1e-75, 0.0)
    assert all(energy * energy < math.inf for _, _, _, energy, _ in ChannelModel(ENV, CFG).pairs(points, SEED))


# ------------------------------------------------------------ arrival files


DT = 1.0 / 4e3


def write_arrivals(tmp_path, body):
    path = tmp_path / "arrivals.txt"
    path.write_text("ARRIVALS v1\n" + body, encoding="utf-8")
    return str(path)


def test_load_arrivals_single_tap(tmp_path):
    path = write_arrivals(tmp_path, "0 1 0.0 1.0 0.0\n")
    c, delay = ArrivalTable.from_file(path, 2).pair(0, 1, DT, 1)
    assert np.array_equal(c, np.array([1.0 + 0j])) and delay == 0.0


def test_load_arrivals_two_taps(tmp_path):
    path = write_arrivals(tmp_path, f"0 1 0.0 1.0 0.0\n0 1 {DT} 0.5 0.0\n")
    c, _ = ArrivalTable.from_file(path, 2).pair(0, 1, DT, 4)
    assert np.array_equal(c, np.array([1.0, 0.5, 0.0, 0.0], dtype=np.complex128))


def test_load_arrivals_colliding_taps_sum_to_zero(tmp_path):
    # 1 at phase 0 plus 1 at phase pi land on the same tap and cancel
    path = write_arrivals(tmp_path, f"0 1 0.0 1.0 0.0\n0 1 0.0 1.0 {math.pi}\n")
    c, _ = ArrivalTable.from_file(path, 2).pair(0, 1, DT, 1)
    assert abs(c[0]) < 1e-15


def test_load_arrivals_relative_to_earliest_and_comments(tmp_path):
    body = "# a comment line\n0 1 0.010 1.0 0.0   # trailing comment\n0 1 0.0105 0.25 0.0\n"
    c, delay = ArrivalTable.from_file(write_arrivals(tmp_path, body), 2).pair(0, 1, DT, 3)
    assert np.allclose(c, [1.0, 0.0, 0.25]) and delay == 0.010


def test_load_arrivals_reversed_pair_fallback(tmp_path):
    path = write_arrivals(tmp_path, "0 1 0.0 1.0 0.0\n")
    c, _ = ArrivalTable.from_file(path, 2).pair(1, 0, DT, 1)
    assert np.array_equal(c, np.array([1.0 + 0j]))


def test_load_arrivals_errors(tmp_path):
    path = write_arrivals(tmp_path, "0 1 0.0 1.0\n")
    with pytest.raises(ArrivalFileError, match=":2:"):
        ArrivalTable.from_file(path, 2)

    path = write_arrivals(tmp_path, "0 1 zero 1.0 0.0\n")
    with pytest.raises(ArrivalFileError, match=":2:"):
        ArrivalTable.from_file(path, 2)

    path = write_arrivals(tmp_path, "0 1 -1.0 1.0 0.0\n")
    with pytest.raises(ArrivalFileError, match="delay"):
        ArrivalTable.from_file(path, 2)

    path = write_arrivals(tmp_path, "0 1 0.0 1.0 0.0\n")
    with pytest.raises(ArrivalFileError, match="2->3"):
        ArrivalTable.from_file(path, 4).pair(2, 3, DT, 1)

    bad = tmp_path / "noheader.txt"
    bad.write_text("0 1 0.0 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(ArrivalFileError, match="header"):
        ArrivalTable.from_file(str(bad), 2)


@pytest.mark.parametrize("ids", ["n0 n1", "-1 0", "0.5 1", "0 +1", "0 1_0"])
def test_load_arrivals_refuses_a_node_id_that_is_no_node_index(ids, tmp_path):
    path = write_arrivals(tmp_path, f"0 1 0.4 5e-3 0.0\n{ids} 0.4 5e-3 0.0\n")
    with pytest.raises(ArrivalFileError) as err:
        ArrivalTable.from_file(path, 2)
    assert str(err.value).startswith(f"{path}:3: a node id is a 0-based node index, got ")


@pytest.mark.parametrize("record, message", [
    ("0 0 0.1 5e-3 0.0", ":3: pair 0->0 links a node to itself"),
    ("0 7 0.5 5e-3 0.0", ":3: node id 7 is not a node of the 2 placed"),
    ("2 1 0.5 5e-3 0.0", ":3: node id 2 is not a node of the 2 placed"),
], ids=["self-pair", "rx-outside", "tx-outside"])
def test_load_arrivals_refuses_a_record_that_is_no_pair_of_the_placement(record, message, tmp_path):
    path = write_arrivals(tmp_path, f"0 1 0.4 5e-3 0.0\n{record}\n")
    with pytest.raises(ArrivalFileError) as err:
        ArrivalTable.from_file(path, 2)
    assert str(err.value) == path + message
    # the channel model reads the file for the placement it is given
    cfg = ChannelModelConfig(arrival_file_path=path)
    with pytest.raises(ArrivalFileError, match=re.escape(message)):
        next(ChannelModel(ENV, cfg).pairs([(10, 0, 0), (10, 900, 0)], SEED))


def test_load_arrivals_keys_pairs_by_node_index(tmp_path):
    path = write_arrivals(tmp_path, "0 1 0.4 5e-3 0.0\n12 003 0.5 1e-3 0.0\n")
    assert sorted(ArrivalTable.from_file(path, 13).records) == [(0, 1), (12, 3)]


@pytest.mark.parametrize("tap_count, needed", [(2, 3), (129, 4_000_000_001)])
def test_a_pair_spanning_more_than_tap_count_is_refused_before_its_taps_are_allocated(tap_count, needed, tmp_path):
    late = 2 * DT if needed == 3 else 1e6
    path = write_arrivals(tmp_path, f"0 1 0.0 1.0 0.0\n0 1 {late} 1.0 0.0\n")
    table = ArrivalTable.from_file(path, 2)
    message = f"{path}: pair 0->1: its arrivals span {needed} taps, more than channel.tap_count {tap_count}"
    with pytest.raises(ArrivalFileError) as err:
        table.pair(0, 1, DT, tap_count)
    assert str(err.value) == message
    cfg = ChannelModelConfig(arrival_file_path=path, tap_count=tap_count)
    with pytest.raises(ArrivalFileError) as err:
        next(ChannelModel(ENV, cfg).pairs([(10, 0, 0), (10, 900, 0)], SEED))
    assert str(err.value) == message


def test_a_pair_whose_span_in_taps_overflows_is_refused(tmp_path):
    # 1e306 s over a 0.25-ms tap is no float, so no int either
    path = write_arrivals(tmp_path, "0 1 0.0 1.0 0.0\n0 1 1e306 1.0 0.0\n")
    with pytest.raises(ArrivalFileError, match=r": pair 0->1: its arrivals span inf taps"):
        ArrivalTable.from_file(path, 2).pair(0, 1, DT, 129)


@pytest.mark.parametrize("text, message", [
    ("ARRIVALS v1\n0 1 0.0 -1.0 0.0\n", ":2: amplitude must be finite and >= 0, got -1.0"),
    ("ARRIVALS v1\n0 1 0.0 1.0 nan\n", ":2: phase must be finite, got nan"),
    ("# no header, no record\n\n", ": missing 'ARRIVALS v1' header"),
], ids=["negative-amplitude", "nan-phase", "missing-header"])
def test_load_arrivals_rejects_a_bad_value_or_no_header(text, message, tmp_path):
    path = tmp_path / "arrivals.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ArrivalFileError) as err:
        ArrivalTable.from_file(str(path), 2)
    assert str(err.value) == str(path) + message


def test_arrival_channel_model_missing_pair_identifies_pair(tmp_path):
    # a file names nodes by their index in the placement; pair 1-2 is missing
    path = write_arrivals(tmp_path, "0 1 0.5 1.0 0.0\n0 2 0.7 1.0 0.0\n")
    cfg = ChannelModelConfig(arrival_file_path=path)
    pairs = ChannelModel(ENV, cfg).pairs([(10, 0, 0), (10, 900, 0), (10, 1800, 0)], SEED)
    i, j, c, _, delay = next(pairs)
    assert (i, j, delay, len(c)) == (0, 1, 0.5, cfg.tap_count)
    assert next(pairs)[4] == 0.7
    with pytest.raises(ArrivalFileError, match="1->2"):
        next(pairs)


@pytest.mark.parametrize("overflow", [
    "0 2 0.7 1e80 0.0\n",  # the tap energy is finite, its square is not
    "0 2 0.7 1e200 0.0\n",  # the tap is finite, its energy is not
    "0 2 0.7 1.5e308 0.0\n0 2 0.7 1.5e308 0.0\n",  # the binned tap is not finite
])
def test_arrival_channel_model_rejects_an_overflowing_pair(tmp_path, overflow):
    path = write_arrivals(tmp_path, "0 1 0.5 1.0 0.0\n" + overflow)
    cfg = ChannelModelConfig(arrival_file_path=path)
    pairs = ChannelModel(ENV, cfg).pairs([(10, 0, 0), (10, 900, 0), (10, 1800, 0)], SEED)
    assert next(pairs)[:2] == (0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error says it all, without a numpy warning
        with pytest.raises(ArrivalFileError, match=rf"^{re.escape(path)}: pair 0->2: .*not finite"):
            next(pairs)


def test_arrival_file_model_bins_the_file_and_draws_no_taps(tmp_path):
    path = write_arrivals(tmp_path, f"0 1 0.25 1.0 0.0\n0 1 {0.25 + 2 * DT} 0.5 {math.pi / 2}\n")
    cfg = ChannelModelConfig(arrival_file_path=path)
    a, b = (10, 0, 0), (10, 900, 0)
    [(_, _, c, energy, delay)] = ChannelModel(ENV, cfg).pairs([a, b], SEED)
    assert np.array_equal(c, ArrivalTable.from_file(path, 2).pair(0, 1, DT, cfg.tap_count)[0])
    # binned into the configured tap count, zeros after the last arrival
    assert len(c) == cfg.tap_count and not c[3:].any()
    assert np.allclose(c[:3], [1.0, 0.0, 0.5j])
    assert energy == pytest.approx(1.25) and delay == 0.25
    # the statistical model's functions do not read arrival files
    for draw in (lambda: generate_cir(a, b, ENV, cfg, SEED), lambda: generate_taps(a, [b], ENV, cfg, SEED)):
        with pytest.raises(ValueError) as err:
            draw()
        assert str(err.value) == f"generate_taps: a config with arrival_file {path!r} has no statistical taps"


# ------------------------------------------------------------- environment


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment(water_depth=0.0)
    with pytest.raises(ValueError):
        Environment(nominal_sound_speed=1399.0)
    env = Environment(bandwidth=4e3)
    assert env.sample_interval == pytest.approx(0.25e-3)


def test_channel_model_caches_and_reciprocity():
    a, b = (20, 0, 0), (30, 700, 0)
    [(_, _, ab, _, delay)] = ChannelModel(ENV, CFG).pairs([a, b], SEED)
    [(_, _, ba, _, _)] = ChannelModel(ENV, CFG).pairs([b, a], SEED)
    assert np.array_equal(ab, ba)
    assert np.array_equal(ab, generate_cir(a, b, ENV, CFG, SEED))
    assert delay == pytest.approx(math.dist(a, b) / 1500.0)
