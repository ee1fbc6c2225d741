import math

import numpy as np
import pytest

from uwansim.channel import ChannelModelConfig, Environment, generate_cir, norm, normalized_cross_correlation
from uwansim.scenario import scenario_from_dict
from uwansim.tr_phy import (
    PhyConfig,
    autocorr_offpeak_sum,
    composite_response,
    crosscorr_sampled_stats,
    eta_threshold,
    ili_power_from_parts,
    p_ili,
    p_isi,
    p_sig,
    sdt_powers,
    sdt_signal_and_isi,
    sinr_atrsts,
    sinr_atrsts_from_parts,
    sinr_from_parts,
    sinr_sdt,
    tr_powers,
    tr_waveform,
)

DT = 0.25e-3


def cir(taps):
    """A CIR as the library takes it: a 1-D complex128 tap row."""
    return np.asarray(taps, dtype=np.complex128)


def random_cir(rng, length):
    return cir(rng.standard_normal(length) + 1j * rng.standard_normal(length))


def spike_interferer_pair(amplitude, peak, offpeak_component, length, d_factor, other_index):
    """Interferer pair with exact peak |eta| and fixed sampled off-peak energy.

    interferer->victim is a lone spike; the interferer's own link places
    `peak` at index 0, a component on a sampled lag (index D), and the
    norm remainder on a non-sampled lag, so that crosscorr_sampled_stats
    returns exactly (peak, offpeak_component**2).
    """
    assert other_index % d_factor != 0
    to_victim = np.zeros(length, dtype=complex)
    to_victim[0] = amplitude
    own = np.zeros(length, dtype=complex)
    own[0] = peak
    own[d_factor] = offpeak_component
    rest = 1.0 - peak**2 - offpeak_component**2
    assert rest >= -1e-12
    own[other_index] = math.sqrt(max(rest, 0.0))
    return cir(to_victim), cir(own)


# -------------------------------------------------------------- tr_waveform


def test_tr_waveform_examples():
    assert np.allclose(tr_waveform(cir([1.0])), [1.0])
    # reverse, conjugate, normalize: [0, 2i] -> [-i, 0]
    assert np.allclose(tr_waveform(cir([0.0, 2.0j])), [-1.0j, 0.0])


def test_tr_waveform_unit_norm_and_zero_rejection():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = random_cir(rng, int(rng.integers(1, 30)))
        assert np.linalg.norm(tr_waveform(c)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tr_waveform(cir([0.0, 0.0]))


@pytest.mark.parametrize("name, call", [
    ("crosscorr_sampled_stats", lambda zero: crosscorr_sampled_stats(zero, cir([1.0, 0.5]), 1)),
    ("crosscorr_sampled_stats", lambda zero: crosscorr_sampled_stats(cir([1.0, 0.5]), zero, 1)),
    ("sinr_sdt", lambda zero: sinr_sdt(zero, PhyConfig(updown_factor=1))),
], ids=["crosscorr_a", "crosscorr_b", "sinr_sdt"])
def test_a_zero_cir_is_rejected_naming_the_function(name, call):
    with pytest.raises(ValueError, match=f"^{name} requires"):
        call(cir([0.0, 0.0]))


# ------------------------------------------------------- composite response


def test_composite_response_trivial():
    assert np.allclose(composite_response(cir([1.0]), 1), [1.0])


def test_composite_response_center_peak_is_norm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = random_cir(rng, 9)
        for d in (1, 2, 4, 8):
            resp = composite_response(c, d)
            assert resp.size == 2 * 8 // d + 1
            center = 8 // d
            assert resp[center] == pytest.approx(norm(c), abs=1e-10)


def test_composite_response_matches_eta_formula():
    # |(c conv g)[D l]| equals ||c|| * |eta_cc[D l - (L-1)]| on the whole grid
    rng = np.random.default_rng(2)
    c = random_cir(rng, 9)
    for d in (1, 2):
        resp = composite_response(c, d)
        n = norm(c)
        for l, value in enumerate(resp):
            eta = normalized_cross_correlation(c, c, d * l - 8)
            assert abs(value) == pytest.approx(n * abs(eta), abs=1e-10)


def test_composite_response_divisibility_error():
    with pytest.raises(ValueError):
        composite_response(cir([1.0, 2.0, 3.0]), 4)


# ------------------------------------------------------------------- powers


def test_p_sig_examples():
    assert p_sig(cir([1.0]), PhyConfig(updown_factor=4)) == pytest.approx(4.0)
    assert p_sig(cir([3.0, 4.0j]), PhyConfig(avg_transmit_power=2.0, updown_factor=1)) == pytest.approx(50.0)
    one = p_sig(cir([1.0, 1.0]), PhyConfig(updown_factor=1))
    four = p_sig(cir([2.0, 2.0]), PhyConfig(updown_factor=1))
    assert four == pytest.approx(4.0 * one)


def test_p_isi_examples():
    assert p_isi(cir([1.0]), PhyConfig(updown_factor=1)) == 0.0
    # c = [1, 1], D = 1: eta[+-1] = 1/2, so p_isi = P * 2 * (1/4 + 1/4) = P
    for power in (1.0, 3.0):
        phy = PhyConfig(avg_transmit_power=power, updown_factor=1)
        assert p_isi(cir([1.0, 1.0]), phy) == pytest.approx(power, abs=1e-12)


def test_p_isi_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    phy = PhyConfig(avg_transmit_power=2.0, updown_factor=2)
    c = random_cir(rng, 9)
    n2 = norm(c) ** 2
    total = 0.0
    for l in range(2 * 8 // 2 + 1):
        if l == 8 // 2:
            continue
        eta = normalized_cross_correlation(c, c, 2 * l - 8)
        total += abs(eta) ** 2
    assert p_isi(c, phy) == pytest.approx(2 * 2.0 * n2 * total, rel=1e-12)


def test_isi_fraction_non_increasing_and_sinr_non_decreasing_in_d():
    # Doubling D retains a nested subset of off-peak lags, so the ISI
    # fraction p_isi/p_sig shrinks and the interference-free SINR grows.
    # (Raw p_isi itself is not monotone: its D factor offsets the smaller sum.)
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_cir(rng, 129)
        fractions = []
        sinrs = []
        for d in (1, 2, 4, 8, 16, 32, 64, 128):
            phy = PhyConfig(updown_factor=d, noise_variance=0.5)
            fractions.append(p_isi(c, phy) / p_sig(c, phy))
            sinrs.append(sinr_atrsts(c, [], phy))
        for lo, hi in zip(fractions[1:], fractions[:-1]):
            assert lo <= hi + 1e-12
        for hi, lo in zip(sinrs[1:], sinrs[:-1]):
            assert hi >= lo - 1e-12


def test_p_ili_orthogonal_and_self_identities():
    phy = PhyConfig(updown_factor=2)
    # interferer link orthogonal at every sampled lag -> zero ILI
    to_victim, own = spike_interferer_pair(1.5, 0.0, 0.0, 9, 2, 3)
    assert p_ili(to_victim, own, phy) == pytest.approx(0.0, abs=1e-15)

    # identical pair -> autocorrelation: equals p_sig + p_isi
    rng = np.random.default_rng(5)
    c = random_cir(rng, 9)
    assert p_ili(c, c, phy) == pytest.approx(p_sig(c, phy) + p_isi(c, phy), rel=1e-12)


def test_p_ili_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    phy = PhyConfig(avg_transmit_power=1.5, updown_factor=1)
    a = random_cir(rng, 8)
    b = random_cir(rng, 8)
    total = 0.0
    for l in range(2 * 7 + 1):
        eta = normalized_cross_correlation(a, b, l - 7)
        total += abs(eta) ** 2
    assert p_ili(a, b, phy) == pytest.approx(1.5 * norm(a) ** 2 * total, rel=1e-12)


def test_p_ili_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        p_ili(cir([1.0, 0.0]), cir([1.0, 0.0, 0.0]), PhyConfig(updown_factor=1))


def test_ili_power_from_parts_consistent_with_p_ili():
    rng = np.random.default_rng(7)
    phy = PhyConfig(updown_factor=4)
    a = random_cir(rng, 9)
    b = random_cir(rng, 9)
    peak, offpeak = crosscorr_sampled_stats(a, b, 4)
    assert ili_power_from_parts(norm(a), peak, offpeak, phy) == pytest.approx(
        p_ili(a, b, phy), rel=1e-12
    )


# -------------------------------------------------------------------- SINRs


def test_sinr_atrsts_interference_free_single_tap():
    phy = PhyConfig(avg_transmit_power=1.0, noise_variance=1.0, updown_factor=4)
    assert sinr_atrsts(cir([1.0]), [], phy) == pytest.approx(4.0)


def test_sinr_atrsts_interferer_strictly_decreases():
    rng = np.random.default_rng(8)
    phy = PhyConfig(noise_variance=0.1, updown_factor=2)
    c = random_cir(rng, 9)
    to_victim, own = spike_interferer_pair(1.0, 0.5, 0.2, 9, 2, 3)
    assert sinr_atrsts(c, [(to_victim, own)], phy) < sinr_atrsts(c, [], phy)


def test_sinr_atrsts_monotone_in_peak_eta():
    # fixed geometry, sweeping the constructed peak cross-correlation
    rng = np.random.default_rng(9)
    phy = PhyConfig(noise_variance=1e-3, updown_factor=4)
    c = random_cir(rng, 9)
    values = []
    for peak in np.linspace(0.0, 0.9, 10):
        to_victim, own = spike_interferer_pair(1.0, peak, 0.1, 9, 4, 3)
        values.append(sinr_atrsts(c, [(to_victim, own)], phy))
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo < hi


def test_sinr_sdt_examples():
    phy = PhyConfig(avg_transmit_power=1.0, noise_variance=0.25, updown_factor=1)
    assert sinr_sdt(cir([1.0]), phy) == pytest.approx(4.0)
    # equal-power two-tap channel: one tap is signal, the other pure ISI
    tiny_noise = PhyConfig(noise_variance=1e-15, updown_factor=1)
    assert sinr_sdt(cir([1.0, 1.0]), tiny_noise) == pytest.approx(1.0, rel=1e-9)


def test_sinr_parts_share_the_engine_summation_order():
    # the order matters in the last bits: (isi + sum of ILIs) + sigma^2
    phy = PhyConfig(avg_transmit_power=0.7, noise_variance=0.1, updown_factor=3)
    sig, isi, ilis = 2.3, 0.3, [0.1, 0.2, 1e-17]
    assert sinr_from_parts(sig, isi, 0.4, phy.noise_variance) == sig / (isi + 0.4 + 0.1)
    assert sinr_atrsts_from_parts(sig, isi, ilis, phy.noise_variance) == sig / (isi + (0.0 + 0.1 + 0.2 + 1e-17) + 0.1)
    assert sinr_atrsts_from_parts(sig, isi, [], phy.noise_variance) == sig / (isi + 0.1)
    dp = 3 * 0.7
    c = cir([2.0, 0.0, 0.0, 1.0])  # D = 3 keeps taps 0 and 3: |h_lbar|^2 = 4, ISI 1
    assert sdt_powers(c, phy) == (dp * 4.0, dp * 1.0)
    assert sinr_sdt(c, phy) == sinr_from_parts(*sdt_powers(c, phy), 0.0, 0.1) == dp * 4.0 / (dp * 1.0 + 0.0 + 0.1)
    assert tr_powers(2.0, 0.25, phy) == (dp * 4.0, dp * 4.0 * 0.25)


def test_sinr_sdt_retains_offgrid_strongest_tap():
    # strongest tap at index 1 with D = 2: sampling phase shifts to keep it
    phy = PhyConfig(noise_variance=1e-12, updown_factor=2)
    c = cir([0.5, 2.0, 0.0, 1.0, 0.0])
    peak, isi = sdt_signal_and_isi(c, 2)
    assert peak == pytest.approx(4.0)
    assert isi == pytest.approx(1.0)
    assert sinr_sdt(c, phy) == pytest.approx(4.0, rel=1e-9)


def test_noise_dominated_ratio_limit():
    # as noise dominates, ATRSTs/SDT -> ||c||^2 / |h_lbar|^2 >= 1
    rng = np.random.default_rng(10)
    d = 4
    for _ in range(20):
        c = random_cir(rng, 17)
        sigma2 = 1e6 * d * norm(c) ** 2
        phy = PhyConfig(noise_variance=sigma2, updown_factor=d)
        ratio = sinr_atrsts(c, [], phy) / sinr_sdt(c, phy)
        expected = norm(c) ** 2 / np.abs(c).max() ** 2
        assert ratio == pytest.approx(expected, rel=0.01)
        assert ratio >= 1.0


def test_sinr_scale_invariance_in_power_and_noise():
    rng = np.random.default_rng(11)
    c = random_cir(rng, 9)
    for kappa in (0.5, 3.0, 100.0):
        base = PhyConfig(avg_transmit_power=1.0, noise_variance=0.3, updown_factor=4)
        scaled = PhyConfig(avg_transmit_power=kappa, noise_variance=0.3 * kappa, updown_factor=4)
        assert sinr_atrsts(c, [], scaled) == pytest.approx(sinr_atrsts(c, [], base), rel=1e-12)
        assert sinr_sdt(c, scaled) == pytest.approx(sinr_sdt(c, base), rel=1e-12)


# ----------------------------------------------------------- eta threshold


def test_eta_threshold_clean_limit_and_clamp():
    # single-tap victim, clean interferer pair, negligible noise, gamma = 1:
    # threshold tends to ||h_ab|| / ||h_ib||, clamped at 1
    phy = PhyConfig(noise_variance=1e-12, updown_factor=2, min_required_sinr=1.0)
    victim_norm = 2.0
    to_victim, own = spike_interferer_pair(2.0, 0.3, 0.0, 9, 2, 3)
    th = eta_threshold(victim_norm, 0.0, to_victim, own, phy)
    assert th == pytest.approx(1.0, abs=1e-6)

    # stronger victim than interferer: radicand above 1 clamps to exactly 1
    to_victim, own = spike_interferer_pair(1.0, 0.3, 0.0, 9, 2, 3)
    assert eta_threshold(2.0, 0.0, to_victim, own, phy) == 1.0


def test_eta_threshold_near_far_returns_none():
    # overwhelming interferer-to-victim norm: off-peak ILI alone breaks gamma
    rng = np.random.default_rng(12)
    phy = PhyConfig(noise_variance=1e-6, updown_factor=2, min_required_sinr=1.0)
    own = random_cir(rng, 9)
    to_victim = cir(100.0 * random_cir(rng, 9))
    assert eta_threshold(1.0, 0.0, to_victim, own, phy) is None


def test_eta_threshold_rejects_nonpositive_victim_norm():
    to_victim, own = spike_interferer_pair(1.0, 0.1, 0.0, 9, 2, 3)
    with pytest.raises(ValueError):
        eta_threshold(0.0, 0.0, to_victim, own, PhyConfig(updown_factor=2))


def test_eta_threshold_self_consistency_loop():
    # forcing the peak cross-correlation to the returned threshold makes the
    # victim's SINR exactly gamma; nudging the peak crosses gamma
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 25:
        d = int(rng.choice([2, 4]))
        length = 9
        victim = random_cir(rng, length)
        gamma = float(rng.uniform(0.5, 4.0))
        phy = PhyConfig(
            noise_variance=float(rng.uniform(0.01, 0.3) * norm(victim) ** 2),
            updown_factor=d,
            min_required_sinr=gamma,
        )
        amplitude = float(rng.uniform(0.4, 1.4)) * norm(victim) / math.sqrt(gamma)
        offpeak_component = float(rng.uniform(0.0, 0.3))
        probe_victim, probe_own = spike_interferer_pair(amplitude, 0.0, offpeak_component, length, d, 3)
        threshold = eta_threshold(
            norm(victim), autocorr_offpeak_sum(victim, d), probe_victim, probe_own, phy
        )
        if threshold is None or not 0.02 < threshold < 0.97:
            continue
        if threshold + 0.01 > math.sqrt(1.0 - offpeak_component**2):
            continue
        checked += 1
        for peak, compare in ((threshold, "eq"), (threshold - 0.01, "gt"), (threshold + 0.01, "lt")):
            to_victim, own = spike_interferer_pair(amplitude, peak, offpeak_component, length, d, 3)
            sinr = sinr_atrsts(victim, [(to_victim, own)], phy)
            if compare == "eq":
                assert sinr == pytest.approx(gamma, rel=1e-6)
            elif compare == "gt":
                assert sinr > gamma
            else:
                assert sinr < gamma


# ------------------------------------------------------------------ config


def test_phy_config_validation():
    with pytest.raises(ValueError):
        PhyConfig(avg_transmit_power=0.0)
    with pytest.raises(ValueError):
        PhyConfig(noise_variance=-1.0)
    with pytest.raises(ValueError):
        PhyConfig(updown_factor=0)
    with pytest.raises(ValueError):
        PhyConfig(min_required_sinr=0.0)


def test_a_config_keeps_an_integral_float_as_the_integer_its_rule_parses():
    factor = PhyConfig(updown_factor=4.0).updown_factor
    assert type(factor) is int and factor == 4
    assert type(ChannelModelConfig(tap_count=129.0).tap_count) is int
    h = generate_cir((50.0, 0.0, 0.0), (70.0, 1000.0, 0.0), Environment(), ChannelModelConfig(), 1)
    assert p_isi(h, PhyConfig(updown_factor=4.0)) == p_isi(h, PhyConfig())


def test_eta_threshold_norm_ratio_limit():
    # clean interferer pair, negligible noise and ISI, gamma = 1:
    # the threshold approaches ||h_victim|| / ||h_interferer||
    phy = PhyConfig(noise_variance=1e-14, updown_factor=2, min_required_sinr=1.0)
    to_victim, own = spike_interferer_pair(2.0, 0.3, 0.0, 9, 2, 3)
    th = eta_threshold(1.0, 0.0, to_victim, own, phy)
    assert th == pytest.approx(0.5, abs=1e-6)


# ------------------------------------------------ symbol-level Monte Carlo


def qpsk(rng, count):
    """``count`` unit-power QPSK symbols."""
    return (rng.choice([-1.0, 1.0], count) + 1j * rng.choice([-1.0, 1.0], count)) / math.sqrt(2)


def tr_chain(symbols, link, channel, d_factor):
    """``symbols`` upsampled by D, sent through the TR waveform of ``link``
    and then through ``channel``: the received samples, before sampling."""
    upsampled = np.zeros(len(symbols) * d_factor, dtype=np.complex128)
    upsampled[::d_factor] = symbols
    return np.convolve(np.convolve(upsampled, tr_waveform(link)), channel)


@pytest.mark.parametrize("victim, interferer", [(0, 1), (1, 2), (4, 5)])
def test_tr_closed_forms_match_a_symbol_level_simulation(victim, interferer):
    # the victim's link c and the interferer's own link h_il and its
    # channel to the victim's receiver h_iv, from the seed-1 20-node
    # placement; both streams are sampled at the victim's peaks
    # k*D + L - 1, so the interferer is symbol-synchronous (offset 0)
    sc = scenario_from_dict({"seed": 1})
    nodes, routes, phy = sc.network.nodes, sc.network.routes, sc.phy
    (tv, rv), (ti, ri) = routes[victim], routes[interferer]
    c, h_il, h_iv = (generate_cir(nodes[a], nodes[b], sc.environment, sc.channel, sc.seed)
                     for a, b in ((tv, rv), (ti, ri), (ti, rv)))
    d = phy.updown_factor
    span = (c.size - 1) // d  # symbols on each side of a peak that reach it
    count = 16_000
    rng = np.random.default_rng(2024)
    s, s2 = qpsk(rng, count + 2 * span), qpsk(rng, count + 2 * span)
    k = np.arange(span, span + count)  # every symbol reached by a full response
    peaks = k * d + c.size - 1
    y = tr_chain(s, c, c, d)[peaks]
    z = tr_chain(s2, h_il, h_iv, d)[peaks]
    gain = np.vdot(s[k], y) / count  # the focused peak, measured
    signal = abs(gain) ** 2
    isi = np.mean(np.abs(y - gain * s[k]) ** 2)
    ili = np.mean(np.abs(z) ** 2)
    # the worst error over 60 symbol seeds of five route pairs was 4.5 %
    assert isi / signal == pytest.approx(autocorr_offpeak_sum(c, d), rel=0.1)
    assert ili / signal == pytest.approx(p_ili(h_iv, h_il, phy) / p_sig(c, phy), rel=0.1)
