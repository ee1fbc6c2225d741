"""Time-reversal transmission math: waveforms, ISI/ILI powers, SINRs, threshold.

Everything here is downstream of a single construction: transmitting the
normalized time-reversed conjugate of a link's CIR turns the physical
channel into a matched filter, so the received (down-sampled) composite
response is the link autocorrelation scaled by the link norm.  Signal,
ISI, and inter-link interference powers then measure the peak and
off-peak values of normalized (auto/cross) correlations sampled on the
lag grid D*l - (L-1), l = 0 .. 2(L-1)/D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import norm
from .rules import POSITIVE, Checked, integer, number


@dataclass(frozen=True)
class PhyConfig(Checked):
    """Physical-layer parameters shared by all nodes: the paper's PHY by default."""

    avg_transmit_power: float = 1.0
    noise_variance: float = 1.0e-7
    updown_factor: int = 4
    min_required_sinr: float = 0.5

    RULES = {
        "avg_transmit_power": number(POSITIVE),
        "noise_variance": number(POSITIVE),
        "updown_factor": integer(POSITIVE),
        "min_required_sinr": number(POSITIVE),
    }


def check_divisible(tap_count: int, d_factor: int) -> None:
    if tap_count < 1:
        raise ValueError("a CIR needs at least one tap")
    if (tap_count - 1) % d_factor != 0:
        raise ValueError(
            f"(L-1) must be divisible by the up/down-sampling factor: L={tap_count}, D={d_factor}"
        )


def tr_waveform(c: np.ndarray) -> np.ndarray:
    """The unit-norm TR waveform g[k] = conj(c[L-1-k]) / ||c||."""
    n = norm(c)
    if n == 0.0:
        raise ValueError("tr_waveform requires a nonzero CIR")
    return np.conj(c[::-1]) / n


def composite_response(c: np.ndarray, d_factor: int) -> np.ndarray:
    """Down-sampled channel-plus-waveform response (c conv g)[D*l].

    Length 2(L-1)/D + 1; the center entry equals ||c|| (autocorrelation
    peak), everything else is residual ISI structure.
    """
    check_divisible(c.size, d_factor)
    return np.convolve(c, tr_waveform(c))[::d_factor]


def _sampled_correlation(a_taps: np.ndarray, b_taps: np.ndarray, d_factor: int) -> np.ndarray:
    """Cross-correlation values on the lag grid D*l - (L-1), via full convolution.

    The returned vector's center entry is r[0]; the off-center entries
    enumerate the same symmetric lag set the power sums run over.
    """
    if a_taps.size != b_taps.size:
        raise ValueError(f"CIR lengths must match: {a_taps.size} vs {b_taps.size}")
    check_divisible(a_taps.size, d_factor)
    return np.convolve(a_taps, np.conj(b_taps[::-1]))[::d_factor]


def autocorr_offpeak_sum(c: np.ndarray, d_factor: int) -> float:
    """sum_{l != (L-1)/D} |eta_{c,c}[D*l-(L-1)]|^2 -- the normalized ISI energy."""
    n2 = float(np.dot(c, np.conj(c)).real)
    if not 0.0 < n2 < math.inf:
        raise ValueError("autocorr_offpeak_sum requires a nonzero CIR of finite taps")
    sampled = _sampled_correlation(c, c, d_factor)
    mags = np.abs(sampled) ** 2 / n2**2
    center = (c.size - 1) // d_factor
    return float(mags.sum() - mags[center])


def crosscorr_sampled_stats(a: np.ndarray, b: np.ndarray, d_factor: int) -> tuple[float, float]:
    """(|eta_{a,b}[0]|, sum over the off-center sampled lags of |eta|^2)."""
    na, nb = norm(a), norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("crosscorr_sampled_stats requires nonzero CIRs")
    sampled = _sampled_correlation(a, b, d_factor)
    mags = np.abs(sampled) ** 2 / (na * nb) ** 2
    center = (a.size - 1) // d_factor
    return float(math.sqrt(mags[center])), float(mags.sum() - mags[center])


def tr_powers(link_norm: float, offpeak: float, phy: PhyConfig) -> tuple[float, float]:
    """(signal, ISI) power of a TR transmission over a link of norm ||c||
    and off-peak autocorrelation sum ``offpeak``: D * P * ||c||^2, and that
    times ``offpeak``."""
    sig = phy.updown_factor * phy.avg_transmit_power * link_norm**2
    return sig, sig * offpeak


def p_sig(c: np.ndarray, phy: PhyConfig) -> float:
    """Received signal power of a TR transmission: D * P * ||c||^2."""
    return tr_powers(norm(c), 0.0, phy)[0]


def p_isi(c: np.ndarray, phy: PhyConfig) -> float:
    """Residual self-interference power after TR and down-sampling."""
    return tr_powers(norm(c), autocorr_offpeak_sum(c, phy.updown_factor), phy)[1]


def p_ili(interferer_to_victim: np.ndarray, interferer_link: np.ndarray, phy: PhyConfig) -> float:
    """Inter-link interference power at a victim from one concurrent TR link.

    D * P * ||h_iv||^2 * sum over all sampled lags of |eta_{iv,il}|^2,
    i.e. the peak term plus the off-peak terms.
    """
    peak, offpeak = crosscorr_sampled_stats(interferer_to_victim, interferer_link, phy.updown_factor)
    return ili_power_from_parts(norm(interferer_to_victim), peak, offpeak, phy)


def ili_power_from_parts(
    interferer_to_victim_norm: float, peak_eta: float, offpeak_eta_sq_sum: float, phy: PhyConfig
) -> float:
    """ILI power with the peak |eta| supplied explicitly.

    Lets sweeps and the admission check vary the peak cross-correlation
    while holding the measured off-peak structure fixed.
    """
    return (
        phy.updown_factor
        * phy.avg_transmit_power
        * interferer_to_victim_norm**2
        * (peak_eta**2 + offpeak_eta_sq_sum)
    )


def sinr_from_parts(sig: float, isi: float, interference: float, noise_variance: float) -> float:
    """sig / (isi + interference + sigma^2), summed in that order: the one
    SINR formula of the TR and direct transmissions and of the engine."""
    return sig / (isi + interference + noise_variance)


def sinr_atrsts_from_parts(sig: float, isi: float, ilis: list[float], noise_variance: float) -> float:
    """p_sig / (p_isi + sum of the interferers' p_ili + sigma^2), ILIs summed left to right.

    Lets sweeps over the noise variance reuse powers that depend on D only.
    """
    interference = 0.0
    for ili in ilis:
        interference += ili
    return sinr_from_parts(sig, isi, interference, noise_variance)


def sinr_atrsts(
    signal_link: np.ndarray,
    interferers: list[tuple[np.ndarray, np.ndarray]],
    phy: PhyConfig,
) -> float:
    """Effective SINR of active TR-based simultaneous transmissions.

    Each interferer is (channel interferer->victim, interferer's own link).
    """
    ilis = [p_ili(to_victim, own_link, phy) for to_victim, own_link in interferers]
    return sinr_atrsts_from_parts(p_sig(signal_link, phy), p_isi(signal_link, phy), ilis, phy.noise_variance)


def sdt_signal_and_isi(c: np.ndarray, d_factor: int) -> tuple[float, float]:
    """(|h_lbar|^2, sum of |h[.]|^2 over the other sampled taps) for SDT.

    The down-sampling phase is chosen so the strongest tap is always
    retained, even when its index is not a multiple of D.
    """
    check_divisible(c.size, d_factor)
    mags = np.abs(c) ** 2
    l_bar = int(np.argmax(mags))  # a NaN, if there is one
    peak = float(mags[l_bar])
    if not peak < math.inf:
        raise ValueError("sdt_signal_and_isi requires finite taps")
    sampled = mags[l_bar % d_factor :: d_factor]
    return peak, float(sampled.sum() - mags[l_bar])


def sdt_powers(c: np.ndarray, phy: PhyConfig) -> tuple[float, float]:
    """(signal, ISI) power of a single direct (non-TR) transmission over c:
    D * P times the ``sdt_signal_and_isi`` pair."""
    peak, isi_sum = sdt_signal_and_isi(c, phy.updown_factor)
    dp = phy.updown_factor * phy.avg_transmit_power
    return dp * peak, dp * isi_sum


def sinr_sdt(c: np.ndarray, phy: PhyConfig) -> float:
    """Effective SINR of a single direct (non-TR) transmission."""
    if norm(c) == 0.0:
        raise ValueError("sinr_sdt requires a nonzero CIR")
    return sinr_from_parts(*sdt_powers(c, phy), 0.0, phy.noise_variance)


def eta_threshold(
    victim_link_norm: float,
    victim_autocorr_offpeak_sum: float,
    interferer_to_victim: np.ndarray,
    interferer_link: np.ndarray,
    phy: PhyConfig,
) -> float | None:
    """Largest peak |eta| between interfering and victim-bound channels that
    still leaves the victim at or above its minimum required SINR.

    Returns None when no value admits a simultaneous transmission (the
    radicand is negative, e.g. in near-far geometries); otherwise the
    square root clamped into [0, 1].
    """
    if not 0.0 < victim_link_norm < math.inf:
        raise ValueError("eta_threshold requires a positive finite victim link norm")
    gamma = phy.min_required_sinr
    nv2 = victim_link_norm**2
    ni2 = norm(interferer_to_victim) ** 2
    _, interferer_offpeak = crosscorr_sampled_stats(interferer_to_victim, interferer_link, phy.updown_factor)
    radicand = (
        nv2 / gamma
        - nv2 * victim_autocorr_offpeak_sum
        - ni2 * interferer_offpeak
        - phy.noise_variance / (phy.updown_factor * phy.avg_transmit_power)
    ) / ni2
    if radicand < 0:
        return None
    return min(1.0, math.sqrt(radicand))
