import copy
import csv
import io
import math
import re
import tracemalloc
import weakref

import pytest

from uwansim import channel as channel_module
from uwansim import presets
from uwansim.channel import (
    ChannelModelConfig,
    Environment,
    generate_cir,
    norm,
    normalized_cross_correlation,
)
from uwansim.presets import (
    PRESETS,
    ExperimentPreset,
    REFERENCE_GEOMETRY,
    _csv_line,
    _reference_links,
    run_preset,
)
from uwansim.scenario import Scenario, ScenarioError
from uwansim.sim import LinkTable, run_scenario
from uwansim.tr_phy import PhyConfig, crosscorr_sampled_stats, p_isi, p_sig


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        provenance = fh.readline()
        assert provenance.startswith("# preset=")
        rows = list(csv.reader(fh))
    return provenance, rows[0], rows[1:]


def test_preset_validation():
    with pytest.raises(ValueError):
        ExperimentPreset("unknown_curve")
    with pytest.raises(ValueError):
        ExperimentPreset("sinr_vs_snr", seeds=())


@pytest.mark.parametrize("name", ["sinr_vs_snr", "sinr_vs_eta", "correlation_heatmap", "timeseries"])
def test_single_seed_presets_refuse_more_seeds(name, tmp_path):
    with pytest.raises(ValueError) as err:
        ExperimentPreset(name, seeds=(1, 2), output_dir=str(tmp_path))
    assert str(err.value) == f"{name}: seeds: expected one seed, got (1, 2)"
    assert not list(tmp_path.iterdir())
    assert ExperimentPreset("load_sweep", seeds=(1, 2)).seeds == (1, 2)


def test_load_sweep_refuses_a_repeated_seed(tmp_path):
    # a seed counted twice would weigh double in an interval over seeds
    with pytest.raises(ValueError) as err:
        ExperimentPreset("load_sweep", seeds=(1, 2, 1.0), output_dir=str(tmp_path))
    assert str(err.value) == "load_sweep: seeds: expected distinct seeds, got (1, 2, 1)"
    assert not list(tmp_path.iterdir())


def test_sinr_vs_snr_grid_cardinality(tmp_path):
    path = run_preset(ExperimentPreset("sinr_vs_snr", output_dir=str(tmp_path)))
    _, header, rows = read_csv(path)
    assert header == ["d_factor", "snr_db", "sinr_atrsts_db", "sinr_sdt_db"]
    assert len(rows) == 4 * 21
    # TR harvests the whole multipath while SDT keeps one tap: at the lowest
    # SNR (noise-dominated) the TR curve sits above the SDT curve for every D
    for d in (1, 2, 4, 8):
        low = [r for r in rows if int(r[0]) == d][0]
        assert float(low[2]) > float(low[3])


def test_sinr_vs_snr_correlates_once_per_d_factor(tmp_path, monkeypatch):
    import uwansim.tr_phy as tr_phy

    calls = []
    real = tr_phy.autocorr_offpeak_sum

    def counting(c, d_factor):
        calls.append(d_factor)
        return real(c, d_factor)

    monkeypatch.setattr(tr_phy, "autocorr_offpeak_sum", counting)
    params = {"d_factors": [1, 2, 4], "snr_db_grid": [40.0 + 5.0 * k for k in range(9)]}
    run_preset(ExperimentPreset("sinr_vs_snr", params=params, output_dir=str(tmp_path)))
    assert sorted(calls) == [1, 2, 4]


def test_sinr_vs_snr_builds_one_phy_config_per_d_factor(tmp_path, monkeypatch):
    # the SNR points pass sigma^2 to the SINR helpers as a number
    built = []
    init = PhyConfig.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.updown_factor)

    monkeypatch.setattr(PhyConfig, "__init__", counting)
    params = {"d_factors": [1, 2, 4], "snr_db_grid": [40.0 + 5.0 * k for k in range(9)]}
    run_preset(ExperimentPreset("sinr_vs_snr", params=params, output_dir=str(tmp_path)))
    assert sorted(built) == [1, 2, 4]


def test_sinr_vs_eta_monotone_and_eta0_identity(tmp_path):
    preset = ExperimentPreset("sinr_vs_eta", output_dir=str(tmp_path))
    path = run_preset(preset)
    _, header, rows = read_csv(path)
    assert len(rows) == 4 * 19
    by_d = {}
    for r in rows:
        by_d.setdefault(int(r[0]), []).append((float(r[1]), float(r[2])))
    for d, series in by_d.items():
        values = [v for _, v in sorted(series)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    # eta = 0 equals the interference-free SINR degraded only by the
    # off-peak inter-link terms, cross-checked against the power oracles
    h_ab, h_ib, h_ij = _reference_links(1, 129)
    sigma2 = 10 ** (-6.5)
    for d in (1, 2, 4, 8):
        phy = PhyConfig(noise_variance=sigma2, updown_factor=d, min_required_sinr=0.5)
        _, offpeak = crosscorr_sampled_stats(h_ib, h_ij, d)
        ili0 = d * 1.0 * norm(h_ib) ** 2 * offpeak
        expected = 10 * math.log10(p_sig(h_ab, phy) / (p_isi(h_ab, phy) + ili0 + sigma2))
        got = [float(r[2]) for r in rows if int(r[0]) == d and float(r[1]) == 0.0][0]
        assert got == pytest.approx(expected, abs=1e-9)


def test_correlation_heatmap_reference_cell_and_cardinality(tmp_path):
    path = run_preset(ExperimentPreset("correlation_heatmap", output_dir=str(tmp_path)))
    _, header, rows = read_csv(path)
    assert header == ["depth_m", "range_m", "eta_abs"]
    assert len(rows) == 17 * 81  # 0..80 m by 5, 0..4000 m by 50
    ref_rx = REFERENCE_GEOMETRY["j"]
    cell = [r for r in rows if float(r[0]) == ref_rx[0] and float(r[1]) == ref_rx[1]]
    assert float(cell[0][2]) == pytest.approx(1.0, abs=1e-12)
    # the cell at the reference transmitter itself is an undefined link
    ref_tx = REFERENCE_GEOMETRY["i"]
    self_cell = [r for r in rows if float(r[0]) == ref_tx[0] and float(r[1]) == ref_tx[1]]
    assert math.isnan(float(self_cell[0][2]))


def brute_force_heatmap(params, seed):
    """The heatmap cell by cell: a (depth, range, 0) point per cell, then
    generate_cir and normalized_cross_correlation of the cell's link alone."""
    depth_step, range_step = params["depth_step"], params["range_step"]
    env = Environment(water_depth=80.0)
    cfg = ChannelModelConfig(tap_count=params.get("tap_count", 129))
    tx_depth, tx_range = params.get("reference_tx", REFERENCE_GEOMETRY["i"])
    rx_depth, rx_range = REFERENCE_GEOMETRY["j"]
    ref_tx = (tx_depth, tx_range, 0.0)
    h_ref = generate_cir(ref_tx, (rx_depth, rx_range, 0.0), env, cfg, seed)
    rows = []
    for kd in range(int(80.0 / depth_step) + 1):
        for kr in range(int(4000.0 / range_step) + 1):
            probe = (round(kd * depth_step, 9), round(kr * range_step, 9), 0.0)
            if probe == ref_tx:
                eta = math.nan
            else:
                eta = abs(normalized_cross_correlation(generate_cir(ref_tx, probe, env, cfg, seed), h_ref, 0))
            rows.append((probe[0], probe[1], eta))
    return rows


HEATMAP_GRIDS = {
    "tx_on_a_cell": {"depth_step": 10.0, "range_step": 250.0},
    "tx_off_the_grid": {"depth_step": 15.0, "range_step": 250.0, "reference_tx": [47.5, 130.0]},
    # the NaN cell is the last of its depth row
    "tx_last_in_its_row": {"depth_step": 20.0, "range_step": 500.0, "reference_tx": [40.0, 4000.0]},
    # 572 cells a row: more than one tap matrix per row
    "rows_past_a_block": {"depth_step": 25.0, "range_step": 7.0},
    "257_taps": {"depth_step": 10.0, "range_step": 250.0, "tap_count": 257},
    # 3 m does not divide the 5-m depth quantum: a depth cell holds one or
    # two rows, and the transmitter's 50-m depth is no row
    "depth_step_off_the_quantum": {"depth_step": 3.0, "range_step": 250.0},
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("grid", sorted(HEATMAP_GRIDS))
def test_correlation_heatmap_matches_cell_by_cell_reference(grid, seed, tmp_path):
    # each line is the cell's depth, range and |eta| formatted with repr
    params = HEATMAP_GRIDS[grid]
    path = run_preset(
        ExperimentPreset("correlation_heatmap", params=params, seeds=(seed,), output_dir=str(tmp_path)))
    with open(path, encoding="utf-8", newline="") as fh:
        _, body = fh.read().split("\n", 1)
    header, *lines, end = body.split("\r\n")
    assert header == "depth_m,range_m,eta_abs" and end == ""
    assert lines == [f"{depth!r},{rng!r},{eta!r}" for depth, rng, eta in brute_force_heatmap(params, seed)]
    nans = [k for k, line in enumerate(lines) if line.endswith(",nan")]
    assert len(nans) == (0 if grid in ("tx_off_the_grid", "depth_step_off_the_quantum") else 1)
    if grid == "tx_last_in_its_row":
        assert nans == [3 * 9 - 1]  # the last of the 9 cells of the third (40-m) row
    if grid == "rows_past_a_block":
        assert int(4000.0 / params["range_step"]) + 1 > presets._PROBE_BLOCK


def test_a_heatmap_keeps_the_last_row_and_column_when_the_quotient_rounds_below_an_integer(tmp_path):
    # 70 / 23.333333333333336 is 2.9999999999999996, just below 3
    step = 23.333333333333336
    params = {"water_depth": 70, "depth_step": step, "max_range": 70, "range_step": step}
    _, _, rows = read_csv(run_preset(ExperimentPreset("correlation_heatmap", params=params,
                                                      output_dir=str(tmp_path))))
    grid = ["0.0", "23.333333333", "46.666666667", "70.0"]
    assert [r[:2] for r in rows] == [[depth, rng] for depth in grid for rng in grid]


def test_a_heatmap_that_fails_midway_leaves_no_file(tmp_path, monkeypatch):
    calls = []

    def failing(rows, b, lag):
        calls.append(len(rows))
        if len(calls) > 1:
            raise ValueError("the second depth row fails")
        return correlate(rows, b, lag)

    correlate = presets.normalized_cross_correlations
    monkeypatch.setattr(presets, "normalized_cross_correlations", failing)
    preset = ExperimentPreset("correlation_heatmap", params={"depth_step": 20.0, "range_step": 500.0},
                              output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="second depth row"):
        run_preset(preset)
    assert len(calls) == 2
    assert not list(tmp_path.iterdir())


def test_a_heatmap_range_whose_square_overflows_names_it_and_leaves_no_file(tmp_path):
    preset = ExperimentPreset("correlation_heatmap", params={"depth_step": 80.0, "range_step": 1e299,
                                                             "max_range": 1e300}, output_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"a link length of 1e\+300 m overflows when squared"):
        run_preset(preset)
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_heatmap_of_finite_ranges_whose_lengths_overflow_together_names_the_length(tmp_path):
    # each range is finite, and so is each link length; a row's lengths sum
    # past the largest float, and 1.78e308 m overflows when squared
    preset = ExperimentPreset("correlation_heatmap", params={"depth_step": 80.0, "range_step": 8.9e307,
                                                             "max_range": 1.78e308}, output_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"^generate_taps: a link length of 1\.78e\+308 m overflows when squared$"):
        run_preset(preset)
    assert not list(tmp_path.iterdir())


def test_a_heatmap_draws_each_signature_once(tmp_path, monkeypatch):
    signatures = []

    def counting(seed, signature, tap_count):
        signatures.append(signature)
        return draws(seed, signature, tap_count)

    draws = channel_module._tap_draws
    monkeypatch.setattr(channel_module, "_tap_draws", counting)
    preset = ExperimentPreset("correlation_heatmap", params={"depth_step": 2.0, "range_step": 25.0},
                              output_dir=str(tmp_path))
    run_preset(preset)
    # the reference link's own draw, then each signature of the cells' links once
    cfg = ChannelModelConfig()
    tx = (*REFERENCE_GEOMETRY["i"], 0.0)
    cells = [(round(kd * 2.0, 9), round(kr * 25.0, 9), 0.0) for kd in range(41) for kr in range(161)]
    want = {(*sorted(math.floor(depth / cfg.depth_quantum) for depth in (tx[0], cell[0])),
             math.floor(math.dist(tx, cell) / cfg.range_quantum)) for cell in cells if cell != tx}
    assert sorted(signatures[1:]) == sorted(want)
    assert len(want) < len(cells) - 1


# the grid of the phy_maps benchmark
BENCHMARK_HEATMAP = {"depth_step": 1.0, "range_step": 10.0, "tap_count": 129}


def test_a_heatmap_keeps_the_draws_of_one_depth_cell_at_a_time(tmp_path, monkeypatch):
    refs = []
    most_alive = 0

    def tracked(seed, signature, tap_count):
        nonlocal most_alive
        draw = draws(seed, signature, tap_count)
        refs.append(weakref.ref(draw))
        most_alive = max(most_alive, sum(ref() is not None for ref in refs))
        return draw

    draws = channel_module._tap_draws
    monkeypatch.setattr(channel_module, "_tap_draws", tracked)
    run_preset(ExperimentPreset("correlation_heatmap", params=BENCHMARK_HEATMAP, output_dir=str(tmp_path)))
    # a depth cell's links fall in the 81 range cells of the 4000-m region;
    # one more allows the next cell's first draw before the memo is dropped
    range_cells = int(4000.0 / ChannelModelConfig.range_quantum) + 1
    assert most_alive <= range_cells + 1 < len(refs)


def test_a_heatmap_at_the_benchmark_grid_peaks_below_3_mib(tmp_path):
    preset = ExperimentPreset("correlation_heatmap", params=BENCHMARK_HEATMAP, output_dir=str(tmp_path))
    tracemalloc.start()
    try:
        run_preset(preset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_csv_line_writes_the_bytes_of_csv_writer():
    rows = [
        [4, "trmac", 1, 120, 117, 3, 0.1 + 0.2, 0.025, 1e16],
        [10, "s_csma_ca", 2**63, -7, 0, 0, math.nan, math.inf, -math.inf],
        [-0.0, 1e-7, 5e-324, 1.7976931348623157e308, 0.0, "csma_ca", 0],
        ["depth_m", "range_m", "eta_abs"],
    ]
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    assert "".join(map(_csv_line, rows)).encode() == buffer.getvalue().encode()


@pytest.mark.parametrize("key, value", [
    ("range_step", -10), ("range_step", math.inf), ("range_step", "ten"),
    ("depth_step", 0), ("depth_step", math.nan), ("depth_step", True),
    ("max_range", -1), ("max_range", math.inf), ("water_depth", 0.0),
    ("reference_tx", (math.nan, 0.0)), ("reference_tx", (-1.0, 0.0)), ("reference_tx", (50.0,)),
    ("reference_rx", (70.0, math.inf)), ("reference_rx", 70.0), ("reference_rx", "70"),
    # below the 80-m water, and at the default transmitter
    ("reference_tx", (100.0, 0.0)), ("reference_rx", (80.5, 1000.0)), ("reference_rx", (50, 0)),
])
def test_correlation_heatmap_rejects_a_bad_grid_naming_the_parameter(key, value, tmp_path):
    preset = ExperimentPreset("correlation_heatmap", params={key: value}, output_dir=str(tmp_path))
    with pytest.raises(ValueError, match=f"correlation_heatmap: {key}: expected"):
        run_preset(preset)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("params, key, message", [
    # the default transmitter is 50 m deep
    ({"water_depth": 40.0}, "reference_tx", r"a depth in \[0, water_depth 40\.0\], got \(50\.0, 0\.0\)"),
    ({"reference_tx": [70.0, 1000.0], "reference_rx": [70, 1000.0]}, "reference_rx",
     r"a node apart from reference_tx, got \(70\.0, 1000\.0\)"),
])
def test_correlation_heatmap_checks_the_reference_nodes_against_the_water_and_each_other(params, key, message,
                                                                                        tmp_path):
    preset = ExperimentPreset("correlation_heatmap", params=params, output_dir=str(tmp_path))
    with pytest.raises(ValueError, match=f"^correlation_heatmap: {key}: expected {message}$"):
        run_preset(preset)
    assert not list(tmp_path.iterdir())


def test_correlation_heatmap_accepts_reference_nodes_on_the_bottom_and_at_the_surface(tmp_path):
    preset = ExperimentPreset("correlation_heatmap", output_dir=str(tmp_path), params={
        "depth_step": 20.0, "range_step": 500.0, "reference_tx": [0.0, 0.0], "reference_rx": [80.0, 1000.0]})
    _, _, rows = read_csv(run_preset(preset))
    assert len(rows) == 5 * 9


# small grids of the three PHY presets
PHY_PRESETS = {
    "sinr_vs_snr": {"d_factors": (1, 4), "snr_db_grid": (40.0, 60.0)},
    "sinr_vs_eta": {"d_factors": (1, 4), "eta_grid": (0.0, 0.5)},
    "correlation_heatmap": {"depth_step": 20.0, "range_step": 500.0},
}


@pytest.mark.parametrize("name", PHY_PRESETS)
@pytest.mark.parametrize("taps", [129.9, True, 0])
def test_phy_presets_reject_a_tap_count_that_is_no_positive_integer(name, taps, tmp_path):
    preset = ExperimentPreset(name, params={**PHY_PRESETS[name], "tap_count": taps}, output_dir=str(tmp_path))
    with pytest.raises(ValueError) as err:
        run_preset(preset)
    assert str(err.value) == f"{name}: tap_count: expected positive integer, got {taps!r}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", PHY_PRESETS)
def test_phy_presets_run_a_whole_float_tap_count_as_that_integer(name, tmp_path):
    def data(**taps):
        path = run_preset(ExperimentPreset(name, params={**PHY_PRESETS[name], **taps},
                                           output_dir=str(tmp_path / repr(taps))))
        _, header, rows = read_csv(path)
        return header, rows

    assert data(tap_count=129.0) == data(tap_count=129)
    # the default is ChannelModelConfig's
    assert data() == data(tap_count=ChannelModelConfig().tap_count)


def test_load_sweep_cardinality_and_determinism(tmp_path):
    preset = ExperimentPreset(
        "load_sweep",
        params={"duration": 60.0, "loads": (2, 4), "workers": 1},
        seeds=(1, 2),
        output_dir=str(tmp_path),
    )
    path = run_preset(preset)
    first = open(path, "rb").read()
    _, header, rows = read_csv(path)
    assert len(rows) == 2 * 3 * 2  # loads x protocols x seeds
    assert rows[0][:3] == ["2", "trmac", "1"]
    path = run_preset(preset)
    assert open(path, "rb").read() == first


def test_timeseries_rows(tmp_path):
    preset = ExperimentPreset(
        "timeseries",
        params={"duration": 100.0, "sample_every": 50.0, "links": 3},
        seeds=(4,),
        output_dir=str(tmp_path),
    )
    path = run_preset(preset)
    _, header, rows = read_csv(path)
    assert header == ["protocol", "time_s", "mean_delay_s", "drop_ratio", "throughput_bps"]
    assert len(rows) == 3 * 2
    assert {r[0] for r in rows} == {"trmac", "csma_ca", "s_csma_ca"}


def test_timeseries_scenario_override_reaches_every_protocol(tmp_path, monkeypatch):
    from uwansim import presets

    real_simulator, ran = presets.Simulator, []

    def recording_simulator(scenario, **kwargs):
        ran.append(scenario)
        return real_simulator(scenario, **kwargs)

    monkeypatch.setattr(presets, "Simulator", recording_simulator)
    params = {"duration": 20.0, "sample_every": 10.0, "links": 2, "workers": 1,
              "scenario": {"network": {"node_count": 12}, "mac": {"guard_time_s": 0.5}}}
    before = copy.deepcopy(params)
    run_preset(ExperimentPreset("timeseries", params=params, seeds=(4,), output_dir=str(tmp_path)))
    assert params == before
    assert [s.mac.protocol for s in ran] == ["trmac", "csma_ca", "s_csma_ca"]
    assert all(s.network.node_count == 12 and s.mac.guard_time == 0.5 for s in ran)


def test_network_presets_resolve_each_scenario_once(tmp_path, monkeypatch):
    real_resolved, calls = Scenario.resolved, []

    def counting_resolved(self):
        calls.append(self)
        return real_resolved(self)

    monkeypatch.setattr(Scenario, "resolved", counting_resolved)
    run_preset(ExperimentPreset("timeseries", params={"duration": 20.0, "sample_every": 10.0, "links": 2,
                                                      "workers": 1},
                                output_dir=str(tmp_path)))
    assert len(calls) == 1  # one placement, run under each protocol
    calls.clear()
    run_preset(ExperimentPreset("load_sweep", params={"duration": 20.0, "loads": (1, 2), "workers": 1},
                                seeds=(1, 2), output_dir=str(tmp_path)))
    assert len(calls) == 2  # one placement per seed, run at each load under each protocol
    # run_scenario still resolves, so it still rejects an invalid scenario
    with pytest.raises(ScenarioError, match="duration_s"):
        run_scenario(Scenario(duration=math.nan))


def test_run_preset_dispatch(tmp_path):
    path = run_preset(ExperimentPreset(
        "sinr_vs_eta", params={"d_factors": (2,), "eta_grid": (0.0, 0.5)}, output_dir=str(tmp_path)
    ))
    _, _, rows = read_csv(path)
    assert len(rows) == 2
    with pytest.raises(ValueError, match="eta_grid: expected"):
        run_preset(ExperimentPreset("sinr_vs_eta", params={"eta_grid": (1.5,)}, output_dir=str(tmp_path)))


def _text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_timeseries_in_a_pool_writes_the_serial_text(tmp_path):
    def text(workers):
        params = {"duration": 60.0, "sample_every": 20.0, "links": 3, "workers": workers}
        out = tmp_path / str(workers)
        return _text(run_preset(ExperimentPreset("timeseries", params=params, seeds=(2,), output_dir=str(out))))

    serial, pooled = text(1).split("\n", 1), text(2).split("\n", 1)
    assert pooled[1] == serial[1]
    # the provenance differs only in the hash, which covers the params
    assert re.sub("config=[0-9a-f]+", "", pooled[0]) == re.sub("config=[0-9a-f]+", "", serial[0])


def test_timeseries_runs_in_process_unless_workers_is_given(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("timeseries started a process pool")

    # run_network_jobs imports the pool class where it starts one, so it
    # reads this attribute at call time
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    params = {"duration": 20.0, "sample_every": 10.0, "links": 2}
    _, _, rows = read_csv(run_preset(ExperimentPreset("timeseries", params=params, output_dir=str(tmp_path))))
    assert len(rows) == 6


@pytest.mark.parametrize("name, params, seeds, tables", [
    ("load_sweep", {"duration": 20.0, "loads": (1, 2), "workers": 1}, (1,), 1),
    ("load_sweep", {"duration": 20.0, "loads": (1, 2), "workers": 1}, (1, 2), 2),
    ("timeseries", {"duration": 20.0, "sample_every": 10.0, "links": 2, "workers": 1}, (1,), 1),
])
def test_network_presets_build_one_link_table_per_placement(name, params, seeds, tables, tmp_path, monkeypatch):
    real_init, built = LinkTable.__init__, []

    def counting_init(self, scenario):
        built.append(scenario)
        real_init(self, scenario)

    monkeypatch.setattr(LinkTable, "__init__", counting_init)
    run_preset(ExperimentPreset(name, params=params, seeds=seeds, output_dir=str(tmp_path)))
    assert len(built) == tables


@pytest.mark.parametrize("name, params, seeds, key, value, expected", [
    ("sinr_vs_snr", {}, (1.7,), "seeds", 1.7, "integer in [0, 2**64)"),
    ("load_sweep", {}, (True,), "seeds", True, "integer in [0, 2**64)"),
    ("timeseries", {"links": 2.6}, (1,), "links", 2.6, "positive integer"),
    ("timeseries", {"links": 0}, (1,), "links", 0, "positive integer"),
    ("timeseries", {"workers": 1.5}, (1,), "workers", 1.5, "positive integer or null"),
    ("load_sweep", {"workers": 0}, (1,), "workers", 0, "positive integer or null"),
    ("load_sweep", {"workers": "2"}, (1,), "workers", "2", "positive integer or null"),
    ("timeseries", {"sample_every": 0}, (1,), "sample_every", 0, "positive finite number"),
    ("timeseries", {"sample_every": -5}, (1,), "sample_every", -5, "positive finite number"),
    ("timeseries", {"sample_every": math.nan}, (1,), "sample_every", math.nan, "positive finite number"),
    ("timeseries", {"sample_every": math.inf}, (1,), "sample_every", math.inf, "positive finite number"),
    ("timeseries", {"sample_every": "twenty"}, (1,), "sample_every", "twenty", "positive finite number"),
    ("timeseries", {"duration": "abc"}, (1,), "duration", "abc", "positive finite number"),
    ("timeseries", {"duration": 0}, (1,), "duration", 0, "positive finite number"),
    ("load_sweep", {"duration": "abc"}, (1,), "duration", "abc", "positive finite number"),
    ("load_sweep", {"duration": math.inf}, (1,), "duration", math.inf, "positive finite number"),
    ("sinr_vs_eta", {"snr_db": "abc"}, (1,), "snr_db", "abc", "finite number"),
    ("sinr_vs_eta", {"snr_db": math.nan}, (1,), "snr_db", math.nan, "finite number"),
])
def test_preset_integers_are_parsed_by_their_rule(name, params, seeds, key, value, expected, tmp_path):
    # a short duration where the preset reads one, so that a run not refused stays short
    short = {"duration": 20.0} if "duration" in PRESETS[name].params else {}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params={**short, **params}, seeds=seeds,
                                    output_dir=str(tmp_path)))
    assert str(err.value) == f"{name}: {key}: expected {expected}, got {value!r}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, params, message", [
    ("load_sweep", {"load": [2]},
     "load_sweep: load: unknown parameter; expected one of loads, protocols, duration, workers, scenario"),
    ("correlation_heatmap", {"tap_cout": 65},
     "correlation_heatmap: tap_cout: unknown parameter; expected one of depth_step, range_step, "
     "water_depth, max_range, tap_count, reference_tx, reference_rx"),
])
def test_presets_refuse_a_param_they_do_not_read(name, params, message, tmp_path):
    with pytest.raises(ValueError) as err:
        ExperimentPreset(name, params=params, output_dir=str(tmp_path))
    assert str(err.value) == message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, key, value, expected", [
    ("load_sweep", "protocols", [], "string in {trmac, csma_ca, s_csma_ca}"),
    ("timeseries", "protocols", ["trmac", "tdma"], "string in {trmac, csma_ca, s_csma_ca}"),
    ("timeseries", "protocols", "trmac", "string in {trmac, csma_ca, s_csma_ca}"),
    ("load_sweep", "loads", [], "positive integer"),
    ("load_sweep", "loads", [2, 2.5], "positive integer"),
    ("sinr_vs_snr", "snr_db_grid", ["x"], "finite number"),
    ("sinr_vs_snr", "snr_db_grid", [40.0, math.nan], "finite number"),
    ("sinr_vs_snr", "d_factors", [0], "positive integer"),
    ("sinr_vs_eta", "eta_grid", ["0.5"], "finite number in [0, 1)"),
    ("sinr_vs_eta", "eta_grid", 0.5, "finite number in [0, 1)"),
])
def test_preset_lists_are_checked_item_by_item_before_any_run(name, key, value, expected, tmp_path, monkeypatch):
    from uwansim import presets

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(presets, "run_network_jobs", no_run)
    monkeypatch.setattr(presets, "generate_cir", no_run)
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params={key: value}, output_dir=str(tmp_path)))
    assert str(err.value) == f"{name}: {key}: expected a nonempty list, each item a {expected}, got {value!r}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, params, whole, exact", [
    ("sinr_vs_snr", PHY_PRESETS["sinr_vs_snr"], {"tap_count": 129.0}, {"tap_count": 129}),
    ("correlation_heatmap", PHY_PRESETS["correlation_heatmap"],
     {"depth_step": 20, "max_range": 2000}, {"depth_step": 20.0, "max_range": 2000.0}),
    ("timeseries", {"duration": 20.0, "sample_every": 10.0},
     {"links": 2.0, "workers": 1.0}, {"links": 2, "workers": 1}),
    ("load_sweep", {"duration": 20.0, "loads": (1,)}, {"workers": 1.0}, {"workers": 1}),
    ("timeseries", {"duration": 20.0, "links": 2}, {"sample_every": 10}, {"sample_every": 10.0}),
    ("timeseries", {"links": 2, "sample_every": 10.0}, {"duration": 20}, {"duration": 20.0}),
    ("sinr_vs_eta", PHY_PRESETS["sinr_vs_eta"], {"snr_db": 65}, {"snr_db": 65.0}),
    # list, mapping and pair params are hashed as read too
    ("sinr_vs_snr", PHY_PRESETS["sinr_vs_snr"], {"snr_db_grid": [40, 50]}, {"snr_db_grid": [40.0, 50.0]}),
    ("load_sweep", {"duration": 20.0, "workers": 1}, {"loads": [1, 2.0]}, {"loads": [1, 2]}),
    ("timeseries", {"duration": 20.0, "sample_every": 10.0, "links": 2}, {"scenario": None}, {"scenario": {}}),
    ("correlation_heatmap", PHY_PRESETS["correlation_heatmap"],
     {"reference_tx": [50, 0]}, {"reference_tx": (50.0, 0.0)}),
])
def test_provenance_hashes_the_parsed_params(name, params, whole, exact, tmp_path):
    def text(extra, seeds):
        out = tmp_path / repr((extra, seeds))
        return _text(run_preset(ExperimentPreset(name, params={**params, **extra}, seeds=seeds,
                                                 output_dir=str(out))))

    assert text(whole, (1.0,)) == text(exact, (1,))


# short runs of the two network presets
NETWORK_PRESETS = {
    "load_sweep": {"duration": 20.0, "loads": (1, 2), "workers": 1},
    "timeseries": {"duration": 20.0, "sample_every": 10.0, "links": 2, "workers": 1},
}


@pytest.mark.parametrize("name, params, key", [
    ("load_sweep", NETWORK_PRESETS["load_sweep"], "loads"),
    ("sinr_vs_snr", PHY_PRESETS["sinr_vs_snr"], "d_factors"),
])
def test_integer_lists_run_a_whole_float_item_as_that_integer(name, params, key, tmp_path):
    def data(items):
        path = run_preset(ExperimentPreset(name, params={**params, key: items},
                                           output_dir=str(tmp_path / repr(items))))
        _, header, rows = read_csv(path)
        return header, rows

    assert data([1, 2.0]) == data([1, 2])


@pytest.mark.parametrize("name", NETWORK_PRESETS)
@pytest.mark.parametrize("scenario", [None, {"network": None}, {"mac": None, "network": {}}])
def test_network_presets_read_a_null_scenario_or_section_as_empty(name, scenario, tmp_path):
    def data(**given):
        path = run_preset(ExperimentPreset(name, params={**NETWORK_PRESETS[name], **given},
                                           output_dir=str(tmp_path / repr(given))))
        _, header, rows = read_csv(path)
        return header, rows

    assert data(scenario=scenario) == data()


@pytest.mark.parametrize("name", NETWORK_PRESETS)
@pytest.mark.parametrize("scenario, message", [
    ([1], "{name}: scenario: expected a scenario mapping, its network section a mapping, got [1]"),
    ("network", "{name}: scenario: expected a scenario mapping, its network section a mapping, got 'network'"),
    ({"network": [5]}, "{name}: scenario: expected a scenario mapping, its network section a mapping, "
                       "got {{'network': [5]}}"),
    ({"mac": 5}, "mac: expected a mapping, got int"),
])
def test_network_presets_refuse_a_scenario_that_is_no_mapping_before_any_run(name, scenario, message,
                                                                            tmp_path, monkeypatch):
    from uwansim import presets

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(presets, "Simulator", no_run)
    params = {**NETWORK_PRESETS[name], "scenario": scenario}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params=params, seeds=(1,), output_dir=str(tmp_path)))
    assert str(err.value) == message.format(name=name)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", NETWORK_PRESETS)
def test_network_presets_refuse_a_warmup_past_their_duration_naming_both(name, tmp_path, monkeypatch):
    # the preset's duration param sets the scenario's duration_s, so the
    # error names that param, and nothing is placed or tabled before it
    def no_table(*args, **kwargs):
        raise AssertionError("a scenario was placed or a table built")

    monkeypatch.setattr(presets, "scenario_from_dict", no_table)
    monkeypatch.setattr(presets, "LinkTable", no_table)
    params = {"duration": 20.0, "scenario": {"warmup_s": 45}}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params=params, output_dir=str(tmp_path)))
    assert type(err.value) is ValueError
    assert str(err.value) == f"{name}: scenario: warmup_s 45.0 exceeds duration 20.0"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", NETWORK_PRESETS)
def test_network_presets_name_themselves_for_a_warmup_that_is_no_number(name, tmp_path):
    params = {**NETWORK_PRESETS[name], "scenario": {"warmup_s": "abc"}}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params=params, output_dir=str(tmp_path)))
    assert type(err.value) is ValueError
    assert str(err.value) == f"{name}: scenario: warmup_s: expected non-negative finite number, got 'abc'"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", NETWORK_PRESETS)
@pytest.mark.parametrize("scenario, key, value, setter", [
    ({"seed": 2}, "seed", 2, "seeds"),
    ({"duration_s": 20}, "duration_s", 20, "duration"),
    ({"mac": {"protocol": "trmac"}}, "mac.protocol", "trmac", "protocols"),
    ({"network": {"link_count": 2}}, "network.link_count", 2, None),  # links or loads
])
def test_network_presets_refuse_a_scenario_key_they_set(name, scenario, key, value, setter, tmp_path, monkeypatch):
    # the preset would overwrite the key without a word: a scenario duration_s
    # of 20 s would run the preset's 2000 s
    def no_table(*args, **kwargs):
        raise AssertionError("a scenario was placed or a table built")

    monkeypatch.setattr(presets, "scenario_from_dict", no_table)
    monkeypatch.setattr(presets, "LinkTable", no_table)
    setter = setter or {"load_sweep": "loads", "timeseries": "links"}[name]
    params = {**NETWORK_PRESETS[name], "scenario": scenario}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params=params, output_dir=str(tmp_path)))
    assert str(err.value) == (f"{name}: scenario: {key}: expected no value, as the preset sets it "
                              f"from {setter}, got {value!r}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, key, value", [
    ("load_sweep", "loads", [2, 2]),
    ("load_sweep", "loads", [2, 4, 2.0]),  # 2 and 2.0 are one load
    ("load_sweep", "protocols", ["trmac", "csma_ca", "trmac"]),
    ("timeseries", "protocols", ["s_csma_ca", "s_csma_ca"]),
    ("sinr_vs_snr", "snr_db_grid", [40, 40.0]),
    ("sinr_vs_snr", "d_factors", [1, 2, 1]),
    ("sinr_vs_eta", "eta_grid", [0.5, 0.5]),
])
def test_preset_lists_refuse_a_repeated_item_before_any_run(name, key, value, tmp_path, monkeypatch):
    # a repeated grid point would write its rows twice
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(presets, "run_network_jobs", no_run)
    monkeypatch.setattr(presets, "generate_cir", no_run)
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params={key: value}, output_dir=str(tmp_path)))
    assert str(err.value) == f"{name}: {key}: expected distinct items, got {value!r}"
    assert not list(tmp_path.iterdir())


# six nodes within one hop of their partners, and three given routes
SIX_NODES = [[20, 0, 0], [20, 600, 0], [30, 0, 700], [40, 600, 700], [25, 300, 1400], [25, 900, 1400]]
THREE_ROUTES = [[0, 1], [2, 3], [4, 5]]


@pytest.mark.parametrize("name, params, message", [
    ("load_sweep", {"loads": [1, 4]}, "load_sweep: loads: 4 links need 4 routes, but the scenario places 3"),
    ("timeseries", {"links": 4}, "timeseries: links: 4 links need 4 routes, but the scenario places 3"),
])
def test_network_presets_refuse_a_placement_with_fewer_routes_than_links(name, params, message,
                                                                         tmp_path, monkeypatch):
    # given routes win over the link count, so a load of 4 would run 3 routes
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(presets, "run_network_jobs", no_run)
    scenario = {"network": {"nodes": SIX_NODES, "routes": THREE_ROUTES}}
    with pytest.raises(ValueError) as err:
        run_preset(ExperimentPreset(name, params={**NETWORK_PRESETS[name], **params, "scenario": scenario},
                                    output_dir=str(tmp_path)))
    assert str(err.value) == message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, params", [
    ("load_sweep", {"loads": [1]}),
    ("timeseries", {"links": 1, "duration": 200.0, "sample_every": 100.0}),
])
def test_network_presets_run_the_first_routes_of_a_placement_with_more(name, params, tmp_path):
    def data(routes):
        scenario = {"network": {"nodes": SIX_NODES, "routes": routes}}
        path = run_preset(ExperimentPreset(name, params={**NETWORK_PRESETS[name], **params, "scenario": scenario},
                                           output_dir=str(tmp_path / repr(routes))))
        _, header, rows = read_csv(path)
        return header, rows

    assert data(THREE_ROUTES) == data(THREE_ROUTES[:1])
