import json
import os

import pytest

from uwansim.cli import main
from uwansim.presets import ExperimentPreset, run_preset
from uwansim.scenario import config_hash, emit_scenario, load_scenario, scenario_from_dict
from uwansim.sim import run_scenario


def write_scenario(tmp_path, **cfg):
    base = {"seed": 3, "duration_s": 60.0}
    base.update(cfg)
    sc = scenario_from_dict(base)
    path = tmp_path / "scenario.yaml"
    emit_scenario(sc, str(path))
    return str(path)


def test_run_writes_metrics_and_is_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", scenario, "--out", str(out_a)]) == 0
    assert main(["run", scenario, "--out", str(out_b)]) == 0
    a = (out_a / "metrics.csv").read_bytes()
    b = (out_b / "metrics.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("# config=")
    assert "generated,delivered,dropped" in text


def test_an_edited_seed_equals_the_seed_override(tmp_path):
    # the channel follows the scenario's one seed, so editing it in a file
    # and overriding it with --seed are the same run
    original = tmp_path / "s1.yaml"
    emit_scenario(scenario_from_dict({}), str(original))
    text = original.read_text()
    assert text.count("\nseed: 1\n") == 1
    edited = tmp_path / "s2.yaml"
    edited.write_text(text.replace("\nseed: 1\n", "\nseed: 2\n"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(edited), "--duration", "300", "--out", str(out_a)]) == 0
    assert main(["run", str(original), "--seed", "2", "--duration", "300", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_an_edited_seed_equals_the_seed_override_in_a_file_with_no_placement(tmp_path):
    # the override edits the file's mapping, so the placement the file does
    # not give is generated for seed 2 in both runs
    original, edited = tmp_path / "s1.yaml", tmp_path / "s2.yaml"
    original.write_text("seed: 1\nduration_s: 100\n")
    edited.write_text("seed: 2\nduration_s: 100\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(edited), "--out", str(out_a)]) == 0
    assert main(["run", str(original), "--seed", "2", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


@pytest.mark.parametrize("text, flags, message", [
    ("- 1\n", ["--seed", "2"], "config: expected a mapping, got list"),
    ("network: [1]\n", ["--seed", "2", "--reseed-topology"], "network: expected a mapping, got list"),
    ("mac: 5\n", ["--protocol", "csma_ca"], "mac: expected a mapping, got int"),
], ids=["config", "network", "mac"])
def test_run_overrides_on_a_file_or_section_that_is_no_mapping_are_an_error(text, flags, message,
                                                                             tmp_path, capsys):
    scenario, out = tmp_path / "scenario.yaml", tmp_path / "out"
    scenario.write_text(text)
    assert main(["run", str(scenario), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, flags, message", [
    (None, ["--seed", "18446744073709551617"], "seed: expected integer in [0, 2**64), got 18446744073709551617"),
    ("duration_s: 100\nwarmup_s: 500\n", [], "warmup_s: 500.0 exceeds duration_s 100.0"),
], ids=["seed", "warmup"])
def test_run_refuses_a_seed_past_64_bits_and_a_warmup_past_the_duration(text, flags, message, tmp_path, capsys):
    scenario, out = tmp_path / "scenario.yaml", tmp_path / "out"
    if text is not None:
        scenario.write_text(text)
    assert main(["run", *([str(scenario)] if text is not None else []), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_seed_override_changes_output(tmp_path):
    scenario = write_scenario(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", scenario, "--out", str(out_a)]) == 0
    assert main(["run", scenario, "--seed", "99", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_run_trace_and_series(tmp_path):
    scenario = write_scenario(tmp_path, duration_s=40.0)
    # the trace may go into the --out directory the run makes
    out = tmp_path / "out"
    trace = out / "trace.ndjson"
    assert main(["run", scenario, "--out", str(out), "--trace", str(trace), "--sample-every", "20"]) == 0
    lines = trace.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert {"time", "node", "event", "frame", "outcome"} <= set(records[0])
    assert {"tx_start", "rx_end"} <= {record["event"] for record in records}
    series = (out / "metrics_series.csv").read_text().splitlines()
    assert series[1] == "time_s,mean_delay_s,drop_ratio,throughput_bps"
    assert len(series) == 4  # provenance + header + 2 samples


@pytest.mark.parametrize("flags, message", [
    (["--trace", "{tmp}/nodir/x.ndjson", "--out", "{tmp}/out"], "--trace: {tmp}/nodir is not a directory"),
    (["--out", "{tmp}/file"], "--out: {tmp}/file is not a directory"),
], ids=["trace-in-a-missing-directory", "out-is-a-file"])
def test_run_refuses_an_output_path_it_cannot_write_before_it_runs(flags, message, tmp_path, monkeypatch, capsys):
    from uwansim import cli

    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("the run started"))
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--duration", "30", *(flag.format(tmp=tmp_path) for flag in flags)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_run_csvs_hold_each_field_as_str_writes_it(tmp_path):
    scenario = write_scenario(tmp_path, duration_s=40.0)
    assert main(["run", scenario, "--out", str(tmp_path), "--sample-every", "15"]) == 0
    m = run_scenario(load_scenario(scenario), sample_every=15.0).metrics
    provenance = f"# config={config_hash(load_scenario(scenario))} seed=3\n"
    assert (tmp_path / "metrics.csv").read_bytes().decode() == provenance + (
        "generated,delivered,dropped,in_flight,mean_delay_s,drop_ratio,throughput_bps,busy_time_s,"
        f"data_frames_transmitted\n{m.generated},{m.delivered},{m.dropped},{m.in_flight},{m.mean_delay},"
        f"{m.drop_ratio},{m.throughput},{m.busy_time},{m.data_frames_transmitted}\n")
    assert (tmp_path / "metrics_series.csv").read_bytes().decode() == provenance + (
        "time_s,mean_delay_s,drop_ratio,throughput_bps\n") + "".join(
        f"{r['time']},{r['mean_delay']},{r['drop_ratio']},{r['throughput']}\n" for r in m.series)
    assert len(m.series) == 2


def test_run_writes_the_series_header_when_no_sample_falls_in_the_run(tmp_path):
    scenario = write_scenario(tmp_path, duration_s=50.0)
    assert main(["run", scenario, "--out", str(tmp_path), "--sample-every", "100"]) == 0
    series = (tmp_path / "metrics_series.csv").read_text().splitlines()
    assert series[0].startswith("# config=")
    assert series[1:] == ["time_s,mean_delay_s,drop_ratio,throughput_bps"]


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_run_rejects_a_sample_period_that_is_no_positive_finite_number(value, tmp_path, capsys):
    scenario = write_scenario(tmp_path, duration_s=20.0)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out), "--sample-every", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample_every: expected a positive finite number")
    assert not out.exists()


def test_preset_refuses_seed_and_seeds_together(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "sinr_vs_eta", "--seed", "3", "--seeds", "1", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_preset_refuses_seeds_it_does_not_read(tmp_path, capsys):
    assert main(["preset", "sinr_vs_eta", "--seeds", "1", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: sinr_vs_eta: seeds: expected one seed, got (1, 2)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    # a seed given twice would count twice in an interval over seeds
    (["--seeds", "1", "1", "--loads", "1"], "seeds: expected distinct seeds, got (1, 1)"),
    # a load given twice would write its rows twice
    (["--loads", "2", "2", "--jobs", "1"], "loads: expected distinct items, got (2, 2)"),
], ids=["seeds", "loads"])
def test_preset_refuses_a_repeated_seed_or_load(flags, message, tmp_path, capsys):
    assert main(["preset", "load_sweep", *flags, "--duration", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: load_sweep: {message}\n"
    assert not list(tmp_path.iterdir())


def test_validate_exit_codes(tmp_path):
    scenario = write_scenario(tmp_path)
    assert main(["validate", scenario]) == 0
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("phy:\n  updown_factor: 7\n")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_yaml_is_a_scenario_error_naming_the_file(command, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [1\n")
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "run" else []
    assert main([command, str(bad), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid YAML")
    assert not out.exists()


def test_validate_names_a_nan_field(tmp_path, capsys):
    bad = tmp_path / "nan.yaml"
    bad.write_text("network: {region_size_m: .nan}\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: network.region_size_m")


@pytest.mark.parametrize("value", ["[1, 2]", "5"])
def test_an_arrival_file_that_is_no_string_is_refused_naming_the_key(value, tmp_path, capsys):
    # str() would have named the file "[1, 2]" and failed to open it
    bad = tmp_path / "scenario.yaml"
    bad.write_text(f"channel: {{arrival_file: {value}}}\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: channel.arrival_file: expected non-empty string or null, got {value}\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("arrivals, node_count, message", [
    (None, 2, ": cannot open: "),
    ("ARRIVALS v1\n0 1 0.4 1e200 0.0\n", 2, ": pair 0->1: tap energy squared not finite"),
    ("ARRIVALS v1\n0 1 0.4 1e80 0.0\n", 2, ": pair 0->1: tap energy squared not finite"),
    # refused before 4e9 taps are allocated
    ("ARRIVALS v1\n0 1 0.0 5e-3 0.0\n0 1 1e6 5e-3 0.0\n", 2,
     ": pair 0->1: its arrivals span 4000000001 taps, more than channel.tap_count 129"),
    ("ARRIVALS v1\n", 2, ": no arrivals for pair 0->1"),
    # a message ending in a newline is the whole first line of stderr; a
    # three-node placement whose file gives only pair 0->1
    ("ARRIVALS v1\n0 1 0.4 5e-3 0.0\n", 3, ": no arrivals for pair 0->2\n"),
    ("ARRIVALS v1\n0 1 0.4 5e-3 0.0\n0 0 0.1 5e-3 0.0\n", 2, ":3: pair 0->0 links a node to itself\n"),
], ids=["missing", "overflowing", "overflowing-square", "too-long", "missing-pair", "missing-third-pair",
        "self-pair"])
def test_an_unusable_arrival_file_is_an_error_naming_it(command, arrivals, node_count, message, tmp_path, capsys):
    arrival_file = tmp_path / "arrivals.txt"
    if arrivals is not None:
        arrival_file.write_text(arrivals)
    scenario = tmp_path / "scenario.yaml"
    nodes = [[20, 0, 0], [20, 600, 0], [25, 300, 500]][:node_count]
    scenario.write_text(f"channel: {{arrival_file: {arrival_file}}}\n"
                        f"network: {{nodes: {nodes}, routes: [[0, 1]], link_count: 1}}\n")
    extra = ["--duration", "60", "--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(scenario), *extra]) == 2
    out, err = capsys.readouterr()
    assert "OK" not in out
    assert err.startswith(f"error: {arrival_file}{message}")


def test_a_relative_arrival_file_is_opened_from_the_working_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "two.yaml").write_text(
        "channel: {arrival_file: arrivals.txt}\n"
        "network: {nodes: [[20, 0, 0], [20, 600, 0]], routes: [[0, 1]], link_count: 1}\n")
    (tmp_path / "scenarios" / "arrivals.txt").write_text("ARRIVALS v1\n0 1 0.9 5e-3 0.0\n")
    monkeypatch.chdir(tmp_path)
    # the file beside the scenario is not the one it names
    assert main(["validate", "scenarios/two.yaml"]) == 2
    assert capsys.readouterr().err.startswith("error: arrivals.txt: cannot open: ")
    (tmp_path / "arrivals.txt").write_text("ARRIVALS v1\n0 1 0.9 5e-3 0.0\n")
    assert main(["validate", "scenarios/two.yaml"]) == 0
    assert capsys.readouterr().out.startswith("OK: scenarios/two.yaml ")


def test_a_link_length_whose_square_overflows_is_an_error(tmp_path, capsys):
    # every node lies inside the huge region, so the scenario itself is valid
    scenario = tmp_path / "far.yaml"
    scenario.write_text("network: {region_size_m: 1.0e+201, nodes: [[20, 0, 0], [20, 600, 0], [20, 1.0e+200, 0]],"
                        " routes: [[0, 1]], link_count: 1}\n")
    assert main(["run", str(scenario), "--duration", "60", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: generate_taps: a link length of 1e+200 m overflows when squared\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("network: {region_size_m: 1.0e+201, nodes: [[20, 0, 0], [20, 600, 0], [20, 1.0e+200, 0]], routes: [[0, 1]]}\n",
     "generate_taps: a link length of 1e+200 m overflows when squared"),
    # two nodes at one position have no channel between them
    ("duration_s: 100\nnetwork: {nodes: [[20, 0, 0], [20, 600, 0], [20, 600, 0], [30, 0, 700]],"
     " routes: [[0, 1], [3, 0]]}\n",
     "network.nodes[2]: same position as network.nodes[1]"),
], ids=["overflowing", "coincident"])
def test_validate_refuses_a_link_length_that_run_refuses(text, message, tmp_path, capsys):
    # validate builds the link table as run does, whatever the channel model
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text)
    assert main(["validate", str(scenario)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def near_scenario(path, length):
    """A three-node scenario whose two routes both end at node 1, ``length`` m from node 0."""
    path.write_text(f"network: {{nodes: [[20, 0, 0], [20, {length!r}, 0], [20, 600, 0]], routes: [[0, 1], [2, 1]]}}\n")
    return str(path)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_link_too_short_for_finite_taps_is_an_error_naming_the_pair(command, tmp_path, capsys):
    # from 1e-154 m to 1e-77 m the taps' energy is finite, but its square,
    # which TRMAC's correlations reach, is not
    extra = ["--duration", "60", "--protocol", "trmac", "--out", str(tmp_path / "out")] if command == "run" else []
    for length in (1e-200, 1e-150, 1e-80, 1e-77):
        scenario = near_scenario(tmp_path / "near.yaml", length)
        assert main([command, scenario, *extra]) == 2
        out, err = capsys.readouterr()
        assert "OK" not in out
        assert err == f"error: pair 0->1: a link length of {length!r} m is too short for a finite tap energy squared\n"


def test_the_shortest_link_with_a_finite_tap_energy_squared_runs_trmac(tmp_path, capsys):
    scenario = near_scenario(tmp_path / "near.yaml", 1e-75)
    assert main(["validate", scenario]) == 0
    assert main(["run", scenario, "--duration", "100", "--protocol", "trmac", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_preset_subcommand(tmp_path):
    assert main(["preset", "sinr_vs_eta", "--out", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "sinr_vs_eta.csv")


def test_run_protocol_override(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["run", scenario, "--protocol", "s_csma_ca", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s_csma_ca:")


def test_run_seed_without_scenario_file_regenerates_placement(tmp_path, monkeypatch):
    from uwansim import cli
    from uwansim.sim import run_scenario

    ran = []

    def recording_run(scenario, **kwargs):
        ran.append(scenario)
        return run_scenario(scenario, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    assert main(["run", "--seed", "5", "--duration", "1", "--out", str(tmp_path)]) == 0
    assert main(["run", "--duration", "1", "--out", str(tmp_path)]) == 0
    seeded, default = ran
    assert seeded.seed == 5
    assert seeded.network.nodes == scenario_from_dict({"seed": 5}).network.nodes
    assert seeded.network.routes == scenario_from_dict({"seed": 5}).network.routes
    assert default.network.nodes == scenario_from_dict({}).network.nodes
    assert seeded.network.nodes != default.network.nodes


def test_run_reseed_topology_places_the_seeds_network_instead_of_the_files(tmp_path, monkeypatch):
    from uwansim import cli
    from uwansim.scenario import load_scenario
    from uwansim.sim import run_scenario

    ran = []

    def recording_run(scenario, **kwargs):
        ran.append(scenario)
        return run_scenario(scenario, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    scenario = write_scenario(tmp_path)  # placed by seed 3
    assert main(["run", scenario, "--seed", "5", "--reseed-topology", "--duration", "1",
                 "--out", str(tmp_path)]) == 0
    assert main(["run", scenario, "--seed", "5", "--duration", "1", "--out", str(tmp_path)]) == 0
    reseeded, kept = ran
    assert reseeded.seed == kept.seed == 5
    assert reseeded.network.nodes == scenario_from_dict({"seed": 5}).network.nodes
    assert reseeded.network.routes == scenario_from_dict({"seed": 5}).network.routes
    placed = load_scenario(scenario).network
    assert (kept.network.nodes, kept.network.routes) == (placed.nodes, placed.routes)
    assert reseeded.network.nodes != kept.network.nodes


def test_run_refuses_reseed_topology_without_seed(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", scenario, "--reseed-topology", "--out", str(out)])
    assert exc.value.code == 2
    assert "--reseed-topology: needs --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["load_sweep", "timeseries"])
def test_preset_refuses_a_warmup_past_its_duration(name, tmp_path, monkeypatch, capsys):
    # no flag sets the base scenario, so this one sets its warmup_s
    from uwansim import cli

    monkeypatch.setattr(cli, "run_preset", lambda preset: run_preset(
        ExperimentPreset(preset.name, {**preset.params, "scenario": {"warmup_s": 45.0}}, output_dir=preset.output_dir)))
    assert main(["preset", name, "--duration", "20", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {name}: scenario: warmup_s 45.0 exceeds duration 20.0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, flag", [
    ("sinr_vs_snr", ["--duration", "5"]), ("sinr_vs_eta", ["--jobs", "2"]),
    ("correlation_heatmap", ["--loads", "3"]), ("timeseries", ["--loads", "3"]),
])
def test_preset_refuses_a_flag_it_does_not_read(name, flag, tmp_path, capsys):
    assert main(["preset", name, *flag, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: preset {name} does not read {flag[0]}\n"
    assert not list(tmp_path.iterdir())


def test_preset_passes_the_flags_it_reads(tmp_path, monkeypatch):
    from uwansim import cli

    given = []
    monkeypatch.setattr(cli, "run_preset", lambda preset: given.append(preset.params) or "x.csv")
    assert main(["preset", "load_sweep", "--duration", "5", "--loads", "2", "3", "--jobs", "1",
                 "--out", str(tmp_path)]) == 0
    assert main(["preset", "timeseries", "--duration", "5", "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert given == [{"duration": 5.0, "workers": 1, "loads": (2, 3)}, {"duration": 5.0, "workers": 1}]


def test_run_prints_in_flight_next_to_the_drop_ratio(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    metrics = dict(zip(header.split(","), row.split(",")))
    assert 2 * int(metrics["in_flight"]) <= int(metrics["generated"])
    assert f" in_flight={metrics['in_flight']} drop_ratio=" in out
    assert err == ""


@pytest.mark.parametrize("protocol, warning", [
    # CSMA/CA saturates here: most packets wait in queues and are never sent
    ("csma_ca", "warning: 852 of 1602 generated packets are still in flight at the end: the network "
                "is saturated, and drop_ratio counts only the data frames that were transmitted\n"),
    ("trmac", ""),
])
def test_run_warns_when_most_generated_packets_are_still_in_flight(protocol, warning, tmp_path, capsys):
    scenario = tmp_path / "hundred.yaml"
    scenario.write_text("seed: 2\nnetwork: {node_count: 100, link_count: 30}\n")
    assert main(["run", str(scenario), "--protocol", protocol, "--duration", "400",
                 "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == warning
    if warning:
        assert " in_flight=852 " in out
