import json
import os

import pytest

from uwansim.cli import main
from uwansim.scenario import emit_scenario, scenario_from_dict


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


def test_run_seed_override_changes_output(tmp_path):
    scenario = write_scenario(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", scenario, "--out", str(out_a)]) == 0
    assert main(["run", scenario, "--seed", "99", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_run_trace_and_series(tmp_path):
    scenario = write_scenario(tmp_path, duration_s=40.0)
    trace = tmp_path / "trace.ndjson"
    assert main(["run", scenario, "--out", str(tmp_path), "--trace", str(trace),
                 "--sample-every", "20"]) == 0
    lines = trace.read_text().strip().splitlines()
    record = json.loads(lines[0])
    assert {"time", "node", "event", "frame", "outcome"} <= set(record)
    series = (tmp_path / "metrics_series.csv").read_text().splitlines()
    assert series[1] == "time_s,mean_delay_s,drop_ratio,throughput_bps"
    assert len(series) == 4  # provenance + header + 2 samples


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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("arrivals, message", [
    (None, "cannot open: "),
    ("ARRIVALS v1\n0 1 0.4 1e200 0.0\n", "pair 0->1: tap energy squared not finite"),
    ("ARRIVALS v1\n0 1 0.4 1e80 0.0\n", "pair 0->1: tap energy squared not finite"),
    # refused before 4e9 taps are allocated
    ("ARRIVALS v1\n0 1 0.0 5e-3 0.0\n0 1 1e6 5e-3 0.0\n",
     "pair 0->1: its arrivals span 4000000001 taps, more than channel.tap_count 129"),
], ids=["missing", "overflowing", "overflowing-square", "too-long"])
def test_an_unusable_arrival_file_is_an_error_naming_it(command, arrivals, message, tmp_path, capsys):
    arrival_file = tmp_path / "arrivals.txt"
    if arrivals is not None:
        arrival_file.write_text(arrivals)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(f"channel: {{model: arrival_file, arrival_file: {arrival_file}}}\n"
                        "network: {nodes: [[20, 0, 0], [20, 600, 0]], routes: [[0, 1]], link_count: 1}\n")
    extra = ["--duration", "60", "--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(scenario), *extra]) == 2
    out, err = capsys.readouterr()
    assert "OK" not in out
    assert err.startswith(f"error: {arrival_file}: {message}")


def test_a_link_length_whose_square_overflows_is_an_error(tmp_path, capsys):
    # every node lies inside the huge region, so the scenario itself is valid
    scenario = tmp_path / "far.yaml"
    scenario.write_text("network: {region_size_m: 1.0e+201, nodes: [[20, 0, 0], [20, 600, 0], [20, 1.0e+200, 0]],"
                        " routes: [[0, 1]], link_count: 1}\n")
    assert main(["run", str(scenario), "--duration", "60", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: generate_taps: a link length of 1e+200 m overflows when squared\n"
    assert not (tmp_path / "out").exists()


def test_validate_refuses_a_link_length_that_run_refuses(tmp_path, capsys):
    # validate builds the link table as run does, whatever the channel model
    scenario = tmp_path / "far.yaml"
    scenario.write_text("network: {region_size_m: 1.0e+201, nodes: [[20, 0, 0], [20, 600, 0], [20, 1.0e+200, 0]],"
                        " routes: [[0, 1]]}\n")
    assert main(["validate", str(scenario)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: generate_taps: a link length of 1e+200 m overflows when squared\n"


def near_scenario(path, length):
    """A three-node scenario whose two routes both end at node 1, ``length`` m from node 0."""
    path.write_text(f"network: {{nodes: [[20, 0, 0], [20, {length!r}, 0], [20, 600, 0]], routes: [[0, 1], [2, 1]]}}\n")
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
