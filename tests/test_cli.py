"""CLI tests: exit codes, validation, byte-identical reruns and output
schemas, driven through ``main()`` in-process."""
import contextlib
import functools
import io
import json
import math
import operator
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlink import (channel, cli, dynamics, formation, linkbudget,
                       swarm_opt)
from swarmlink.cli import (EXIT_ERROR, EXIT_INVALID, EXIT_OK, derive_seed,
                           main, parse_config, validate_config)

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


@pytest.fixture()
def config_dict():
    return json.loads(REPO_CONFIG.read_text())


def _write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "wind") == derive_seed(1, "wind")
    assert derive_seed(1, "wind") != derive_seed(2, "wind")
    assert derive_seed(1, "wind") != derive_seed(1, "channel")
    assert 0 <= derive_seed(0, "x") < 2 ** 64


def test_validate_ok(config_dict):
    assert validate_config(config_dict) == []


def test_validate_reports_violations(config_dict):
    config_dict["wind"]["n_samples"] = 1000
    config_dict["dt"] = -1.0
    config_dict["optimize"]["algorithm"] = "annealing"
    violations = validate_config(config_dict)
    assert len(violations) == 3
    assert any("n_samples" in v for v in violations)
    assert any(v.startswith("dt") for v in violations)


def test_validate_subcommand_exit_codes(tmp_path, config_dict, capsys):
    path = _write(tmp_path, config_dict)
    assert main(["validate", "--config", path]) == EXIT_OK
    assert "valid" in capsys.readouterr().out
    config_dict["wind"]["n_samples"] = 1000
    bad = _write(tmp_path, config_dict)
    assert main(["validate", "--config", bad]) == EXIT_INVALID


def test_validate_writes_no_files(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == EXIT_OK
    assert not out.exists()


def test_missing_config_is_invalid(tmp_path):
    assert main(["budget", "--config",
                 str(tmp_path / "nope.json")]) == EXIT_INVALID


def test_malformed_json_is_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["budget", "--config", str(path)]) == EXIT_INVALID


def test_missing_section_is_invalid(tmp_path):
    path = _write(tmp_path, {"seed": 1})
    assert main(["dynamics", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_INVALID


def test_runtime_failure_is_error(tmp_path, config_dict):
    # orphaned node: build_topology raises TopologyError -> exit 1
    config_dict["network"]["kind"] = "single_group"
    config_dict["network"]["positions"]["u4"] = [9000.0, 0.0, 0.0]
    path = _write(tmp_path, config_dict)
    assert main(["network", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_ERROR


def test_budget_outputs(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["budget", "--config", path, "--out", str(out)]) == EXIT_OK
    report = (out / "budget_report.txt").read_text()
    assert "EIRP" in report and "Link Margin" in report
    payload = json.loads((out / "budget.json").read_text())
    assert payload["mode"] == "paper"
    assert payload["eirp_db"] == pytest.approx(18.789, abs=1e-3)
    assert payload["derived"]["reflection_coefficient"] == pytest.approx(0.2)
    labels = {d["label"] for d in payload["discrepancies"]}
    assert "total_path_loss_db" in labels


def test_budget_corrected_mode(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["budget", "--config", path, "--out", str(out),
                 "--mode", "corrected"]) == EXIT_OK
    payload = json.loads((out / "budget.json").read_text())
    assert payload["total_path_loss_db"] == pytest.approx(-103.66)


def test_berdist_csv_schema(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["berdist", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = (out / "berdist.csv").read_text().splitlines()
    assert lines[0] == "distance_m,pr_dbm,ebn0_db,ber"
    assert len(lines) == 1 + config_dict["berdist"]["n"]


def test_network_outputs(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["network", "--config", path, "--out", str(out)]) == EXIT_OK
    topo = json.loads((out / "topology.json").read_text())
    assert topo["kind"] == "star"
    assert topo["nodes"]["gs"] == "ground_station"
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["routing"]["reached"]
    assert comparison["flooding"]["messages"] >= comparison["routing"]["messages"]
    outcome = json.loads((out / "apf_outcome.json").read_text())
    assert outcome["outcome"] == "reached_goal"
    header = (out / "apf_trajectory.csv").read_text().splitlines()[0]
    assert header == "step,x,y,z,potential"


@pytest.mark.parametrize("mode", ["paper", "corrected"])
def test_reference_ledger_written_out_matches_use_reference(
        tmp_path, config_dict, mode):
    outs = []
    for k, budget in enumerate(({"use_reference": True}, LEDGER)):
        config_dict["budget"] = budget
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(config_dict))
        outs.append(tmp_path / str(k))
        assert main(["budget", "--config", str(path), "--out", str(outs[-1]),
                     "--mode", mode]) == EXIT_OK
    for name in ("budget.json", "budget_report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seeded_position_draw(tmp_path, config_dict):
    del config_dict["network"]["positions"]
    path = _write(tmp_path, config_dict)
    runs = []
    for k, seed in enumerate(([], [], ["--seed", "2"])):
        out = tmp_path / str(k)
        assert main(["network", "--config", path, "--out", str(out),
                     *seed]) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert runs[0] == runs[1]
    assert runs[0]["topology.json"] != runs[2]["topology.json"]
    # the draw fills a cube of side link_range centred on the station
    section = config_dict["network"]
    bound = section["link_range"] * math.sqrt(3) / 2
    for run in runs:
        costs = [cost for a, b, cost in json.loads(run["topology.json"])[
            "edges"] if "gs" in (a, b)]
        assert len(costs) == section["n_uavs"]
        assert all(cost <= bound for cost in costs)


def test_out_below_a_file_is_io_error(tmp_path, config_dict, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["budget", "--config", _write(tmp_path, config_dict),
                 "--out", str(blocker / "out")]) == EXIT_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: io: ")


def test_wind_rerun_byte_identical(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["wind", "--config", path, "--out", str(out_a)]) == EXIT_OK
    assert main(["wind", "--config", path, "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "series.csv").read_bytes() == \
        (out_b / "series.csv").read_bytes()
    assert (out_a / "psd.csv").read_bytes() == (out_b / "psd.csv").read_bytes()


def test_seed_override_changes_series(tmp_path, config_dict):
    path = _write(tmp_path, config_dict)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["wind", "--config", path, "--out", str(out_a),
                 "--seed", "7"]) == EXIT_OK
    assert main(["wind", "--config", path, "--out", str(out_b),
                 "--seed", "8"]) == EXIT_OK
    assert (out_a / "series.csv").read_bytes() != \
        (out_b / "series.csv").read_bytes()


def test_optimize_rerun_byte_identical(tmp_path, config_dict):
    config_dict["optimize"]["max_iters"] = 50
    path = _write(tmp_path, config_dict)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", path, "--out", str(out_a)]) == EXIT_OK
    assert main(["optimize", "--config", path, "--out", str(out_b)]) == EXIT_OK
    name = "convergence_pso.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    lines = (out_a / name).read_text().splitlines()
    assert lines[0] == "iteration,best_value"
    assert len(lines) == 1 + 50 + 1  # header + initial + per-iteration


def test_dynamics_output_schema(tmp_path, config_dict):
    config_dict["duration"] = 1.0
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = (out / "flight_trace.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 1 + 101  # header + 100 steps + initial row


def test_formation_output(tmp_path, config_dict):
    config_dict["duration"] = 1.0
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["formation", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = (out / "poses.csv").read_text().splitlines()
    assert lines[0] == "t,id,x,y,z"
    # 4 craft (leader + 3 followers) per tick
    assert (len(lines) - 1) % 4 == 0


def test_channel_outputs(tmp_path, config_dict):
    config_dict["channel"]["n_bits"] = 2000
    config_dict["channel"]["sweep"]["n"] = 50
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["channel", "--config", path, "--out", str(out)]) == EXIT_OK
    ber_lines = (out / "ber.csv").read_text().splitlines()
    assert ber_lines[0] == "ebn0_db,ber_theory,ber_mc,n_errors"
    assert len(ber_lines) == 1 + len(config_dict["channel"]["ebn0_db"])
    assert (out / "power_sweep.csv").exists()
    assert (out / "constellation.csv").exists()


def test_reference_csv_cells_are_numbers(tmp_path):
    """Every subcommand on the committed scenario writes CSV cells that
    parse as numbers; ``poses.csv``'s ``id`` column holds craft ids."""
    runs = [[sub] for sub in ("dynamics", "wind", "optimize", "formation",
                              "channel", "network")]
    runs += [[sub, "--mode", mode] for sub in ("budget", "berdist")
             for mode in ("paper", "corrected")]
    n_csv = 0
    for k, args in enumerate(runs):
        out = tmp_path / str(k)
        assert main([*args, "--config", str(REPO_CONFIG),
                     "--out", str(out)]) == EXIT_OK
        for path in sorted(out.glob("*.csv")):
            header, *rows = path.read_text().splitlines()
            numeric = [i for i, name in enumerate(header.split(","))
                       if name != "id"]
            assert rows, path.name
            for row in rows:
                cells = row.split(",")
                for i in numeric:
                    float(cells[i])  # raises on np.float64(...) and friends
            n_csv += 1
    assert n_csv == 11


def _reference_ledger() -> dict:
    """The reference budget written out as a ``use_reference: false``
    ledger."""
    config = linkbudget.reference_budget_config()
    return {"use_reference": False,
            "antenna": asdict(linkbudget.reference_antenna()),
            **{key: [[item.label, item.value_db]
                     for item in getattr(config, key)]
               for key in ("tx_items", "loss_items", "rx_items")},
            **{key: getattr(config, key) for key in (
                "noise_bandwidth_hz", "noise_figure_db", "rx_threshold_db",
                "printed_totals", "text_values")}}


LEDGER = _reference_ledger()


# (subcommand, field to set, value, field the error must name)
MALFORMED = [
    ("optimize", "optimize.dim", "ten", "optimize.dim"),
    ("dynamics", "duration", "10", "duration"),
    ("wind", "wind.n_samples", 4096.0, "wind.n_samples"),
    ("formation", "formation.edges", [["leader"]], "formation.edges[0]"),
    ("wind", "wind.sigma", 1.0, "wind.sigma"),
    ("network", "network.n_uavs", "5", "network.n_uavs"),
    ("network", "network.apf.obstacles", [[1, 2]], "network.apf.obstacles"),
    ("channel", "channel.n_bits", 3, "channel.n_bits"),
    ("dynamics", "dynamics.gains.kp", -1, "dynamics.gains"),
    ("formation", "formation.params.mass", 0, "formation.params"),
    ("channel", "channel.fading.kind", "nakagami", "channel.fading.kind"),
    ("optimize", "optimize", {"algorithm": "gwo", "n_wolves": 3},
     "optimize"),
    ("budget", "budget", {"use_reference": False}, "budget.tx_items"),
    ("berdist", "berdist", {"use_reference": False}, "berdist.data_rate"),
    ("wind", "seed", True, "seed"),
    ("dynamics", "dt", -1.0, "dt"),
    ("optimize", "optimize.algorithm", "annealing", "optimize.algorithm"),
    ("network", "network.kind", "mesh", "network.kind"),
    ("channel", "channel.link.ground_reflection", 0.5, "channel.link"),
    ("network", "network.src", "u999", "network.src"),
    ("network", "network.dst", "u05", "network.dst"),
    ("network", "network.n_groups", 6, "network.n_groups"),
    ("network", "network", {"kind": "single_group", "n_groups": 2},
     "network.n_groups"),
    ("network", "network.positions", {"gs": [0, 0, 0], "u0": [1, 0, 0]},
     "network.positions"),
    ("network", "network.link_range", 0.0, "network.link_range"),
    ("network", "network.link_range", -100.0, "network.link_range"),
    ("network", "network.apf.start", [10.0, 1.0, 0.0], "network.apf.start"),
    ("network", "network.apf.start", [0.0, 0.0, 150.0], "network.apf.start"),
    ("network", "network.apf.step", -0.1, "network.apf.step"),
    ("network", "network.apf.step", 0, "network.apf.step"),
    ("network", "network.apf.max_steps", -1, "network.apf.max_steps"),
    ("optimize", "optimize.dim", 0, "optimize.dim"),
    ("optimize", "optimize.dim", -1, "optimize.dim"),
    ("optimize", "optimize", {"lower": -1e308, "upper": 1e308}, "optimize"),
    ("optimize", "optimize", {"algorithm": "gwo", "lower": -1e300,
                              "upper": 1e300}, "optimize.upper"),
    ("optimize", "optimize.dim", 10 ** 309, "optimize.dim"),
    ("wind", "wind.n_omega", -1, "wind.n_omega"),
    ("channel", "channel.sweep.n", -1, "channel.sweep.n"),
    ("berdist", "berdist.n", -1, "berdist.n"),
    ("channel", "channel.ebn0_db", [4000], "channel.ebn0_db[0]"),
    ("channel", "channel.ebn0_db", [1e308], "channel.ebn0_db[0]"),
    ("channel", "channel.ebn0_db", [-4000], "channel.ebn0_db[0]"),
    ("channel", "channel.ebn0_db", [0, 2, -1e308], "channel.ebn0_db[2]"),
    ("channel", "channel.constellation_ebn0_db", -4000,
     "channel.constellation_ebn0_db"),
    ("channel", "channel.constellation_ebn0_db", 4000,
     "channel.constellation_ebn0_db"),
    *(("berdist", "berdist", {"use_reference": False, "data_rate": rate,
                              "noise_power_dbm": -120.0}, "berdist.data_rate")
      for rate in (0, -5, 0.0)),
    *(("berdist", "berdist", {"use_reference": False, "data_rate": 1e6,
                              "noise_power_dbm": dbm},
       "berdist.noise_power_dbm") for dbm in (1e308, -4000.0)),
    ("berdist", "berdist.d_max", 1e200, "berdist.d_max"),
    ("channel", "channel.sweep.d_max", 1e300, "channel.sweep.d_max"),
    ("channel", "channel.link.tx_power", 1e-320, "channel.link"),
    ("wind", "wind.sigma", [1e300, 1, 1], "wind.sigma"),
    ("channel", "channel.link.tx_height", 1e300, "channel.link"),
    ("channel", "channel.link.wavelength", 1e300, "channel.link"),
    ("dynamics", "duration", -1, "duration"),
    ("formation", "duration", -0.5, "duration"),
    ("dynamics", "dt", 1e-300, "duration"),
    ("formation", "duration", 1e300, "duration"),
    ("dynamics", "dt", 5e-324, "duration"),
    ("wind", "wind", {"component": "w", "omega_log_max": 200},
     "wind.omega_log_max"),
    ("wind", "wind", {"component": "v", "omega_log_min": 200},
     "wind.omega_log_min"),
    ("wind", "wind", {"component": "w", "sample_spacing": 1e-300},
     "wind.sample_spacing"),
    ("wind", "wind.sample_spacing", 0, "wind.sample_spacing"),
    # each passed validate, then ran with an overflow in norm()
    ("network", "network.positions.u0", [1e300, 0, 0], "network.positions"),
    ("network", "network.apf.repel_gain", 1e300, "network.apf.repel_gain"),
    ("network", "network.apf.attract_gain", 1e300,
     "network.apf.attract_gain"),
    ("network", "network.apf.goal", [1e300, 0, 0], "network.apf"),
    ("network", "network.apf.obstacles", [[[1e300, 0, 0], 1.0]],
     "network.apf"),
    ("network", "network", {"link_range": 1e300}, "network.link_range"),
    # the attitude loop diverges at these steps
    ("dynamics", "dt", 0.05, "dt"),
    ("formation", "dt", 0.05, "dt"),
    # each was accepted and then ignored
    ("optimize", "optimize", {"algorithm": "gwo", "n_particles": 5},
     "optimize.n_particles"),
    ("optimize", "optimize", {"algorithm": "pso", "n_wolves": 5},
     "optimize.n_wolves"),
    ("budget", "budget.antenna", {"vswr": 3.0}, "budget.antenna.vswr"),
    ("budget", "budget.printed_totals", {"eirp_db": 1.0},
     "budget.printed_totals.eirp_db"),
    ("budget", "budget.tx_items", [["Tx Gain", 2.0]], "budget.tx_items"),
    ("berdist", "berdist", {"data_rate": 5.0, "noise_power_dbm": -50.0},
     "berdist.data_rate"),
    ("berdist", "berdist.link", {"tx_power": 5.0}, "berdist.link.tx_power"),
    ("network", "network.positions.foo", [1e300, 0, 0],
     "network.positions.foo"),
    ("network", "network.positions.u99", [5, 5, 5], "network.positions.u99"),
    # named the section, not the link, before LinkParams checked heights
    ("channel", "channel.link.tx_height", 0, "channel.link"),
    ("channel", "channel.link.rx_height", -5, "channel.link"),
    # each passed validate, then exited 1 from the budget arithmetic
    ("budget", "budget", {**LEDGER, "antenna": {"operational_temp": -1}},
     "budget.antenna"),
    ("budget", "budget", {**LEDGER, "antenna": {"standard_temp": 0}},
     "budget.antenna"),
    ("budget", "budget", {**LEDGER, "antenna": {"vswr": 1e300}},
     "budget.antenna"),
    # library checks that no other test reaches
    ("channel", "channel.link.tx_gain", 0, "channel.link"),
    ("channel", "channel.fading.rician_k", -1, "channel.fading"),
    ("formation", "formation.gains.ki", -1, "formation.gains"),
    ("wind", "wind.sigma", [-1, 1, 1], "wind"),
    *(("optimize", "optimize", {"algorithm": algorithm, "max_iters": 0},
       "optimize") for algorithm in ("pso", "gwo", "wpa")),
    ("budget", "budget.antenna", {"input_impedance": 0}, "budget.antenna"),
    ("budget", "budget", {**LEDGER, "tx_items": []}, "budget"),
    ("budget", "budget", {**LEDGER, "noise_bandwidth_hz": 0}, "budget"),
]


def _set(config, dotted, value):
    *parents, key = dotted.split(".")
    functools.reduce(operator.getitem, parents, config)[key] = value


@pytest.mark.parametrize("subcommand,field,value,named", MALFORMED,
                         ids=[f"{f}={v!r}" for _, f, v, _ in MALFORMED])
def test_malformed_config_one_line_exit_2(tmp_path, config_dict, capsys,
                                          subcommand, field, value, named):
    _set(config_dict, field, value)
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out)]) == \
        EXIT_INVALID
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config: {named}")
    assert not out.exists()   # rejected before any runner
    assert main(["validate", "--config", path]) == EXIT_INVALID


# (a pattern of the message, call that must raise it): the library checks
# on values that the config schema never passes on, by type or by an
# earlier check
LIBRARY_ONLY = [
    ("distance must be", lambda: channel.two_ray_received_power(
        cli._link(), 0.0)),
    ("rotor speed", lambda: dynamics.rotor_spin_dynamics(
        cli._uav(), -1.0, 0.0, 0.0)),
    ("position must be", lambda: formation.Pose((1.0, 2.0))),
    ("offset must be", lambda: formation.FormationSpec(
        formation.FormationMode.FIXED_GLOBAL_DIFFERENCE, (math.inf, 0, 0))),
    ("value_db must be", lambda: linkbudget.BudgetLineItem(
        "Tx Gain", math.nan)),
    *(("wavelength and distance", lambda args=args: linkbudget.path_loss_db(
        *args)) for args in ((0.0, 1.0), (0.125, 0.0))),
    *(("temperatures must be", lambda args=args: linkbudget.noise_figure(
        *args)) for args in ((-1.0, 298.0), (358.0, 0.0))),
    ("[|]rho[|] must be", lambda: linkbudget.output_impedance(1.0, 50.0)),
    ("lower and upper must be", lambda: swarm_opt.SearchSpace(
        lower=[0.0, 0.0], upper=[1.0])),
    *(("c1 and c2 must be", lambda c=c: swarm_opt.PsoConfig(**c))
      for c in ({"c1": -1.0}, {"c2": -1.0})),
    ("iteration counts", lambda: swarm_opt.WpaConfig(scout_max_repeats=0)),
    ("positions, velocities", lambda: swarm_opt.pso_step(
        np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 2)), np.zeros(2),
        swarm_opt.PsoConfig(), np.random.default_rng(0))),
    ("global_best", lambda: swarm_opt.pso_step(
        np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3),
        swarm_opt.PsoConfig(), np.random.default_rng(0))),
]


@pytest.mark.parametrize("message,call", LIBRARY_ONLY,
                         ids=[message for message, _ in LIBRARY_ONLY])
def test_library_checks_the_config_never_reaches(message, call):
    with pytest.raises(ValueError, match=message):
        call()


def test_unknown_keys_warn_one_line_each(tmp_path, config_dict, capsys):
    config_dict["optimize"]["n_particle"] = 40
    config_dict["formation"]["edges"][0][2]["ofset"] = [1, 2, 3]
    config_dict["sed"] = 3
    # fields that nothing read, deleted from the schema and the classes
    config_dict["dynamics"].setdefault("params", {})["rotor_disc_area"] = 0.05
    config_dict["wind"]["shear_p"] = 0.4
    config_dict["budget"]["antenna"] = {
        "freq_low": 2.2e9, "freq_high": 2.4e9, "rx_threshold_dbm": -85.0}
    # a key that compute_budget does not read
    config_dict["budget"]["printed_totals"] = {"eirp": 1.0}
    path = _write(tmp_path, config_dict)
    assert main(["validate", "--config", path]) == EXIT_OK
    assert sorted(capsys.readouterr().err.splitlines()) == [
        f"warning: config: {key}: unknown key, ignored"
        for key in ("budget.antenna.freq_high", "budget.antenna.freq_low",
                    "budget.antenna.rx_threshold_dbm",
                    "budget.printed_totals.eirp",
                    "dynamics.params.rotor_disc_area",
                    "formation.edges[0][2].ofset", "optimize.n_particle",
                    "sed", "wind.shear_p")]


def test_unread_antenna_fields_are_unknown_keys(tmp_path, config_dict,
                                               capsys):
    config_dict["budget"]["antenna"] = {"gain_dbi": 3.0, "link_length": 2e3}
    assert main(["validate", "--config", _write(tmp_path, config_dict)]) == \
        EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"warning: config: budget.antenna.{key}: unknown key, ignored"
        for key in ("gain_dbi", "link_length")]


def test_line_breaks_in_keys_stay_on_one_line(tmp_path, config_dict,
                                              capsys):
    config_dict["optimize"]["n\nparticles"] = 40
    assert main(["validate", "--config", _write(tmp_path, config_dict)]) == \
        EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "warning: config: optimize.n\\nparticles: unknown key, ignored"]
    config_dict["network"]["positions"]["u\u20289"] = [0, 0, 0, 0]
    assert main(["validate", "--config", _write(tmp_path, config_dict)]) == \
        EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [
        "error: config: network.positions.u\\u20289: array of 3 required"]


def test_every_section_has_valid_defaults():
    config = {"seed": 1, "formation": {"root": "l", "edges": []},
              **{s: {} for s in ("dynamics", "wind", "optimize", "channel",
                                 "budget", "berdist", "network")}}
    scenario, violations, unknown = parse_config(config)
    assert violations == [] and unknown == []
    assert scenario["berdist"]["data_rate"] == 1e6


def test_berdist_without_section_runs_reference_link(tmp_path,
                                                      monkeypatch):
    # a left-out berdist section is parsed by the berdist subcommand only
    assert parse_config({})[0]["berdist"] is None
    run, ran = cli.run_berdist, []
    monkeypatch.setattr(cli, "run_berdist", lambda scenario, out: ran.append(
        scenario["berdist"]) or run(scenario, out))
    outputs = []
    for name, config in (("none", {}), ("empty", {"berdist": {}})):
        out = tmp_path / name
        assert main(["berdist", "--config",
                     _write(tmp_path, {"seed": 1, **config}),
                     "--out", str(out)]) == EXIT_OK
        outputs.append((out / "berdist.csv").read_bytes())
    assert ran[0]["data_rate"] == 1e6 and ran[0] == ran[1]
    assert outputs[0] == outputs[1]


def test_partial_gains_fill_from_section_default(config_dict):
    config_dict["dynamics"]["gains"] = {"kp": 5.0}
    config_dict["formation"]["gains"] = {"kp": 36.0}
    scenario, violations, _ = parse_config(config_dict)
    assert violations == []
    assert scenario["dynamics"]["gains"].kd == 4.0
    assert scenario["formation"]["gains"].kd == 8.0


def test_rayleigh_ber_theory_follows_fading(tmp_path, config_dict):
    config_dict["channel"]["fading"] = {"kind": "rayleigh"}
    config_dict["channel"]["n_bits"] = 2000
    config_dict["channel"]["sweep"]["n"] = 50
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main(["channel", "--config", path, "--out", str(out)]) == EXIT_OK
    header, first, *_ = (out / "ber.csv").read_text().splitlines()
    row = dict(zip(header.split(","), first.split(",")))
    assert row["ebn0_db"] == "0"
    assert float(row["ber_theory"]) == pytest.approx(0.14645, abs=5e-6)


def _tree_paths(node, prefix=()):
    if prefix:
        yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _tree_paths(child, (*prefix, key))


REFERENCE_PATHS = list(_tree_paths(json.loads(REPO_CONFIG.read_text())))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda items: st.lists(items, max_size=4)
    | st.dictionaries(st.text(max_size=4), items, max_size=4),
    max_leaves=6)
OUT_OF_RANGE = st.sampled_from([0, -1, 1, 3, -0.5, 1e300, -1e300, 10 ** 400,
                                2 ** 63, float("nan"), float("inf")])


@st.composite
def mutated_reference(draw):
    """configs/reference.json with one field deleted, retyped, resized or
    set out of range."""
    config = json.loads(REPO_CONFIG.read_text())
    *parents, key = draw(st.sampled_from(REFERENCE_PATHS))
    parent = functools.reduce(operator.getitem, parents, config)
    old = parent[key]
    how = draw(st.sampled_from(("delete", "retype", "resize", "range")))
    if how == "delete":
        del parent[key]
    elif how == "resize" and isinstance(old, list) and old:
        parent[key] = old[:-1] if draw(st.booleans()) else old + old[-1:]
    elif how == "range":
        parent[key] = draw(OUT_OF_RANGE)
    else:
        parent[key] = draw(JSON_VALUES)
    return config


@settings(max_examples=300, deadline=None)
@given(mutated_reference())
def test_validate_fuzz_never_escapes(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "--config", str(path)])
    lines = err.getvalue().splitlines()
    assert code in (EXIT_OK, EXIT_INVALID)
    if code == EXIT_INVALID:
        assert len(lines) == 1 and lines[0].startswith("error: config: ")
    else:
        assert all(line.startswith("warning: config: ") for line in lines)


# (subcommand, field, value): each passed validate and then exited 1 from
# math.log10 or build_topology without naming the field
NOT_IN_RANGE = [
    ("channel", "channel.sweep.d_min", 0),
    ("channel", "channel.sweep.d_max", -10.0),
    ("berdist", "berdist.d_min", 0.0),
    ("berdist", "berdist.d_max", -1),
    ("network", "network.n_uavs", 0),
    ("network", "network.n_groups", -2),
]


@pytest.mark.parametrize("subcommand,field,value", NOT_IN_RANGE,
                         ids=[f"{f}={v!r}" for _, f, v in NOT_IN_RANGE])
def test_sweep_bounds_and_swarm_sizes_exit_2(tmp_path, config_dict, capsys,
                                             subcommand, field, value):
    _set(config_dict, field, value)
    path = _write(tmp_path, config_dict)
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out)]) == \
        EXIT_INVALID
    bound = "> 0" if field.startswith(("channel", "berdist")) else ">= 1"
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {field}: must be {bound}"]
    assert not out.exists()
    assert main(["validate", "--config", path]) == EXIT_INVALID


def test_unreadable_and_invalid_files_one_prefix(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", "--config", str(missing)]) == EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [
        "error: config: unreadable ([Errno 2] No such file or directory: "
        f"{str(missing)!r})"]
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["validate", "--config", str(broken)]) == EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [
        "error: config: invalid JSON (Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1))"]
    broken.write_text("[]")
    assert main(["validate", "--config", str(broken)]) == EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [
        "error: config: top level must be an object"]
