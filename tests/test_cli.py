"""CLI tests: exit codes, validation, byte-identical reruns and output
schemas, driven through ``main()`` in-process."""
import json
from pathlib import Path

import pytest

from swarmlink.cli import (EXIT_ERROR, EXIT_INVALID, EXIT_OK, derive_seed,
                           main, validate_config)

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
    config_dict["wind"]["shear_p"] = 1.5
    config_dict["dt"] = -1.0
    config_dict["optimize"]["algorithm"] = "annealing"
    violations = validate_config(config_dict)
    assert len(violations) == 3
    assert any("shear_p" in v for v in violations)
    assert any(v.startswith("dt") for v in violations)


def test_validate_subcommand_exit_codes(tmp_path, config_dict, capsys):
    path = _write(tmp_path, config_dict)
    assert main(["validate", "--config", path]) == EXIT_OK
    assert "valid" in capsys.readouterr().out
    config_dict["wind"]["shear_p"] = 2.0
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
