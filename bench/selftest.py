"""Self-test of the output checks.

    python3 bench/selftest.py        (from the root of a swarmlink checkout)

Runs the CLI on small scenarios, requires every check to accept the
outputs, then alters each output in one place and requires the check of
that output to reject the altered copy. Exits 1 if any case misbehaves.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = Path(".bench_out") / "selftest"


def small_configs() -> dict:
    """The reference scenario plus small versions of the generated ones."""
    reference = workloads.reference_config()
    flight = workloads.swarm_flight(7).configs
    formation = flight["formation.json"]
    formation["duration"] = 2.0
    formation["formation"]["edges"] = formation["formation"]["edges"][:6]
    wind = flight["wind.json"]
    wind["wind"]["n_samples"] = 2 ** 14
    wind_vk_w = flight["wind-vk-w.json"]
    wind_vk_w["wind"]["n_samples"] = 2 ** 14
    wind_dryden_w = copy.deepcopy(wind_vk_w)
    wind_dryden_w["wind"]["model"] = "dryden"
    network = workloads.swarm_network(7).configs["lattice.json"]
    section = network["network"]
    nx = workloads.LATTICE_SHAPE[0]
    keep = [f"u{j * nx + i}" for j in range(6) for i in range(8)]
    section["positions"] = {"gs": section["positions"]["gs"],
                            **{f"u{k}": section["positions"][old]
                               for k, old in enumerate(keep)}}
    section.update(n_uavs=len(keep), src=f"u{len(keep) - 1}")
    section["apf"]["obstacles"] = section["apf"]["obstacles"][:20]
    stochastic = workloads.stochastic(7).configs
    channel = stochastic["channel.json"]
    channel["channel"].update(n_bits=200000)
    channel["channel"]["sweep"]["n"] = 500
    berdist = stochastic["berdist.json"]
    berdist["berdist"]["n"] = 400
    wpa = stochastic["optimize-wpa-sphere.json"]
    return {"reference.json": reference, "formation.json": formation,
            "wind.json": wind, "wind-vk-w.json": wind_vk_w,
            "wind-dryden-w.json": wind_dryden_w, "network.json": network,
            "channel.json": channel, "berdist.json": berdist,
            "wpa.json": wpa}


OPS = [  # (case name, subcommand, config, mode)
    ("dynamics", "dynamics", "reference.json", None),
    ("wind", "wind", "wind.json", None),
    ("wind-vk-w", "wind", "wind-vk-w.json", None),
    ("wind-dryden-w", "wind", "wind-dryden-w.json", None),
    ("optimize", "optimize", "wpa.json", None),
    ("formation", "formation", "formation.json", None),
    ("channel-awgn", "channel", "reference.json", None),
    ("channel-rayleigh", "channel", "channel.json", None),
    ("budget-paper", "budget", "reference.json", "paper"),
    ("budget-corrected", "budget", "reference.json", "corrected"),
    ("berdist-paper", "berdist", "berdist.json", "paper"),
    ("berdist-corrected", "berdist", "reference.json", "corrected"),
    ("network-star", "network", "reference.json", None),
    ("network-adhoc", "network", "network.json", None),
]


# ------------------------------------------------------------- alterations

def _edit_csv(path: Path, row: int, column: str, change):
    """Apply ``change`` to one field; ``row`` indexes the data rows."""
    header, *rows = path.read_text().rstrip("\n").split("\n")
    fields = rows[row].split(",")
    i = header.split(",").index(column)
    fields[i] = repr(change(checks.number(fields[i])))
    rows[row] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")


def _edit_json(path: Path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def shift_formation_row(out: Path):
    path = out / "poses.csv"
    rows = len(path.read_text().strip().split("\n")) - 1
    row = rows // 2 | 1              # not a multiple of 7: a follower row
    _edit_csv(path, row, "x", lambda x: x + 0.05)


def swap_formation_rows(out: Path):
    path = out / "poses.csv"
    lines = path.read_text().split("\n")
    lines[3], lines[4] = lines[4], lines[3]
    path.write_text("\n".join(lines))


def drop_edge(out: Path):
    _edit_json(out / "topology.json", lambda d: d["edges"].pop(
        len(d["edges"]) // 2))


def flood_off_by_one(out: Path):
    def change(d):
        d["flooding"]["messages"] += 1
    _edit_json(out / "comparison.json", change)


def route_cost_off(out: Path):
    def change(d):
        d["routing"]["cost"] *= 1 + 1e-6
    _edit_json(out / "comparison.json", change)


def ber_outside_band(out: Path):
    path = out / "ber.csv"
    config = json.loads((WORK / "configs" / "channel.json").read_text())
    n_bits = config["channel"]["n_bits"]
    lines = path.read_text().split("\n")
    ebn0, theory, _, _ = lines[2].split(",")
    p = checks.qpsk_ber("rayleigh", float(ebn0))
    lo, hi = checks.binomial_band(n_bits, p)
    errors = int(hi + (hi - n_bits * p))
    lines[2] = ",".join([ebn0, theory, repr(errors / n_bits), str(errors)])
    path.write_text("\n".join(lines))


def alterations():
    """(case, op case name, alteration) triples; each must be rejected."""
    return [
        ("formation row shifted", "formation", shift_formation_row),
        ("formation rows swapped", "formation", swap_formation_rows),
        ("final hold position moved", "dynamics", lambda o: _edit_csv(
            o / "flight_trace.csv", -1, "x", lambda x: x + 0.01)),
        ("psd value scaled", "wind", lambda o: _edit_csv(
            o / "psd.csv", 50, "von_karman", lambda x: x * 1.001)),
        ("gust sample moved", "wind", lambda o: _edit_csv(
            o / "series.csv", 100, "gust", lambda x: x + 0.01)),
        ("transverse psd scaled", "wind-dryden-w", lambda o: _edit_csv(
            o / "psd.csv", 50, "von_karman", lambda x: x * 1.001)),
        ("convergence rises", "optimize", lambda o: _edit_csv(
            o / "convergence_wpa.csv", 100, "best_value",
            lambda x: x * 1.5 + 1e-6)),
        ("Friis power off", "channel-awgn", lambda o: _edit_csv(
            o / "power_sweep.csv", 10, "pr_friis_dbm", lambda x: x + 0.01)),
        ("two-ray power off", "channel-rayleigh", lambda o: _edit_csv(
            o / "power_sweep.csv", 300, "pr_tworay_dbm", lambda x: x + 0.01)),
        ("BER count outside band", "channel-rayleigh", ber_outside_band),
        ("AWGN theory off", "channel-awgn", lambda o: _edit_csv(
            o / "ber.csv", 1, "ber_theory", lambda x: x * 1.0001)),
        ("paper RSL off", "budget-paper", lambda o: _edit_json(
            o / "budget.json", lambda d: d.update(
                rsl_db=d["rsl_db"] + 0.01,
                link_margin_db=d["link_margin_db"] + 0.01))),
        ("corrected noise off", "budget-corrected", lambda o: _edit_json(
            o / "budget.json", lambda d: d.update(
                noise_power_dbm=d["noise_power_dbm"] + 0.01))),
        ("corrected total off", "budget-corrected", lambda o: _edit_json(
            o / "budget.json", lambda d: d.update(
                eirp_db=d["eirp_db"] + 0.01, rsl_db=d["rsl_db"] + 0.01,
                link_margin_db=d["link_margin_db"] + 0.01))),
        ("paper BER off", "berdist-paper", lambda o: _edit_csv(
            o / "berdist.csv", 200, "ber", lambda x: x * 1.01)),
        ("Eb/N0 off", "berdist-corrected", lambda o: _edit_csv(
            o / "berdist.csv", 20, "ebn0_db", lambda x: x + 0.01)),
        ("edge dropped", "network-adhoc", drop_edge),
        ("star edge dropped", "network-star", drop_edge),
        ("flood count off by one", "network-adhoc", flood_off_by_one),
        ("route cost off", "network-adhoc", route_cost_off),
        ("APF potential off", "network-adhoc", lambda o: _edit_csv(
            o / "apf_trajectory.csv", 30, "potential", lambda x: x * 1.001)),
    ]


def von_karman_cases(outs: dict) -> list[str]:
    """The program's transverse Von Karman density is reported as its
    known fault, and the same output with that column rewritten in the
    closed form is accepted without it."""
    failures = []
    for case in ("wind-vk-w", "wind-dryden-w"):
        sub, mode, config, good = outs[case]
        faults, _ = checks.check_op(sub, mode, config, good)
        known = any(checks.VON_KARMAN_VW_CAUSE in f for f in faults)
        print(f"known  {case}: Von Karman v/w fault "
              f"{'reported' if known else 'NOT REPORTED'}")
        if not known:
            failures.append(f"{case}: Von Karman v/w fault not reported")
    sub, mode, config, good = outs["wind-dryden-w"]
    fixed = WORK / "altered" / "closed-form-transverse-psd"
    shutil.copytree(good, fixed)
    section = config["wind"]
    i = "uvw".index(section["component"])
    path = fixed / "psd.csv"
    header, *rows = path.read_text().rstrip("\n").split("\n")
    lines = [header]
    for row in rows:
        omega, dryden, _ = row.split(",")
        vk = checks.turbulence_psd("von_karman", section["component"],
                                   section["sigma"][i], section["length"][i],
                                   checks.number(omega))
        lines.append(",".join([omega, dryden, repr(float(vk))]))
    path.write_text("\n".join(lines) + "\n")
    faults, problems = checks.check_op(sub, mode, config, fixed)
    known = any(checks.VON_KARMAN_VW_CAUSE in f for f in faults)
    print(f"fixed  closed-form transverse psd: "
          f"{'ACCEPTED' if not problems and not known else problems or faults}")
    if problems or known:
        failures.append("closed-form transverse psd not accepted cleanly")
    return failures


def contract_cases() -> list[str]:
    """The file-contract check: plain shortest numbers pass, the
    np.float64 spelling and over-long reprs are faults."""
    failures = []
    path = WORK / "contract.csv"
    for body, want_faults in (("0,0.1,-3\n", 0),
                              ("0,np.float64(0.1),-3\n", 1),
                              ("0,0.10000000000000001,-3\n", 1),
                              ("0,0.1\n", 1)):
        path.write_text("a,b,c\n" + body)
        got = len(checks.contract_faults(checks.Table(path), ["a", "b", "c"]))
        if got != want_faults:
            failures.append(f"contract: {body.strip()!r} gave {got} faults")
    return failures


def main() -> int:
    if not Path("src/swarmlink/cli.py").is_file():
        print("error: run from the root of a swarmlink checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    config_dir = WORK / "configs"
    config_dir.mkdir(parents=True)
    configs = small_configs()
    for name, config in configs.items():
        (config_dir / name).write_text(json.dumps(config, indent=1))
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    failures = contract_cases()
    outs = {}
    for case, sub, config, mode in OPS:
        out = WORK / "good" / case
        op = workloads.Op(case, sub, config, mode)
        subprocess.run([sys.executable, "-m", "swarmlink.cli",
                        *op.argv(config_dir, out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        _, problems = checks.check_op(sub, mode, configs[config], out)
        print(f"good   {case}: {'accepted' if not problems else problems}")
        if problems:
            failures.append(f"{case}: good output rejected: {problems}")
        outs[case] = (sub, mode, configs[config], out)
    failures += von_karman_cases(outs)
    for label, case, alter in alterations():
        sub, mode, config, good = outs[case]
        bad = WORK / "altered" / label.replace(" ", "-")
        shutil.copytree(good, bad)
        alter(bad)
        _, problems = checks.check_op(sub, mode, config, bad)
        print(f"altered {label}: "
              f"{'rejected: ' + problems[0] if problems else 'ACCEPTED'}")
        if not problems:
            failures.append(f"{label}: altered output accepted")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
