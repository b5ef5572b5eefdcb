"""Scenario runner: JSON config in, CSV/JSON data files out.

Subcommands map one-to-one onto the library modules. All randomness flows
from the single top-level ``seed``: each module derives its own stream
seed as the first 8 bytes of sha256("<seed>:<module tag>") so partial
reruns stay reproducible. Reruns with an identical config produce
byte-identical output files. No plots are rendered; the data files are
the contract.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import channel, linkbudget, network, simulate, swarm_opt, wind
from .dynamics import PidGains, UavParams, UavState
from .formation import (FormationMode, FormationSpec, Pose, RoleGraph,
                        formation_targets)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


class ConfigError(ValueError):
    """Invalid configuration; message names the field and constraint."""


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(value) -> str:
    # float() drops numpy's np.float64(...) repr wrapper
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _require(config: dict, section: str) -> dict:
    if section not in config or config[section] is None:
        raise ConfigError(f"{section}: section required by this subcommand")
    return config[section]


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: unreadable ({exc})") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError("config: top level must be an object")
    return config


# ---------------------------------------------------------------- validate

def validate_config(config: dict) -> list[str]:
    """Structural and invariant check; returns every violation found."""
    violations: list[str] = []

    def check(cond: bool, message: str):
        if not cond:
            violations.append(message)

    seed = config.get("seed")
    stochastic = [s for s in ("wind", "optimize", "channel") if s in config]
    if stochastic:
        check(isinstance(seed, int), "seed: integer required when "
              f"stochastic sections {stochastic} are configured")
    if "dt" in config:
        check(isinstance(config["dt"], (int, float)) and config["dt"] > 0,
              "dt: must be > 0")
    if "wind" in config:
        w = config["wind"]
        sigma = w.get("sigma", [0, 0, 0])
        length = w.get("length", [1, 1, 1])
        check(len(sigma) == 3 and all(s >= 0 for s in sigma),
              "wind.sigma: 3 non-negative components required")
        check(len(length) == 3 and all(l > 0 for l in length),
              "wind.length: 3 positive components required")
        if "shear_p" in w:
            check(abs(w["shear_p"]) < 1, "wind.shear_p: |p| < 1 required")
        n = w.get("n_samples", 4096)
        check(n >= 2 and not (n & (n - 1)),
              "wind.n_samples: power of two >= 2 required")
    if "optimize" in config:
        o = config["optimize"]
        check(o.get("algorithm", "pso") in ("pso", "gwo", "wpa"),
              "optimize.algorithm: one of pso, gwo, wpa")
        check(o.get("function", "sphere") in ("sphere", "rastrigin"),
              "optimize.function: one of sphere, rastrigin")
        check(o.get("lower", -5.0) < o.get("upper", 5.0),
              "optimize.lower: must be < optimize.upper")
        if o.get("algorithm") == "wpa":
            beta = o.get("renew_fraction", 0.2)
            check(0 < beta < 1, "optimize.renew_fraction: 0 < beta < 1 required")
            check(o.get("n_wolves", 30) >= 3,
                  "optimize.n_wolves: >= 3 required")
    if "budget" in config:
        b = config["budget"]
        if "antenna" in b:
            check(b["antenna"].get("vswr", 1.5) >= 1,
                  "budget.antenna.vswr: vswr >= 1 required")
    if "channel" in config:
        c = config["channel"]
        if "fading" in c:
            check(c["fading"].get("rician_k", 10.0) >= 0,
                  "channel.fading.rician_k: >= 0 required")
        if "link" in c:
            check(c["link"].get("tx_power", 1.0) > 0,
                  "channel.link.tx_power: > 0 required")
            check(-1 <= c["link"].get("ground_reflection", -1.0) <= 0,
                  "channel.link.ground_reflection: in [-1, 0] required")
    if "formation" in config:
        f = config["formation"]
        check("root" in f, "formation.root: required")
        check("edges" in f and f["edges"], "formation.edges: required")
        if "edges" in f:
            followers = [e[1] for e in f["edges"]]
            check(len(set(followers)) == len(followers),
                  "formation.edges: every follower needs exactly one leader")
    if "network" in config:
        n = config["network"]
        kinds = [k.value for k in network.TopologyKind]
        check(n.get("kind", "star") in kinds,
              f"network.kind: one of {kinds}")
        check(n.get("n_uavs", 1) >= 1, "network.n_uavs: >= 1 required")
        check(n.get("n_groups", 1) >= 1, "network.n_groups: >= 1 required")
    return violations


# ------------------------------------------------------------- subcommands

def _uav_params(raw: dict) -> UavParams:
    return UavParams(
        mass=raw.get("mass", 1.0),
        thrust_coeff=raw.get("thrust_coeff", 1e-5),
        gravity=raw.get("gravity", 9.81),
        rotor_inertia=raw.get("rotor_inertia", 1e-4),
        air_density=raw.get("air_density", 1.225),
        rotor_disc_area=raw.get("rotor_disc_area", 0.05),
    )


def _gains(raw: dict) -> PidGains:
    return PidGains(kp=raw.get("kp", 4.0), kd=raw.get("kd", 4.0),
                    ki=raw.get("ki", 0.0))


def run_dynamics(config: dict, out: Path) -> list[Path]:
    section = _require(config, "dynamics")
    params = _uav_params(section.get("params", {}))
    gains = _gains(section.get("gains", {}))
    dt = config.get("dt", 0.01)
    duration = config.get("duration", 10.0)
    initial = UavState.at_rest(section.get("initial_position", (0, 0, 0)))
    target = Pose(position=section.get("target_position", (1, 0, 0)))
    times, positions = simulate.simulate_position_hold(
        initial, target, gains, params, dt, duration)
    path = out / "flight_trace.csv"
    _write_csv(path, ["t", "x", "y", "z"],
               ((t, p[0], p[1], p[2]) for t, p in zip(times, positions)))
    return [path]


def run_wind(config: dict, out: Path) -> list[Path]:
    section = _require(config, "wind")
    spec_d = wind.TurbulenceSpec(
        sigma=tuple(section.get("sigma", (1.0, 1.0, 1.0))),
        length=tuple(section.get("length", (200.0, 200.0, 50.0))),
        model=wind.TurbulenceModel.DRYDEN)
    spec_vk = wind.TurbulenceSpec(sigma=spec_d.sigma, length=spec_d.length,
                                  model=wind.TurbulenceModel.VON_KARMAN)
    component = section.get("component", "u")
    omega = np.logspace(section.get("omega_log_min", -4),
                        section.get("omega_log_max", 1),
                        section.get("n_omega", 200))
    psd_path = out / "psd.csv"
    _write_csv(psd_path, ["omega", "dryden", "von_karman"],
               zip(omega, wind.dryden_psd(spec_d, component, omega),
                   wind.von_karman_psd(spec_vk, component, omega)))
    model = section.get("model", "dryden")
    spec = spec_d if model == "dryden" else spec_vk
    seed = derive_seed(config.get("seed", 0), "wind")
    series = wind.synthesize_turbulence(
        spec, component, section.get("sample_spacing", 1.0),
        section.get("n_samples", 4096), seed)
    series_path = out / "series.csv"
    _write_csv(series_path, ["index", "gust"], enumerate(series))
    return [psd_path, series_path]


def run_optimize(config: dict, out: Path) -> list[Path]:
    section = _require(config, "optimize")
    dim = section.get("dim", 10)
    space = swarm_opt.SearchSpace(
        lower=np.full(dim, section.get("lower", -5.0)),
        upper=np.full(dim, section.get("upper", 5.0)))
    fitness = {"sphere": swarm_opt.sphere,
               "rastrigin": swarm_opt.rastrigin}[section.get("function", "sphere")]
    algorithm = section.get("algorithm", "pso")
    seed = derive_seed(config.get("seed", 0), f"optimize:{algorithm}")
    iters = section.get("max_iters", 500)
    if algorithm == "pso":
        run = swarm_opt.pso_optimize(fitness, space, swarm_opt.PsoConfig(
            n_particles=section.get("n_particles", 40),
            max_iters=iters, seed=seed))
    elif algorithm == "gwo":
        run = swarm_opt.gwo_optimize(fitness, space, swarm_opt.GwoConfig(
            n_wolves=section.get("n_wolves", 30),
            max_iters=iters, seed=seed))
    else:
        run = swarm_opt.wpa_optimize(fitness, space, swarm_opt.WpaConfig(
            n_wolves=section.get("n_wolves", 30),
            max_iters=iters, seed=seed))
    path = out / f"convergence_{algorithm}.csv"
    _write_csv(path, ["iteration", "best_value"], enumerate(run.trace))
    return [path]


def run_formation(config: dict, out: Path) -> list[Path]:
    section = _require(config, "formation")
    params = _uav_params(section.get("params", {}))
    gains = _gains(section.get("gains", {"kp": 16.0, "kd": 8.0}))
    dt = config.get("dt", 0.01)
    duration = config.get("duration", 30.0)
    edges = []
    for leader, follower, raw in section["edges"]:
        spec = FormationSpec(
            mode=FormationMode(raw.get("mode", "fgd")),
            offset=raw.get("offset", (0.0, 0.0, 0.0)),
            relative_heading=raw.get("relative_heading", 0.0))
        edges.append((leader, follower, spec))
    roles = RoleGraph(root_id=section["root"], edges=tuple(edges))
    leader_path = simulate.straight_line_leader(
        section.get("leader_start", (0.0, 0.0, 10.0)),
        section.get("leader_velocity", (0.5, 0.0, 0.0)))
    initial_targets = formation_targets({roles.root_id: leader_path(0.0)},
                                        roles)
    initial = {follower: UavState.at_rest(pose.position)
               for follower, pose in initial_targets.items()}
    trace = simulate.simulate_formation(leader_path, roles, initial, gains,
                                        params, dt, duration)
    path = out / "poses.csv"
    rows = []
    for k, t in enumerate(trace.times):
        rows.append((t, roles.root_id, *trace.leader_positions[k]))
        for f in sorted(trace.follower_positions):
            rows.append((t, f, *trace.follower_positions[f][k]))
    _write_csv(path, ["t", "id", "x", "y", "z"], rows)
    return [path]


def run_channel(config: dict, out: Path) -> list[Path]:
    section = _require(config, "channel")
    raw_link = section.get("link", {})
    link = channel.LinkParams(
        tx_power=raw_link.get("tx_power", 50.0),
        wavelength=raw_link.get("wavelength", 0.125),
        distance=raw_link.get("distance", 2000.0),
        tx_gain=raw_link.get("tx_gain", 1.0),
        rx_gain=raw_link.get("rx_gain", 1.0),
        tx_height=raw_link.get("tx_height", 100.0),
        rx_height=raw_link.get("rx_height", 100.0),
        ground_reflection=raw_link.get("ground_reflection", -1.0))
    outputs = []
    sweep = section.get("sweep", {})
    d = np.logspace(math.log10(sweep.get("d_min", 10.0)),
                    math.log10(sweep.get("d_max", 100000.0)),
                    sweep.get("n", 500))
    pr_friis = channel.friis_received_power(link, d)
    pr_tworay = channel.two_ray_received_power(link, d)
    sweep_path = out / "power_sweep.csv"
    _write_csv(sweep_path, ["d", "pr_friis_dbm", "pr_tworay_dbm"],
               zip(d, channel.watts_to_dbm(pr_friis),
                   channel.watts_to_dbm(pr_tworay)))
    outputs.append(sweep_path)

    seed = derive_seed(config.get("seed", 0), "channel")
    raw_fading = section.get("fading", {})
    fading = channel.FadingParams(
        kind=channel.FadingKind(raw_fading.get("kind", "awgn")),
        rician_k=raw_fading.get("rician_k", 10.0),
        seed=seed)
    ebn0_grid = section.get("ebn0_db", [0, 2, 4, 6, 8])
    n_bits = section.get("n_bits", 100000)
    ber_rows = []
    for ebn0 in ebn0_grid:
        ber_mc, n_err = channel.ber_monte_carlo(fading, ebn0, n_bits)
        ber_rows.append((ebn0, float(channel.ber_qpsk_awgn_theoretical(ebn0)),
                         ber_mc, n_err))
    ber_path = out / "ber.csv"
    _write_csv(ber_path, ["ebn0_db", "ber_theory", "ber_mc", "n_errors"],
               ber_rows)
    outputs.append(ber_path)

    const_bits = np.random.default_rng(seed).integers(0, 2, size=1024)
    symbols = channel.qpsk_modulate(const_bits)
    received = channel.apply_channel(symbols, fading,
                                     section.get("constellation_ebn0_db", 10.0))
    const_path = out / "constellation.csv"
    _write_csv(const_path, ["i", "q"],
               zip(received.real, received.imag))
    outputs.append(const_path)
    return outputs


def _budget_from_config(section: dict):
    if section.get("use_reference", True):
        return (linkbudget.reference_antenna(),
                linkbudget.reference_budget_config())
    antenna = linkbudget.AntennaSpec(**section["antenna"])
    items = {key: tuple(linkbudget.BudgetLineItem(lbl, val)
                        for lbl, val in section[key])
             for key in ("tx_items", "loss_items", "rx_items")}
    config = linkbudget.BudgetConfig(
        noise_bandwidth_hz=section["noise_bandwidth_hz"],
        noise_figure_db=section["noise_figure_db"],
        rx_threshold_db=section["rx_threshold_db"],
        printed_totals=section.get("printed_totals", {}),
        text_values=section.get("text_values", {}),
        **items)
    return antenna, config


def _budget_report_text(budget) -> str:
    lines = [f"LINK BUDGET ({budget.mode.value} mode)", ""]

    def block(title, items, total_label, total):
        lines.append(title)
        for item in items:
            lines.append(f"  {item.label:<24}{item.value_db:>10.3f} dB")
        lines.append(f"  {total_label:<24}{total:>10.3f} dB")
        lines.append("")

    block("Transmit", budget.tx_items, "EIRP", budget.eirp_db)
    block("Losses", budget.loss_items, "Total Path Loss",
          budget.total_path_loss_db)
    block("Receive", budget.rx_items, "Total Rx Gain",
          budget.total_rx_gain_db)
    lines.append(f"  {'RSL':<24}{budget.rsl_db:>10.3f} dB")
    lines.append(f"  {'Noise Figure':<24}{budget.noise_figure_db:>10.3f} dB")
    lines.append(f"  {'Total Noise Power':<24}"
                 f"{budget.noise_power_dbm:>10.3f} dBm")
    lines.append(f"  {'Threshold Rx':<24}{budget.rx_threshold_db:>10.3f} dB")
    lines.append(f"  {'Link Margin':<24}{budget.link_margin_db:>10.3f} dB")
    if budget.discrepancies:
        lines.append("")
        lines.append("Discrepancies:")
        for disc in budget.discrepancies:
            lines.append(f"  {disc}")
    return "\n".join(lines) + "\n"


def run_budget(config: dict, out: Path, mode: str) -> list[Path]:
    section = _require(config, "budget")
    antenna, bcfg = _budget_from_config(section)
    budget_mode = (linkbudget.BudgetMode.PAPER_LITERAL if mode == "paper"
                   else linkbudget.BudgetMode.CORRECTED_SUM)
    budget = linkbudget.compute_budget(antenna, bcfg, budget_mode)
    report_path = out / "budget_report.txt"
    report_path.write_text(_budget_report_text(budget))
    payload = {
        "mode": budget.mode.value,
        "eirp_db": budget.eirp_db,
        "total_path_loss_db": budget.total_path_loss_db,
        "total_rx_gain_db": budget.total_rx_gain_db,
        "rsl_db": budget.rsl_db,
        "noise_figure_db": budget.noise_figure_db,
        "noise_power_dbm": budget.noise_power_dbm,
        "rx_threshold_db": budget.rx_threshold_db,
        "link_margin_db": budget.link_margin_db,
        "derived": {
            "reflection_coefficient": linkbudget.vswr_to_reflection(
                antenna.vswr),
            "incident_power_w": linkbudget.incident_power(
                antenna.input_power,
                linkbudget.vswr_to_reflection(antenna.vswr)),
            "output_impedance_ohm": linkbudget.output_impedance(
                linkbudget.vswr_to_reflection(antenna.vswr),
                antenna.input_impedance),
        },
        "discrepancies": [asdict(d) for d in budget.discrepancies],
    }
    json_path = out / "budget.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [report_path, json_path]


def run_berdist(config: dict, out: Path, mode: str) -> list[Path]:
    section = config.get("berdist", {})
    if section.get("use_reference", True):
        link, data_rate, noise_dbm = linkbudget.reference_ber_distance_link()
    else:
        raw = section["link"]
        link = channel.LinkParams(**raw)
        data_rate = section["data_rate"]
        noise_dbm = section["noise_power_dbm"]
    d = np.logspace(math.log10(section.get("d_min", 100.0)),
                    math.log10(section.get("d_max", 10000.0)),
                    section.get("n", 200))
    formula = (linkbudget.BerFormula.PAPER_LITERAL if mode == "paper"
               else linkbudget.BerFormula.STANDARD)
    curve = linkbudget.ber_vs_distance(link, data_rate, noise_dbm, d,
                                       formula=formula)
    path = out / "berdist.csv"
    _write_csv(path, ["distance_m", "pr_dbm", "ebn0_db", "ber"],
               zip(curve["distance_m"], curve["pr_dbm"],
                   curve["ebn0_db"], curve["ber"]))
    return [path]


def run_network(config: dict, out: Path) -> list[Path]:
    section = _require(config, "network")
    outputs = []
    kind = network.TopologyKind(section.get("kind", "star"))
    n_uavs = section.get("n_uavs", 4)
    n_groups = section.get("n_groups", 1)
    link_range = section.get("link_range", 100.0)
    if "positions" in section:
        positions = {k: np.asarray(v, float)
                     for k, v in section["positions"].items()}
    else:
        rng = np.random.default_rng(derive_seed(config.get("seed", 0),
                                                "network"))
        positions = {network.GROUND_STATION_ID: np.zeros(3)}
        for i in range(n_uavs):
            positions[f"u{i}"] = rng.uniform(-link_range / 2, link_range / 2,
                                             size=3)
    graph = network.build_topology(kind, n_uavs, n_groups, link_range,
                                   positions)
    topo_payload = {
        "kind": graph.kind.value,
        "nodes": {n: graph.roles[n].value for n in graph.nodes},
        "edges": [[a, b, cost] for a, b, cost in graph.edges],
    }
    topo_path = out / "topology.json"
    topo_path.write_text(json.dumps(topo_payload, indent=2, sort_keys=True)
                         + "\n")
    outputs.append(topo_path)

    src = section.get("src", "u0")
    dst = section.get("dst", network.GROUND_STATION_ID)
    comparison = network.compare_propagation(graph, src, dst)
    cmp_path = out / "comparison.json"
    cmp_path.write_text(json.dumps(comparison, indent=2, sort_keys=True)
                        + "\n")
    outputs.append(cmp_path)

    if "apf" in section:
        a = section["apf"]
        fld = network.ObstacleField(
            goal=a.get("goal", (10.0, 0.0, 0.0)),
            obstacles=tuple((tuple(c), r) for c, r in a.get("obstacles", [])))
        trajectory, outcome = network.apf_plan(
            a.get("start", (0.0, 0.0, 0.0)), fld,
            attract_gain=a.get("attract_gain", 1.0),
            repel_gain=a.get("repel_gain", 100.0),
            influence_radius=a.get("influence_radius", 5.0),
            step=a.get("step", 0.05),
            max_steps=a.get("max_steps", 10000))
        apf_path = out / "apf_trajectory.csv"
        rows = []
        for k, p in enumerate(trajectory):
            pot = network._apf_potential(p, fld, a.get("attract_gain", 1.0),
                                         a.get("repel_gain", 100.0),
                                         a.get("influence_radius", 5.0))
            rows.append((k, p[0], p[1], p[2], pot))
        _write_csv(apf_path, ["step", "x", "y", "z", "potential"], rows)
        (out / "apf_outcome.json").write_text(
            json.dumps({"outcome": outcome.value}, indent=2) + "\n")
        outputs.extend([apf_path, out / "apf_outcome.json"])
    return outputs


# -------------------------------------------------------------------- main

_SUBCOMMANDS = ("dynamics", "wind", "optimize", "formation", "channel",
                "budget", "berdist", "network", "validate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmlink",
        description="Swarm-UAV flight, RF link and network simulator")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--mode", choices=("paper", "corrected"),
                        default="paper",
                        help="budget/berdist arithmetic mode")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        violations = validate_config(config)
        if args.subcommand == "validate":
            for v in violations:
                print(v)
            if violations:
                print(f"{len(violations)} violation(s)", file=sys.stderr)
                return EXIT_INVALID
            print("configuration valid")
            return EXIT_OK
        if violations:
            raise ConfigError(violations[0])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "dynamics":
            outputs = run_dynamics(config, out)
        elif args.subcommand == "wind":
            outputs = run_wind(config, out)
        elif args.subcommand == "optimize":
            outputs = run_optimize(config, out)
        elif args.subcommand == "formation":
            outputs = run_formation(config, out)
        elif args.subcommand == "channel":
            outputs = run_channel(config, out)
        elif args.subcommand == "budget":
            outputs = run_budget(config, out, args.mode)
        elif args.subcommand == "berdist":
            outputs = run_berdist(config, out, args.mode)
        else:
            outputs = run_network(config, out)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, network.TopologyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in outputs:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
