"""Workload definitions: seeded scenario generators and the CLI invocations
run on them.

Every workload is a list of operations. One operation is one
``swarmlink <subcommand> --config <file>`` invocation; a round runs every
operation of the workload once, in order. Configs are generated from the
workload seed only, so the same seed always gives byte-identical configs.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_CONFIG = Path("configs/reference.json")

# Gains of the committed reference scenario; the formation check derives
# the ramp lag kd*|v|/kp from whatever the config holds.
FORMATION_GAINS = {"kp": 36.0, "kd": 9.0}
HOLD_GAINS = {"kp": 16.0, "kd": 8.0}
UAV_PARAMS = {"mass": 1.0, "thrust_coeff": 1e-05}

N_FIRST_LEVEL = 8          # followers of the leader
N_SECOND_LEVEL = 7         # followers of each first-level follower
FORMATION_DURATION = 4.0   # s; every follower settles to its PD lag
WIND_SAMPLES = 2 ** 17
WIND_OMEGA_GRID = {"omega_log_min": -4.0, "omega_log_max": 1.0,
                   "n_omega": 200}
# Transverse Von Karman gusts. The program's v/w Von Karman density has a
# known fault (checks.VON_KARMAN_VW_CAUSE) that fails this operation on
# every input, so its inputs are fixed rather than drawn from the seed.
VON_KARMAN_W_CONFIG = {
    "seed": 1,
    "wind": {"sigma": [1.0, 1.0, 0.7], "length": [200.0, 200.0, 150.0],
             "model": "von_karman", "component": "w", "sample_spacing": 1.0,
             "n_samples": 2 ** 16, **WIND_OMEGA_GRID},
}
DENSE_UAVS = 600
LATTICE_SHAPE = (30, 20)   # 600 UAVs
APF_OBSTACLES = 60
APF_NEAR_PATH = 4
APF_PATH_LENGTH = 190.0    # m


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    name: str              # unique within the workload, names the out dir
    subcommand: str
    config: str            # config file name inside the workload's config dir
    mode: str | None = None

    def argv(self, config_dir: Path, out_dir: Path) -> list[str]:
        args = [self.subcommand, "--config", str(config_dir / self.config)]
        if self.subcommand != "validate":
            args += ["--out", str(out_dir)]
        if self.mode is not None:
            args += ["--mode", self.mode]
        return args


@dataclass(frozen=True)
class Workload:
    configs: dict          # file name -> config dict
    ops: tuple
    setup_config: str      # config that the cold ``validate`` of setup_s reads


def _r(x, nd=6):
    """Round generated numbers so configs stay short and readable."""
    if np.ndim(x):
        return [round(float(v), nd) for v in x]
    return round(float(x), nd)


# ---------------------------------------------------------------- reference

def reference_config() -> dict:
    """The committed paper scenario, which the self-test runs through every
    subcommand.

    The checked fields that the committed file leaves to the CLI's defaults
    are written out with those default values, so the scenario is the
    same and every input the checks read is explicit.
    """
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["wind"] = {**WIND_OMEGA_GRID, **config["wind"]}
    config["channel"]["link"] = {"tx_gain": 1.0, "rx_gain": 1.0,
                                 **config["channel"]["link"]}
    return config


# ------------------------------------------------------------- swarm-flight

def _formation_config(rng: np.random.Generator, seed: int) -> dict:
    speed = rng.uniform(0.3, 0.6)
    course = rng.uniform(-math.pi, math.pi)
    velocity = [speed * math.cos(course), speed * math.sin(course), 0.0]
    start = [rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(10, 30)]
    edges = []

    def offset(r_lo, r_hi):
        r, a = rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi)
        return _r([r * math.cos(a), r * math.sin(a), rng.uniform(-2, 2)])

    for i in range(N_FIRST_LEVEL):
        mode = "fgd" if i % 2 == 0 else "df"
        edges.append(["leader", f"a{i}", {"mode": mode,
                                          "offset": offset(10, 20)}])
        for j in range(N_SECOND_LEVEL):
            spec = {"mode": "df" if (i + j) % 2 else "fgd",
                    "offset": offset(2, 6)}
            if spec["mode"] == "df":
                spec["relative_heading"] = 0.0
            edges.append([f"a{i}", f"b{i}_{j}", spec])
    return {
        "seed": seed, "dt": 0.01, "duration": FORMATION_DURATION,
        "formation": {"root": "leader", "edges": edges,
                      "leader_start": _r(start),
                      "leader_velocity": _r(velocity),
                      "gains": dict(FORMATION_GAINS),
                      "params": dict(UAV_PARAMS)},
    }


def _hold_config(rng: np.random.Generator, seed: int) -> dict:
    initial = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20),
                        rng.uniform(0, 20)])
    step = rng.uniform(-3, 3, size=3)
    return {
        "seed": seed, "dt": 0.01, "duration": 10.0,
        "dynamics": {"params": dict(UAV_PARAMS), "gains": dict(HOLD_GAINS),
                     "initial_position": _r(initial),
                     "target_position": _r(initial + step)},
    }


def _wind_config(rng: np.random.Generator, seed: int) -> dict:
    """Longitudinal gusts; the transverse ones are VON_KARMAN_W_CONFIG."""
    return {
        "seed": seed,
        "wind": {"sigma": _r(rng.uniform(0.5, 2.0, size=3)),
                 "length": _r(rng.uniform(100, 300, size=3)),
                 "model": ["dryden", "von_karman"][int(rng.integers(2))],
                 "component": "u",
                 "sample_spacing": _r(rng.uniform(0.5, 2.0)),
                 "n_samples": WIND_SAMPLES, **WIND_OMEGA_GRID},
    }


def swarm_flight(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    configs = {"formation.json": _formation_config(rng, seed),
               "hold.json": _hold_config(rng, seed),
               "wind.json": _wind_config(rng, seed),
               "wind-vk-w.json": copy.deepcopy(VON_KARMAN_W_CONFIG)}
    ops = (Op("formation", "formation", "formation.json"),
           Op("dynamics", "dynamics", "hold.json"),
           Op("wind", "wind", "wind.json"),
           Op("wind-vk-w", "wind", "wind-vk-w.json"))
    return Workload(configs, ops, "formation.json")


# ------------------------------------------------------------ swarm-network

def _apf_section(rng: np.random.Generator) -> dict:
    """Obstacle field inside the planner's +-100 m box.

    Most obstacles sit farther than radius + influence radius from the
    straight start-goal segment; a few sit beside it, close enough to
    deflect the path but clear of the straight line. Start and goal are
    always APF_PATH_LENGTH apart, so every seed plans a path of about the
    same number of steps.
    """
    influence = 5.0
    heading = rng.uniform(0.5, 0.8)
    half = 0.5 * APF_PATH_LENGTH * np.array([math.cos(heading),
                                             math.sin(heading), 0.0])
    start, goal = -half, half
    axis = (goal - start) / np.linalg.norm(goal - start)
    side = np.array([-axis[1], axis[0], 0.0]) / math.hypot(axis[0], axis[1])

    def segment_distance(p):
        t = np.clip(np.dot(p - start, axis), 0.0, np.linalg.norm(goal - start))
        return float(np.linalg.norm(p - (start + t * axis)))

    obstacles = []
    length = float(np.linalg.norm(goal - start))
    for k in range(APF_NEAR_PATH):
        radius = rng.uniform(2.0, 4.0)
        along = (0.2 + 0.6 * (k + rng.uniform(0.2, 0.8)) / APF_NEAR_PATH)
        sign = 1.0 if k % 2 == 0 else -1.0
        center = (start + along * length * axis
                  + sign * (radius + rng.uniform(2.0, 3.0)) * side)
        obstacles.append([_r(center), _r(radius)])
    while len(obstacles) < APF_OBSTACLES:
        radius = rng.uniform(1.0, 5.0)
        center = np.array([rng.uniform(-95, 95), rng.uniform(-95, 95),
                           rng.uniform(-20, 20)])
        if segment_distance(center) > radius + influence + 2.0:
            obstacles.append([_r(center), _r(radius)])
    return {"start": _r(start), "goal": _r(goal), "obstacles": obstacles,
            "attract_gain": 1.0, "repel_gain": 50.0,
            "influence_radius": influence, "step": 0.1, "max_steps": 20000}


def _dense_config(rng: np.random.Generator, seed: int) -> dict:
    positions = {"gs": [-10.0, -10.0, 0.0]}
    for i in range(DENSE_UAVS):
        positions[f"u{i}"] = _r(rng.uniform(0.0, 100.0, size=3), 4)
    return {"seed": seed, "network": {
        "kind": "single_group", "n_uavs": DENSE_UAVS, "n_groups": 1,
        "link_range": 100.0, "positions": positions,
        "src": f"u{int(rng.integers(1, DENSE_UAVS))}", "dst": "gs",
        "apf": _apf_section(rng)}}


def _lattice_config(rng: np.random.Generator, seed: int) -> dict:
    """Jittered 30 x 20 lattice at 10 m spacing with a 14.5 m link range:
    every lattice neighbour is in range, some diagonals are, nothing
    farther is. u0 sits at one corner next to the ground station and the
    source at the opposite corner."""
    nx, ny = LATTICE_SHAPE
    spacing, jitter = 10.0, 1.5
    positions = {"gs": [-10.0, -10.0, 0.0]}
    for j in range(ny):
        for i in range(nx):
            p = [i * spacing + rng.uniform(-jitter, jitter),
                 j * spacing + rng.uniform(-jitter, jitter),
                 20.0 + rng.uniform(-1.0, 1.0)]
            positions[f"u{j * nx + i}"] = _r(p, 4)
    return {"seed": seed, "network": {
        "kind": "single_group", "n_uavs": nx * ny, "n_groups": 1,
        "link_range": 1.45 * spacing, "positions": positions,
        "src": f"u{nx * ny - 1}", "dst": "gs",
        "apf": _apf_section(rng)}}


def swarm_network(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    configs = {"dense.json": _dense_config(rng, seed),
               "lattice.json": _lattice_config(rng, seed)}
    ops = (Op("network-dense", "network", "dense.json"),
           Op("network-lattice", "network", "lattice.json"))
    return Workload(configs, ops, "dense.json")


# --------------------------------------------------------------- stochastic

OPTIMIZERS = {           # algorithm -> (population key, population, iters)
    "pso": ("n_particles", 40, 600),
    "gwo": ("n_wolves", 30, 400),
    "wpa": ("n_wolves", 20, 200),
}


def _link(rng: np.random.Generator) -> dict:
    return {"tx_power": _r(rng.uniform(10.0, 50.0)),
            "wavelength": _r(rng.uniform(0.1, 0.15)),
            "distance": 2000.0,
            "tx_gain": _r(rng.uniform(1.0, 2.0)),
            "rx_gain": _r(rng.uniform(1.0, 2.0))}


def stochastic(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    configs, ops = {}, []
    for function in ("sphere", "rastrigin"):
        for algorithm, (key, population, iters) in OPTIMIZERS.items():
            name = f"optimize-{algorithm}-{function}"
            configs[f"{name}.json"] = {"seed": seed, "optimize": {
                "algorithm": algorithm, "function": function, "dim": 10,
                "lower": -5.0, "upper": 5.0, key: population,
                "max_iters": iters}}
            ops.append(Op(name, "optimize", f"{name}.json"))
    link = _link(rng)
    link.update(tx_height=_r(rng.uniform(5.0, 50.0)),
                rx_height=_r(rng.uniform(5.0, 50.0)),
                ground_reflection=_r(rng.uniform(-1.0, -0.5)))
    configs["channel.json"] = {"seed": seed, "channel": {
        "link": link,
        "fading": {"kind": "rayleigh"},
        "ebn0_db": [0, 2, 4, 6, 8],
        "n_bits": 2_000_000,
        "constellation_ebn0_db": 10.0,
        "sweep": {"d_min": 10.0, "d_max": 100000.0, "n": 20000}}}
    ops.append(Op("channel", "channel", "channel.json"))
    configs["berdist.json"] = {"seed": seed, "berdist": {
        "use_reference": False, "link": _link(rng),
        "data_rate": _r(rng.uniform(0.5e6, 2e6), 0),
        "noise_power_dbm": _r(rng.uniform(-125.0, -115.0)),
        "d_min": 100.0, "d_max": 20000.0, "n": 30000}}
    ops.append(Op("berdist-paper", "berdist", "berdist.json", "paper"))
    ops.append(Op("berdist-corrected", "berdist", "berdist.json",
                  "corrected"))
    # The paper's own link budget, in the paper's arithmetic; the CLI takes
    # no other inputs for it. The self-test covers the corrected mode.
    configs["budget.json"] = {"seed": seed, "budget": {"use_reference": True}}
    ops.append(Op("budget-paper", "budget", "budget.json", "paper"))
    return Workload(configs, tuple(ops), "channel.json")


WORKLOADS = {"swarm-flight": swarm_flight, "swarm-network": swarm_network,
             "stochastic": stochastic}


def build(name: str, seed: int, config_dir: Path) -> Workload:
    """Generate the workload's configs and write them into ``config_dir``."""
    workload = WORKLOADS[name](seed)
    config_dir.mkdir(parents=True, exist_ok=True)
    for file_name, config in workload.configs.items():
        (config_dir / file_name).write_text(json.dumps(config, indent=1)
                                            + "\n")
    return workload
