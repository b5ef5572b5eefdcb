"""Scenario runner: JSON config in, CSV/JSON data files out.

Subcommands map one-to-one onto the library modules. All randomness flows
from the single top-level ``seed``: each module derives its own stream
seed as the first 8 bytes of sha256("<seed>:<module tag>") so partial
reruns stay reproducible. Reruns with an identical config produce
byte-identical output files. No plots are rendered; the data files are
the contract. The config schema is :data:`DEFAULTS`.
"""
from __future__ import annotations

import argparse
import contextlib
import enum
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

import swarmlink   # its modules load on first use (swarmlink.<module>)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
_BLOCK_ROWS = 8192   # rows that _write_csv formats per write


class ConfigError(ValueError):
    """Invalid configuration; message names the field and constraint."""


def derive_seed(seed: int, tag: str) -> int:
    import hashlib   # loads OpenSSL, which validating never needs
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _write_csv(path: Path, header: list[str], *columns) -> Path:
    """Write ``columns`` (arrays, ranges or lists of Python values) under
    ``header``; a cell is str() of its Python value."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = (c[start:start + _BLOCK_ROWS] for c in columns)
            cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c)
                     for c in block]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def _write_json(path: Path, payload) -> Path:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _write_topology(path: Path, graph) -> Path:
    """Write ``graph``'s ``edges``, ``kind`` and ``nodes`` in the bytes
    of :func:`_write_json`, streaming the edges one node at a time."""
    ids = {n: json.dumps(n) for n in graph.adjacency}
    tail = json.dumps({"kind": graph.kind.value, "nodes": {
        n: graph.roles[n].value for n in graph.nodes}}, indent=2,
        sort_keys=True)
    sep = "\n"
    with path.open("w") as fh:
        fh.write('{\n  "edges": [')
        for a, later in graph.edges_by_node():
            if later:
                # json writes a finite float as its repr; every cost is a
                # Python float, finite as check_positions bounds distances
                head = f"    [\n      {ids[a]},\n      "
                fh.write(sep + ",\n".join([
                    f"{head}{ids[b]},\n      {cost!r}\n    ]"
                    for b, cost in later]))
                sep = ",\n"
        # tail[2:] drops the tail's own "{\n"
        fh.write(("],\n" if sep == "\n" else "\n  ],\n") + tail[2:] + "\n")
    return path


def _load_config(path: str, seed: int | None = None):
    """Read a scenario file and :func:`parse_config` it."""
    try:
        config = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"unreadable ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level must be an object")
    if seed is not None:
        config["seed"] = seed
    return parse_config(config)


# ------------------------------------------------------------------ schema
#
# DEFAULTS is the config schema: each field's default, written once, also
# gives the field's type.
#   bool, int, float, str  a JSON value of that type (float takes integers
#                          too); a bare type (``float``) has no default, and
#                          the section's build step says when it is needed
#   Enum member            one of the enum's values
#   tuple / dict           an array of that length / an object of these keys
#   dataclass instance     an object of the class's fields but ``seed``
#                          (every seed derives from the top-level one),
#                          applied with replace() so the class checks them
#   function               a parser: sections, arrays and maps
# _CHECKS holds the constraints that no library type checks. A section's
# schema is built, and its library module imported, only when the config
# holds the section.

_ABSENT = object()   # a field the config does not give
_JSON_TYPES = {bool: ("boolean", (bool,)), int: ("integer", (int,)),
               float: ("finite number", (int, float)), str: ("string", (str,))}


@contextlib.contextmanager
def _at(path: str):
    """Report a library ValueError raised inside as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _join(path: str, key: str) -> str:
    # repr() escapes line breaks in keys: every message stays one line
    return f"{path}.{repr(key)[1:-1]}".lstrip(".")


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name != "seed"}


def _object(value, schema: dict, path: str, unknown: list,
            errors: list | None = None) -> dict:
    """Merge an object; violations go to ``errors`` if given, else raise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: object required")
    unknown += [_join(path, key) for key in value if key not in schema]
    merged = {}
    for key, sub in schema.items():
        try:
            merged[key] = _merge(value.get(key, _ABSENT), sub,
                                 _join(path, key), unknown)
        except ConfigError as exc:
            if errors is None:
                raise
            errors.append(str(exc))
    return merged


def _merge(value, schema, path: str, unknown: list):
    """Check ``value`` against ``schema`` and fill in what it leaves out."""
    if callable(schema) and not isinstance(schema, type):
        return schema(value, path, unknown)
    if value is _ABSENT:
        return value if isinstance(schema, type) else schema
    if isinstance(schema, np.ndarray):
        schema = tuple(schema.tolist())
    if isinstance(schema, enum.Enum):
        choices = [member.value for member in type(schema)]
        if value not in choices:
            raise ConfigError(f"{path}: one of {', '.join(choices)}")
        return type(schema)(value)
    if isinstance(schema, tuple):
        if not isinstance(value, list) or len(value) != len(schema):
            raise ConfigError(f"{path}: array of {len(schema)} required")
        return tuple(_merge(v, s, f"{path}[{i}]", unknown)
                     for i, (v, s) in enumerate(zip(value, schema)))
    if isinstance(schema, dict):
        return _object(value, schema, path, unknown)
    if is_dataclass(schema):
        with _at(path):
            return replace(schema, **_object(value, _fields(schema), path,
                                             unknown))
    name, kinds = _JSON_TYPES[schema if isinstance(schema, type)
                              else type(schema)]
    if (not isinstance(value, kinds)
            or (isinstance(value, bool) and bool not in kinds)
            or (float in kinds and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{path}: {name} required")
    check = _CHECKS.get(path)
    if check and not check[0](value):
        raise ConfigError(f"{path}: {check[1]}")
    return value


def _section(schema, build=lambda section: section):
    """An object passed to ``build``, None when left out; ``schema()``
    builds its schema only when the config holds it."""
    def parse(value, path, unknown):
        if value is _ABSENT:
            return None
        with _at(path):
            return build(_object(value, schema(), path, unknown))
    return parse


def _many(item, default=_ABSENT, keyed=False):
    """An array, or with ``keyed`` an object, whose items match ``item``."""
    def parse(value, path, unknown):
        if value is _ABSENT:
            return default
        if not isinstance(value, dict if keyed else list):
            raise ConfigError(f"{path}: {'object' if keyed else 'array'} "
                              "required")
        merged = {k: _merge(v, item, _join(path, k) if keyed
                            else f"{path}[{k}]", unknown)
                  for k, v in (value.items() if keyed else enumerate(value))}
        return merged if keyed else list(merged.values())
    return parse


def _need(section: dict, path: str, *keys: str) -> None:
    for key in keys:
        if section[key] is _ABSENT:
            raise ConfigError(f"{path}.{key}: required")


def _given(section: dict) -> dict:
    """The fields of ``section`` that the config gives."""
    return {key: value for key, value in section.items()
            if value is not _ABSENT}


def _as_reference(path: str, given, reference) -> None:
    """Raise ConfigError naming the first value of ``given`` that differs
    from the ``reference`` value that ``use_reference`` puts in its place;
    values left out (_ABSENT or None) are not compared."""
    if is_dataclass(reference):
        given, reference = _fields(given), _fields(reference)
    if not isinstance(reference, dict):
        if given != reference:
            raise ConfigError(f"{path}: differs from the reference value "
                              "that use_reference: true puts in its place")
        return
    for key, value in reference.items():
        if given.get(key) is not None and given[key] is not _ABSENT:
            _as_reference(_join(path, key), given[key], value)


def _finite_at_ends(sweep: dict, path: str, whole: str, curves,
                    suspects=()) -> None:
    """Raise ConfigError naming the first array of the dict ``curves(d)``
    not finite at an end of the ``d_min``..``d_max`` sweep, and the first
    ``key`` of the ``(key, value)`` pairs ``suspects`` with which every
    array of ``curves(d, key=value)`` is; else the end, or ``whole``."""
    ends = np.logspace(math.log10(sweep["d_min"]), math.log10(sweep["d_max"]),
                       2)
    def finite(**given) -> dict:
        try:
            with np.errstate(all="ignore"):
                return {name: np.isfinite(values).reshape(-1, 2).all(axis=0)
                        for name, values in curves(ends, **given).items()}
        except OverflowError:   # a Python float of a propagation model
            return {"received power in dB": np.array([False, False])}
    for name, ok in finite().items():
        if not ok.all():
            bad = [end for end, fin in zip(("d_min", "d_max"), ok) if not fin]
            mended = (f"{path}.{key}" for key, value in suspects
                      if all(map(np.all, finite(**{key: value}).values())))
            key = next(mended, whole if len(bad) == 2 else f"{path}.{bad[0]}")
            raise ConfigError(f"{key}: {name} is not finite at "
                              + " and ".join(bad))


# Build steps: the library objects that span several fields.
def _wind(w: dict) -> dict:
    from . import wind
    spec = w["spec"] = wind.TurbulenceSpec(w["sigma"], w["length"], w["model"])
    spec.params_for(w["component"])
    spacing = w["sample_spacing"]
    with np.errstate(all="ignore"):
        ends = np.logspace(w["omega_log_min"], w["omega_log_max"], 2)
    # both densities with numpy overflow raised: at omega = 0 (sigma**2 *
    # length / pi), at the grid's ends, and times the synthesis gain
    for key, omega, gain in (
            ("sigma", 0.0, 1.0),
            *zip(("omega_log_min", "omega_log_max"), ends[:w["n_omega"]],
                 (1.0, 1.0)),
            ("sample_spacing", np.array([0.0, np.pi / spacing]),
             2.0 * np.pi / spacing)):
        fine = []
        for probe in (spec, replace(spec, length=_WIND_LENGTH)):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    values = [omega, *(psd(probe, w["component"], omega) * gain
                                       for psd in (wind.dryden_psd,
                                                   wind.von_karman_psd))]
            except (FloatingPointError, OverflowError):
                values = [math.inf]
            fine.append(np.isfinite(values).all())
        if not fine[0]:
            key = "length" if fine[1] else key
            raise ConfigError(f"wind.{key}: spectral density is not finite")
    return w


_OPTIMIZERS = ("pso", "gwo", "wpa")   # swarm_opt.<name>_optimize
_FITNESS = ("sphere", "rastrigin")    # swarm_opt.<name>
_SWARM_SIZES = ("n_particles", "n_wolves", "max_iters")   # else class defaults


def _optimize(o: dict) -> dict:
    from . import swarm_opt
    default = getattr(swarm_opt, f"{o['algorithm'].capitalize()}Config")()
    # one-dimensional, so that validating allocates nothing per ``dim``
    swarm_opt.SearchSpace(lower=o["lower"], upper=o["upper"])
    # at the box's farthest corner the fitness is dim equal terms; dim may
    # be an int too large for a float, so it is only compared
    far = max(("upper", "lower"), key=lambda k: abs(o[k]))
    with np.errstate(over="ignore"):
        term = getattr(swarm_opt, o["function"])(np.array([float(o[far])]))
    if not (term == 0 or o["dim"] <= sys.float_info.max / term):
        key = far if math.isinf(term) else "dim"
        raise ConfigError(f"optimize.{key}: {o['function']} is not finite at "
                          "the farthest corner of the box")
    sizes = _given({key: o[key] for key in _SWARM_SIZES})
    for key in sizes:
        if key not in _fields(default):
            raise ConfigError(f"optimize.{key}: not a setting of "
                              f"{o['algorithm']}")
    o["config"] = replace(default, **sizes)
    return o


def _formation(f: dict) -> dict:
    from .formation import RoleGraph
    _need(f, "formation", "root", "edges")
    f["roles"] = RoleGraph(root_id=f["root"], edges=tuple(f["edges"]))
    return f


_BUDGET_ITEMS = ("tx_items", "loss_items", "rx_items")
_BUDGET_FIGURES = ("noise_bandwidth_hz", "noise_figure_db", "rx_threshold_db")


def _channel(c: dict) -> dict:
    from . import channel
    for i, ebn0_db in enumerate(c["ebn0_db"]):
        with _at(f"channel.ebn0_db[{i}]"):
            channel.noise_sigma(ebn0_db)
    with _at("channel.constellation_ebn0_db"):
        channel.noise_sigma(c["constellation_ebn0_db"])
    models = (channel.friis_received_power, channel.two_ray_received_power)
    _finite_at_ends(c["sweep"], "channel.sweep", "channel.link", lambda d: {
        "received power in dB": [channel.watts_to_dbm(model(c["link"], d))
                                 for model in models]})
    return c


def _budget(b: dict) -> dict:
    from . import linkbudget
    if b["use_reference"]:
        reference = {"antenna": linkbudget.reference_antenna(),
                     **linkbudget.reference_ledger()}
        _as_reference("budget", b, reference)
        b.update(reference)
    _need(b, "budget", *_BUDGET_ITEMS, *_BUDGET_FIGURES)
    b["config"] = linkbudget.BudgetConfig(
        **{key: b[key] for key in (*_BUDGET_ITEMS, *_BUDGET_FIGURES)},
        printed_totals=b["printed_totals"] or {},
        text_values=b["text_values"] or {})
    # every figure is finite, but the totals built from them may not be;
    # AntennaSpec checks the antenna's derived values
    for mode in linkbudget.BudgetMode:
        budget = linkbudget.compute_budget(b["antenna"], b["config"], mode)
        try:
            json.dumps(_budget_json(b["antenna"], budget), allow_nan=False)
        except ValueError:
            raise ConfigError(f"budget: a total of the ledger is not finite "
                              f"in {mode.value} mode") from None
    return b


def _network(n: dict) -> dict:
    from . import network
    with _at("network.n_groups"):
        network.check_groups(n["kind"], n["n_uavs"], n["n_groups"])
    if n["positions"] is not None:
        # one is_node test per key: no id of the swarm is listed
        for key in n["positions"]:
            if not network.is_node(n["n_uavs"], key):
                raise ConfigError(
                    f"{_join('network.positions', key)}: unknown node")
        with _at("network.positions"):
            network.check_positions(n["n_uavs"], n["positions"])
    elif not math.isfinite(3.0 * n["link_range"] * n["link_range"]):
        # the seeded draw fills a cube of side link_range
        raise ConfigError("network.link_range: distances between the drawn "
                          "positions overflow")
    for key in ("src", "dst"):
        if not network.is_node(n["n_uavs"], n[key]):
            raise ConfigError(f"network.{key}: unknown node {n[key]!r}")
    return n


def _apf(a: dict) -> dict:
    from . import network
    a["field"] = network.ObstacleField(a["goal"], tuple(a["obstacles"]))
    with _at("network.apf.start"):
        a["field"].check_start(a["start"])
    overflow = network.gradient_overflow(
        a["field"], a["attract_gain"], a["repel_gain"], a["influence_radius"],
        a["step"])
    if overflow:
        raise ConfigError(f"network.apf.{overflow}: the gradient or a step "
                          "along it overflows where the gradient is largest")
    return a


def _berdist(b: dict) -> dict:
    from . import linkbudget
    ref = dict(zip(("link", "data_rate", "noise_power_dbm"),
                   linkbudget.reference_ber_distance_link()))
    if b["use_reference"]:
        _as_reference("berdist", b, ref)
        b.update(ref)
    _need(b, "berdist", "data_rate", "noise_power_dbm")
    with _at("berdist.noise_power_dbm"):
        linkbudget.dbm_to_watts(b["noise_power_dbm"])
    # names the first field whose reference value mends the berdist.csv curves
    _finite_at_ends(b, "berdist", "berdist", lambda d, **given: (
        linkbudget.ber_vs_distance(*({**b, **given}[k] for k in ref), d)),
        [(k, ref[k]) for k in ("data_rate", "noise_power_dbm", "link")])
    return b


_CHECKS = {"dt": (lambda dt: dt > 0, "must be > 0"),
           "duration": (lambda d: d >= 0, "must be >= 0"),
           "wind.n_samples": (lambda n: n >= 2 and not n & (n - 1),
                              "power of two >= 2 required"),
           "channel.n_bits": (lambda n: n >= 2 and not n % 2,
                              "even number >= 2 required"),
           "optimize.algorithm": (_OPTIMIZERS.__contains__,
                                  f"one of {', '.join(_OPTIMIZERS)}"),
           "optimize.function": (_FITNESS.__contains__,
                                 f"one of {', '.join(_FITNESS)}"),
           **dict.fromkeys(("channel.sweep.d_min", "channel.sweep.d_max",
                            "berdist.d_min", "berdist.d_max",
                            "berdist.data_rate"),
                           (lambda d: d > 0, "must be > 0")),
           # the build step checks a one-dimensional box, not ``dim``
           **dict.fromkeys(("optimize.dim", "network.n_uavs",
                            "network.n_groups"),
                           (lambda n: n >= 1, "must be >= 1")),
           **dict.fromkeys(("network.link_range", "network.apf.step",
                            "network.apf.influence_radius",
                            "wind.sample_spacing"),
                           (lambda x: x > 0, "must be > 0")),
           **dict.fromkeys(("wind.n_omega", "channel.sweep.n", "berdist.n",
                            "network.apf.max_steps"),
                           (lambda n: n >= 0, "must be >= 0"))}
_MAX_STEPS = np.iinfo(np.intp).max   # ticks of dynamics and formation
_VEC3 = (0.0, 0.0, 0.0)
_WIND_LENGTH = (200.0, 200.0, 50.0)   # m; a wind probe they pass names them


def _uav():
    return swarmlink.dynamics.UavParams(mass=1.0, thrust_coeff=1e-5)


def _link():
    return swarmlink.channel.LinkParams(tx_power=50.0, wavelength=0.125,
                                        distance=2000.0)


DEFAULTS = {
    "seed": 0, "dt": 0.01, "duration": 10.0,
    "dynamics": _section(lambda: {
        "params": _uav(),
        "gains": swarmlink.dynamics.PidGains(kp=4.0, kd=4.0),
        "initial_position": _VEC3, "target_position": (1.0, 0.0, 0.0)}),
    "wind": _section(lambda: {
        "sigma": (1.0, 1.0, 1.0), "length": _WIND_LENGTH,
        "model": swarmlink.wind.TurbulenceModel.DRYDEN, "component": "u",
        "omega_log_min": -4.0, "omega_log_max": 1.0, "n_omega": 200,
        "sample_spacing": 1.0, "n_samples": 4096}, _wind),
    "optimize": _section(lambda: {
        "algorithm": "pso", "function": "sphere", "dim": 10, "lower": -5.0,
        "upper": 5.0, **dict.fromkeys(_SWARM_SIZES, int)}, _optimize),
    "formation": _section(lambda: {
        "root": str,
        "edges": _many((str, str, swarmlink.formation.FormationSpec(
            swarmlink.formation.FormationMode.FIXED_GLOBAL_DIFFERENCE,
            _VEC3))),
        "leader_start": (0.0, 0.0, 10.0), "leader_velocity": (0.5, 0.0, 0.0),
        "gains": swarmlink.dynamics.PidGains(kp=16.0, kd=8.0),
        "params": _uav()}, _formation),
    "channel": _section(lambda: {
        "link": _link(), "fading": swarmlink.channel.FadingParams(),
        "ebn0_db": _many(0.0, [0, 2, 4, 6, 8]), "n_bits": 100000,
        "constellation_ebn0_db": 10.0, "sweep": {
            "d_min": 10.0, "d_max": 100000.0, "n": 500}}, _channel),
    # without use_reference, the ledger is required; with it, a given value
    # must equal the reference value that replaces it
    "budget": _section(lambda: {
        "use_reference": True,
        "antenna": swarmlink.linkbudget.reference_antenna(),
        **dict.fromkeys(_BUDGET_ITEMS, _many((str, float))),
        **dict.fromkeys(_BUDGET_FIGURES, float),
        # only the keys that compute_budget reads
        "printed_totals": _section(lambda: dict.fromkeys(
            swarmlink.linkbudget.PRINTED_TOTALS, float), _given),
        "text_values": _section(lambda: dict.fromkeys(
            swarmlink.linkbudget.TEXT_VALUES, float), _given)}, _budget),
    "berdist": _section(lambda: {
        "use_reference": True, "link": _link(), "data_rate": float,
        "noise_power_dbm": float, "d_min": 100.0, "d_max": 10000.0,
        "n": 200}, _berdist),
    "network": _section(lambda: {
        "kind": swarmlink.network.TopologyKind.STAR, "n_uavs": 4,
        "n_groups": 1, "link_range": 100.0, "src": "u0",
        "dst": swarmlink.network.GROUND_STATION_ID,
        "positions": _many(_VEC3, None, keyed=True),   # None: seeded draw
        "apf": _section(lambda: {
            "start": _VEC3, "goal": (10.0, 0.0, 0.0),
            "obstacles": _many((_VEC3, 1.0), []), "attract_gain": 1.0,
            "repel_gain": 100.0, "influence_radius": 5.0, "step": 0.05,
            "max_steps": 10000}, _apf)}, _network),
}


def parse_config(config: dict) -> tuple[dict, list[str], list[str]]:
    """Merge ``config`` onto :data:`DEFAULTS`: ``(scenario, violations,
    unknown keys)``. Sections left out are None."""
    violations, unknown = [], []
    scenario = _object(config, DEFAULTS, "", unknown, violations)
    steps = scenario.get("duration", 0) / scenario.get("dt", math.inf)
    if not steps <= _MAX_STEPS:
        violations.append(f"duration: duration / dt is over {_MAX_STEPS}")
    if (scenario.get("dynamics") or scenario.get("formation")) and not \
            scenario.get("dt", 0) < swarmlink.formation.MAX_DT:
        violations.append(f"dt: must be < {swarmlink.formation.MAX_DT:.6g} "
                          "for dynamics and formation, where the attitude "
                          "loop diverges at larger steps")
    stochastic = [s for s in ("wind", "optimize", "channel") if s in config]
    if stochastic and "seed" not in config:
        violations.append(f"seed: integer required by sections {stochastic}")
    return scenario, violations, unknown


def validate_config(config: dict) -> list[str]:
    """Every violation in ``config``; empty when it is valid."""
    return parse_config(config)[1]


# ------------------------------------------------------------- subcommands
# run_<name> runs the scenario's <name> section and writes into ``out``.

def run_dynamics(scenario: dict, out: Path) -> list[Path]:
    from . import simulate
    from .dynamics import UavState
    from .formation import Pose
    section = scenario["dynamics"]
    times, positions = simulate.simulate_position_hold(
        UavState.at_rest(section["initial_position"]),
        Pose(position=section["target_position"]), section["gains"],
        section["params"], scenario["dt"], scenario["duration"])
    return [_write_csv(out / "flight_trace.csv", ["t", "x", "y", "z"],
                       times, *positions.T)]


def run_wind(scenario: dict, out: Path) -> list[Path]:
    from . import wind
    section = scenario["wind"]
    spec, component = section["spec"], section["component"]
    omega = np.logspace(section["omega_log_min"], section["omega_log_max"],
                        section["n_omega"])
    series = wind.synthesize_turbulence(
        spec, component, section["sample_spacing"], section["n_samples"],
        derive_seed(scenario["seed"], "wind"))
    return [_write_csv(out / "psd.csv", ["omega", "dryden", "von_karman"],
                       omega, wind.dryden_psd(spec, component, omega),
                       wind.von_karman_psd(spec, component, omega)),
            _write_csv(out / "series.csv", ["index", "gust"],
                       range(len(series)), series)]


def run_optimize(scenario: dict, out: Path) -> list[Path]:
    from . import swarm_opt
    section = scenario["optimize"]
    algorithm, dim = section["algorithm"], section["dim"]
    space = swarm_opt.SearchSpace(lower=np.full(dim, section["lower"]),
                                  upper=np.full(dim, section["upper"]))
    config = replace(section["config"], seed=derive_seed(
        scenario["seed"], f"optimize:{algorithm}"))
    run = getattr(swarm_opt, f"{algorithm}_optimize")(
        getattr(swarm_opt, section["function"]), space, config)
    return [_write_csv(out / f"convergence_{algorithm}.csv",
                       ["iteration", "best_value"], range(len(run.trace)),
                       run.trace)]


def run_formation(scenario: dict, out: Path) -> list[Path]:
    from . import simulate
    from .dynamics import UavState
    section = scenario["formation"]
    roles = section["roles"]
    leader_path = simulate.straight_line_leader(section["leader_start"],
                                                section["leader_velocity"])
    initial = {follower: UavState.at_rest(position) for follower, position
               in zip(roles.followers, roles.targets(leader_path(0.0))[0])}
    trace = simulate.simulate_formation(
        leader_path, roles, initial, section["gains"], section["params"],
        scenario["dt"], scenario["duration"])
    ids = [roles.root_id, *sorted(trace.follower_positions)]
    positions = np.stack([trace.leader_positions, *(
        trace.follower_positions[f] for f in ids[1:])], axis=1)
    return [_write_csv(out / "poses.csv", ["t", "id", "x", "y", "z"],
                       np.repeat(trace.times, len(ids)),
                       ids * len(trace.times), *positions.reshape(-1, 3).T)]


def run_channel(scenario: dict, out: Path) -> list[Path]:
    from . import channel
    section = scenario["channel"]
    link, sweep = section["link"], section["sweep"]
    d = np.logspace(math.log10(sweep["d_min"]), math.log10(sweep["d_max"]),
                    sweep["n"])
    sweep_path = _write_csv(
        out / "power_sweep.csv", ["d", "pr_friis_dbm", "pr_tworay_dbm"], d,
        channel.watts_to_dbm(channel.friis_received_power(link, d)),
        channel.watts_to_dbm(channel.two_ray_received_power(link, d)))
    fading = replace(section["fading"],
                     seed=derive_seed(scenario["seed"], "channel"))
    ebn0 = section["ebn0_db"]
    mc = [channel.ber_monte_carlo(fading, e, section["n_bits"]) for e in ebn0]
    ber_path = _write_csv(
        out / "ber.csv", ["ebn0_db", "ber_theory", "ber_mc", "n_errors"],
        ebn0, [float(channel.ber_qpsk_theoretical(fading, e)) for e in ebn0],
        [ber for ber, _ in mc], [n for _, n in mc])
    const_bits = np.random.default_rng(fading.seed).integers(0, 2, size=1024)
    symbols = channel.qpsk_modulate(const_bits)
    received = channel.apply_channel(symbols, fading,
                                     section["constellation_ebn0_db"])
    return [sweep_path, ber_path,
            _write_csv(out / "constellation.csv", ["i", "q"], received.real,
                       received.imag)]


def _budget_report_text(budget) -> str:
    def row(label, value, unit="dB"):
        return f"  {label:<24}{value:>10.3f} {unit}"

    lines = [f"LINK BUDGET ({budget.mode.value} mode)", ""]
    for title, items, label, total in (
            ("Transmit", budget.tx_items, "EIRP", budget.eirp_db),
            ("Losses", budget.loss_items, "Total Path Loss",
             budget.total_path_loss_db),
            ("Receive", budget.rx_items, "Total Rx Gain",
             budget.total_rx_gain_db)):
        lines += [title, *(row(i.label, i.value_db) for i in items),
                  row(label, total), ""]
    lines += [row("RSL", budget.rsl_db),
              row("Noise Figure", budget.noise_figure_db),
              row("Total Noise Power", budget.noise_power_dbm, "dBm"),
              row("Threshold Rx", budget.rx_threshold_db),
              row("Link Margin", budget.link_margin_db)]
    if budget.discrepancies:
        lines += ["", "Discrepancies:",
                  *(f"  {disc}" for disc in budget.discrepancies)]
    return "\n".join(lines) + "\n"


def _budget_json(antenna, budget) -> dict:
    """The payload of budget.json."""
    from . import linkbudget
    rho = linkbudget.vswr_to_reflection(antenna.vswr)
    payload = {key: getattr(budget, key) for key in (
        "eirp_db", "total_path_loss_db", "total_rx_gain_db", "rsl_db",
        "noise_figure_db", "noise_power_dbm", "rx_threshold_db",
        "link_margin_db")}
    payload.update(
        mode=budget.mode.value,
        derived={"reflection_coefficient": rho,
                 "incident_power_w": linkbudget.incident_power(
                     antenna.input_power, rho),
                 "output_impedance_ohm": linkbudget.output_impedance(
                     rho, antenna.input_impedance)},
        discrepancies=[asdict(d) for d in budget.discrepancies])
    return payload


def run_budget(scenario: dict, out: Path) -> list[Path]:
    from . import linkbudget
    section = scenario["budget"]
    budget = linkbudget.compute_budget(section["antenna"], section["config"],
                                       linkbudget.BudgetMode(scenario["mode"]))
    report_path = out / "budget_report.txt"
    report_path.write_text(_budget_report_text(budget))
    return [report_path, _write_json(out / "budget.json",
                                     _budget_json(section["antenna"], budget))]


def run_berdist(scenario: dict, out: Path) -> list[Path]:
    from . import linkbudget
    section = scenario["berdist"]
    d = np.logspace(math.log10(section["d_min"]),
                    math.log10(section["d_max"]), section["n"])
    curve = linkbudget.ber_vs_distance(
        section["link"], section["data_rate"], section["noise_power_dbm"], d,
        linkbudget.BudgetMode(scenario["mode"]))
    columns = ["distance_m", "pr_dbm", "ebn0_db", "ber"]
    return [_write_csv(out / "berdist.csv", columns,
                       *(curve[c] for c in columns))]


def run_network(scenario: dict, out: Path) -> list[Path]:
    from . import network
    section = scenario["network"]
    n_uavs, link_range = section["n_uavs"], section["link_range"]
    positions = section["positions"]
    if positions is None:
        rng = np.random.default_rng(derive_seed(scenario["seed"], "network"))
        positions = {network.GROUND_STATION_ID: np.zeros(3), **{
            f"u{i}": rng.uniform(-link_range / 2, link_range / 2, size=3)
            for i in range(n_uavs)}}
    graph = network.build_topology(section["kind"], n_uavs,
                                   section["n_groups"], link_range, positions)
    outputs = [
        _write_topology(out / "topology.json", graph),
        _write_json(out / "comparison.json", network.compare_propagation(
            graph, section["src"], section["dst"]))]
    a = section["apf"]
    if a is not None:
        gains = (a["attract_gain"], a["repel_gain"], a["influence_radius"])
        trajectory, outcome = network.apf_plan(
            a["start"], a["field"], *gains, step=a["step"],
            max_steps=a["max_steps"])
        potential = network._apf_potential(trajectory, a["field"], *gains)
        outputs += [_write_csv(out / "apf_trajectory.csv",
                               ["step", "x", "y", "z", "potential"],
                               range(len(trajectory)), *trajectory.T,
                               potential),
                    _write_json(out / "apf_outcome.json",
                                {"outcome": outcome.value})]
    return outputs


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmlink",
        description="Swarm-UAV flight, RF link and network simulator")
    parser.add_argument("subcommand", choices=[
        *(name[4:] for name in globals() if name.startswith("run_")),
        "validate"])
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--mode", choices=("paper", "corrected"),
                        default="paper", help="budget/berdist arithmetic mode")
    args = parser.parse_args(argv)

    try:
        scenario, violations, unknown = _load_config(args.config, args.seed)
        if violations:
            if args.subcommand == "validate":
                print("\n".join(violations))
            raise ConfigError(violations[0])
        for key in unknown:
            print(f"warning: config: {key}: unknown key, ignored",
                  file=sys.stderr)
        if args.subcommand == "validate":
            print("configuration valid")
            return EXIT_OK
        if scenario[args.subcommand] is None:
            raise ConfigError(f"{args.subcommand}: section required")
        scenario["mode"] = args.mode
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so that a wrapped runner is the one run
        outputs = globals()[f"run_{args.subcommand}"](scenario, out)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in outputs:
        print(path)
    return EXIT_OK


def __getattr__(name: str):
    # the benchmark's tracer (bench/inproc.py) wraps cli.formation_targets;
    # no code of the program reads it
    if name == "formation_targets":
        return swarmlink.formation.formation_targets
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
