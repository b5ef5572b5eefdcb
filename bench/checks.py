"""Independent checks of the files each swarmlink subcommand writes.

Every value check compares an output against a computation made here
(closed forms, brute force, an independent graph search) or against a
property the method must have. None compares against a saved copy of
earlier output.

``check_op`` returns two lists for one invocation's output directory:

* faults: breaches of the README's file contract (a header row and
  numbers written in shortest round-trip form), and the known fault of
  the transverse Von Karman density (``VON_KARMAN_VW_CAUSE``). They make
  the operation count as failed.
* value problems: wrong numbers. They make the whole run incorrect.

The value checks read numbers through ``number``, which also accepts the
``np.float64(x)`` spelling, so they keep checking files that break the
contract.

    python3 bench/checks.py < JOBS.json

reads a list of ``{"name", "subcommand", "mode", "config", "out"}`` and
prints ``{name: {"faults": [...], "problems": [...]}}``.
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

_INT = re.compile(r"-?(0|[1-9][0-9]*)")
_NP_WRAPPED = re.compile(r"np\.float64\((.*)\)")

NP_FLOAT64_CAUSE = "np.float64(...) repr written by cli._fmt"

# Built-in scenario of ``budget``/``berdist`` with ``use_reference``: the
# source paper's link budget and its BER-vs-distance link.
PAPER_BUDGET = {"eirp_db": 18.789, "noise_power_dbm": -93.18,
                "rsl_db": -81.771, "link_margin_db": 6.229}
PAPER_NOISE_BANDWIDTH_HZ = 25e6
PAPER_OPERATIONAL_TEMP_K = 358.0
PAPER_STANDARD_TEMP_K = 298.0
PAPER_BERDIST_LINK = {"tx_power": 50.0, "wavelength": 0.125,
                      "tx_gain": 1.0, "rx_gain": 1.0}
PAPER_BERDIST_RATE = 1e6
PAPER_BERDIST_NOISE_DBM = -120.0

VON_KARMAN_A = 1.339
VON_KARMAN_VW_CAUSE = ("wind.von_karman_psd: v/w denominator (1 + 2a*L^2*W^2)"
                       " instead of (1 + (2a*L*W)^2), so the density "
                       "integrates to 3.83 sigma^2")
DENSITY_INTEGRAL_RTOL = 0.05
BINOMIAL_Z = 6.0           # half-width of the Monte Carlo bands, in sigmas
WELCH_Z = 6.0
MAX_FOLLOWER_ACCEL = 30.0  # m/s^2; thrust-limited flight stays far below
# acceptance criterion 11: best value reached on the sphere
SPHERE_TOLERANCE = {"pso": 1e-3, "gwo": 1e-3, "wpa": 1e-2}


class Table:
    """A CSV file as header plus raw string fields."""

    def __init__(self, path: Path):
        self.path = path
        lines = path.read_text().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        self.header = lines[0].split(",") if lines else []
        self.rows = [line.split(",") for line in lines[1:]]

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def numbers(self, name: str) -> np.ndarray:
        return np.array([number(v) for v in self.column(name)])


def number(field: str) -> float:
    wrapped = _NP_WRAPPED.fullmatch(field)
    return float(wrapped.group(1) if wrapped else field)


def contract_faults(table: Table, header: list[str],
                    text_columns=()) -> list[str]:
    """README contract: the stated header and plain shortest-repr numbers."""
    name = table.path.name
    if table.header != header:
        return [f"{name}: header {table.header} != {header}"]
    bad = [row for row in table.rows if len(row) != len(header)]
    if bad:
        return [f"{name}: {len(bad)} rows without {len(header)} fields"]
    wrapped = other = 0
    example = None
    numeric = [i for i, h in enumerate(header) if h not in text_columns]
    for row in table.rows:
        for i in numeric:
            field = row[i]
            if _INT.fullmatch(field):
                continue
            try:
                if repr(float(field)) == field:
                    continue
            except ValueError:
                pass
            if _NP_WRAPPED.fullmatch(field):
                wrapped += 1
            else:
                other += 1
            example = example or field
    faults = []
    if wrapped:
        faults.append(f"{name}: {wrapped} fields like {example!r}: "
                      f"{NP_FLOAT64_CAUSE}")
    if other:
        faults.append(f"{name}: {other} fields not in shortest round-trip "
                      f"form, e.g. {example!r}")
    return faults


class Report:
    """Collects contract faults and value problems for one operation."""

    def __init__(self, out: Path):
        self.out = out
        self.faults: list[str] = []
        self.problems: list[str] = []

    def table(self, file_name: str, header: list[str],
              text_columns=()) -> Table | None:
        path = self.out / file_name
        if not path.is_file():
            self.problems.append(f"{file_name}: missing")
            return None
        table = Table(path)
        self.faults += contract_faults(table, header, text_columns)
        if table.header != header:
            return None
        return table

    def load_json(self, file_name: str):
        path = self.out / file_name
        if not path.is_file():
            self.problems.append(f"{file_name}: missing")
            return None
        return json.loads(path.read_text())

    def expect(self, ok, message: str):
        if not ok:
            self.problems.append(message)

    def close(self, file_name: str, what: str, got, want, rtol=1e-9,
              atol=0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{file_name}: {what} has shape {got.shape},"
                                 f" expected {want.shape}")
            return
        bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            self.problems.append(
                f"{file_name}: {what} differs at row {i}: "
                f"{float(got.flat[i])!r} != {float(want.flat[i])!r} "
                f"({int(bad.sum())} rows)")


def _steps(config: dict) -> int:
    return int(round(config["duration"] / config["dt"]))


# ------------------------------------------------------------------ flight

def check_dynamics(config: dict, rep: Report):
    section = config["dynamics"]
    table = rep.table("flight_trace.csv", ["t", "x", "y", "z"])
    if table is None:
        return
    dt, n = config["dt"], _steps(config)
    rep.expect(len(table.rows) == n + 1,
               f"flight_trace.csv: {len(table.rows)} rows, expected {n + 1}")
    if len(table.rows) != n + 1:
        return
    rep.close("flight_trace.csv", "t", table.numbers("t"),
              np.arange(n + 1) * dt, atol=1e-9)
    xyz = np.column_stack([table.numbers(c) for c in "xyz"])
    initial = np.asarray(section["initial_position"], float)
    target = np.asarray(section["target_position"], float)
    rep.close("flight_trace.csv", "first position", xyz[0], initial,
              atol=1e-12)
    error = np.linalg.norm(xyz - target, axis=1)
    settle = n - n // 10
    rep.expect(error[-1] <= 1e-3,
               f"flight_trace.csv: final error {error[-1]:.3g} m > 1e-3 m")
    rep.expect(np.all(error[settle:] <= 1e-2),
               "flight_trace.csv: does not stay within 1e-2 m of the target "
               "over the last tenth of the flight")


def _composed_offsets(section: dict) -> dict:
    """Follower id -> offset from the root, composed along the role tree
    (FGD and DF coincide at leader heading 0)."""
    parent = {f: (l, np.asarray(s["offset"], float))
              for l, f, s in section["edges"]}
    root = section["root"]
    out = {}

    def offset(node):
        if node == root:
            return np.zeros(3)
        if node not in out:
            leader, off = parent[node]
            out[node] = offset(leader) + off
        return out[node]

    for f in parent:
        offset(f)
    return out


def check_formation(config: dict, rep: Report):
    section = config["formation"]
    table = rep.table("poses.csv", ["t", "id", "x", "y", "z"],
                      text_columns=("id",))
    if table is None:
        return
    dt, n = config["dt"], _steps(config)
    offsets = _composed_offsets(section)
    ids = [section["root"]] + sorted(offsets)
    width = len(ids)
    if len(table.rows) != (n + 1) * width:
        rep.problems.append(f"poses.csv: {len(table.rows)} rows, expected "
                            f"{(n + 1) * width}")
        return
    rep.expect(table.column("id") == ids * (n + 1),
               "poses.csv: rows are not leader then sorted followers per tick")
    t = table.numbers("t").reshape(n + 1, width)
    rep.close("poses.csv", "t", t, np.repeat(np.arange(n + 1) * dt, width)
              .reshape(n + 1, width), atol=1e-9)
    xyz = np.stack([table.numbers(c).reshape(n + 1, width) for c in "xyz"],
                   axis=-1)                      # (tick, uav, 3)
    start = np.asarray(section["leader_start"], float)
    v = np.asarray(section["leader_velocity"], float)
    times = np.arange(n + 1) * dt
    rep.close("poses.csv", "leader position", xyz[:, 0],
              start + times[:, None] * v, atol=1e-9)
    gains = section["gains"]
    lag = gains["kd"] / gains["kp"] * v          # PD lag behind a ramp
    for k, f in enumerate(ids[1:], start=1):
        rep.close("poses.csv", f"{f} start", xyz[0, k], start + offsets[f],
                  atol=1e-9)
        final_gap = xyz[-1, k] - xyz[-1, 0] - offsets[f]
        rep.close("poses.csv", f"{f} final offset error", final_gap, -lag,
                  atol=1e-3)
    # semi-implicit Euler: the second difference over dt^2 is the
    # acceleration applied, which thrust and the tilt limit bound.
    accel = np.linalg.norm(np.diff(xyz[:, 1:], n=2, axis=0), axis=-1) / dt ** 2
    worst = float(accel.max()) if accel.size else 0.0
    rep.expect(worst <= MAX_FOLLOWER_ACCEL,
               f"poses.csv: follower acceleration {worst:.3g} m/s^2 > "
               f"{MAX_FOLLOWER_ACCEL} (a row moved?)")


# -------------------------------------------------------------------- wind

def turbulence_psd(model: str, component: str, sigma: float, length: float,
                   omega):
    """Two-sided Dryden / Von Karman densities over omega (rad/m).

    These are the MIL-F-8785C closed forms with the transverse (v, w)
    scale written as 2L; each integrates to sigma^2 over the omega line.
    """
    lo = length * np.asarray(omega, float)
    a = VON_KARMAN_A
    if model == "dryden":
        shape = (1 / (1 + lo ** 2) if component == "u"
                 else (1 + 3 * (2 * lo) ** 2) / (1 + (2 * lo) ** 2) ** 2)
    elif component == "u":
        shape = (1 + (a * lo) ** 2) ** (-5 / 6)
    else:
        x2 = (2 * a * lo) ** 2
        shape = (1 + 8 / 3 * x2) / (1 + x2) ** (11 / 6)
    return sigma ** 2 * length / math.pi * shape


def von_karman_vw_as_written(sigma: float, length: float, omega):
    """The transverse Von Karman density with the denominator swarmlink
    uses, (1 + 2a*L^2*W^2). It only recognises that known fault
    (``VON_KARMAN_VW_CAUSE``); the value check is ``turbulence_psd``."""
    lo2 = (length * np.asarray(omega, float)) ** 2
    a = VON_KARMAN_A
    return (sigma ** 2 * length / math.pi * (1 + 8 / 3 * (2 * a) ** 2 * lo2)
            / (1 + 2 * a * lo2) ** (11 / 6))


def density_integral(omega: np.ndarray, density: np.ndarray) -> float:
    """Integral of a two-sided density over the whole omega line from its
    values on an increasing grid: trapezoids over the grid, the density
    taken as flat below the first point and as nothing above the last.
    Close to exact when the grid spans well below and above 1/L."""
    return float(2 * (density[0] * omega[0] + np.trapezoid(density, omega)))


def welch_bands(series: np.ndarray, spacing: float, density):
    """Welch estimate vs the two-sided ``density(omega)``, averaged over
    log-spaced frequency bands.

    Returns (ratio, tolerance) per band. The tolerance comes from the
    sample count: a Hann/50 % Welch average over K segments has a relative
    standard error near sqrt(1.06 / K) per bin, and a band of B bins
    divides the variance by about B / 1.5 (neighbouring bins correlate).
    """
    from scipy.signal import welch
    n = series.size
    nperseg = max(256, min(4096, n // 64))
    freqs, est = welch(series, fs=1.0 / spacing, window="hann",
                       nperseg=nperseg, detrend=False)
    # one-sided density over f (cycles/m) of a two-sided density over omega
    target = 4 * math.pi * density(2 * math.pi * freqs)
    segments = 2 * n // nperseg - 1
    edges = np.unique(np.geomspace(4, freqs.size - 1, 9).astype(int))
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        bins = hi - lo
        ratio = est[lo:hi].mean() / target[lo:hi].mean()
        sigma_rel = math.sqrt(1.06 * 1.5 / (segments * bins))
        out.append((ratio, WELCH_Z * sigma_rel + 0.02))
    return out


def check_wind(config: dict, rep: Report):
    section = config["wind"]
    component = section["component"]
    i = "uvw".index(component)
    sigma, length = section["sigma"][i], section["length"][i]
    densities = {model: (lambda w, m=model: turbulence_psd(
        m, component, sigma, length, w)) for model in ("dryden", "von_karman")}
    table = rep.table("psd.csv", ["omega", "dryden", "von_karman"])
    if table is not None:
        omega = np.logspace(section["omega_log_min"],
                            section["omega_log_max"], section["n_omega"])
        rep.close("psd.csv", "omega", table.numbers("omega"), omega,
                  rtol=1e-12)
        for model, density in list(densities.items()):
            got = table.numbers(model)
            if (model == "von_karman" and component != "u"
                    and got.shape == omega.shape
                    and np.allclose(got, von_karman_vw_as_written(
                        sigma, length, omega), rtol=1e-9, atol=0.0)):
                # the known fault: the operation fails, and the series is
                # checked against the density the program used
                rep.faults.append(f"psd.csv: {VON_KARMAN_VW_CAUSE}")
                densities[model] = (lambda w: von_karman_vw_as_written(
                    sigma, length, w))
                continue
            rep.close("psd.csv", model, got, density(omega), rtol=1e-9)
            if got.shape == omega.shape:
                ratio = density_integral(omega, got) / sigma ** 2
                rep.expect(abs(ratio - 1) <= DENSITY_INTEGRAL_RTOL,
                           f"psd.csv: {model} integrates to {ratio:.3f} "
                           f"sigma^2, not sigma^2")
    table = rep.table("series.csv", ["index", "gust"])
    if table is None:
        return
    n = section["n_samples"]
    rep.expect(len(table.rows) == n,
               f"series.csv: {len(table.rows)} rows, expected {n}")
    if len(table.rows) != n:
        return
    rep.expect(table.column("index") == [str(k) for k in range(n)],
               "series.csv: index column is not 0..n-1")
    gust = table.numbers("gust")
    rms = float(np.sqrt(np.mean(gust ** 2)))
    rep.expect(rms > 0 and abs(gust.mean()) <= 1e-9 * rms,
               f"series.csv: mean {gust.mean():.3g} is not zero")
    for ratio, tol in welch_bands(gust, section["sample_spacing"],
                                  densities[section["model"]]):
        rep.expect(abs(ratio - 1) <= tol,
                   f"series.csv: Welch/target ratio {ratio:.4f} outside "
                   f"1 +- {tol:.4f}")


# ---------------------------------------------------------------- optimize

def check_optimize(config: dict, rep: Report):
    section = config["optimize"]
    algorithm = section["algorithm"]
    file_name = f"convergence_{algorithm}.csv"
    table = rep.table(file_name, ["iteration", "best_value"])
    if table is None:
        return
    iters = section["max_iters"]
    rep.expect(table.column("iteration") == [str(k) for k in
                                             range(iters + 1)],
               f"{file_name}: iteration column is not 0..{iters}")
    best = table.numbers("best_value")
    rep.expect(np.all(best >= 0), f"{file_name}: negative best value")
    rep.expect(np.all(np.diff(best) <= 0),
               f"{file_name}: best-so-far increases")
    if section["function"] == "sphere":
        tol = SPHERE_TOLERANCE[algorithm]
        rep.expect(best.size and best[-1] < tol,
                   f"{file_name}: final {best[-1]:.3g} not below {tol}")


# ----------------------------------------------------------------- channel

def _dbm(watts):
    return 10 * np.log10(np.asarray(watts) / 1e-3)


def friis(link: dict, d):
    g = link["tx_gain"] * link["rx_gain"]
    return (link["tx_power"] * g
            * (link["wavelength"] / (4 * math.pi * np.asarray(d))) ** 2)


def two_ray(link: dict, d):
    d = np.asarray(d, float)
    ht, hr = link["tx_height"], link["rx_height"]
    lam = link["wavelength"]
    g = math.sqrt(link["tx_gain"] * link["rx_gain"])
    d_los = np.hypot(d, ht - hr)
    d_ref = np.hypot(d, ht + hr)
    field = (g / d_los + link["ground_reflection"]
             * np.exp(2j * math.pi * (d_ref - d_los) / lam) * g / d_ref)
    return link["tx_power"] * (lam / (4 * math.pi)) ** 2 * np.abs(field) ** 2


def qpsk_ber(kind: str, ebn0_db: float) -> float:
    """Closed-form QPSK bit-error rate for the configured fading."""
    g = 10 ** (ebn0_db / 10)
    if kind == "awgn":
        return 0.5 * math.erfc(math.sqrt(g))
    if kind == "rayleigh":
        return 0.5 * (1 - math.sqrt(g / (1 + g)))
    raise ValueError(f"no closed form checked for {kind} fading")


def binomial_band(n: int, p: float) -> tuple[float, float]:
    half = BINOMIAL_Z * math.sqrt(n * p * (1 - p)) + 2
    return n * p - half, n * p + half


def check_channel(config: dict, rep: Report):
    section = config["channel"]
    link = section["link"]
    sweep = section["sweep"]
    table = rep.table("power_sweep.csv", ["d", "pr_friis_dbm",
                                          "pr_tworay_dbm"])
    if table is not None:
        d = np.logspace(math.log10(sweep["d_min"]),
                        math.log10(sweep["d_max"]), sweep["n"])
        rep.close("power_sweep.csv", "d", table.numbers("d"), d, rtol=1e-12)
        rep.close("power_sweep.csv", "Friis", table.numbers("pr_friis_dbm"),
                  _dbm(friis(link, d)), atol=1e-9)
        # compare two-ray in watts: near its nulls dB values are ill-posed
        got = 1e-3 * 10 ** (table.numbers("pr_tworay_dbm") / 10)
        rep.close("power_sweep.csv", "two-ray", got, two_ray(link, d),
                  atol=1e-9 * float(np.max(friis(link, d))), rtol=1e-9)

    kind = section["fading"]["kind"]
    n_bits = section["n_bits"]
    grid = section["ebn0_db"]
    table = rep.table("ber.csv", ["ebn0_db", "ber_theory", "ber_mc",
                                  "n_errors"])
    if table is not None:
        rep.expect(table.numbers("ebn0_db").tolist()
                   == [float(e) for e in grid],
                   "ber.csv: Eb/N0 grid differs from the config")
        errors = table.numbers("n_errors")
        rep.close("ber.csv", "ber_mc", table.numbers("ber_mc"),
                  errors / n_bits, rtol=1e-15)
        if kind == "awgn":
            rep.close("ber.csv", "ber_theory", table.numbers("ber_theory"),
                      [qpsk_ber("awgn", e) for e in grid], rtol=1e-12)
        if kind in ("awgn", "rayleigh") and len(errors) == len(grid):
            for e, n_err in zip(grid, errors):
                lo, hi = binomial_band(n_bits, qpsk_ber(kind, e))
                rep.expect(lo <= n_err <= hi,
                           f"ber.csv: {int(n_err)} errors at {e} dB outside "
                           f"[{lo:.0f}, {hi:.0f}] for {kind}")
    table = rep.table("constellation.csv", ["i", "q"])
    if table is not None:
        rep.expect(len(table.rows) == 512,
                   f"constellation.csv: {len(table.rows)} rows, expected 512")
        for axis in ("i", "q"):
            mid = float(np.median(np.abs(table.numbers(axis))))
            rep.expect(abs(mid - math.sqrt(0.5)) <= 0.1,
                       f"constellation.csv: median |{axis}| {mid:.3f} is not "
                       f"near the unit-energy 0.707")


# ------------------------------------------------------------------ budget

def _report_blocks(text: str) -> dict:
    """Line items and totals per block of budget_report.txt."""
    blocks, current = {}, None
    for line in text.split("\n"):
        if not line:
            current = None
        elif not line.startswith(" "):
            current = blocks.setdefault(line.strip(), [])
        elif current is not None and line.strip().endswith("dB"):
            label, value = line[:26].strip(), line[26:].split()[0]
            current.append((label, float(value)))
    return blocks


def check_budget(config: dict, rep: Report, mode: str):
    data = rep.load_json("budget.json")
    report = rep.out / "budget_report.txt"
    if data is None or not report.is_file():
        rep.expect(report.is_file(), "budget_report.txt: missing")
        return
    rep.expect(data["mode"] == mode,
               f"budget.json: mode {data['mode']!r} for --mode {mode}")
    rep.close("budget.json", "rsl", data["rsl_db"],
              data["eirp_db"] + data["total_path_loss_db"]
              + data["total_rx_gain_db"], atol=1e-9)
    rep.close("budget.json", "margin", data["link_margin_db"],
              data["rsl_db"] - data["rx_threshold_db"], atol=1e-9)
    if mode == "paper":
        for key, want in PAPER_BUDGET.items():
            rep.close("budget.json", key, data[key], want, atol=5e-3)
        return
    blocks = _report_blocks(report.read_text())
    for block, total_key in (("Transmit", "eirp_db"),
                             ("Losses", "total_path_loss_db"),
                             ("Receive", "total_rx_gain_db")):
        items = blocks.get(block, [])
        rep.expect(len(items) >= 2, f"budget_report.txt: no {block} block")
        if len(items) >= 2:
            rep.close("budget_report.txt", f"{block} total",
                      data[total_key], sum(v for _, v in items[:-1]),
                      atol=1e-9)
    noise = (-174 + 10 * math.log10(PAPER_NOISE_BANDWIDTH_HZ)
             + 10 * math.log10(1 + PAPER_OPERATIONAL_TEMP_K
                               / PAPER_STANDARD_TEMP_K))
    rep.close("budget.json", "noise_power_dbm", data["noise_power_dbm"],
              noise, atol=1e-9)


def check_berdist(config: dict, rep: Report, mode: str):
    section = config["berdist"]
    if section["use_reference"]:
        link, rate = PAPER_BERDIST_LINK, PAPER_BERDIST_RATE
        noise_dbm = PAPER_BERDIST_NOISE_DBM
    else:
        link, rate = section["link"], section["data_rate"]
        noise_dbm = section["noise_power_dbm"]
    table = rep.table("berdist.csv", ["distance_m", "pr_dbm", "ebn0_db",
                                      "ber"])
    if table is None:
        return
    d = np.logspace(math.log10(section["d_min"]),
                    math.log10(section["d_max"]), section["n"])
    rep.close("berdist.csv", "distance", table.numbers("distance_m"), d,
              rtol=1e-12)
    pr_dbm = _dbm(friis(link, d))
    ebn0_db = pr_dbm - 10 * math.log10(rate) - noise_dbm
    rep.close("berdist.csv", "pr_dbm", table.numbers("pr_dbm"), pr_dbm,
              atol=1e-9)
    rep.close("berdist.csv", "ebn0_db", table.numbers("ebn0_db"), ebn0_db,
              atol=1e-9)
    g = 10 ** (ebn0_db / 10)
    # erfc argument per row: sqrt(Eb/N0) in the standard formula, Eb/N0 in
    # the paper's printed 0.5*sqrt(erfc(Eb/N0))
    tail = np.array([math.erfc(x) for x in (g if mode == "paper"
                                              else np.sqrt(g))])
    want = 0.5 * (np.sqrt(tail) if mode == "paper" else tail)
    ber = table.numbers("ber")
    # where erfc falls below the smallest normal double the program may
    # flush it to zero; there only an upper bound is checked
    normal = tail >= sys.float_info.min
    rep.close("berdist.csv", f"{mode} BER", ber[normal], want[normal],
              rtol=1e-9)
    floor = 0.5 * (math.sqrt(sys.float_info.min) if mode == "paper"
                   else sys.float_info.min)
    rep.expect(np.all(ber[~normal] <= floor),
               f"berdist.csv: {mode} BER not negligible where erfc underflows")
    rep.expect(np.all(np.diff(ber) >= 0),
               "berdist.csv: BER decreases with distance")
    rep.expect(np.all(np.diff(table.numbers("pr_dbm")) < 0),
               "berdist.csv: received power does not fall with distance")


# ----------------------------------------------------------------- network

def _positions(section: dict):
    ids = ["gs"] + [f"u{i}" for i in range(section["n_uavs"])]
    pos = np.array([section["positions"][k] for k in ids], dtype=float)
    return ids, pos


def expected_edges(section: dict):
    """Brute-force edge set of a star or single-group ad hoc topology.

    Returns (ids, positions, i, j, ambiguous) with node indices i < j of
    the edges sure to exist, and the number of pairs whose distance lies
    within 1e-12 of the link range, which either side of the test may
    round differently.
    """
    ids, pos = _positions(section)
    n = len(ids)
    kind = section["kind"]
    if kind == "star":
        j = np.arange(1, n)
        return ids, pos, np.zeros(n - 1, int), j, 0
    if kind != "single_group":
        raise ValueError(f"no brute-force oracle for {kind!r} topologies")
    r = section["link_range"]
    uav = pos[1:]
    i, j = np.triu_indices(n - 1, 1)
    dist = np.sqrt(((uav[i] - uav[j]) ** 2).sum(axis=1))
    sure = dist <= r * (1 - 1e-12)
    ambiguous = int(np.count_nonzero(np.abs(dist - r) <= 1e-12 * r))
    i, j = i[sure] + 1, j[sure] + 1
    # the master u0 (index 1) always links to the ground station
    return (ids, pos, np.concatenate([[0], i]), np.concatenate([[1], j]),
            ambiguous)


def check_network(config: dict, rep: Report):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    section = config["network"]
    topo = rep.load_json("topology.json")
    cmp_ = rep.load_json("comparison.json")
    if topo is None or cmp_ is None:
        return
    ids, pos, ei, ej, ambiguous = expected_edges(section)
    index = {node: k for k, node in enumerate(ids)}
    kind = section["kind"]
    want_roles = {"gs": "ground_station"}
    for node in ids[1:]:
        want_roles[node] = ("slave" if kind == "star" or node != "u0"
                            else "master")
    rep.expect(topo["nodes"] == want_roles, "topology.json: node roles wrong")
    edges = topo["edges"]
    a = np.array([index[e[0]] for e in edges], int)
    b = np.array([index[e[1]] for e in edges], int)
    cost = np.array([e[2] for e in edges], float)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    got_keys = lo * len(ids) + hi
    want_keys = np.minimum(ei, ej) * len(ids) + np.maximum(ei, ej)
    rep.expect(np.unique(got_keys).size == got_keys.size,
               "topology.json: duplicate edges")
    missing = np.setdiff1d(want_keys, got_keys)
    extra = np.setdiff1d(got_keys, want_keys)
    rep.expect(missing.size == 0,
               f"topology.json: {missing.size} in-range pairs missing")
    rep.expect(extra.size <= ambiguous,
               f"topology.json: {extra.size} edges beyond link range")
    rep.close("topology.json", "edge costs", cost,
              np.sqrt(((pos[a] - pos[b]) ** 2).sum(axis=1)), rtol=1e-12)

    # the oracle searches run on the brute-force edge set
    n = len(ids)
    dist = np.sqrt(((pos[ei] - pos[ej]) ** 2).sum(axis=1))
    graph = coo_matrix((np.concatenate([dist, dist]),
                        (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
                       shape=(n, n)).tocsr()
    src, dst = section["src"], section["dst"]
    s, t = index[src], index[dst]
    routing, flooding = cmp_["routing"], cmp_["flooding"]
    best = dijkstra(graph, indices=s)[t]
    if not np.isfinite(best):
        rep.problems.append(f"{dst} is unreachable from {src}")
        return
    rep.expect(routing["reached"], "comparison.json: route not reached")
    rep.close("comparison.json", "route cost", routing["cost"], best,
              rtol=1e-9)
    path = routing["path"] or []
    rep.expect(path[:1] == [src] and path[-1:] == [dst],
               "comparison.json: path does not run from src to dst")
    steps = [(index[p], index[q]) for p, q in zip(path, path[1:])]
    step_keys = np.array([min(p, q) * n + max(p, q) for p, q in steps], int)
    rep.expect(np.isin(step_keys, got_keys).all(),
               "comparison.json: path uses a pair that is not an edge")
    rep.close("comparison.json", "path cost", routing["cost"],
              sum(float(np.linalg.norm(pos[p] - pos[q])) for p, q in steps),
              rtol=1e-9)
    rep.expect(routing["hops"] == len(path) - 1 == routing["messages"],
               "comparison.json: hops/messages disagree with the path")

    hop = dijkstra(graph, indices=s, unweighted=True)
    ttl = int(hop[t])
    degree = np.diff(graph.indptr)
    inner = np.flatnonzero(hop < ttl)
    messages = int(degree[inner].sum() - np.count_nonzero(inner != s))
    ball = sorted(ids[k] for k in np.flatnonzero(hop <= ttl))
    rep.expect(flooding["reached"], "comparison.json: flood did not reach")
    rep.expect(flooding["depth"] == ttl,
               f"comparison.json: flood depth {flooding['depth']} != BFS "
               f"hops {ttl}")
    rep.expect(flooding["delivered"] == ball,
               "comparison.json: flood delivered set != BFS ball")
    rep.expect(flooding["messages"] == messages,
               f"comparison.json: flood messages {flooding['messages']} != "
               f"{messages}")
    if "apf" in section:
        check_apf(section["apf"], rep)


def apf_potential(points, apf: dict) -> np.ndarray:
    goal = np.asarray(apf["goal"], float)
    ka, kr = apf["attract_gain"], apf["repel_gain"]
    rho = apf["influence_radius"]
    value = 0.5 * ka * ((points - goal) ** 2).sum(axis=1)
    for center, radius in apf["obstacles"]:
        dist = np.linalg.norm(points - np.asarray(center, float),
                              axis=1) - radius
        dist = np.where(dist <= 0, 1e-9, dist)
        value += np.where(dist < rho,
                          0.5 * kr * (1 / dist - 1 / rho) ** 2, 0.0)
    return value


def check_apf(apf: dict, rep: Report):
    outcome = rep.load_json("apf_outcome.json")
    table = rep.table("apf_trajectory.csv", ["step", "x", "y", "z",
                                             "potential"])
    if outcome is None or table is None:
        return
    rep.expect(outcome == {"outcome": "reached_goal"},
               f"apf_outcome.json: {outcome}")
    rep.expect(table.column("step") == [str(k) for k in
                                        range(len(table.rows))],
               "apf_trajectory.csv: step column is not 0..n-1")
    p = np.column_stack([table.numbers(c) for c in "xyz"])
    goal = np.asarray(apf["goal"], float)
    rep.close("apf_trajectory.csv", "start", p[0],
              np.asarray(apf["start"], float), atol=1e-12)
    rep.expect(np.linalg.norm(p[-1] - goal) <= 0.5,
               "apf_trajectory.csv: last point is not within 0.5 m of goal")
    moves = np.linalg.norm(np.diff(p, axis=0), axis=1)
    rep.expect(np.all(moves <= apf["step"] * (1 + 1e-9)),
               "apf_trajectory.csv: a step is longer than the step size")
    for center, radius in apf["obstacles"]:
        gap = np.linalg.norm(p - np.asarray(center, float), axis=1)
        inside = gap <= radius
        if inside.any():
            rep.problems.append(f"apf_trajectory.csv: enters the obstacle at "
                                f"{center}")
            break
    rep.close("apf_trajectory.csv", "potential", table.numbers("potential"),
              apf_potential(p, apf), rtol=1e-9)


# -------------------------------------------------------------------- main

def check_op(subcommand: str, mode: str | None, config: dict,
             out: Path) -> tuple[list[str], list[str]]:
    """Check one invocation's outputs; returns (contract faults, problems)."""
    rep = Report(out)
    if subcommand == "dynamics":
        check_dynamics(config, rep)
    elif subcommand == "wind":
        check_wind(config, rep)
    elif subcommand == "optimize":
        check_optimize(config, rep)
    elif subcommand == "formation":
        check_formation(config, rep)
    elif subcommand == "channel":
        check_channel(config, rep)
    elif subcommand == "budget":
        check_budget(config, rep, mode or "paper")
    elif subcommand == "berdist":
        check_berdist(config, rep, mode or "paper")
    elif subcommand == "network":
        check_network(config, rep)
    return rep.faults, rep.problems


def main() -> int:
    jobs = json.load(sys.stdin)
    results = {}
    for job in jobs:
        config = json.loads(Path(job["config"]).read_text())
        faults, problems = check_op(job["subcommand"], job["mode"], config,
                                    Path(job["out"]))
        results[job["name"]] = {"faults": faults, "problems": problems}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
