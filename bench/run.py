"""swarmlink benchmark: drives the real CLI on generated workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a swarmlink checkout. Each operation is one fresh
``python -m swarmlink.cli`` process with ``PYTHONPATH=src``, run one at a
time. Rounds of the workload's operations repeat until ``--seconds`` of
operation time have passed (at least two rounds). The first round's
outputs are checked by ``checks.py``; later rounds must reproduce them
byte for byte.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
checked round, then each operation through ``swarmlink.cli.main`` in a
fresh interpreter without and with spans (``inproc.py``), and
``python -X importtime``; it reports the per-layer metrics. Results,
configs and outputs go to ``.bench_out/<workload>/``; the last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_ROOT = Path(".bench_out")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
OP_TIMEOUT_S = 150.0
IMPORTTIME_REPEATS = 3


class Runner:
    """Starts and times the child processes of one workload's run."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.config_dir = work / "configs"
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    def cli(self, argv: list[str], log_name: str):
        """One CLI process; returns (exit code, wall s, peak RSS MiB, log)."""
        return self.python(["-m", "swarmlink.cli", *argv], log_name)

    def python(self, args: list[str], log_name: str):
        log = self.logs / f"{log_name}.err"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log


def _last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def _digest(out: Path) -> dict:
    if not out.is_dir():
        return {}
    digests = {}
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def check_outputs(jobs: list[dict]) -> dict:
    """Run ``checks.py`` on operations' outputs in a child interpreter.

    Checking in a child keeps this process small, which the RSS metric
    needs: a child's ``ru_maxrss`` includes the peak resident set of the
    address space it was started from, so every child of a harness that
    had parsed a large output would report at least that much.
    """
    proc = subprocess.run([sys.executable, str(HERE / "checks.py")],
                          input=json.dumps(jobs), capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: checks failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


class Measurement:
    """Attempted/failed accounting and correctness over all rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}
        self.problems: list[str] = []

    def record(self, op_name: str, causes: list[str]):
        self.attempted += 1
        if causes:
            self.failed += 1
            for cause in causes:
                key = f"{op_name}: {cause}"
                self.causes[key] = self.causes.get(key, 0) + 1


def run_round(runner: Runner, index: int, meas: Measurement,
              checked: dict):
    """Run every operation once. An operation's first output is checked in
    full and its digest and contract faults kept in ``checked``; later
    outputs must reproduce those bytes."""
    out_root = runner.work / "round"
    shutil.rmtree(out_root, ignore_errors=True)
    walls, rss, done, jobs = [], [], [], []
    for op in runner.workload.ops:
        out = out_root / op.name
        code, wall, peak, log = runner.cli(op.argv(runner.config_dir, out),
                                           f"{op.name}.{index}")
        walls.append((op, wall))
        rss.append(peak)
        if code != 0:
            meas.record(op.name, [f"exit {code}: {_last_line(log)}"])
        elif op.name in checked:
            if _digest(out) != checked[op.name][0]:
                meas.problems.append(f"{op.name}: round {index} output "
                                     "differs from the checked one")
            meas.record(op.name, checked[op.name][1])
        else:
            done.append((op, out))
            jobs.append({"name": op.name, "subcommand": op.subcommand,
                         "mode": op.mode,
                         "config": str(runner.config_dir / op.config),
                         "out": str(out)})
    results = check_outputs(jobs) if jobs else {}
    for op, out in done:
        result = results[op.name]
        meas.problems += [f"{op.name}: {p}" for p in result["problems"]]
        checked[op.name] = (_digest(out), result["faults"])
        meas.record(op.name, result["faults"])
    return walls, max(rss)


def setup_time(runner: Runner) -> float:
    argv = ["validate", "--config",
            str(runner.config_dir / runner.workload.setup_config)]
    times = []
    for k in range(SETUP_REPEATS):
        code, wall, _, log = runner.cli(argv, f"setup.{k}")
        if code != 0:
            raise SystemExit(f"error: validate failed: {_last_line(log)}")
        times.append(wall)
    return statistics.median(times)


# ---------------------------------------------------------------- per-layer

def op_work(op: workloads.Op, config: dict) -> dict:
    """Work units each end-to-end throughput divides by wall time."""
    if op.subcommand == "formation":
        steps = round(config["duration"] / config["dt"])
        return {"uav_steps": len(config["formation"]["edges"]) * steps}
    if op.subcommand == "optimize":
        section = config["optimize"]
        population = section["n_particles" if section["algorithm"] == "pso"
                             else "n_wolves"]
        return {"agent_iters": population * section["max_iters"]}
    if op.subcommand == "channel":
        section = config["channel"]
        return {"mc_bits": section["n_bits"] * len(section["ebn0_db"])}
    return {}


def package_import_times(importtime_log: str, module: str,
                         packages=("numpy", "scipy")) -> dict:
    """Split the ``-X importtime`` tree of ``module`` into seconds per
    package in ``packages`` and "rest". Each entry's self time goes to the
    nearest of those packages among it and its importers, so what numpy
    or scipy pull in counts as theirs, and the parts sum to the module's
    cumulative import time."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*\d+ \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)) * 1e-6, len(m.group(2)),
                            m.group(3)))
    # the tree is printed children first, ending at the top-level entry
    end = max(i for i, (_, depth, name) in enumerate(entries)
              if depth == 1 and name == module)
    totals = dict.fromkeys([*packages, "rest"], 0.0)
    owners = []                         # (depth, owner) of open ancestors
    for self_s, depth, name in reversed(entries[:end + 1]):
        if depth == 1 and owners:
            break
        while owners and owners[-1][0] >= depth:
            owners.pop()
        package = name.split(".")[0]
        inherited = owners[-1][1] if owners else "rest"
        owner = (inherited if inherited != "rest"
                 else package if package in packages else "rest")
        owners.append((depth, owner))
        totals[owner] += self_s
    return totals


def import_times(runner: Runner) -> dict:
    """Import time of ``swarmlink.cli`` split into numpy, scipy and the
    rest (swarmlink's own modules and the standard library modules they
    load beyond interpreter start), median of runs."""
    runs = {"numpy": [], "scipy": [], "rest": []}
    for k in range(IMPORTTIME_REPEATS):
        code, _, _, log = runner.python(
            ["-X", "importtime", "-c", "import swarmlink.cli"],
            f"importtime.{k}")
        if code != 0:
            raise SystemExit(f"error: import failed: {_last_line(log)}")
        totals = package_import_times(log.read_text(), "swarmlink.cli")
        for package, times in runs.items():
            times.append(totals[package])
    return {"cli.import.numpy_s": statistics.median(runs["numpy"]),
            "cli.import.scipy_s": statistics.median(runs["scipy"]),
            "cli.import.swarmlink_s": statistics.median(runs["rest"])}


def inproc_pass(runner: Runner, trace: bool) -> list[dict]:
    """Run each operation through ``swarmlink.cli.main`` in a fresh child
    interpreter (``inproc.py``), so every operation starts from the same
    state as its CLI process; returns the per-op results."""
    tag = "traced" if trace else "untraced"
    out_root = runner.work / tag
    shutil.rmtree(out_root, ignore_errors=True)
    ops = []
    for op in runner.workload.ops:
        result_path = runner.work / f"{tag}-{op.name}.json"
        code, _, _, log = runner.python(
            [str(HERE / "inproc.py"), str(result_path), "--trace",
             str(int(trace)), "--",
             *op.argv(runner.config_dir, out_root / op.name)],
            f"{tag}-{op.name}")
        if code != 0:
            raise SystemExit(f"error: in-process {tag} {op.name} failed: "
                             f"{_last_line(log)}")
        ops.append({"name": op.name,
                    **json.loads(result_path.read_text())})
    return ops


SPAN_METRICS = [  # (span name, report its call count too)
    ("dynamics.step_state", True),
    ("dynamics.normalize_angle", True),
    ("formation.movement_step", True),
    ("formation.formation_targets", True),
    ("simulate.simulate_formation", False),
    ("simulate.simulate_position_hold", False),
    ("wind.synthesize_turbulence", False),
    ("wind.psd", False),
    ("swarm_opt.fitness.pso", True),
    ("swarm_opt.fitness.gwo", True),
    ("swarm_opt.fitness.wpa", True),
    ("swarm_opt.pso", False),
    ("swarm_opt.gwo", False),
    ("swarm_opt.wpa", False),
    ("channel.ber_monte_carlo", True),
    ("channel.apply_channel", False),
    ("channel.propagation", False),
    ("linkbudget.compute_budget", False),
    ("linkbudget.ber_vs_distance", False),
    ("network.build_topology", False),
    ("network.compare_propagation", False),
    ("network.apf_plan", False),
    ("network.apf_potential", True),
]
COUNT_METRICS = ["formation.topological_followers.calls",
                 "simulate.uav_steps", "channel.mc_bits", "network.edges",
                 "network.flood.messages", "network.apf.steps"]


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics from the traced operations' spans and counts."""
    spans, counts = {}, {}
    for op in traced:
        for name, (calls, total, self_s) in op["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, n in op["counts"].items():
            counts[name] = counts.get(name, 0) + n
    counts["formation.topological_followers.calls"] = counts.pop(
        "formation.topological_followers", 0)
    m = {"cli.parse_s": spans.get("cli.parse", [0, 0.0, 0.0])[1],
         "cli.write_s": sum(v[2] for k, v in spans.items()
                            if k.startswith("cli.run_"))}
    for name, with_calls in SPAN_METRICS:
        calls, _, self_s = spans.get(name, [0, 0.0, 0.0])
        if with_calls:
            m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    evaluations = sum(spans.get(f"swarm_opt.fitness.{a}", [0])[0]
                      for a in ("pso", "gwo", "wpa"))
    m["swarm_opt.improving_ratio"] = (
        counts.get("swarm_opt.improving", 0) / evaluations
        if evaluations else 0.0)
    messages = counts.get("network.flood.messages", 0)
    m["network.flood.useful_ratio"] = (
        counts.get("network.flood.new_deliveries", 0) / messages
        if messages else 0.0)
    return m


# -------------------------------------------------------------------- main

def run_untraced(runner: Runner, seconds: float, meas: Measurement) -> dict:
    setup = setup_time(runner)
    rounds, checked, measured = [], {}, 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        walls, peak = run_round(runner, len(rounds), meas, checked)
        wall = sum(w for _, w in walls)
        measured += wall
        rounds.append({"wall_s": wall, "peak_rss_mib": peak,
                       "ops": {op.name: w for op, w in walls}})
    # Each invocation's median over the rounds, summed: single invocations
    # vary by 15-25 % on a shared VM, and a median per invocation is
    # steadier than the median of a few round totals.
    wall = sum(statistics.median(r["ops"][op.name] for r in rounds)
               for op in runner.workload.ops)
    return {"setup_s": setup, "wall_s": wall,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in rounds),
            "rounds": rounds}


def run_traced(runner: Runner, meas: Measurement) -> dict:
    checked = {}
    walls, _ = run_round(runner, 0, meas, checked)
    work = {}
    for op, wall in walls:
        config = json.loads((runner.config_dir / op.config).read_text())
        for unit, n in op_work(op, config).items():
            done, secs = work.get(unit, (0, 0.0))
            work[unit] = (done + n, secs + wall)
    bytes_written = sum(p.stat().st_size
                        for p in (runner.work / "round").rglob("*")
                        if p.is_file())
    untraced = inproc_pass(runner, trace=False)
    traced = inproc_pass(runner, trace=True)
    for op in traced:
        if op["exit"] != 0:
            meas.problems.append(f"{op['name']}: traced run exit {op['exit']}")
        elif (op["name"] in checked and _digest(runner.work / "traced" /
                                                op["name"])
              != checked[op["name"]][0]):
            meas.problems.append(f"{op['name']}: traced output differs")
    metrics = layer_metrics(traced)
    metrics.update(import_times(runner))
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.overhead_s"] = (sum(op["wall_s"] for op in traced)
                                   - sum(op["wall_s"] for op in untraced))
    for unit, metric in (("uav_steps", "uav_steps_per_s"),
                         ("agent_iters", "agent_iters_per_s"),
                         ("mc_bits", "mc_bits_per_s")):
        done, secs = work.get(unit, (0, 0.0))
        metrics[metric] = done / secs if secs else 0.0
    (runner.work / "trace.json").write_text(json.dumps(
        {"metrics": metrics, "untraced": untraced, "traced": traced},
        indent=1))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swarmlink CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/swarmlink/cli.py", "BENCHMARK.json")
               if not Path(p).is_file()]
    if missing:
        print(f"error: run from the root of a swarmlink checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    work = OUT_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, work / "configs")
    runner = Runner(workload, work)
    meas = Measurement()
    if args.trace:
        metrics, rounds = run_traced(runner, meas), []
    else:
        metrics = run_untraced(runner, args.seconds, meas)
        rounds = metrics.pop("rounds")
    reported = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not meas.problems, "attempted": meas.attempted,
              "failed": meas.failed,
              "metrics": {e["name"]: {"value": metrics[e["name"]],
                                      "unit": e["unit"]} for e in reported}}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{max(len(rounds), 1)} round(s) of {len(workload.ops)} operations")
    print(f"operations attempted {meas.attempted}, failed {meas.failed}")
    for cause, n in sorted(meas.causes.items()):
        print(f"  failed x{n}: {cause}")
    for problem in meas.problems:
        print(f"  WRONG: {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    (work / "results.json").write_text(json.dumps(
        {**result, "causes": meas.causes, "problems": meas.problems,
         "rounds": rounds},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
