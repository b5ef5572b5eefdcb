"""Run one swarmlink invocation through ``swarmlink.cli.main`` in this
interpreter, with or without spans.

    python3 bench/inproc.py RESULT.json --trace 0|1 -- <cli arguments>

With ``--trace 1`` the public functions each caller looks up are replaced,
in the caller's namespace, by wrappers that time a span around the call
and count domain events. Spans are aggregated in memory (calls, total
time and self time, which is the span minus its child spans) and written
to RESULT.json with the wall time and exit code when the run ends. The
program's own code is not changed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._open: list[float] = []       # child time of each open span

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(result, args)`` runs after it."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer):
    """Wrap the layer boundaries of swarmlink in the namespaces that look
    them up at call time."""
    from swarmlink import (channel, cli, dynamics, formation, linkbudget,
                           network, simulate, swarm_opt, wind)

    def patch(module, attr, name, observe=None):
        setattr(module, attr, tracer.span(name, getattr(module, attr),
                                          observe))

    patch(cli, "_load_config", "cli.parse")
    patch(cli, "validate_config", "cli.parse")
    for attr in [a for a in vars(cli) if a.startswith("run_")]:
        patch(cli, attr, f"cli.{attr}")

    # flight: the formation loop lives in simulate, which imported these
    patch(simulate, "step_state", "dynamics.step_state")
    patch(simulate, "movement_step", "formation.movement_step")
    patch(simulate, "formation_targets", "formation.formation_targets")
    patch(cli, "formation_targets", "formation.formation_targets")
    patch(dynamics, "normalize_angle", "dynamics.normalize_angle")
    patch(formation, "normalize_angle", "dynamics.normalize_angle")
    formation.RoleGraph.topological_followers = tracer.counted(
        "formation.topological_followers",
        formation.RoleGraph.topological_followers)
    patch(simulate, "simulate_formation", "simulate.simulate_formation",
          lambda trace, args: tracer.count(
              "simulate.uav_steps",
              (len(trace.times) - 1) * len(trace.follower_positions)))
    patch(simulate, "simulate_position_hold",
          "simulate.simulate_position_hold",
          lambda result, args: tracer.count("simulate.uav_steps",
                                            len(result[0]) - 1))

    patch(wind, "synthesize_turbulence", "wind.synthesize_turbulence")
    for attr in ("turbulence_psd", "dryden_psd", "von_karman_psd"):
        patch(wind, attr, "wind.psd")

    def optimizer(algorithm, run):
        def traced_run(fitness, space, config):
            best = [math.inf]

            def improved(value, args):
                if value < best[0]:
                    best[0] = value
                    tracer.count("swarm_opt.improving")

            return run(tracer.span(f"swarm_opt.fitness.{algorithm}", fitness,
                                   improved), space, config)

        return tracer.span(f"swarm_opt.{algorithm}", traced_run)

    for algorithm in ("pso", "gwo", "wpa"):
        attr = f"{algorithm}_optimize"
        setattr(swarm_opt, attr, optimizer(algorithm,
                                           getattr(swarm_opt, attr)))

    def mc_bits(result, args):
        tracer.count("channel.mc_bits", args[2])

    patch(channel, "ber_monte_carlo", "channel.ber_monte_carlo", mc_bits)
    patch(channel, "apply_channel", "channel.apply_channel")
    for module in (channel, linkbudget):
        patch(module, "friis_received_power", "channel.propagation")
    patch(channel, "two_ray_received_power", "channel.propagation")

    patch(linkbudget, "compute_budget", "linkbudget.compute_budget")
    patch(linkbudget, "ber_vs_distance", "linkbudget.ber_vs_distance")

    def edges(graph, args):
        tracer.count("network.edges",
                     sum(len(v) for v in graph.adjacency.values()) // 2)

    def flooded(result, args):
        flood = result["flooding"]
        tracer.count("network.flood.messages", flood["messages"])
        tracer.count("network.flood.new_deliveries",
                     len(flood["delivered"]) - 1)

    patch(network, "build_topology", "network.build_topology", edges)
    patch(network, "compare_propagation", "network.compare_propagation",
          flooded)
    patch(network, "apf_plan", "network.apf_plan",
          lambda result, args: tracer.count("network.apf.steps",
                                            len(result[0]) - 1))
    patch(network, "_apf_potential", "network.apf_potential")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    from swarmlink import cli
    tracer = Tracer()
    if args.trace:
        install(tracer)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - start
    with open(args.result, "w") as fh:
        json.dump({"exit": code, "wall_s": wall,
                   "spans": {k: v for k, v in tracer.spans.items() if v[0]},
                   "counts": tracer.counts}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
