"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[PASS]``/``[FAIL]`` line on the real terminal (bypassing capture) so a
plain ``pytest -v`` run shows the per-criterion verdicts.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import welch

from swarmlink import channel, linkbudget, network, swarm_opt, wind
from swarmlink.dynamics import (GRAVITY, PidGains, UavParams, UavState,
                                step_states)
from swarmlink.formation import (FormationMode, FormationSpec, Pose,
                                 RoleGraph, follower_targets)
from swarmlink.simulate import (simulate_formation, simulate_position_hold,
                                straight_line_leader)
from test_network import _bfs_reachable, _brute_force_shortest, _random_graph

PARAMS = UavParams(mass=1.0)


def _verdict(capsys, num, desc, check):
    start = time.monotonic()
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"[PASS] criterion {num:2d}: {desc} ({elapsed:.2f}s)")


def test_criterion_01_budget_paper_literal(capsys):
    def check():
        start = time.monotonic()
        budget = linkbudget.compute_budget(
            linkbudget.reference_antenna(),
            linkbudget.reference_budget_config(),
            linkbudget.BudgetMode.PAPER_LITERAL)
        assert abs(budget.eirp_db - 18.789) <= 1e-3
        assert abs(budget.noise_power_dbm - (-93.18)) <= 0.01
        assert abs(budget.rsl_db - (-81.771)) <= 1e-3
        assert abs(budget.link_margin_db - 6.229) <= 1e-3
        assert time.monotonic() - start < 1.0
    _verdict(capsys, 1, "paper-literal budget: EIRP 18.789, noise -93.18, "
             "RSL -81.771, margin 6.229", check)


def test_criterion_02_budget_corrected_sum(capsys):
    def check():
        start = time.monotonic()
        budget = linkbudget.compute_budget(
            linkbudget.reference_antenna(),
            linkbudget.reference_budget_config(),
            linkbudget.BudgetMode.CORRECTED_SUM)
        assert abs(sum(i.value_db for i in budget.loss_items)
                   - (-103.66)) <= 1e-9
        assert budget.total_path_loss_db == pytest.approx(-103.66, abs=1e-9)
        by_label = {d.label: d for d in budget.discrepancies}
        d = by_label["total_path_loss_db"]
        assert d.printed == -101.66 and abs(d.computed - (-103.66)) <= 1e-9
        d = by_label["path_loss_db"]
        assert d.printed == -106.06 and d.computed == -101.06
        d = by_label["rx_threshold_db"]
        assert d.printed == -85.0 and d.computed == -88.0
        assert time.monotonic() - start < 1.0
    _verdict(capsys, 2, "corrected-sum budget: losses sum to -103.66 and "
             "all printed conflicts are flagged", check)


def test_criterion_03_derived_rf_quantities(capsys):
    def check():
        rho = linkbudget.vswr_to_reflection(1.5)
        assert rho == 0.2
        assert abs(linkbudget.incident_power(50.0, rho) - 52.08) <= 0.01
        assert abs(linkbudget.output_impedance(rho, 50.0) - 33.33) <= 0.01
        f_linear, _ = linkbudget.noise_figure(358.0, 298.0)
        assert abs(f_linear - 2.201) <= 1e-3
        budget = linkbudget.compute_budget(
            linkbudget.reference_antenna(),
            linkbudget.reference_budget_config(),
            linkbudget.BudgetMode.PAPER_LITERAL)
        assert abs(budget.noise_figure_db - 6.84) <= 0.01
    _verdict(capsys, 3, "derived RF values: rho 0.2, Pi 52.08 W, "
             "Zo 33.33 ohm, F 2.201, F_dB 6.84", check)


def test_criterion_04_friis_path_loss(capsys):
    def check():
        assert abs(linkbudget.path_loss_db(0.125, 2000.0)
                   - (-106.06)) <= 0.02
        link = channel.LinkParams(tx_power=1.0, wavelength=0.125)
        ratio_db = 10.0 * math.log10(channel.friis_received_power(link,
                                                                  2000.0))
        assert abs(ratio_db - (-106.06)) <= 0.02
    _verdict(capsys, 4, "Friis path loss at 2 km, 0.125 m equals "
             "106.06 dB", check)


def test_criterion_05_two_ray(capsys):
    def check():
        start = time.monotonic()
        link = channel.LinkParams(tx_power=50.0, wavelength=0.125,
                                  tx_height=10.0, rx_height=10.0)
        d = np.logspace(1, 5, 200)
        zero_r = channel.LinkParams(tx_power=50.0, wavelength=0.125,
                                    tx_height=10.0, rx_height=10.0,
                                    ground_reflection=0.0)
        friis = channel.friis_received_power(zero_r, d)  # d_los == d here
        two_ray = channel.two_ray_received_power(zero_r, d)
        assert np.max(np.abs(two_ray - friis) / friis) <= 1e-12
        dc = channel.crossover_distance(link)
        far = np.logspace(np.log10(10 * dc), np.log10(100 * dc), 200)
        pr_db = 10.0 * np.log10(channel.two_ray_received_power(link, far))
        slope = np.polyfit(np.log10(far), pr_db, 1)[0]
        assert abs(slope + 40.0) <= 1.0
        near = np.linspace(10.0, dc, 20000)
        near_db = 10.0 * np.log10(channel.two_ray_received_power(link, near))
        mins = ((near_db[1:-1] < near_db[:-2])
                & (near_db[1:-1] < near_db[2:])
                & (near_db[1:-1] < near_db.mean() - 10.0))
        assert mins.sum() >= 3
        assert time.monotonic() - start < 5.0
    _verdict(capsys, 5, "two-ray: R=0 reduces to Friis, far slope "
             "-40 dB/decade, >= 3 nulls before crossover", check)


def test_criterion_06_qpsk_awgn_monte_carlo(capsys):
    def check():
        start = time.monotonic()
        n_bits = 1_000_000
        for ebn0 in (0, 2, 4, 6, 8):
            fading = channel.FadingParams(kind=channel.FadingKind.AWGN)
            ber, _ = channel.ber_monte_carlo(replace(fading, seed=100 + ebn0),
                                             float(ebn0), n_bits)
            p = float(channel.ber_qpsk_awgn_theoretical(float(ebn0)))
            sigma = math.sqrt(p * (1.0 - p) / n_bits)
            assert abs(ber - p) <= 3.0 * sigma, (ebn0, ber, p)
        assert time.monotonic() - start < 60.0
    _verdict(capsys, 6, "QPSK/AWGN Monte Carlo BER within 3 binomial "
             "sigma of 0.5*erfc(sqrt(Eb/N0)) at 0-8 dB", check)


def test_criterion_07_fading_ordering(capsys):
    def check():
        n_bits = 1_000_000
        kinds = {
            "rayleigh": channel.FadingParams(kind=channel.FadingKind.RAYLEIGH),
            "rician": channel.FadingParams(kind=channel.FadingKind.RICIAN,
                                           rician_k=10.0),
            "awgn": channel.FadingParams(kind=channel.FadingKind.AWGN),
        }
        results = {name: channel.ber_monte_carlo(replace(f, seed=200), 8.0,
                                                 n_bits)
                   for name, f in kinds.items()}
        bers = {name: r[0] for name, r in results.items()}

        def sigma(p):
            return math.sqrt(max(p, 1e-12) * (1.0 - p) / n_bits)

        # strict ordering with 3-sigma statistical separation
        assert bers["rayleigh"] - bers["rician"] > 3.0 * math.hypot(
            sigma(bers["rayleigh"]), sigma(bers["rician"]))
        assert bers["rician"] - bers["awgn"] > 3.0 * math.hypot(
            sigma(bers["rician"]), sigma(bers["awgn"]))
    _verdict(capsys, 7, "fading ordering at 8 dB: Rayleigh > Rician(K=10) "
             "> AWGN at 3 sigma", check)


def test_criterion_08_ber_vs_distance(capsys):
    def check():
        link, rate, noise = linkbudget.reference_ber_distance_link()
        d = np.logspace(2, 4, 200)  # two decades: 100 m .. 10 km
        ber = linkbudget.ber_vs_distance(link, rate, noise, d)["ber"]
        assert np.all(np.diff(ber) >= 0)
        assert ber[0] < 1e-9
        assert ber[-1] > 0.01
    _verdict(capsys, 8, "BER-vs-distance: monotone over two decades, "
             "<1e-9 near, >0.01 far", check)


def test_criterion_09_dynamics(capsys):
    def check():
        # hover fixed point, exact: from rest with dt = 1.0 the new velocity
        # and rates are the linear and angular accelerations
        state = UavState.at_rest(position=(0.0, 0.0, 5.0))
        rest = (state.position, state.velocity, state.euler,
                state.euler_rates)
        hover, zero = PARAMS.mass * GRAVITY, np.zeros(3)
        _, lin, _, ang = step_states(*rest, hover, zero, PARAMS, 1.0)
        assert np.all(lin == 0.0) and np.all(ang == 0.0)
        stepped = step_states(*rest, hover, zero, PARAMS, 0.01)
        assert np.array_equal(stepped[0], state.position)
        # PD step response to < 1% error
        gains = PidGains(kp=16.0, kd=8.0)
        target = Pose(position=np.array([1.0, 0.0, 5.0]))
        _, positions = simulate_position_hold(state, target, gains, PARAMS,
                                              dt=0.01, duration=10.0)
        assert np.linalg.norm(positions[-1] - target.position) < 0.01
        # free fall within the Euler error bound
        dt, n = 0.001, 2000
        falling = (zero,) * 4
        for _ in range(n):
            falling = step_states(*falling, 0.0, zero, PARAMS, dt)
        t = n * dt
        closed_form = -0.5 * GRAVITY * t * t
        bound = 0.5 * GRAVITY * t * dt  # global error of Euler
        assert abs(falling[0][2] - closed_form) <= bound + 1e-12
    _verdict(capsys, 9, "dynamics: exact hover fixed point, <1% PD step "
             "error, free fall within Euler bound", check)


def test_criterion_10_wind(capsys):
    def check():
        start = time.monotonic()
        spec_d = wind.TurbulenceSpec(sigma=(1.0, 1.0, 1.0),
                                     length=(200.0, 200.0, 50.0),
                                     model=wind.TurbulenceModel.DRYDEN)
        spec_vk = wind.TurbulenceSpec(sigma=spec_d.sigma, length=spec_d.length,
                                      model=wind.TurbulenceModel.VON_KARMAN)
        for spec in (spec_d, spec_vk):
            assert float(wind.turbulence_psd(spec, "u", 0.0)) == \
                1.0 ** 2 * 200.0 / np.pi
        series = wind.synthesize_turbulence(spec_d, "u", 1.0, 1 << 14, seed=0)
        freqs, pxx = welch(series, fs=1.0, nperseg=256)
        omega = 2.0 * np.pi * freqs[1:]
        measured = pxx[1:] / (4.0 * np.pi)
        target = wind.turbulence_psd(spec_d, "u", omega)
        lo, hi = omega[0] * 3.0, omega[0] * 30.0
        edges = np.logspace(np.log10(lo), np.log10(hi), 6)
        for a, b in zip(edges[:-1], edges[1:]):
            mask = (omega >= a) & (omega < b)
            ratio = measured[mask].mean() / target[mask].mean()
            assert 0.8 <= ratio <= 1.2, ratio
        assert time.monotonic() - start < 10.0
    _verdict(capsys, 10, "wind: Phi_u(0) = sigma^2*L/pi exact, periodogram "
             "within 20% of target over the central decade", check)


def test_criterion_11_optimizers(capsys):
    def check():
        space10 = swarm_opt.SearchSpace(lower=np.full(10, -5.0),
                                        upper=np.full(10, 5.0))
        space5 = swarm_opt.SearchSpace(lower=np.full(5, -5.0),
                                       upper=np.full(5, 5.0))
        pso_cfg = swarm_opt.PsoConfig(n_particles=40, max_iters=500, seed=42)
        gwo_cfg = swarm_opt.GwoConfig(n_wolves=30, max_iters=500, seed=42)
        wpa_cfg = swarm_opt.WpaConfig(n_wolves=20, max_iters=200, seed=42)
        pso = swarm_opt.pso_optimize(swarm_opt.sphere, space10, pso_cfg)
        gwo = swarm_opt.gwo_optimize(swarm_opt.sphere, space10, gwo_cfg)
        wpa = swarm_opt.wpa_optimize(swarm_opt.sphere, space5, wpa_cfg)
        assert pso.best_value < 1e-3
        assert gwo.best_value < 1e-3
        assert wpa.best_value < 1e-2
        for run in (pso, gwo, wpa):
            assert np.all(np.diff(run.trace) <= 0)
        # identical seeds -> bit-identical traces
        assert swarm_opt.pso_optimize(swarm_opt.sphere, space10,
                                      pso_cfg).trace == pso.trace
        assert swarm_opt.gwo_optimize(swarm_opt.sphere, space10,
                                      gwo_cfg).trace == gwo.trace
        assert swarm_opt.wpa_optimize(swarm_opt.sphere, space5,
                                      wpa_cfg).trace == wpa.trace
    _verdict(capsys, 11, "optimizers: PSO/GWO < 1e-3 (10-D), WPA < 1e-2 "
             "(5-D), monotone deterministic traces", check)


def test_criterion_12_formation(capsys):
    def check():
        rng = np.random.default_rng(0)
        for _ in range(1000):
            pos = rng.uniform(-100, 100, 3)
            off = rng.uniform(-20, 20, 3)
            shift = rng.uniform(-50, 50, 3)
            heading = rng.uniform(-np.pi, np.pi)
            extra = rng.uniform(-np.pi, np.pi)
            # FGD translation equivariance
            a, _ = follower_targets(pos, heading, off, 0.0, False)
            b, _ = follower_targets(pos + shift, heading, off, 0.0, False)
            assert np.allclose(b - a, shift, atol=1e-9)
            # DF rotation equivariance about the vertical axis
            base, _ = follower_targets(pos, heading, off, 0.0, True)
            rot, _ = follower_targets(pos, heading + extra, off, 0.0, True)
            rel = base - pos
            c, s = np.cos(extra), np.sin(extra)
            expect = np.array([c * rel[0] - s * rel[1],
                               s * rel[0] + c * rel[1], rel[2]])
            assert np.allclose(rot - pos, expect, atol=1e-7)
        # closed-loop 3-follower FGD tracking
        offsets = {"f0": np.array([-5.0, 5.0, 0.0]),
                   "f1": np.array([-5.0, -5.0, 0.0]),
                   "f2": np.array([-10.0, 0.0, 0.0])}
        roles = RoleGraph(root_id="L", edges=tuple(
            ("L", f, FormationSpec(
                mode=FormationMode.FIXED_GLOBAL_DIFFERENCE, offset=o))
            for f, o in sorted(offsets.items())))
        leader = straight_line_leader([0.0, 0.0, 10.0], [0.5, 0.0, 0.0])
        states = {f: UavState.at_rest(np.array([0.0, 0.0, 10.0]) + o)
                  for f, o in offsets.items()}
        trace = simulate_formation(leader, roles, states,
                                   PidGains(kp=36.0, kd=9.0), PARAMS,
                                   dt=0.01, duration=20.0)
        for f, o in offsets.items():
            err = trace.offset_error(f, o)
            assert err[-1] < 0.02 * np.linalg.norm(o), (f, err[-1])
    _verdict(capsys, 12, "formation: FGD/DF equivariance over 1000 poses, "
             "closed-loop offset error < 2%", check)


def test_criterion_13_network(capsys):
    def check():
        rng = np.random.default_rng(0)
        # Dijkstra vs exhaustive enumeration on <= 8 nodes
        for _ in range(100):
            n = int(rng.integers(3, 9))
            graph = _random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
            expect = _brute_force_shortest(graph, "u0", f"u{n - 1}")
            path, cost = network.route_shortest(graph, "u0", f"u{n - 1}")
            if expect is None:
                assert path is None
            else:
                assert abs(cost - expect) <= 1e-9 * max(expect, 1.0)
        # A* equals Dijkstra on 50 random 20x20 grids
        for _ in range(50):
            walls = {(int(x), int(y))
                     for x, y in rng.integers(0, 20, size=(60, 2))}
            walls -= {(0, 0), (19, 19)}
            grid = network.grid_graph(20, 20, walls)
            a_path, a_cost, _ = network.astar(grid, "0,0", "19,19")
            d_path, d_cost = network.route_shortest(grid, "0,0", "19,19")
            assert (a_path is None) == (d_path is None)
            if d_path is not None:
                assert abs(a_cost - d_cost) <= 1e-9
        # flooding delivered set equals the BFS oracle
        for _ in range(50):
            graph = _random_graph(rng, int(rng.integers(4, 12)), 0.3)
            for ttl in (0, 1, 2, 11):
                delivered, _, _ = network.flood(graph, "u0", ttl)
                assert delivered == _bfs_reachable(graph, "u0", ttl)
        # structural invariants over 100 random constructions
        kinds = list(network.TopologyKind)
        built = 0
        while built < 100:
            kind = kinds[int(rng.integers(len(kinds)))]
            n_uavs = int(rng.integers(2, 12))
            n_groups = (1 if kind is network.TopologyKind.SINGLE_GROUP_AD_HOC
                        else int(rng.integers(1, min(n_uavs, 4) + 1)))
            positions = {network.GROUND_STATION_ID: np.zeros(3)}
            for i in range(n_uavs):
                positions[f"u{i}"] = rng.uniform(-30, 30, 3)
            try:
                graph = network.build_topology(kind, n_uavs, n_groups, 80.0,
                                               positions)
            except network.TopologyError:
                continue
            masters = [n for n, r in zip(graph.nodes, graph.roles)
                       if r is network.NodeRole.MASTER_UAV]
            near = {a: graph.near(a) for a in graph.nodes}
            gs_deg = len(near[network.GROUND_STATION_ID])
            for a, nbrs in near.items():
                for b, cost in nbrs.items():
                    assert near[b][a] == cost and a != b
            for node in graph.nodes:
                assert network.route_hops(
                    graph, node, network.GROUND_STATION_ID) >= 0
            if kind is network.TopologyKind.STAR:
                assert not masters and gs_deg == n_uavs
            elif kind is network.TopologyKind.MULTI_STAR:
                assert len(masters) == n_groups and gs_deg == n_groups
            elif kind is network.TopologyKind.SINGLE_GROUP_AD_HOC:
                assert masters == ["u0"] and gs_deg == 1
            elif kind is network.TopologyKind.MULTI_GROUP_AD_HOC:
                assert set(near[network.GROUND_STATION_ID]) == \
                    set(masters)
            else:
                assert len(masters) == n_groups and gs_deg == 1
            built += 1
        # APF local minimum is detected and reported
        fld = network.ObstacleField(
            goal=np.array([20.0, 0.0, 0.0]),
            obstacles=((np.array([10.0, 0.0, 0.0]), 2.0),))
        _, outcome = network.apf_plan([0.0, 0.0, 0.0], fld, repel_gain=100.0,
                                      influence_radius=5.0, step=0.05,
                                      max_steps=50000)
        assert outcome is network.ApfOutcome.LOCAL_MINIMUM
    _verdict(capsys, 13, "network: Dijkstra = brute force, A* = Dijkstra, "
             "flooding = BFS, topology invariants, APF local minimum "
             "detected", check)
