"""Channel tests: Friis/two-ray against hand-computed values, exhaustive
QPSK mapping, and Monte Carlo BER against the analytic curve."""
import decimal
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from swarmlink.channel import (FadingKind, FadingParams, LinkParams,
                               apply_channel, ber_monte_carlo,
                               ber_qpsk_awgn_theoretical,
                               ber_qpsk_theoretical, crossover_distance,
                               friis_received_power, noise_sigma,
                               qpsk_demodulate, qpsk_modulate,
                               two_ray_received_power, watts_to_dbm)

LINK = LinkParams(tx_power=50.0, wavelength=0.125, tx_gain=1.0, rx_gain=1.0,
                  tx_height=10.0, rx_height=10.0)


def test_watts_to_dbm():
    assert watts_to_dbm(1e-3) == pytest.approx(0.0)
    assert watts_to_dbm(1.0) == pytest.approx(30.0)
    assert watts_to_dbm(2e-3) == pytest.approx(10.0 * math.log10(2.0))


def test_friis_hand_value():
    # Pt=50, G=1, lambda=0.125, d=2000: Pr = 50*(0.125/(4*pi*2000))^2
    expected = 50.0 * (0.125 / (4.0 * math.pi * 2000.0)) ** 2
    pr = friis_received_power(LINK, 2000.0)
    assert pr == pytest.approx(expected, rel=1e-15)
    # path loss in dB matches the textbook 106.06 dB figure
    loss_db = watts_to_dbm(LINK.tx_power) - watts_to_dbm(pr)
    assert loss_db == pytest.approx(106.06, abs=0.02)


def test_friis_inverse_square():
    p1 = friis_received_power(LINK, 1000.0)
    p2 = friis_received_power(LINK, 2000.0)
    assert p1 / p2 == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        friis_received_power(LINK, 0.0)


def test_friis_vectorized():
    d = np.array([100.0, 1000.0, 10000.0])
    pr = friis_received_power(LINK, d)
    assert pr.shape == (3,)
    assert np.all(np.diff(pr) < 0)


def test_crossover_distance():
    assert crossover_distance(LINK) == pytest.approx(
        4.0 * math.pi * 10.0 * 10.0 / 0.125, rel=1e-15)


def test_two_ray_r0_equals_friis_at_dlos():
    link = LinkParams(tx_power=50.0, wavelength=0.125, tx_height=10.0,
                      rx_height=15.0, ground_reflection=0.0)
    d = np.logspace(1, 5, 50)
    d_los = np.sqrt(d ** 2 + (10.0 - 15.0) ** 2)
    friis = friis_received_power(link, d_los)
    two_ray = two_ray_received_power(link, d)
    np.testing.assert_allclose(two_ray, friis, rtol=1e-12)


def test_two_ray_far_field_slope():
    dc = crossover_distance(LINK)
    d = np.logspace(np.log10(10 * dc), np.log10(100 * dc), 200)
    pr_db = 10.0 * np.log10(two_ray_received_power(LINK, d))
    slope = np.polyfit(np.log10(d), pr_db, 1)[0]
    assert slope == pytest.approx(-40.0, abs=1.0)


def test_two_ray_nulls_before_crossover():
    dc = crossover_distance(LINK)
    d = np.linspace(10.0, dc, 20000)
    pr_db = 10.0 * np.log10(two_ray_received_power(LINK, d))
    interior = (pr_db[1:-1] < pr_db[:-2]) & (pr_db[1:-1] < pr_db[2:])
    deep = interior & (pr_db[1:-1] < pr_db.mean() - 10.0)
    assert deep.sum() >= 3


def test_two_ray_hand_value():
    # single hand-evaluated point
    link = LinkParams(tx_power=1.0, wavelength=1.0, tx_height=5.0,
                      rx_height=5.0, ground_reflection=-1.0)
    d_los = math.sqrt(100.0 ** 2 + 0.0)
    d_ref = math.sqrt(100.0 ** 2 + 10.0 ** 2)
    phi = 2.0 * math.pi * (d_ref - d_los)
    fld = 1.0 / d_los - complex(math.cos(phi), math.sin(phi)) / d_ref
    expected = (1.0 / (4.0 * math.pi)) ** 2 * abs(fld) ** 2
    assert two_ray_received_power(link, 100.0) == pytest.approx(expected,
                                                                rel=1e-12)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def _two_ray_oracle(link: LinkParams, d: float) -> float:
    """Two-ray power with the phase difference taken at 50 digits:
    Pt (lambda/4pi)^2 (a^2 + R^2 b^2 + 2 R a b cos(phi)), a = 1/d_los,
    b = 1/d_ref, unit gains."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d, ht, hr, lam, r = map(decimal.Decimal, (
            d, link.tx_height, link.rx_height, link.wavelength,
            link.ground_reflection))
        d_los = (d * d + (ht - hr) ** 2).sqrt()
        d_ref = (d * d + (ht + hr) ** 2).sqrt()
        x = 2 * _PI * (d_ref - d_los) / lam % (2 * _PI)
        cos = term = decimal.Decimal(1)
        for k in range(2, 200, 2):   # Taylor series; x < 2 pi
            term *= -x * x / (k * (k - 1))
            cos += term
        a, b = 1 / d_los, 1 / d_ref
        return float(decimal.Decimal(link.tx_power) * (lam / (4 * _PI)) ** 2
                     * (a * a + r * r * b * b + 2 * r * a * b * cos))


@pytest.mark.parametrize("link", [
    LINK, LinkParams(tx_power=50.0, wavelength=0.125, tx_height=100.0,
                     rx_height=1.5, ground_reflection=-0.7)])
def test_two_ray_phase_difference_matches_decimal_oracle(link):
    # d_ref - d_los taken by subtraction cancels to 0 far out: the power
    # was then 0 (-inf dB) with R = -1, and 1e-9 off at 2e8 m with R = -0.7
    d = np.logspace(1, 14, 53)
    expected = [_two_ray_oracle(link, x) for x in d.tolist()]
    np.testing.assert_allclose(two_ray_received_power(link, d), expected,
                               rtol=1e-12)


def _two_ray_out_of_place(link: LinkParams, distance):
    """The two-ray power as the model first computed it, one temporary
    per operation; the in-place form must keep its every bit."""
    d = np.asarray(distance, dtype=float)
    dh = link.tx_height - link.rx_height
    sh = link.tx_height + link.rx_height
    d_los = np.sqrt(d ** 2 + dh ** 2)
    d_ref = np.sqrt(d ** 2 + sh ** 2)
    path_difference = 4.0 * link.tx_height * link.rx_height / (d_ref + d_los)
    phi = 2.0 * np.pi * path_difference / link.wavelength
    gain = math.sqrt(link.tx_gain * link.rx_gain)
    field = (gain / d_los
             + link.ground_reflection * np.exp(1j * phi) * gain / d_ref)
    return (link.tx_power * (link.wavelength / (4.0 * np.pi)) ** 2
            * np.abs(field) ** 2)


def test_in_place_two_ray_keeps_every_bit():
    rng = np.random.default_rng(18)
    for _ in range(60):
        tx_power, wavelength = rng.uniform(0.1, 100.0), rng.uniform(0.01, 2.0)
        distance = rng.uniform(1.0, 1e5)
        link = LinkParams(
            tx_power=tx_power, wavelength=wavelength,
            tx_gain=rng.uniform(0.5, 3.0),
            rx_gain=rng.uniform(0.5, 3.0), tx_height=rng.uniform(0.5, 300.0),
            rx_height=rng.uniform(0.5, 300.0),
            ground_reflection=rng.choice([-1.0, 0.0, rng.uniform(-1.0, 0.0)]))
        for d in (distance, float(rng.uniform(1.0, 1e5)),
                  np.array(rng.uniform(1.0, 1e5)),
                  np.array([rng.uniform(1.0, 1e5)]), np.logspace(1, 14, 301),
                  rng.uniform(1e-3, 1e7, size=(4, 5))):
            new = two_ray_received_power(link, d)
            old = _two_ray_out_of_place(link, d)
            assert type(new) is type(old) and np.shape(new) == np.shape(old)
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


def test_two_ray_sweep_runs_in_little_memory():
    """20,000 distances: the out-of-place form peaks at 1.4 MiB, with a
    complex temporary per operation."""
    d = np.logspace(1, 5, 20_000)
    two_ray_received_power(LINK, d)
    tracemalloc.start()
    try:
        two_ray_received_power(LINK, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 2 ** 20, peak


def test_qpsk_mapping_exhaustive():
    symbols = qpsk_modulate([0, 0, 0, 1, 1, 0, 1, 1])
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(
        symbols, [s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])
    # unit symbol energy
    np.testing.assert_allclose(np.abs(symbols), 1.0)


def test_qpsk_roundtrip_all_pairs():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
    np.testing.assert_array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)


def test_qpsk_decision_regions():
    """Exhaustive 4-point oracle: any point strictly inside a quadrant
    decodes to that quadrant's bit pair."""
    for b0 in (0, 1):
        for b1 in (0, 1):
            point = complex(0.3 * (1 - 2 * b0), 0.9 * (1 - 2 * b1))
            np.testing.assert_array_equal(qpsk_demodulate([point]), [b0, b1])


def test_qpsk_validation():
    with pytest.raises(ValueError):
        qpsk_modulate([0, 1, 0])  # odd
    with pytest.raises(ValueError):
        qpsk_modulate([0, 2])


@pytest.mark.parametrize("bits", [[0.5, 1.7], [0, 0.5], [-1, 1],
                                  [0.0, math.nan]])
def test_qpsk_rejects_bits_off_zero_one_before_the_int_cast(bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        qpsk_modulate(bits)


def test_qpsk_accepts_bools_and_integral_floats():
    expected = qpsk_modulate([0, 1, 1, 0])
    np.testing.assert_array_equal(qpsk_modulate([False, True, True, False]),
                                  expected)
    np.testing.assert_array_equal(qpsk_modulate([0.0, 1.0, 1.0, 0.0]),
                                  expected)


def test_theoretical_ber_values():
    # 0.5*erfc(sqrt(Eb/N0)); spot checks
    assert ber_qpsk_awgn_theoretical(0.0) == pytest.approx(
        0.5 * erfc(1.0), rel=1e-12)
    assert ber_qpsk_awgn_theoretical(10.0) == pytest.approx(
        0.5 * erfc(math.sqrt(10.0)), rel=1e-12)


def test_awgn_noise_scaling():
    """Noiseless limit sanity: at very high Eb/N0 no errors occur."""
    fading = FadingParams(kind=FadingKind.AWGN, seed=1)
    ber, errors = ber_monte_carlo(fading, 30.0, 10000)
    assert errors == 0 and ber == 0.0


def test_apply_channel_deterministic():
    symbols = qpsk_modulate(np.random.default_rng(0).integers(0, 2, 100))
    fading = FadingParams(kind=FadingKind.RAYLEIGH, seed=11)
    a = apply_channel(symbols, fading, 5.0)
    b = apply_channel(symbols, fading, 5.0)
    assert np.array_equal(a, b)


def test_monte_carlo_matches_theory():
    n_bits = 200000
    for ebn0 in (0.0, 4.0, 8.0):
        fading = FadingParams(kind=FadingKind.AWGN)
        ber, errors = ber_monte_carlo(replace(fading, seed=50 + int(ebn0)),
                                      ebn0, n_bits)
        p = float(ber_qpsk_awgn_theoretical(ebn0))
        sigma = math.sqrt(p * (1.0 - p) / n_bits)
        assert abs(ber - p) <= 4.0 * sigma


def test_rayleigh_ber_near_closed_form():
    """Rayleigh closed-form oracle: Pb = 0.5*(1 - sqrt(g/(1+g)))."""
    ebn0_db = 8.0
    g = 10.0 ** (ebn0_db / 10.0)
    p = 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
    n_bits = 400000
    fading = FadingParams(kind=FadingKind.RAYLEIGH)
    ber, _ = ber_monte_carlo(replace(fading, seed=4), ebn0_db, n_bits)
    sigma = math.sqrt(p * (1.0 - p) / n_bits)
    assert abs(ber - p) <= 4.0 * sigma


def test_fading_ordering():
    n_bits = 200000
    kinds = {
        "rayleigh": FadingParams(kind=FadingKind.RAYLEIGH),
        "rician": FadingParams(kind=FadingKind.RICIAN, rician_k=10.0),
        "awgn": FadingParams(kind=FadingKind.AWGN),
    }
    bers = {name: ber_monte_carlo(replace(f, seed=21), 8.0, n_bits)[0]
            for name, f in kinds.items()}
    assert bers["rayleigh"] > bers["rician"] > bers["awgn"]


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(tx_power=0.0, wavelength=0.1)
    with pytest.raises(ValueError):
        LinkParams(tx_power=1.0, wavelength=0.1, ground_reflection=0.5)
    with pytest.raises(ValueError):
        ber_monte_carlo(FadingParams(), 0.0, 3)


@pytest.mark.parametrize("kind", [FadingKind.RAYLEIGH, FadingKind.RICIAN])
@pytest.mark.parametrize("ebn0_db", [-10.0, 0.0, 4.0, 8.0, 20.0, 40.0])
def test_fading_theory_k0_is_rayleigh_closed_form(kind, ebn0_db):
    # Rayleigh ignores rician_k; Rician with K = 0 is Rayleigh
    g = 10.0 ** (ebn0_db / 10.0)
    got = float(ber_qpsk_theoretical(FadingParams(kind, rician_k=0.0),
                                     ebn0_db))
    assert got == pytest.approx(0.5 * (1.0 - math.sqrt(g / (1.0 + g))),
                                rel=1e-13)


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0, 100.0])
@pytest.mark.parametrize("ebn0_db", [0.0, 6.0, 12.0])
def test_rician_theory_matches_quadrature(k, ebn0_db):
    g = 10.0 ** (ebn0_db / 10.0)

    def integrand(theta):
        s = math.sin(theta) ** 2
        d = (1.0 + k) * s + g
        return (1.0 + k) * s / d * math.exp(-k * g / d)

    expected = quad(integrand, 0.0, math.pi / 2, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0] / math.pi
    got = float(ber_qpsk_theoretical(FadingParams(FadingKind.RICIAN, k),
                                     ebn0_db))
    assert got == pytest.approx(expected, rel=1e-11)


def test_fading_theory_limits_and_shape():
    grid = np.array([0.0, 4.0, 8.0])
    awgn = ber_qpsk_awgn_theoretical(grid)
    assert np.array_equal(ber_qpsk_theoretical(FadingParams(), grid), awgn)
    # a dominant line of sight tends to AWGN
    strong = ber_qpsk_theoretical(FadingParams(FadingKind.RICIAN, 1e6), grid)
    assert strong.shape == grid.shape
    np.testing.assert_allclose(strong, awgn, rtol=1e-3)
    # no signal: a coin toss for every fading kind
    for kind in FadingKind:
        assert float(ber_qpsk_theoretical(FadingParams(kind), -200.0)) == \
            pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("kind,k", [(FadingKind.RICIAN, 3.0),
                                    (FadingKind.RICIAN, 10.0),
                                    (FadingKind.RAYLEIGH, 0.0)])
def test_fading_theory_matches_monte_carlo(kind, k):
    n_bits = 400_000
    for seed, ebn0_db in enumerate((0.0, 4.0, 8.0)):
        p = float(ber_qpsk_theoretical(FadingParams(kind, k), ebn0_db))
        _, n_err = ber_monte_carlo(FadingParams(kind, k, seed=seed),
                                   ebn0_db, n_bits)
        sigma = math.sqrt(n_bits * p * (1.0 - p))
        assert abs(n_err - n_bits * p) <= 4.0 * sigma + 2.0


@pytest.mark.parametrize("ebn0_db", [4000.0, 1e308, -4000.0, -1e308,
                                     math.inf, -math.inf, math.nan])
def test_eb_n0_without_finite_noise_level_is_rejected(ebn0_db):
    with pytest.raises(ValueError):
        noise_sigma(ebn0_db)
    fading = FadingParams(FadingKind.RAYLEIGH, seed=1)
    with pytest.raises(ValueError):
        ber_monte_carlo(fading, ebn0_db, 100)
    with pytest.raises(ValueError):
        apply_channel(np.ones(4, dtype=complex), fading, ebn0_db)


@pytest.mark.parametrize("ebn0_db", [-3000.0, -10.0, 0.0, 4.0, 3000.0])
def test_noise_sigma_hand_form(ebn0_db):
    es_n0 = 2.0 * 10.0 ** (ebn0_db / 10.0)
    assert noise_sigma(ebn0_db) == math.sqrt(1.0 / (2.0 * es_n0))
