"""Wind module tests: spectral values against hand-computed oracles, a
Welch periodogram oracle for the synthesizer, and shear/drag identities."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.signal import welch

from swarmlink.wind import (TurbulenceModel, TurbulenceSpec, WindShearCoeff,
                            airflow_drag_force, dryden_psd, probe_bins,
                            synthesis_gain, synthesize_turbulence,
                            turbulence_psd, von_karman_psd,
                            wind_shear_response)

SPEC_D = TurbulenceSpec(sigma=(1.5, 1.2, 0.8), length=(200.0, 150.0, 50.0),
                        model=TurbulenceModel.DRYDEN)
SPEC_VK = TurbulenceSpec(sigma=(1.5, 1.2, 0.8), length=(200.0, 150.0, 50.0),
                         model=TurbulenceModel.VON_KARMAN)


def test_zero_frequency_value():
    # both models: Phi_u(0) = sigma^2 * L / pi, exactly
    for spec in (SPEC_D, SPEC_VK):
        for comp in ("u", "v", "w"):
            sigma, length = spec.params_for(comp)
            assert turbulence_psd(spec, comp, 0.0) == pytest.approx(
                sigma ** 2 * length / np.pi, rel=1e-15)


def test_dryden_u_hand_value():
    # sigma^2*L/pi / (1 + (L*Omega)^2) at Omega = 0.01, L = 200, sigma = 1.5
    omega = 0.01
    expected = 1.5 ** 2 * 200.0 / np.pi / (1.0 + (200.0 * omega) ** 2)
    assert dryden_psd(SPEC_D, "u", omega) == pytest.approx(expected, rel=1e-15)


def test_dryden_v_hand_value():
    omega = 0.02
    lo2 = (150.0 * omega) ** 2
    expected = 1.2 ** 2 * 150.0 / np.pi * (1 + 12 * lo2) / (1 + 4 * lo2) ** 2
    assert dryden_psd(SPEC_D, "v", omega) == pytest.approx(expected, rel=1e-15)


def test_von_karman_u_hand_value():
    omega = 0.02
    a = 1.339
    expected = (1.5 ** 2 * 200.0 / np.pi
                * (1.0 + (a * 200.0 * omega) ** 2) ** (-5.0 / 6.0))
    assert von_karman_psd(SPEC_VK, "u", omega) == pytest.approx(
        expected, rel=1e-15)


def test_von_karman_w_hand_value():
    omega = 0.05
    a = 1.339
    lo2 = (50.0 * omega) ** 2
    expected = (0.8 ** 2 * 50.0 / np.pi
                * (1 + (8.0 / 3.0) * (2 * a) ** 2 * lo2)
                / (1 + (2 * a) ** 2 * lo2) ** (11.0 / 6.0))
    assert von_karman_psd(SPEC_VK, "w", omega) == pytest.approx(
        expected, rel=1e-15)


@pytest.mark.parametrize("component", ["u", "v", "w"])
@pytest.mark.parametrize("spec", [SPEC_D, SPEC_VK])
def test_u_psd_integrates_to_variance(spec, component):
    # two-sided density: integral over the real line equals sigma^2
    sigma, _ = spec.params_for(component)
    half, _ = quad(lambda w: float(turbulence_psd(spec, component, w)),
                   0.0, np.inf, limit=400)
    assert 2.0 * half == pytest.approx(sigma ** 2, rel=1e-4)


def test_high_frequency_rolloff():
    # Dryden u falls as Omega^-2, Von Karman u as Omega^-5/3
    w1, w2 = 1.0, 10.0
    ratio_d = dryden_psd(SPEC_D, "u", w1) / dryden_psd(SPEC_D, "u", w2)
    assert ratio_d == pytest.approx((w2 / w1) ** 2, rel=0.01)
    ratio_vk = von_karman_psd(SPEC_VK, "u", w1) / von_karman_psd(SPEC_VK, "u", w2)
    assert ratio_vk == pytest.approx((w2 / w1) ** (5.0 / 3.0), rel=0.01)


def test_synthesized_series_is_zero_mean_and_deterministic():
    series = synthesize_turbulence(SPEC_D, "u", 1.0, 4096, seed=7)
    assert series.shape == (4096,)
    assert abs(series.mean()) < 1e-12
    again = synthesize_turbulence(SPEC_D, "u", 1.0, 4096, seed=7)
    assert np.array_equal(series, again)
    other = synthesize_turbulence(SPEC_D, "u", 1.0, 4096, seed=8)
    assert not np.array_equal(series, other)


def test_synthesized_variance_near_target():
    # variance over many samples approaches sigma^2 (minus the tiny tail
    # above Nyquist, negligible for this spacing/length combination)
    spec = TurbulenceSpec(sigma=(1.0, 1.0, 1.0), length=(200.0, 200.0, 50.0))
    acc = []
    for seed in range(8):
        s = synthesize_turbulence(spec, "u", 1.0, 1 << 15, seed=seed)
        acc.append(s.var())
    assert np.mean(acc) == pytest.approx(1.0, rel=0.1)


def test_periodogram_matches_target_psd():
    """Welch periodogram oracle: the one-sided temporal density P(f)
    relates to the two-sided spatial density by S(Omega) = P(f)/(4*pi)
    with Omega = 2*pi*f for unit sample spacing."""
    spec = TurbulenceSpec(sigma=(1.0, 1.0, 1.0), length=(200.0, 200.0, 50.0))
    series = synthesize_turbulence(spec, "u", 1.0, 1 << 14, seed=0)
    freqs, pxx = welch(series, fs=1.0, nperseg=256)
    omega = 2.0 * np.pi * freqs[1:]
    measured = pxx[1:] / (4.0 * np.pi)
    target = turbulence_psd(spec, "u", omega)
    # band-average over the central decade in 5 logarithmic bins
    lo, hi = omega[0] * 3.0, omega[0] * 30.0
    edges = np.logspace(np.log10(lo), np.log10(hi), 6)
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (omega >= a) & (omega < b)
        assert mask.any()
        ratio = measured[mask].mean() / target[mask].mean()
        assert 0.8 <= ratio <= 1.2


def test_synthesis_rejects_bad_sizes():
    with pytest.raises(ValueError):
        synthesize_turbulence(SPEC_D, "u", 1.0, 1000, seed=0)  # not 2^k
    with pytest.raises(ValueError):
        synthesize_turbulence(SPEC_D, "u", 0.0, 1024, seed=0)
    # NaN spacing gave an all-NaN series and inf an all-zero one
    for spacing in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sample_spacing"):
            synthesize_turbulence(SPEC_D, "u", spacing, 1024, seed=0)


def _out_of_place_synthesis(spec, component, sample_spacing, n_samples,
                            seed):
    """The synthesis with every intermediate a new array, the reference
    that the in-place one must match bit for bit."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n_samples)
    freqs = np.fft.rfftfreq(n_samples, d=sample_spacing)
    omega = 2.0 * np.pi * freqs
    psd = turbulence_psd(spec, component, omega)
    gain = np.sqrt(psd * 2.0 * np.pi / sample_spacing)
    spectrum = np.fft.rfft(white) * gain
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n_samples)


@pytest.mark.parametrize("spec", [SPEC_D, SPEC_VK], ids=["dryden", "vk"])
def test_in_place_synthesis_keeps_every_bit(spec):
    for component, spacing, n in itertools.product(
            "uvw", (0.37, 1.0, 2.5), (2, 8, 4096)):
        seed = n + int(100 * spacing)
        assert np.array_equal(
            synthesize_turbulence(spec, component, spacing, n, seed),
            _out_of_place_synthesis(spec, component, spacing, n, seed)), \
            (component, spacing, n)


@pytest.mark.parametrize("component", ["u", "w"])
def test_synthesis_runs_in_little_memory(component):
    """White noise, frequencies, omega, density, gain, spectrum and series
    of a 2**17-sample series (1 MiB) held at once take 5.0 MiB; freed or
    reused in place as soon as spent, they peak at 2.5 MiB for u and
    3.5 MiB for w."""
    spec = TurbulenceSpec(sigma=(1.0, 1.0, 0.7), length=(200.0, 200.0, 150.0),
                          model=TurbulenceModel.VON_KARMAN)
    synthesize_turbulence(spec, component, 1.0, 2 ** 17, seed=1)   # warm up
    tracemalloc.start()
    try:
        synthesize_turbulence(spec, component, 1.0, 2 ** 17, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("spec", [SPEC_D, SPEC_VK], ids=["dryden", "vk"])
def test_probe_bins_hold_the_largest_gain(spec):
    for component, spacing, n in itertools.product(
            "uvw", (0.37, 1.0, 2.5, 40.0), (2, 8, 4096)):
        bins = probe_bins(spec, component, spacing, n)
        every = np.arange(n // 2 + 1, dtype=float)
        assert synthesis_gain(spec, component, spacing, n, every).max() == \
            synthesis_gain(spec, component, spacing, n, bins.copy()).max(), \
            (component, spacing, n, bins)


@pytest.mark.parametrize("spec,component,ratio", [
    (SPEC_D, "u", 1.0), (SPEC_VK, "u", 1.0), (SPEC_D, "v", 9.0 / 8.0),
    (SPEC_VK, "w", 2.0 / (11.0 / 8.0) ** (11.0 / 6.0))])   # about 1.1155
def test_density_peak_over_its_value_at_zero(spec, component, ratio):
    gain = synthesis_gain(spec, component, 40.0, 2 ** 16,
                          np.arange(2 ** 15 + 1, dtype=float))
    assert (gain.max() / gain[0]) ** 2 == pytest.approx(ratio, rel=1e-6)


@given(st.floats(-0.999, 0.999), st.floats(-50, 50))
def test_shear_split_sums(p, delta_vw):
    dvg, dva = wind_shear_response(WindShearCoeff(p=p), delta_vw)
    assert dvg + dva == pytest.approx(delta_vw, abs=1e-9)
    assert dvg == pytest.approx(p * delta_vw, abs=1e-9)


def test_shear_coeff_validation():
    with pytest.raises(ValueError):
        WindShearCoeff(p=1.0)
    with pytest.raises(ValueError):
        WindShearCoeff(p=-1.5)


def test_drag_force_formula():
    # rho * v^2 * C_D * S, no 1/2 factor
    assert airflow_drag_force(1.225, 10.0, 0.5, 0.2) == pytest.approx(
        1.225 * 100.0 * 0.5 * 0.2, rel=1e-15)
    assert airflow_drag_force(1.225, 0.0, 0.5, 0.2) == 0.0
    with pytest.raises(ValueError):
        airflow_drag_force(-1.0, 1.0, 1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        TurbulenceSpec(sigma=(1.0, 1.0), length=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        TurbulenceSpec(sigma=(1.0, 1.0, 1.0), length=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        SPEC_D.params_for("x")
    for bad in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TurbulenceSpec(sigma=bad, length=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            TurbulenceSpec(sigma=(1.0, 1.0, 1.0), length=bad)
