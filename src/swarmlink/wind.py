"""Atmospheric turbulence spectra (Dryden / Von Karman) and turbulence
time-series synthesis.

Spectra are two-sided densities over spatial frequency Omega (rad/m): for
every component the integral of the density over the whole real line
equals sigma**2.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TurbulenceModel",
    "TurbulenceSpec",
    "dryden_psd",
    "von_karman_psd",
    "turbulence_psd",
    "probe_bins",
    "synthesis_gain",
    "synthesize_turbulence",
]

VON_KARMAN_A = 1.339

_COMPONENTS = ("u", "v", "w")


class TurbulenceModel(enum.Enum):
    DRYDEN = "dryden"
    VON_KARMAN = "von_karman"


@dataclass(frozen=True)
class TurbulenceSpec:
    """Turbulence intensities (m/s) and scale lengths (m) per axis."""

    sigma: tuple[float, float, float]
    length: tuple[float, float, float]
    model: TurbulenceModel = TurbulenceModel.DRYDEN

    def __post_init__(self):
        if len(self.sigma) != 3 or len(self.length) != 3:
            raise ValueError("sigma and length must be 3-vectors")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma components must be non-negative")
        if any(l <= 0 for l in self.length):
            raise ValueError("length components must be positive")
        if not all(map(math.isfinite, (*self.sigma, *self.length))):
            raise ValueError("sigma and length components must be finite")

    def params_for(self, component: str) -> tuple[float, float]:
        try:
            i = _COMPONENTS.index(component)
        except ValueError:
            raise ValueError(f"component must be one of {_COMPONENTS}") from None
        return self.sigma[i], self.length[i]


def dryden_psd(spec: TurbulenceSpec, component: str, omega):
    """Dryden spectral density at spatial frequency ``omega`` (rad/m)."""
    sigma, length = spec.params_for(component)
    omega = np.asarray(omega, dtype=float)
    lo2 = (length * omega) ** 2
    if component == "u":
        shape = 1.0 / (1.0 + lo2)
    else:
        shape = (1.0 + 12.0 * lo2) / (1.0 + 4.0 * lo2) ** 2
    return sigma ** 2 * length / np.pi * shape


def von_karman_psd(spec: TurbulenceSpec, component: str, omega):
    """Von Karman spectral density at spatial frequency ``omega`` (rad/m).

    The transverse (v, w) form is MIL-F-8785C's with the scale written as
    2L, as in :func:`dryden_psd`.
    """
    sigma, length = spec.params_for(component)
    omega = np.asarray(omega, dtype=float)
    a = VON_KARMAN_A
    if component == "u":
        shape = (1.0 + (a * length * omega) ** 2) ** (-5.0 / 6.0)
    else:
        x2 = (2.0 * a * length * omega) ** 2
        shape = (1.0 + (8.0 / 3.0) * x2) / (1.0 + x2) ** (11.0 / 6.0)
    return sigma ** 2 * length / np.pi * shape


def turbulence_psd(spec: TurbulenceSpec, component: str, omega):
    """Dispatch to the spectral density selected by ``spec.model``."""
    if spec.model is TurbulenceModel.DRYDEN:
        return dryden_psd(spec, component, omega)
    return von_karman_psd(spec, component, omega)


def probe_bins(spec: TurbulenceSpec, component: str, sample_spacing: float,
               n_samples: int) -> np.ndarray:
    """The rfft bins of :func:`synthesize_turbulence` where its gain or the
    density's terms are largest: DC, the two either side of the density's
    peak, and Nyquist. The density peaks at Omega = 0 for u; the v and w
    shapes peak above that, by 9/8 at L*Omega = 1/sqrt(12) for Dryden and
    by about 1.116 at (2aL*Omega)**2 = 3/8 for Von Karman. Every term of
    the densities grows with Omega."""
    _, length = spec.params_for(component)
    if component == "u":
        peak = 0.0
    elif spec.model is TurbulenceModel.DRYDEN:
        peak = 1.0 / (math.sqrt(12.0) * length)
    else:
        peak = math.sqrt(3.0 / 8.0) / (2.0 * VON_KARMAN_A * length)
    nyquist = n_samples // 2
    k = int(min(peak * n_samples * sample_spacing / (2.0 * np.pi), nyquist))
    return np.array([0, k, min(k + 1, nyquist), nyquist], dtype=float)


def synthesis_gain(spec: TurbulenceSpec, component: str,
                   sample_spacing: float, n_samples: int,
                   bins: np.ndarray) -> np.ndarray:
    """sqrt(2*pi*psd/sample_spacing) on the rfft ``bins`` of an
    ``n_samples`` series: the factor by which :func:`synthesize_turbulence`
    shapes each bin, since white noise with unit variance has two-sided
    density sample_spacing/(2*pi).

    ``bins`` is a float array of bin indices, overwritten in place with
    their frequencies Omega (rad/m), so the full grid costs no second
    array. Every caller takes this one path from bin to gain."""
    omega = bins
    omega *= 1.0 / (n_samples * sample_spacing)
    omega *= 2.0 * np.pi
    gain = turbulence_psd(spec, component, omega)
    gain *= 2.0
    gain *= np.pi
    gain /= sample_spacing
    return np.sqrt(gain, out=gain)


def synthesize_turbulence(spec: TurbulenceSpec, component: str,
                          sample_spacing: float, n_samples: int,
                          seed: int) -> np.ndarray:
    """Synthesize a zero-mean gust series whose periodogram follows the
    selected spectral density.

    White Gaussian noise is shaped in the frequency domain by the square
    root of the target density. ``n_samples`` must be a power of two and
    the DC bin is zeroed so the series is exactly zero-mean.

    Each array is freed or reused in place once spent. With n = n_samples,
    the function holds the white noise and its spectrum during the forward
    transform; then the spectrum, omega and the density's temporaries over
    the n/2 + 1 bins while the gain is built in place of the density; then
    the spectrum and the series. At n = 2**17 that peaks at 2.5 to 3.5 MiB
    of numpy arrays, depending on the density. The transform runs
    first so that pocketfft's scratch is freed before the density's
    temporaries are allocated: the reverse order holds 1 MiB less in
    arrays, but cold CLI runs at 2**16 and 2**17 samples reached a peak
    resident set 0.4 to 0.9 MiB higher with it.
    """
    if not 0 < sample_spacing < math.inf:
        raise ValueError("sample_spacing must be finite and > 0")
    if n_samples < 2 or n_samples & (n_samples - 1):
        raise ValueError("n_samples must be a power of two >= 2")
    spectrum = np.fft.rfft(
        np.random.default_rng(seed).standard_normal(n_samples))
    spectrum *= synthesis_gain(spec, component, sample_spacing, n_samples,
                               np.arange(n_samples // 2 + 1, dtype=float))
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n_samples)

