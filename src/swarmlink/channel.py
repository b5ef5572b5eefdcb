"""Physical-layer models: Friis and two-ray ground-reflection received
power, QPSK modulation/demodulation, AWGN / Rician / Rayleigh channels,
and analytic plus Monte Carlo bit-error rates. Each random draw is seeded
from ``FadingParams.seed``: the channel of :func:`apply_channel`, and the
bit source and channel of :func:`ber_monte_carlo`, which shares one draw
across an Eb/N0 grid and streams it in blocks from generator-state
snapshots.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkParams",
    "FadingKind",
    "FadingParams",
    "friis_received_power",
    "two_ray_received_power",
    "crossover_distance",
    "qpsk_modulate",
    "qpsk_demodulate",
    "apply_channel",
    "ber_qpsk_awgn_theoretical",
    "ber_qpsk_theoretical",
    "ber_monte_carlo",
    "watts_to_dbm",
]

# Gray map: bit pair (b0, b1) -> (I, Q) signs, unit symbol energy.
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
_BLOCK = 1 << 13   # symbols per block of the streamed Monte Carlo

# math.erfc over scalars or arrays, so numpy stays the only runtime
# dependency.
erfc = np.vectorize(math.erfc, otypes=[float])


def watts_to_dbm(p_watts):
    return 10.0 * np.log10(np.asarray(p_watts) / 1e-3)


@dataclass(frozen=True)
class LinkParams:
    """Physical description of one point-to-point RF link."""

    tx_power: float          # W
    wavelength: float        # m
    distance: float          # m
    tx_gain: float = 1.0     # linear
    rx_gain: float = 1.0     # linear
    tx_height: float = 100.0  # m
    rx_height: float = 100.0  # m
    ground_reflection: float = -1.0  # in [-1, 0]

    def __post_init__(self):
        if self.tx_power <= 0 or self.wavelength <= 0:
            raise ValueError("tx_power and wavelength must be > 0")
        if self.tx_gain <= 0 or self.rx_gain <= 0:
            raise ValueError("antenna gains must be > 0")
        if self.tx_height <= 0 or self.rx_height <= 0:
            raise ValueError("antenna heights must be > 0")
        if self.distance <= 0:
            raise ValueError("distance must be > 0")
        if not -1.0 <= self.ground_reflection <= 0.0:
            raise ValueError("ground_reflection must lie in [-1, 0]")


class FadingKind(enum.Enum):
    AWGN = "awgn"
    RICIAN = "rician"
    RAYLEIGH = "rayleigh"


@dataclass(frozen=True)
class FadingParams:
    """Channel selector; ``rician_k`` is the linear LOS-to-scatter power
    ratio and only applies to the Rician kind."""

    kind: FadingKind = FadingKind.AWGN
    rician_k: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")


def friis_received_power(link: LinkParams, distance: float | None = None):
    """Free-space received power Pt*Gt*Gr*lambda^2 / (4*pi*d)^2."""
    d = link.distance if distance is None else distance
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be > 0")
    factor = link.wavelength / (4.0 * np.pi * d)
    return link.tx_power * link.tx_gain * link.rx_gain * factor ** 2


def crossover_distance(link: LinkParams) -> float:
    """Distance beyond which the two-ray model decays as 1/d^4."""
    return 4.0 * np.pi * link.tx_height * link.rx_height / link.wavelength


def two_ray_received_power(link: LinkParams, distance: float | None = None):
    """Coherent sum of the direct ray and the ground-reflected ray.

    Pr = Pt * (lambda/4pi)^2 * |sqrt(G)/d_los + R*exp(j*phi)*sqrt(G)/d_ref|^2
    with phi = 2*pi*(d_ref - d_los)/lambda and G = Gt*Gr on both paths.
    With R = 0 this reduces to Friis evaluated at d_los. The path
    difference is taken as 4*h_t*h_r / (d_ref + d_los), which equals
    d_ref - d_los without the cancellation that zeroes it at long range.

    Each step runs in place, in the order of the formula above, so a grid
    of n distances holds three float arrays and one complex array of n at
    most. A scalar distance gives a numpy scalar.
    """
    d = link.distance if distance is None else distance
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be > 0")
    shape, d = d.shape, d.reshape(-1)   # 1-d, so that out= takes every step
    dh = link.tx_height - link.rx_height
    sh = link.tx_height + link.rx_height
    d_ref = d * d
    d_los = d_ref + dh ** 2
    np.sqrt(d_los, out=d_los)
    d_ref += sh ** 2
    np.sqrt(d_ref, out=d_ref)
    phi = d_ref + d_los
    np.divide(4.0 * link.tx_height * link.rx_height, phi, out=phi)
    phi *= 2.0 * np.pi
    phi /= link.wavelength
    field = 1j * phi
    np.exp(field, out=field)
    gain = math.sqrt(link.tx_gain * link.rx_gain)
    field *= link.ground_reflection
    field *= gain
    field /= d_ref
    field += np.divide(gain, d_los, out=d_los)
    power = np.abs(field, out=d_los)
    np.square(power, out=power)
    power *= link.tx_power * (link.wavelength / (4.0 * np.pi)) ** 2
    return power.reshape(shape)[()]


def qpsk_modulate(bits) -> np.ndarray:
    """Gray-map a bit sequence onto unit-energy QPSK symbols.

    Bit pairs map as (b0 -> I, b1 -> Q) with 0 -> +1/sqrt(2) and
    1 -> -1/sqrt(2), so 00 lands on (+, +). Requires an even bit count.
    """
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ValueError("bit count must be even")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    bits = bits.astype(int, copy=False)
    return _QPSK[2 * bits[0::2] + bits[1::2]]


def qpsk_demodulate(symbols) -> np.ndarray:
    """Minimum-distance (sign) decisions inverse to :func:`qpsk_modulate`."""
    return _decide(np.ascontiguousarray(symbols, dtype=complex)).astype(int)


def _decide(symbols: np.ndarray, out=None) -> np.ndarray:
    """The sign decisions of contiguous complex ``symbols`` as bools."""
    # the float view lists each symbol's (I, Q) in bit order
    return np.less(symbols.view(float), 0.0, out=out)


def noise_sigma(ebn0_db: float) -> float:
    """Noise deviation per quadrature at ``ebn0_db`` (Es/N0 = 2 Eb/N0)."""
    try:
        sigma = math.sqrt(1.0 / (2.0 * (2.0 * 10.0 ** (ebn0_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0.0 < sigma < math.inf:
        raise ValueError("Eb/N0 gives no finite positive noise level")
    return sigma


def apply_channel(symbols, fading: FadingParams, ebn0_db: float) -> np.ndarray:
    """Pass QPSK symbols through the configured channel at the given Eb/N0.

    AWGN adds complex Gaussian noise sized for 2 bits/symbol. Rician
    multiplies each symbol by a random complex gain with LOS power
    fraction K/(K+1) before the noise, and the receiver is assumed to
    know the gain (it is divided out so a coherent decision follows).
    Rayleigh is Rician with K = 0. Deterministic per seed.
    """
    symbols = np.asarray(symbols, dtype=complex)
    rng = np.random.default_rng(fading.seed)
    sigma = noise_sigma(ebn0_db)
    h = _fading_gain(rng, symbols.shape, fading)
    noise = _complex_normal(rng, symbols.shape)
    return _receive(noise, h, h * symbols, sigma, noise)


def _fading_gain(rng, shape, fading: FadingParams, imag_rng=None):
    """The complex gain per symbol; ones, and no draws, for AWGN."""
    if fading.kind is FadingKind.AWGN:
        return np.broadcast_to(1.0, shape)
    k = fading.rician_k if fading.kind is FadingKind.RICIAN else 0.0
    h = _complex_normal(rng, shape, imag_rng)
    h /= math.sqrt(2.0)
    h *= math.sqrt(1.0 / (k + 1.0))
    h += math.sqrt(k / (k + 1.0))
    return h


def _receive(noise: np.ndarray, h, hs, sigma: float,
             out: np.ndarray) -> np.ndarray:
    """(h * s + sigma * noise) / h into ``out`` (which may be ``noise``),
    given ``hs`` = h * s; s + noise / h rounds differently."""
    np.multiply(noise, sigma, out=out)
    out += hs
    out /= h
    return out


def _complex_normal(rng, shape, imag_rng=None) -> np.ndarray:
    """``re + 1j * im`` for successive standard normal draws of ``shape``
    (``im`` from ``imag_rng`` if given), filled in place of temporaries."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = (rng if imag_rng is None else imag_rng).standard_normal(shape)
    return z


def ber_qpsk_awgn_theoretical(ebn0_db) -> float:
    """Analytic QPSK bit-error rate on AWGN: 0.5*erfc(sqrt(Eb/N0))."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    return 0.5 * erfc(np.sqrt(ebn0))


# Midpoint points for the fading average. The integrand is smooth and even
# about both ends of [0, pi/2], so the rule converges spectrally: it agrees
# with adaptive quadrature to about 2e-15 relative for K up to 100.
_CRAIG_POINTS = 512


def ber_qpsk_theoretical(fading: FadingParams, ebn0_db):
    """Analytic QPSK bit-error rate under ``fading``'s kind.

    AWGN is :func:`ber_qpsk_awgn_theoretical`. Rician fading with
    LOS-to-scatter ratio K averages the conditional error over the fading
    gain in Craig's form (Simon & Alouini, *Digital Communication over
    Fading Channels*, 2005):

        (1/pi) int_0^{pi/2} (1+K)s / d * exp(-K g / d) dtheta,
        d = (1+K)s + g,

    with s = sin^2(theta) and g = Eb/N0, evaluated on a midpoint grid.
    Rayleigh is the same average with K = 0, which equals
    0.5*(1 - sqrt(g/(1+g))).
    """
    if fading.kind is FadingKind.AWGN:
        return ber_qpsk_awgn_theoretical(ebn0_db)
    k = fading.rician_k if fading.kind is FadingKind.RICIAN else 0.0
    g = 10.0 ** (np.asarray(ebn0_db, dtype=float)[..., None] / 10.0)
    n = _CRAIG_POINTS
    s = np.sin((np.arange(n) + 0.5) * (0.5 * np.pi / n)) ** 2
    den = (1.0 + k) * s + g
    return 0.5 * np.mean((1.0 + k) * s / den * np.exp(-k * g / den), axis=-1)


def ber_monte_carlo(fading: FadingParams, ebn0_db, n_bits: int):
    """Measure BER by transmitting ``n_bits`` random bits and deciding them
    by the sign rule of :func:`qpsk_demodulate`.

    Returns ``(ber, n_errors)`` for one Eb/N0 point, or a list of them for
    a sequence of points. The bit source and the channel are seeded from
    ``fading.seed``, so repeated runs are identical. Every point sees the
    same bits, gains and noise, streamed in blocks of 8,192 symbols from
    generator-state snapshots. Each block forms h*s once; each point
    receives into one reused complex buffer, with the formula that
    :func:`apply_channel` uses, and tests its signs against the bits into
    one reused bool buffer, so memory is a few blocks', whatever the bit
    count and the grid.
    """
    if n_bits % 2 or n_bits < 2:
        raise ValueError("n_bits must be even and >= 2")
    scalar = np.ndim(ebn0_db) == 0
    sigmas = [noise_sigma(e) for e in ([ebn0_db] if scalar else ebn0_db)]
    if not sigmas:
        return []
    # separate, independent streams for the bit source and the channel
    bit_ss, chan_ss = np.random.SeedSequence(fading.seed).spawn(2)
    bit_rng = np.random.default_rng(bit_ss)
    rng = np.random.default_rng(int(chan_ss.generate_state(1)[0]))
    # the channel is n normals each of h.real, h.imag (faded only),
    # noise.real and noise.imag. Ziggurat normals take a varying count of
    # raw draws and cannot seek, so a discard pass snapshots the generator
    # at the start of each run but the last, which rng itself streams.
    n = n_bits // 2
    buf = np.empty(min(n, _BLOCK))
    runs = []
    for _ in range(1 if fading.kind is FadingKind.AWGN else 3):
        runs.append(np.random.default_rng())
        runs[-1].bit_generator.state = rng.bit_generator.state
        for start in range(0, n, _BLOCK):
            rng.standard_normal(out=buf[:n - start])
    h_re, h_im, noise_re = [None, None, *runs][-3:]
    # each point decides into these; only the last block may be shorter
    hs, received = np.empty((2, len(buf)), dtype=complex)
    wrong = np.empty(2 * len(buf), dtype=bool)
    n_errors = [0] * len(sigmas)
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        if size < len(hs):
            hs, received, wrong = hs[:size], received[:size], wrong[:2 * size]
        h = _fading_gain(h_re, size, fading, h_im)
        noise = _complex_normal(noise_re, size, rng)
        bits = bit_rng.integers(0, 2, size=2 * size)
        np.multiply(h, qpsk_modulate(bits), out=hs)
        sent = bits.astype(bool)
        for i, sigma in enumerate(sigmas):
            _decide(_receive(noise, h, hs, sigma, received), wrong)
            n_errors[i] += int(np.count_nonzero(
                np.not_equal(wrong, sent, out=wrong)))
    results = [(e / n_bits, e) for e in n_errors]
    return results[0] if scalar else results
