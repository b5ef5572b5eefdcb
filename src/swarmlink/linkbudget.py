"""Link-budget calculator with two arithmetic modes.

The source tables this tool reproduces contain internal inconsistencies
(totals that do not equal their own line items, a path-loss figure that
differs between text and table, two different receiver thresholds, and a
noise figure computed with a 20*log10 convention). ``PAPER_LITERAL`` mode
reproduces the printed downstream numbers by taking the printed totals as
overrides; ``CORRECTED_SUM`` mode recomputes every total from its items.
Both modes attach a discrepancy report naming each conflict. The same
:class:`BudgetMode` picks the BER formula of :func:`ber_vs_distance`: the
printed one in ``PAPER_LITERAL`` mode, the standard one in
``CORRECTED_SUM`` mode.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkParams, erfc, friis_received_power, watts_to_dbm

__all__ = [
    "SPEED_OF_LIGHT",
    "BudgetMode",
    "PRINTED_TOTALS",
    "TEXT_VALUES",
    "BudgetLineItem",
    "Discrepancy",
    "LinkBudget",
    "AntennaSpec",
    "BudgetConfig",
    "path_loss_db",
    "wavelength",
    "noise_figure",
    "noise_power_dbm",
    "vswr_to_reflection",
    "incident_power",
    "output_impedance",
    "compute_budget",
    "dbm_to_watts",
    "ber_vs_distance",
    "reference_antenna",
    "reference_budget_config",
    "reference_ber_distance_link",
]

# Round value used by the source material, kept for exact reproduction.
SPEED_OF_LIGHT = 3.0e8


class BudgetMode(enum.Enum):
    PAPER_LITERAL = "paper"
    CORRECTED_SUM = "corrected"


@dataclass(frozen=True)
class BudgetLineItem:
    """One signed dB entry of a budget table (losses negative)."""

    label: str
    value_db: float

    def __post_init__(self):
        if not math.isfinite(self.value_db):
            raise ValueError("value_db must be finite")


@dataclass(frozen=True)
class Discrepancy:
    """A printed value that conflicts with honest arithmetic."""

    label: str
    printed: float
    computed: float

    def __str__(self):
        return (f"{self.label}: printed {self.printed:g} "
                f"vs computed {self.computed:g}")


@dataclass(frozen=True)
class AntennaSpec:
    """Antenna and receiver-chain figures feeding the budget."""

    vswr: float
    input_power: float       # W delivered to the antenna
    input_impedance: float   # ohm
    operational_temp: float  # K
    standard_temp: float = 298.0

    def __post_init__(self):
        # vswr_to_reflection raises below 1; run_budget needs |rho| < 1,
        # and compute_budget's noise_figure these temperatures
        if vswr_to_reflection(self.vswr) >= 1:
            raise ValueError("vswr is too large: the reflection coefficient "
                             "rounds to 1")
        if self.input_impedance <= 0:
            raise ValueError("input_impedance must be > 0")
        if self.operational_temp < 0 or self.standard_temp <= 0:
            raise ValueError("temperatures must be non-negative / positive")


# The keys of BudgetConfig.printed_totals and .text_values that
# compute_budget checks; it reads no others.
PRINTED_TOTALS = ("eirp_db", "total_path_loss_db", "total_rx_gain_db")
TEXT_VALUES = ("path_loss_db", "rx_threshold_dbm", "rsl_db")


@dataclass(frozen=True)
class BudgetConfig:
    """Line items plus the printed totals and conflicting text values that
    the discrepancy report checks against."""

    tx_items: tuple
    loss_items: tuple
    rx_items: tuple
    noise_bandwidth_hz: float
    noise_figure_db: float       # printed receiver noise figure
    rx_threshold_db: float       # table threshold
    printed_totals: dict = field(default_factory=dict)
    text_values: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tx_items", "loss_items", "rx_items"):
            items = tuple(getattr(self, name))
            if not items:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, items)
        if self.noise_bandwidth_hz <= 0:
            raise ValueError("noise_bandwidth_hz must be > 0")


@dataclass(frozen=True)
class LinkBudget:
    """Computed budget ledger; in CORRECTED_SUM mode every total equals
    the sum of its items, in PAPER_LITERAL mode totals follow the printed
    overrides and ``discrepancies`` records the gaps."""

    mode: BudgetMode
    tx_items: tuple
    loss_items: tuple
    rx_items: tuple
    eirp_db: float
    total_path_loss_db: float
    total_rx_gain_db: float
    rsl_db: float
    noise_figure_db: float
    noise_power_dbm: float
    rx_threshold_db: float
    link_margin_db: float
    discrepancies: tuple


def path_loss_db(wavelength_m: float, distance: float) -> float:
    """Free-space loss 20*log10(lambda / (4*pi*d)); negative."""
    if wavelength_m <= 0 or distance <= 0:
        raise ValueError("wavelength and distance must be > 0")
    return 20.0 * math.log10(wavelength_m / (4.0 * math.pi * distance))


def wavelength(freq_hz: float) -> float:
    """Wavelength with c = 3e8 m/s (the round value the tables use)."""
    if freq_hz <= 0:
        raise ValueError("frequency must be > 0")
    return SPEED_OF_LIGHT / freq_hz


def noise_figure(te: float, to: float,
                 paper_convention: bool = True) -> tuple[float, float]:
    """Noise figure from the operational and standard temperatures.

    Returns ``(linear, db)`` with linear = 1 + te/to. The paper convention
    converts with 20*log10; the corrected convention uses the standard
    10*log10.
    """
    if te < 0 or to <= 0:
        raise ValueError("temperatures must be non-negative / positive")
    linear = 1.0 + te / to
    factor = 20.0 if paper_convention else 10.0
    return linear, factor * math.log10(linear)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz + 10*log10(B) + F_dB."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be > 0")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def vswr_to_reflection(vswr: float) -> float:
    """Reflection coefficient magnitude (vswr - 1) / (vswr + 1)."""
    if vswr < 1:
        raise ValueError("vswr must be >= 1")
    return (vswr - 1.0) / (vswr + 1.0)


def incident_power(delivered: float, rho: float) -> float:
    """Incident power P_i with delivered = (1 - rho^2) * P_i."""
    if abs(rho) >= 1:
        raise ValueError("|rho| must be < 1")
    return delivered / (1.0 - rho * rho)


def output_impedance(rho: float, zi: float) -> float:
    """Impedance Z_o solving rho = (Z_i - Z_o) / (Z_i + Z_o)."""
    if abs(rho) >= 1:
        raise ValueError("|rho| must be < 1")
    return zi * (1.0 - rho) / (1.0 + rho)


def _total(items) -> float:
    return sum(i.value_db for i in items)


def compute_budget(antenna: AntennaSpec, config: BudgetConfig,
                   mode: BudgetMode) -> LinkBudget:
    """Assemble the full budget ledger in the requested mode."""
    eirp = _total(config.tx_items)
    loss_sum = _total(config.loss_items)
    rx_sum = _total(config.rx_items)

    discrepancies = []
    printed = config.printed_totals
    for label, computed in zip(PRINTED_TOTALS, (eirp, loss_sum, rx_sum)):
        if label in printed and abs(printed[label] - computed) > 1e-9:
            discrepancies.append(
                Discrepancy(label, printed[label], computed))

    if mode is BudgetMode.PAPER_LITERAL:
        path_total = printed.get("total_path_loss_db", loss_sum)
        rx_total = printed.get("total_rx_gain_db", rx_sum)
        nf_db = config.noise_figure_db
    else:
        path_total = loss_sum
        rx_total = rx_sum
        _, nf_db = noise_figure(antenna.operational_temp,
                                antenna.standard_temp,
                                paper_convention=False)

    threshold = config.rx_threshold_db
    rsl = eirp + rx_total + path_total
    margin = eirp + path_total + rx_total - threshold
    noise_dbm = noise_power_dbm(config.noise_bandwidth_hz, nf_db)

    text = config.text_values
    for key, label, computed in zip(
            TEXT_VALUES, ("path_loss_db", "rx_threshold_db", "rsl_db"),
            (config.loss_items[0].value_db, threshold, rsl)):
        if key in text and abs(text[key] - computed) > 1e-9:
            discrepancies.append(Discrepancy(label, text[key], computed))
    _, nf_paper = noise_figure(antenna.operational_temp,
                               antenna.standard_temp, paper_convention=True)
    if abs(config.noise_figure_db - nf_paper) > 5e-3:
        discrepancies.append(
            Discrepancy("noise_figure_db", config.noise_figure_db, nf_paper))

    return LinkBudget(
        mode=mode,
        tx_items=config.tx_items,
        loss_items=config.loss_items,
        rx_items=config.rx_items,
        eirp_db=eirp,
        total_path_loss_db=path_total,
        total_rx_gain_db=rx_total,
        rsl_db=rsl,
        noise_figure_db=nf_db,
        noise_power_dbm=noise_dbm,
        rx_threshold_db=threshold,
        link_margin_db=margin,
        discrepancies=tuple(discrepancies),
    )


def dbm_to_watts(p_dbm: float) -> float:
    """Power in W; ValueError when it over- or underflows a float."""
    try:
        p_watts = 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError:
        p_watts = math.inf
    if not 0.0 < p_watts < math.inf:
        raise ValueError("power in W is not a finite number > 0")
    return p_watts


def ber_vs_distance(link: LinkParams, data_rate: float,
                    noise_power_dbm_val: float, distances,
                    mode: BudgetMode = BudgetMode.CORRECTED_SUM):
    """BER over a distance sweep from Friis received power.

    Energy per bit is received power divided by the data rate; Eb/N0 uses
    the configured noise power. CORRECTED_SUM applies the standard
    0.5*erfc(sqrt(Eb/N0)); PAPER_LITERAL applies the printed
    0.5*sqrt(erfc(Eb/N0)) form.

    Returns a dict of aligned arrays: distance_m, pr_dbm, ebn0_db, ber.
    """
    if data_rate <= 0:
        raise ValueError("data_rate must be > 0")
    distances = np.asarray(distances, dtype=float)
    if np.any(distances <= 0):
        raise ValueError("distances must be > 0")
    pr = friis_received_power(link, distances)
    n0 = dbm_to_watts(noise_power_dbm_val)
    ebn0 = (pr / data_rate) / n0
    if mode is BudgetMode.CORRECTED_SUM:
        ber = 0.5 * erfc(np.sqrt(ebn0))
    else:
        ber = 0.5 * np.sqrt(erfc(ebn0))
    return {
        "distance_m": distances,
        "pr_dbm": watts_to_dbm(pr),
        "ebn0_db": 10.0 * np.log10(ebn0),
        "ber": ber,
    }


def reference_antenna() -> AntennaSpec:
    """The 2.2-2.4 GHz antenna the reference budget is built around."""
    return AntennaSpec(
        vswr=1.5,
        input_power=50.0,
        input_impedance=50.0,
        operational_temp=358.0,
    )


def reference_budget_config() -> BudgetConfig:
    """Line items of the reference budget tables, including the printed
    totals and text values that the arithmetic contradicts."""
    return BudgetConfig(
        tx_items=(
            BudgetLineItem("Tx Gain", 2.0),
            BudgetLineItem("Tx Loss", -0.1),
            BudgetLineItem("Tx Power", 16.989),
            BudgetLineItem("Radome Loss", -0.1),
        ),
        loss_items=(
            BudgetLineItem("Path Loss", -101.06),
            BudgetLineItem("Tx Pointing Error", -0.5),
            BudgetLineItem("Rain Loss", -1.0),
            BudgetLineItem("Multipath", -1.0),
            BudgetLineItem("Atmospheric Loss", -0.1),
        ),
        rx_items=(
            BudgetLineItem("Rx Gain", 2.0),
            BudgetLineItem("Polarisation Loss", -0.1),
            BudgetLineItem("Rx Loss", -0.1),
            BudgetLineItem("Rx Pointing Loss", -0.5),
        ),
        noise_bandwidth_hz=25e6,
        noise_figure_db=6.84,
        rx_threshold_db=-88.0,
        printed_totals={
            "eirp_db": 18.789,
            "total_path_loss_db": -101.66,
            "total_rx_gain_db": 1.1,
        },
        text_values={
            "path_loss_db": -106.06,
            "rx_threshold_dbm": -85.0,
            "rsl_db": -81.171,  # table 6 print; arithmetic gives -81.771
        },
    )


def reference_ber_distance_link() -> tuple[LinkParams, float, float]:
    """Default BER-vs-distance scenario: (link, data_rate, noise dBm).

    50 W at 2.4 GHz into unit-gain antennas, 1 Mbit/s, -120 dBm noise;
    swept from 100 m to 10 km the BER runs from below 1e-9 to above 0.01.
    """
    link = LinkParams(tx_power=50.0, wavelength=0.125, distance=2000.0,
                      tx_gain=1.0, rx_gain=1.0)
    return link, 1e6, -120.0
