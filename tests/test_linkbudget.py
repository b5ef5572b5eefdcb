"""Link-budget tests: every derived quantity against a hand calculation,
plus the two arithmetic modes and their discrepancy reports."""
import math

import numpy as np
import pytest

from swarmlink.channel import LinkParams
from swarmlink.linkbudget import (BudgetMode, Discrepancy,
                                  ber_vs_distance, compute_budget,
                                  dbm_to_watts, incident_power, noise_figure,
                                  noise_power_dbm, output_impedance,
                                  path_loss_db, reference_antenna,
                                  reference_ber_distance_link,
                                  reference_budget_config, vswr_to_reflection)


def test_path_loss_hand_value():
    # 20*log10(0.125 / (4*pi*2000)) = -106.06 dB
    assert path_loss_db(0.125, 2000.0) == pytest.approx(-106.06, abs=0.02)
    assert path_loss_db(1.0, 1.0) == pytest.approx(
        -20.0 * math.log10(4.0 * math.pi), rel=1e-12)


def test_vswr_reflection_and_impedance():
    rho = vswr_to_reflection(1.5)
    assert rho == pytest.approx(0.2, rel=1e-15)
    assert vswr_to_reflection(1.0) == 0.0
    # Z_o from rho = (Z_i - Z_o)/(Z_i + Z_o) with Z_i = 50
    assert output_impedance(rho, 50.0) == pytest.approx(33.33, abs=0.01)
    with pytest.raises(ValueError):
        vswr_to_reflection(0.9)


def test_incident_power():
    # delivered 50 W with rho = 0.2: P_i = 50 / (1 - 0.04) = 52.083
    assert incident_power(50.0, 0.2) == pytest.approx(52.08, abs=0.01)
    assert incident_power(10.0, 0.0) == 10.0
    with pytest.raises(ValueError):
        incident_power(1.0, 1.0)


def test_noise_figure_conventions():
    linear, db20 = noise_figure(358.0, 298.0, paper_convention=True)
    assert linear == pytest.approx(1.0 + 358.0 / 298.0, rel=1e-15)
    assert db20 == pytest.approx(20.0 * math.log10(linear), rel=1e-15)
    _, db10 = noise_figure(358.0, 298.0, paper_convention=False)
    assert db10 == pytest.approx(10.0 * math.log10(linear), rel=1e-15)
    assert db20 == pytest.approx(2.0 * db10, rel=1e-12)


def test_noise_power_hand_value():
    # -174 + 10*log10(25e6) + 6.84 = -93.18 dBm
    assert noise_power_dbm(25e6, 6.84) == pytest.approx(-93.18, abs=0.01)
    with pytest.raises(ValueError):
        noise_power_dbm(0.0, 1.0)


def test_paper_literal_budget_totals():
    budget = compute_budget(reference_antenna(), reference_budget_config(),
                            BudgetMode.PAPER_LITERAL)
    assert budget.eirp_db == pytest.approx(18.789, abs=1e-3)
    assert budget.total_path_loss_db == pytest.approx(-101.66, abs=1e-9)
    assert budget.total_rx_gain_db == pytest.approx(1.1, abs=1e-9)
    assert budget.rsl_db == pytest.approx(-81.771, abs=1e-3)
    assert budget.link_margin_db == pytest.approx(6.229, abs=1e-3)
    assert budget.noise_power_dbm == pytest.approx(-93.18, abs=0.01)
    assert budget.rx_threshold_db == -88.0


def test_corrected_sum_budget_totals():
    budget = compute_budget(reference_antenna(), reference_budget_config(),
                            BudgetMode.CORRECTED_SUM)
    # every total equals the sum of its own line items
    assert budget.total_path_loss_db == pytest.approx(
        sum(i.value_db for i in budget.loss_items), abs=1e-12)
    assert budget.total_path_loss_db == pytest.approx(-103.66, abs=1e-9)
    assert budget.total_rx_gain_db == pytest.approx(1.3, abs=1e-9)
    assert budget.rsl_db == pytest.approx(18.789 - 103.66 + 1.3, abs=1e-9)
    # corrected noise figure uses the 10*log10 convention
    _, nf10 = noise_figure(358.0, 298.0, paper_convention=False)
    assert budget.noise_figure_db == pytest.approx(nf10, rel=1e-12)


@pytest.mark.parametrize("mode",
                         [BudgetMode.PAPER_LITERAL, BudgetMode.CORRECTED_SUM])
def test_discrepancy_report(mode):
    budget = compute_budget(reference_antenna(), reference_budget_config(),
                            mode)
    by_label = {d.label: d for d in budget.discrepancies}
    # the printed loss total disagrees with its own items
    assert by_label["total_path_loss_db"].printed == -101.66
    assert by_label["total_path_loss_db"].computed == pytest.approx(-103.66)
    # text path loss conflicts with the table line item
    assert by_label["path_loss_db"].printed == -106.06
    assert by_label["path_loss_db"].computed == -101.06
    # two different receiver thresholds
    assert by_label["rx_threshold_db"].printed == -85.0
    assert by_label["rx_threshold_db"].computed == -88.0
    # rx-gain total and RSL prints also disagree
    assert by_label["total_rx_gain_db"].computed == pytest.approx(1.3)
    assert by_label["rsl_db"].printed == -81.171
    # printed noise figure is a rounded 20*log10 value
    assert by_label["noise_figure_db"].printed == 6.84
    assert by_label["noise_figure_db"].computed == pytest.approx(
        20.0 * math.log10(1.0 + 358.0 / 298.0), rel=1e-12)


def test_discrepancy_str():
    d = Discrepancy("x", 1.0, 2.0)
    assert "printed 1" in str(d) and "computed 2" in str(d)


def test_ber_vs_distance_standard():
    link, rate, noise = reference_ber_distance_link()
    d = np.logspace(2, 4, 200)
    out = ber_vs_distance(link, rate, noise, d)
    ber = out["ber"]
    assert np.all(np.diff(ber) >= 0)
    assert ber[0] < 1e-9
    assert ber[-1] > 0.01
    # spot-check one point against a direct computation
    pr = 50.0 * (0.125 / (4.0 * math.pi * d[0])) ** 2
    ebn0 = (pr / rate) / (1e-3 * 10.0 ** (noise / 10.0))
    assert out["ebn0_db"][0] == pytest.approx(10.0 * math.log10(ebn0))


def test_ber_vs_distance_paper_formula():
    link, rate, noise = reference_ber_distance_link()
    d = np.array([1000.0, 5000.0])
    std = ber_vs_distance(link, rate, noise, d, BudgetMode.CORRECTED_SUM)
    lit = ber_vs_distance(link, rate, noise, d, BudgetMode.PAPER_LITERAL)
    assert not np.allclose(std["ber"], lit["ber"])
    with pytest.raises(ValueError):
        ber_vs_distance(link, 0.0, noise, d)
    with pytest.raises(ValueError):
        ber_vs_distance(link, rate, noise, np.array([0.0]))


@pytest.mark.parametrize("p_dbm", [1e308, 4000.0, -4000.0, -1e308,
                                   math.inf, math.nan])
def test_dbm_outside_float_range_is_rejected(p_dbm):
    link, rate, _ = reference_ber_distance_link()
    with pytest.raises(ValueError):
        dbm_to_watts(p_dbm)
    with pytest.raises(ValueError):
        ber_vs_distance(link, rate, p_dbm, np.array([1000.0]))


def test_dbm_to_watts_hand_values():
    assert dbm_to_watts(30.0) == 1e-3 * 10.0 ** 3.0
    assert dbm_to_watts(-120.0) == 1e-3 * 10.0 ** -12.0
    assert dbm_to_watts(3000.0) == pytest.approx(1e297)


def test_friis_consistency_with_channel_module():
    """The budget's dB path loss equals the channel module's linear ratio."""
    link = LinkParams(tx_power=1.0, wavelength=0.125)
    from swarmlink.channel import friis_received_power
    ratio_db = 10.0 * math.log10(friis_received_power(link, 2000.0)
                                 / link.tx_power)
    assert ratio_db == pytest.approx(path_loss_db(0.125, 2000.0), rel=1e-12)


def test_reference_antenna_sanity():
    ant = reference_antenna()
    assert ant.vswr == 1.5
    assert ant.operational_temp == 358.0
    with pytest.raises(ValueError):
        from dataclasses import replace
        replace(ant, vswr=0.5)
