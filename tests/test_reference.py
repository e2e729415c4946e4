import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pathgain.fitting import fit_slope_intercept
from pathgain.reference import (
    ThreeGppScenario,
    friis_gain,
    tr38901_pathloss,
    uma_nlos_36814,
)
from pathgain.units import wavelength_m

from conftest import db


class TestFriis:
    def test_28ghz_100m_against_standard_fspl(self):
        # free-space path loss 32.45 + 20 log10(f_MHz) + 20 log10(d_km)
        loss_db = -db(friis_gain(wavelength_m(28e9), 100.0).gain)
        fspl = 32.45 + 20.0 * math.log10(28000.0) + 20.0 * math.log10(0.1)
        assert loss_db == pytest.approx(fspl, abs=0.01)
        assert loss_db == pytest.approx(101.4, abs=0.05)

    def test_doubling_range_costs_6db(self):
        lam = wavelength_m(28e9)
        delta = db(friis_gain(lam, 100.0).gain) - db(friis_gain(lam, 200.0).gain)
        assert delta == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)

    def test_unity_point(self):
        lam = wavelength_m(2e9)
        assert friis_gain(lam, lam / (4.0 * math.pi)).gain == pytest.approx(1.0, rel=1e-14)


class TestSlopeIntercept:
    def test_fit_of_waveguide_law_recovers_exponent(self):
        # samples of an exponent-1.5 law fit with zero residual
        from pathgain.canyon import CanyonGeometry, LosLink, los_gain_incoherent
        from conftest import CORRIDOR_WALL
        geometry = CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL)
        results = [los_gain_incoherent(LosLink(geometry, float(x), 2e9))
                   for x in np.geomspace(20.0, 150.0, 60)]
        fit = fit_slope_intercept((
            [res.range_m for res in results],
            [float(db(res.factors["spreading"] * res.factors["free_space_floor"]))
             for res in results]))
        assert fit.exponent_n == pytest.approx(1.5, abs=1e-12)
        assert fit.rmse_db < 1e-10


class TestUmaNlos36814:
    GEOMETRY = dict(street_width_m=20.0, building_height_m=10.0,
                    base_height_m=14.0, mobile_height_m=1.5, f_ghz=28.0)

    def test_regression_locked_value(self):
        # hand evaluation of the six terms at d = 1 km, frozen
        value = uma_nlos_36814(d3d_m=1000.0, **self.GEOMETRY)
        assert value == pytest.approx(162.47923552204958, rel=1e-12)

    def test_decade_slope_term(self):
        near = uma_nlos_36814(d3d_m=100.0, **self.GEOMETRY)
        far = uma_nlos_36814(d3d_m=1000.0, **self.GEOMETRY)
        assert far - near == pytest.approx(
            43.42 - 3.1 * math.log10(14.0), rel=1e-12)

    def test_mobile_height_term_zero_near_1m5(self):
        def height_term(z_m):
            return 3.2 * math.log10(11.75 * z_m) ** 2 - 4.97

        root = brentq(height_term, 1.0, 2.0)
        assert root == pytest.approx(1.5, abs=0.01)
        with_term = uma_nlos_36814(20.0, 10.0, 14.0, root, 28.0, 500.0)
        without = uma_nlos_36814(20.0, 10.0, 14.0, root, 28.0, 500.0) + height_term(root)
        assert with_term == pytest.approx(without, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uma_nlos_36814(0.0, 10.0, 14.0, 1.5, 28.0, 100.0)


class TestTr38901:
    def test_uma_los_before_breakpoint(self):
        scenario = ThreeGppScenario("UMa", "LOS", 28.0)
        expected = 28.0 + 22.0 * math.log10(math.hypot(100.0, 23.5)) \
            + 20.0 * math.log10(28.0)
        assert tr38901_pathloss(scenario, 100.0) == pytest.approx(expected,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("family", ["UMa", "UMi", "InH"])
    @pytest.mark.parametrize("f_ghz", [2.0, 28.0])
    def test_nlos_never_below_los(self, family, f_ghz):
        los = ThreeGppScenario(family, "LOS", f_ghz)
        nlos = ThreeGppScenario(family, "NLOS", f_ghz)
        distances = np.geomspace(10.0, 80.0 if family == "InH" else 4000.0, 25)
        for d in distances:
            assert tr38901_pathloss(nlos, float(d)) >= \
                tr38901_pathloss(los, float(d)) - 1e-12

    def test_monotone_beyond_breakpoint(self):
        scenario = ThreeGppScenario("UMa", "NLOS", 3.5)
        distances = np.geomspace(10.0, 5000.0, 60)
        losses = [tr38901_pathloss(scenario, float(d)) for d in distances]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_inh_nlos_excess_over_free_space(self):
        # indoor NLOS at 28 GHz / 70 m sits tens of dB above free space
        scenario = ThreeGppScenario("InH", "NLOS", 28.0)
        excess = tr38901_pathloss(scenario, 70.0) \
            - (-db(friis_gain(wavelength_m(28e9), 70.0).gain))
        assert 14.0 < excess < 30.0

    def test_unsupported_scenario_rejected(self):
        with pytest.raises(ValueError):
            ThreeGppScenario("RMa", "LOS", 3.5)
        with pytest.raises(ValueError):
            ThreeGppScenario("UMa", "O2I", 3.5)


class TestCrossModelAgreement:
    def test_36814_close_to_38901_uma_nlos_on_vegetated_street_geometry(self):
        # rooftop base at 14 m over 10 m clutter, 28 GHz, 30 m street
        scenario = ThreeGppScenario("UMa", "NLOS", 28.0, base_height_m=14.0)
        for d in np.geomspace(200.0, 1000.0, 15):
            pl_36814 = uma_nlos_36814(30.0, 10.0, 14.0, 1.5, 28.0, float(d))
            pl_38901 = tr38901_pathloss(scenario, float(d))
            assert abs(pl_36814 - pl_38901) < 10.0
