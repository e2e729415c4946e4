import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pathgain.canyon import (
    CanyonGeometry,
    LosLink,
    breakpoint_range_m,
    ground_bounce,
    ground_reflection,
    los_canyon_gain,
    los_gain_coherent,
    los_gain_incoherent,
)
from pathgain.reference import friis_gain
from pathgain.result import FLAG_FREE_SPACE_FLOOR, FLAG_NEAR_WALL, FLAG_SHORT_RANGE
from pathgain.surface import Dielectric

from conftest import CORRIDOR_WALL, db


def corridor_link(x_m, f_hz=2e9, **kwargs):
    geometry = CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL, **kwargs)
    return LosLink(geometry, x_m, f_hz)


class TestWaveguideLaw:
    def test_slope_is_exactly_minus_15_db_per_decade(self):
        # analytic exponent 1.5; fit over [10w, 100w] where the law applies
        ranges = np.geomspace(16.0, 160.0, 40)
        gains = [db(los_canyon_gain(corridor_link(x)).gain) for x in ranges]
        rs = [los_canyon_gain(corridor_link(x)).range_m for x in ranges]
        slope = np.polyfit(np.log10(rs), gains, 1)[0]
        assert slope == pytest.approx(-15.0, abs=1e-9)

    def test_width_scaling(self):
        # doubling the width with the same wall costs sqrt(2) in gain
        g1 = los_canyon_gain(LosLink(CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL),
                                     30.0, 2e9)).gain
        g2 = los_canyon_gain(LosLink(CanyonGeometry(3.2, 2.2, 1.0, CORRIDOR_WALL),
                                     30.0, 2e9)).gain
        assert g1 / g2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_free_space_floor_at_high_wall_loss(self):
        # at 28 GHz the corridor wall loss is large enough that reflections
        # die out at short range; the law floors at free space
        link = corridor_link(16.0, f_hz=28e9)
        res = los_canyon_gain(link)
        assert FLAG_FREE_SPACE_FLOOR in res.flags
        assert res.gain == pytest.approx(
            friis_gain(link.wavelength_m, link.slant_range_m), rel=1e-14)
        unfloored = res.factors["spreading"]
        assert unfloored < res.gain
        assert res.gain == pytest.approx(
            unfloored * res.factors["free_space_floor"], rel=1e-14)
        # beyond w L / pi (63 m here) the floor factor is 1 and unflagged
        far = los_canyon_gain(corridor_link(200.0, f_hz=28e9))
        assert far.factors["free_space_floor"] == 1.0
        assert FLAG_FREE_SPACE_FLOOR not in far.flags

    def test_short_range_flag(self):
        assert FLAG_SHORT_RANGE in los_canyon_gain(corridor_link(2.5)).flags
        assert FLAG_SHORT_RANGE not in los_canyon_gain(corridor_link(30.0)).flags

    def test_near_wall_flag(self):
        # 2 GHz wavelength is ~0.15 m; 0.71 m offset leaves 0.09 m clearance
        res = los_canyon_gain(corridor_link(30.0, tx_offset_m=0.71))
        assert FLAG_NEAR_WALL in res.flags


class TestGroundReflection:
    def test_grazing_limit(self):
        geometry = CanyonGeometry(1.6, 1e-6, 1e-6, CORRIDOR_WALL)
        gamma, _ = ground_reflection(LosLink(geometry, 10.0, 2e9))
        assert gamma == pytest.approx(-1.0, abs=1e-5)

    def test_corridor_angle(self):
        link = corridor_link(20.0)
        gamma, r_g = ground_reflection(link)
        assert r_g == pytest.approx(math.sqrt(400.0 + 3.2**2), rel=1e-14)
        theta = math.asin(3.2 / r_g)
        n2 = 5.0
        expected = -math.exp(-(2.0 * n2 / math.sqrt(n2 - 2.0)) * theta)
        assert gamma == pytest.approx(expected, rel=1e-14)

    def test_magnitude_grows_to_one_with_range(self):
        gammas = [abs(ground_reflection(corridor_link(x))[0])
                  for x in (10.0, 100.0, 1000.0, 100000.0)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] > 0.999
        assert all(g < 1.0 for g in gammas)


class TestGeometryFactors:
    @pytest.mark.parametrize("x", [20.0, np.geomspace(1.0, 1000.0, 7)],
                             ids=["float", "array"])
    def test_geometry_owns_the_link_values(self, x):
        link = corridor_link(x, ground=Dielectric(3.0))
        g = link.geometry
        assert np.array_equal(g.slant_range_m(x), link.slant_range_m)
        assert np.array_equal(g.slant_range_m(x), np.hypot(x, 2.2 - 1.0))
        gamma, _ = ground_reflection(link)
        assert np.array_equal(g.ground_bounce(x), gamma)
        assert np.array_equal(g.ground_bounce(x),
                              ground_bounce(3.2, x, Dielectric(3.0)))


class TestGroundBounceVariants:
    def test_incoherent_bounds(self):
        for x in np.geomspace(5.0, 300.0, 25):
            base = los_canyon_gain(corridor_link(x)).gain
            inc = los_gain_incoherent(corridor_link(x)).gain
            assert base <= inc <= 2.0 * base

    def test_incoherent_approaches_double_at_long_range(self):
        x = 1e6
        ratio = (los_gain_incoherent(corridor_link(x)).gain
                 / los_canyon_gain(corridor_link(x)).gain)
        assert ratio == pytest.approx(2.0, abs=1e-3)

    def test_coherent_bounds(self):
        for x in np.geomspace(5.0, 300.0, 50):
            base = los_canyon_gain(corridor_link(x)).gain
            coh = los_gain_coherent(corridor_link(x)).gain
            assert 0.0 <= coh <= 4.0 * base

    def test_two_ray_constructive_extremum(self):
        # find a range where the ground-bounce phase lag is exactly pi;
        # the bounce sign makes that the constructive condition
        link0 = corridor_link(10.0)
        k = link0.wavenumber_rad_m

        def phase_minus_target(x, target):
            link = corridor_link(x)
            return k * (link.ground_image_range_m - link.slant_range_m) - target

        phi_a = phase_minus_target(10.0, 0.0)
        target = (math.floor(phi_a / (2 * math.pi))) * 2 * math.pi + math.pi
        x_pi = brentq(phase_minus_target, 10.0, 60.0, args=(target,))
        link = corridor_link(x_pi)
        gamma, _ = ground_reflection(link)
        factor = (los_gain_coherent(link).gain / los_canyon_gain(link).gain)
        assert factor == pytest.approx((1.0 + abs(gamma)) ** 2, rel=1e-9)

    def test_coherent_beat_average_matches_incoherent(self):
        # averaging the coherent form over one full beat cycle recovers the
        # incoherent form (the pre-breakpoint range average)
        link0 = corridor_link(5.0)
        k = link0.wavenumber_rad_m
        bp = breakpoint_range_m(link0)

        def phase(x):
            link = corridor_link(x)
            return k * (link.ground_image_range_m - link.slant_range_m)

        # beat cycles lengthen toward the breakpoint; average only windows
        # that stay local (end before the breakpoint)
        for x0 in (5.0, 8.0, 12.0, 18.0):
            x1 = brentq(lambda x: phase(x) - (phase(x0) - 2 * math.pi),
                        x0, 400.0)
            assert x1 < bp
            xs = np.linspace(x0, x1, 4001)
            coh = np.array([los_gain_coherent(corridor_link(float(x))).gain
                            for x in xs])
            avg_db = db(np.trapezoid(coh, xs) / (x1 - x0))
            inc_db = db(los_gain_incoherent(corridor_link((x0 + x1) / 2.0)).gain)
            assert abs(avg_db - inc_db) < 1.5

    def test_breakpoint_value(self):
        link = corridor_link(10.0)
        assert breakpoint_range_m(link) == pytest.approx(
            4.0 * 2.2 * 1.0 / link.wavelength_m, rel=1e-14)


class TestValidation:
    def test_offsets_must_stay_inside(self):
        with pytest.raises(ValueError):
            CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL, tx_offset_m=0.9)

    def test_wall_required_for_gain(self):
        link = LosLink(CanyonGeometry(1.6, 2.2, 1.0), 10.0, 2e9)
        with pytest.raises(ValueError):
            los_canyon_gain(link)

    def test_ground_index_configurable(self):
        geometry = CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL,
                                  ground=Dielectric(3.0))
        gamma, _ = ground_reflection(LosLink(geometry, 20.0, 2e9))
        gamma5, _ = ground_reflection(corridor_link(20.0))
        assert gamma != gamma5
