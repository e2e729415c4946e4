import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pathgain.canyon import CanyonGeometry
from pathgain.diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain
from pathgain.morphology import (
    FoliageLayer,
    IndoorClutter,
    Link,
    MacroGeometry,
    StreetScene,
    canyon_total_gain,
    canyon_with_trees_gain,
    kappa_v_at_frequency,
    outdoor_indoor_canyon_gain,
    overtop_gain,
    rural_gain,
    sidewalk_guided_gain,
    sidewalk_unguided_gain,
    suburban_indoor_gain,
    suburban_street_gain,
)
from pathgain.reference import friis_gain
from pathgain.surface import wall_loss
from pathgain.units import NEPER_TO_DB, wavelength_m, wavenumber_rad_m

from conftest import AVENUE_WALL, CORRIDOR_WALL, URBAN_WALL, db


def suburban_scene(kappa_v=0.38, depth=10.0, standoff=20.0):
    geometry = CanyonGeometry(20.0, 3.0, 1.0)
    return StreetScene(geometry, FoliageLayer(depth, kappa_v), standoff)


def sparse_street_scene(**kwargs):
    geometry = CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
    foliage = FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                           tree_height_m=10.0)
    defaults = dict(standoff_m=8.0, direct_veg_path_m=20.0,
                    kappa_extra_np_per_m=0.02)
    defaults.update(kwargs)
    return StreetScene(geometry, foliage, **defaults)


def dense_street_scene():
    geometry = CanyonGeometry(40.0, 20.0, 1.5, AVENUE_WALL)
    foliage = FoliageLayer(10.0, 0.38, n_tree_per_m=1.0, tree_width_m=4.0,
                           tree_height_m=10.0)
    return StreetScene(geometry, foliage, standoff_m=40.0)


class TestFoliageAbsorption:
    def test_anchor_points(self):
        assert kappa_v_at_frequency(2e9) == pytest.approx(0.07, rel=1e-12)
        assert kappa_v_at_frequency(35e9) == pytest.approx(0.40, rel=1e-12)

    def test_interpolated_28ghz(self):
        # the interpolation line gives 0.33 Np/m at 28 GHz
        assert kappa_v_at_frequency(28e9) == pytest.approx(0.33, abs=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            kappa_v_at_frequency(0.0)


class TestTreeDensity:
    @staticmethod
    def rho(n_tree, tree_height, mobile, base, tree_width, street_width):
        geometry = CanyonGeometry(street_width, base, mobile)
        foliage = FoliageLayer(3.0, 0.38, n_tree_per_m=n_tree,
                               tree_width_m=tree_width, tree_height_m=tree_height)
        return StreetScene(geometry, foliage, standoff_m=8.0).rho

    def test_sparse_avenue_value(self):
        rho = self.rho(0.05, 10.0, 1.5, 56.0, 4.0, 32.0)
        assert rho == pytest.approx(0.05 * 8.5 * 8.0 / (54.5 * 32.0), rel=1e-14)
        assert rho == pytest.approx(0.0019495412844036698, rel=1e-12)

    def test_clamped_to_unit_interval(self):
        assert self.rho(10.0, 10.0, 1.5, 12.0, 5.0, 8.0) == 1.0
        assert self.rho(0.1, 1.0, 1.5, 12.0, 5.0, 8.0) == 0.0

    def test_base_below_mobile_rejected(self):
        with pytest.raises(ValueError, match="base must be above the mobile"):
            self.rho(0.05, 10.0, 1.5, 1.5, 4.0, 32.0)

    @pytest.mark.parametrize("fields, expected", [
        # the crown area and the canyon section both overflow
        ((1e300, 1e300, 1.0, 1e300, 0.0, 1e300), 0.0),
        ((1e300, 1e300, 1.0, 1e300, 1.0, 1e300), 1.0),
        # n_tree (z_tree - z_m) overflows, times a tree width that brings
        # the fraction back far below 1
        ((1e200, 1e200, 1.0, 10.0, 1e-300, 1e300), 2e100 / 9e300),
        # n_tree (z_tree - z_m) underflows, the fraction is 2
        ((1e-300, 2e-300, 1e-300, 2e-300, 1e300, 1.0), 1.0),
    ], ids=["overflow_no_width", "overflow", "overflow_then_small", "underflow"])
    def test_fraction_of_extreme_fields(self, fields, expected):
        assert self.rho(*fields) == pytest.approx(expected, rel=1e-12)


class TestSuburban:
    def test_reduces_to_diffuse_halfspace(self):
        # no foliage loss and the bounces divided out -> the plain quartic law
        scene = suburban_scene(kappa_v=0.0)
        link = Link(100.0, 28e9)
        res = suburban_street_gain(scene, link)
        dlink = DiffuseLink(20.0, res.range_m, 5.0, 0.0, wavelength_m(28e9))
        bounces = res.factors["ground_bounce"] * res.factors["wall_bounce"]
        assert res.gain / bounces == pytest.approx(
            diffuse_pathgain(dlink, PenetrationSpec.unbounded()), rel=1e-14, abs=0.0)

    def test_effective_range_includes_standoff_and_heights(self):
        res = suburban_street_gain(suburban_scene(), Link(100.0, 28e9))
        assert res.range_m == pytest.approx(
            math.sqrt(100.0**2 + 2.0**2 + 20.0**2), rel=1e-14)

    def test_quartic_slope_with_fixed_bounces(self):
        scene = suburban_scene(kappa_v=0.0)
        ranges = np.geomspace(100.0, 1000.0, 30)
        gains, rs = [], []
        for x in ranges:
            res = suburban_street_gain(scene, Link(float(x), 28e9))
            gains.append(db(res.gain / res.factors["ground_bounce"]))
            rs.append(res.range_m)
        slope = np.polyfit(np.log10(rs), gains, 1)[0]
        assert slope == pytest.approx(-40.0, abs=1e-9)

    def test_vegetation_depth_cost(self):
        thin = suburban_scene(depth=5.0)
        thick = suburban_scene(depth=10.0)
        lk = Link(200.0, 28e9)
        ratio_db = (db(suburban_street_gain(thin, lk).gain)
                    - db(suburban_street_gain(thick, lk).gain))
        assert ratio_db == pytest.approx(0.38 * 5.0 * NEPER_TO_DB, rel=1e-12)


class TestSuburbanIndoor:
    def test_no_extra_losses_matches_outdoor(self):
        scene = suburban_scene()
        link = Link(100.0, 28e9)
        indoor = IndoorClutter(0.18, 0.0)
        pen = PenetrationSpec.unbounded()
        assert suburban_indoor_gain(scene, indoor, pen, link).gain == \
            pytest.approx(suburban_street_gain(scene, link).gain, rel=1e-14, abs=0.0)

    def test_penetration_and_clutter_offsets(self):
        # 10% window facade costs 10 dB; 1 m of indoor clutter ~0.78 dB
        scene = suburban_scene()
        link = Link(100.0, 28e9)
        indoor = IndoorClutter(0.18, 1.0)
        pen = PenetrationSpec.facade_mixture(0.1, 1.0, 0.0)
        offset_db = (db(suburban_street_gain(scene, link).gain)
                     - db(suburban_indoor_gain(scene, indoor, pen, link).gain))
        assert offset_db == pytest.approx(10.0 + 0.18 * NEPER_TO_DB, rel=1e-9)

    def test_indoor_depth_cost_is_exponential(self):
        scene = suburban_scene()
        link = Link(100.0, 28e9)
        pen = PenetrationSpec.unbounded()
        g1 = suburban_indoor_gain(scene, IndoorClutter(0.18, 2.0), pen, link).gain
        g2 = suburban_indoor_gain(scene, IndoorClutter(0.18, 4.0), pen, link).gain
        assert db(g1) - db(g2) == pytest.approx(0.18 * 2.0 * NEPER_TO_DB,
                                                rel=1e-12)


class TestOvertop:
    MACRO = MacroGeometry(14.0, 10.0, 1.5, 30.0)

    def test_wide_street_limit(self):
        link = Link(500.0, 28e9)
        res = overtop_gain(self.MACRO, 0.38, link)
        wide = res.gain / res.factors["t_eff"]
        huge = overtop_gain(MacroGeometry(14.0, 10.0, 1.5, 1e9), 0.38, link).gain
        assert huge == pytest.approx(wide, rel=1e-6, abs=0.0)
        narrow = overtop_gain(self.MACRO, 0.38, link).gain
        assert narrow < wide

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MacroGeometry(10.0, 10.0, 1.5, 30.0)
        with pytest.raises(ValueError):
            MacroGeometry(14.0, 1.0, 1.5, 30.0)

    def test_height_gap_quadratic(self):
        link = Link(1e6, 28e9)
        g1 = overtop_gain(MacroGeometry(14.0, 10.0, 1.5, 30.0), 0.0, link).gain
        g2 = overtop_gain(MacroGeometry(18.0, 10.0, 1.5, 30.0), 0.0, link).gain
        assert db(g2) - db(g1) == pytest.approx(20.0 * math.log10(2.0), abs=0.01)

    def test_quartic_slope_with_fixed_bounce(self):
        gains, rs = [], []
        for x in np.geomspace(100.0, 1000.0, 30):
            res = overtop_gain(self.MACRO, 0.0, Link(float(x), 28e9))
            gains.append(db(res.gain / res.factors["ground_bounce"]))
            rs.append(res.range_m)
        slope = np.polyfit(np.log10(rs), gains, 1)[0]
        assert slope == pytest.approx(-40.0, abs=1e-9)


class TestRural:
    MACRO = MacroGeometry(14.0, 10.0, 1.5, 30.0)

    def test_direct_dominates_at_short_range_without_absorption(self):
        foliage = FoliageLayer(0.0, 0.0)
        for x in (20.0, 100.0, 1000.0):
            res = rural_gain(self.MACRO, foliage, Link(x, 28e9))
            assert res.components["direct"] > res.components["over_top"]

    def test_no_vegetated_length_gives_friis_direct_term(self):
        macro = MacroGeometry(14.0, 10.0, 9.999999999, 30.0)
        res = rural_gain(macro, FoliageLayer(0.0, 0.38), Link(200.0, 28e9))
        friis = friis_gain(wavelength_m(28e9), res.range_m).gain
        assert res.components["direct"] == pytest.approx(friis, rel=1e-6, abs=0.0)

    def _term_gap(self, kappa_v):
        def gap(x):
            res = rural_gain(self.MACRO, FoliageLayer(0.0, kappa_v),
                             Link(x, 28e9))
            return db(res.components["direct"]) - db(res.components["over_top"])
        return gap

    def test_no_crossover_under_heavy_absorption(self):
        # with 0.38 Np/m over 68% of the slant path the direct term peaks
        # about 1 dB below the over-top term and never crosses it
        gap = self._term_gap(0.38)
        peak = max(gap(float(x)) for x in np.geomspace(2.0, 300.0, 120))
        assert peak == pytest.approx(-1.03, abs=0.05)

    def test_crossover_range_by_bisection_at_low_absorption(self):
        # at 0.07 Np/m the direct path dominates mid-range; bisection finds
        # where the terms hand over
        gap = self._term_gap(0.07)
        crossover = brentq(gap, 50.0, 400.0)
        assert 100.0 < crossover < 300.0
        res = rural_gain(self.MACRO, FoliageLayer(0.0, 0.07),
                         Link(crossover, 28e9))
        assert res.components["direct"] == pytest.approx(
            res.components["over_top"], rel=1e-6, abs=0.0)
        assert gap(crossover / 2.0) > 0.0 > gap(crossover * 2.0)


class TestOutdoorIndoorCanyon:
    GEOMETRY = CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)
    PEN = PenetrationSpec.facade_mixture(0.37, 1.0, 0.0)
    INDOOR = IndoorClutter(0.18, 2.0)

    def test_slope_is_exactly_minus_25(self):
        gains, rs = [], []
        for x in np.geomspace(100.0, 1000.0, 30):
            res = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN,
                                             self.INDOOR, Link(float(x), 3.5e9))
            gains.append(db(res.gain / res.factors["ground_bounce"]))
            rs.append(res.range_m)
        slope = np.polyfit(np.log10(rs), gains, 1)[0]
        assert slope == pytest.approx(-25.0, abs=1e-9)

    def test_wall_loss_power_law(self):
        # gain scales as L^-1.5, a 4.52 dB drop per doubling of L
        link = Link(300.0, 3.5e9)
        g_urban = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN,
                                             self.INDOOR, link)
        corridor_geo = CanyonGeometry(8.6, 5.0, 1.5, CORRIDOR_WALL)
        g_corridor = outdoor_indoor_canyon_gain(corridor_geo, self.PEN,
                                                self.INDOOR, link)
        k = wavenumber_rad_m(3.5e9)
        l_ratio = wall_loss(URBAN_WALL, k) / wall_loss(CORRIDOR_WALL, k)
        ratio = ((g_corridor.gain / g_corridor.factors["ground_bounce"])
                 / (g_urban.gain / g_urban.factors["ground_bounce"]))
        assert ratio == pytest.approx(l_ratio**1.5, rel=1e-12)

    def test_guided_range_flag(self):
        res = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN, self.INDOOR,
                                         Link(50.0, 3.5e9))
        assert "guided_range" in res.flags
        k = wavenumber_rad_m(3.5e9)
        far = 20.0 * wall_loss(URBAN_WALL, k) * 8.6
        res_far = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN,
                                             self.INDOOR, Link(far, 3.5e9))
        assert "guided_range" not in res_far.flags


class TestSidewalk:
    def test_guided_reduces_to_outdoor_indoor_form(self):
        # no trees: the guided law is the outdoor-indoor law with T_eff = 1
        # and no indoor loss
        scene = sparse_street_scene(rho_v=0.0)
        link = Link(400.0, 28e9)
        guided = sidewalk_guided_gain(scene, link)
        reference = outdoor_indoor_canyon_gain(
            scene.canyon, PenetrationSpec.unbounded(), IndoorClutter(0.0, 0.0),
            link)
        assert guided.gain / guided.factors["ground_bounce"] == pytest.approx(
            reference.gain / reference.factors["ground_bounce"], rel=1e-14, abs=0.0)

    def test_guided_range_decay_beyond_power_law(self):
        # gain * r^2.5 * exp(+kappa rho r) is range-free once the ground
        # bounce is divided out (r is the slant range the law evaluates at)
        scene = sparse_street_scene(rho_v=0.1)
        k_rho = 0.38 * 0.1
        g = []
        for x in (200.0, 400.0, 800.0):
            res = sidewalk_guided_gain(scene, Link(x, 28e9))
            g.append(res.gain / res.factors["ground_bounce"]
                     * res.range_m**2.5 * math.exp(k_rho * res.range_m))
        assert max(g) == pytest.approx(min(g), rel=1e-9, abs=0.0)

    def test_unguided_matches_suburban_with_scaled_kappa(self):
        scene = sparse_street_scene(rho_v=0.5)
        equivalent = StreetScene(
            scene.canyon,
            FoliageLayer(scene.foliage.depth_m,
                         scene.foliage.kappa_np_per_m * 0.5),
            scene.standoff_m)
        link = Link(300.0, 28e9)
        assert sidewalk_unguided_gain(scene, link).gain == pytest.approx(
            suburban_street_gain(equivalent, link).gain, rel=1e-14, abs=0.0)

    def test_full_density_vegetation_loss(self):
        lossless = sparse_street_scene(rho_v=0.0)
        lossy = StreetScene(lossless.canyon, FoliageLayer(5.0, 0.38),
                            lossless.standoff_m, rho_v=1.0)
        base = StreetScene(lossless.canyon, FoliageLayer(5.0, 0.0),
                           lossless.standoff_m, rho_v=1.0)
        link = Link(300.0, 28e9)
        delta = (db(sidewalk_unguided_gain(base, link).gain)
                 - db(sidewalk_unguided_gain(lossy, link).gain))
        assert delta == pytest.approx(0.38 * 5.0 * NEPER_TO_DB, rel=1e-9)

    def test_max_combination(self):
        scene = sparse_street_scene()
        for r in (100.0, 300.0, 1000.0):
            res = canyon_with_trees_gain(scene, Link(r, 28e9))
            assert res.gain == max(res.components["guided"],
                                   res.components["unguided"])
            assert res.gain >= res.components["guided"]
            assert res.gain >= res.components["unguided"]

    def test_heavy_trees_unguided_dominates(self):
        scene = sparse_street_scene(rho_v=0.3, direct_veg_path_m=None)
        for r in np.geomspace(200.0, 1000.0, 10):
            res = canyon_with_trees_gain(scene, Link(float(r), 28e9))
            assert res.components["unguided"] > res.components["guided"]

    def test_no_trees_guided_dominates_at_long_range(self):
        scene = sparse_street_scene(rho_v=0.0)
        res = canyon_with_trees_gain(scene, Link(2000.0, 28e9))
        assert res.components["guided"] > res.components["unguided"]


class TestCanyonTotal:
    MACRO_SPARSE = MacroGeometry(56.0, 10.0, 1.5, 32.0)
    MACRO_DENSE = MacroGeometry(20.0, 10.0, 1.5, 40.0)

    def test_components_sum_exactly(self):
        scene = sparse_street_scene()
        for r in (150.0, 400.0, 900.0):
            res = canyon_total_gain(scene, self.MACRO_SPARSE, Link(r, 28e9))
            parts = (res.components["canyon_trees"] + res.components["over_top"]
                     + res.components["direct"])
            assert res.gain == parts  # exact float identity

    def test_sparse_street_guided_dominates_beyond_200m(self):
        scene = sparse_street_scene()
        for r in np.geomspace(200.0, 1000.0, 12):
            res = canyon_total_gain(scene, self.MACRO_SPARSE, Link(float(r), 28e9))
            c = res.components
            assert c["guided"] > c["unguided"]
            assert c["guided"] > c["over_top"]
            assert c["guided"] > c["direct"]

    def test_dense_street_unguided_dominates(self):
        scene = dense_street_scene()
        for r in np.geomspace(200.0, 1000.0, 12):
            res = canyon_total_gain(scene, self.MACRO_DENSE, Link(float(r), 28e9))
            c = res.components
            assert c["unguided"] > c["guided"]
            assert c["unguided"] > c["over_top"]
            assert c["unguided"] > c["direct"]

    def test_vegetation_free_start_gives_friis_direct(self):
        geometry = CanyonGeometry(20.0, 20.0, 1.5, AVENUE_WALL)
        foliage = FoliageLayer(3.0, 0.38, n_tree_per_m=0.2, tree_width_m=4.0,
                               tree_height_m=10.0, veg_start_m=200.0)
        scene = StreetScene(geometry, foliage, standoff_m=20.0)
        macro = MacroGeometry(20.0, 10.0, 1.5, 20.0)
        near = canyon_total_gain(scene, macro, Link(150.0, 28e9))
        assert near.components["direct"] == pytest.approx(
            friis_gain(wavelength_m(28e9), near.range_m).gain, rel=1e-14, abs=0.0)
        far = canyon_total_gain(scene, macro, Link(400.0, 28e9))
        assert far.components["direct"] < friis_gain(wavelength_m(28e9),
                                                     far.range_m).gain

    def test_2ghz_sparse_street_tracks_free_space(self):
        # low foliage absorption at 2 GHz keeps the total near Friis
        geometry = CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
        foliage = FoliageLayer(3.0, 0.069, n_tree_per_m=0.05, tree_width_m=4.0,
                               tree_height_m=10.0)
        scene = StreetScene(geometry, foliage, standoff_m=8.0)
        for r in np.geomspace(50.0, 500.0, 15):
            res = canyon_total_gain(scene, self.MACRO_SPARSE, Link(float(r), 2e9))
            friis_db = db(friis_gain(wavelength_m(2e9), res.range_m).gain)
            assert abs(db(res.gain) - friis_db) <= 5.0

    def test_pedestrian_absorption_reduces_direct_term(self):
        base = sparse_street_scene(kappa_extra_np_per_m=0.0)
        crowded = sparse_street_scene(kappa_extra_np_per_m=0.02)
        link = Link(500.0, 28e9)
        g0 = canyon_total_gain(base, self.MACRO_SPARSE, link)
        g1 = canyon_total_gain(crowded, self.MACRO_SPARSE, link)
        assert g1.components["direct"] < g0.components["direct"]
        assert g1.components["unguided"] == g0.components["unguided"]


class TestMonotonicity:
    def test_laws_nonincreasing_beyond_near_field(self):
        sparse = sparse_street_scene()
        macro = MacroGeometry(56.0, 10.0, 1.5, 32.0)
        indoor = IndoorClutter(0.18, 2.0)
        pen = PenetrationSpec.street(4.0)
        geometry = CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)
        laws = [
            lambda r: suburban_street_gain(suburban_scene(), Link(r, 28e9)).gain,
            lambda r: overtop_gain(macro, 0.38, Link(r, 28e9)).gain,
            lambda r: rural_gain(macro, FoliageLayer(0.0, 0.38), Link(r, 28e9)).gain,
            lambda r: outdoor_indoor_canyon_gain(geometry, pen, indoor,
                                                 Link(r, 3.5e9)).gain,
            lambda r: canyon_with_trees_gain(sparse, Link(r, 28e9)).gain,
            lambda r: canyon_total_gain(sparse, macro, Link(r, 28e9)).gain,
        ]
        ranges = np.geomspace(150.0, 5000.0, 40)
        for law in laws:
            gains = [law(float(r)) for r in ranges]
            assert all(b <= a * (1.0 + 1e-12)
                       for a, b in zip(gains, gains[1:]))
