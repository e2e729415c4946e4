import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from pathgain import oracles
from pathgain.canyon import CanyonGeometry, LosLink, los_gain_incoherent
from pathgain.diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain, t_eff
from pathgain.morphology import (
    FoliageLayer,
    IndoorClutter,
    Link,
    StreetScene,
    outdoor_indoor_canyon_gain,
    sidewalk_guided_gain,
)
from pathgain.oracles import (
    OracleConvergenceError,
    QuadratureControl,
    SummationControl,
    guided_trees_series_power,
    hotwall_quadrature,
    image_sum_power,
    oi_image_series_power,
    radial_flux_integral,
    roughness_loss_integral,
)
from pathgain.reference import friis_gain
from pathgain.surface import Dielectric, TelegraphRoughness, roughness_loss_rate, wall_loss
from pathgain.units import GainError, wavelength_m, wavenumber_rad_m

from conftest import AVENUE_WALL, CORRIDOR_WALL, URBAN_WALL, db, walls_only_gain

STRICT_SUM = SummationControl(rel_tail_tol=1e-13)
STRICT_QUAD = QuadratureControl(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=400)


def corridor_link(x, f=2e9, **kwargs):
    return LosLink(CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL, **kwargs), x, f)


class TestImageSum:
    def test_reflection_free_sum_is_friis(self):
        # drive the wall loss up so only the direct image survives
        link = corridor_link(30.0)
        value = image_sum_power(link, wall_loss_override=1e9)
        assert value == pytest.approx(
            friis_gain(link.wavelength_m, link.slant_range_m), rel=1e-12, abs=0.0)

    def test_corridor_close_to_waveguide_law(self):
        link = corridor_link(30.0)
        oracle = image_sum_power(link)
        closed = walls_only_gain(link)
        assert abs(db(closed) - db(oracle)) < 1.5

    def test_with_ground_close_to_incoherent_law(self):
        link = corridor_link(50.0, f=28e9)
        oracle = image_sum_power(link, include_ground=True)
        closed = los_gain_incoherent(link).gain
        assert abs(db(closed) - db(oracle)) < 1.5

    def test_walls_only_sum_ignores_the_ground(self):
        # n = 1.3 has no parallel low-grazing rate; a sum without the
        # ground image never needs it
        link = corridor_link(30.0, ground=Dielectric(1.3))
        assert image_sum_power(link) == image_sum_power(corridor_link(30.0))
        with pytest.raises(ValueError, match="n=1.3"):
            image_sum_power(link, include_ground=True)

    def test_metallic_walls_grow_with_truncation_order(self):
        # with unit reflection the sum keeps accumulating until spreading
        # loss takes over, exposing the wall-loss validity condition
        link = corridor_link(30.0)
        partials = [image_sum_power(link, wall_loss_override=0.0, fixed_order=n)
                    for n in (4, 16, 64, 256)]
        assert all(b > a for a, b in zip(partials, partials[1:]))
        assert partials[-1] > 5.0 * friis_gain(link.wavelength_m,
                                               link.slant_range_m)

    def test_metallic_walls_converge_eventually(self):
        # 1/dist^2 spreading alone makes the lossless sum converge, slowly
        link = corridor_link(30.0)
        value = image_sum_power(link, wall_loss_override=0.0,
                                ctl=SummationControl(rel_tail_tol=1e-4))
        dense = image_sum_power(link, wall_loss_override=0.0, fixed_order=200000)
        assert value == pytest.approx(dense, rel=1e-3)

    def test_convergence_error_when_capped(self):
        link = corridor_link(30.0)
        with pytest.raises(OracleConvergenceError):
            image_sum_power(link, wall_loss_override=0.0,
                            ctl=SummationControl(max_order=128))

    def test_off_center_insensitivity(self):
        # the closed form assumes centered antennas; the exact sum with
        # offsets up to 0.3 w stays within 2 dB of it well beyond the width
        for x in (16.0, 64.0, 160.0):
            link = corridor_link(x, tx_offset_m=0.48, rx_offset_m=-0.3)
            shifted = image_sum_power(link)
            centered = image_sum_power(corridor_link(x))
            closed = walls_only_gain(corridor_link(x))
            assert abs(db(shifted) - db(centered)) < 2.0
            assert abs(db(shifted) - db(closed)) < 2.0

    def test_coherent_single_image_equals_power_sum(self):
        # with reflections absorbed, one field term remains and the
        # coherent and power sums coincide exactly
        link = corridor_link(24.0)
        coherent = image_sum_power(link, coherent=True, wall_loss_override=1e9)
        incoherent = image_sum_power(link, wall_loss_override=1e9)
        assert coherent == pytest.approx(incoherent, rel=1e-12, abs=0.0)

    def test_coherent_sum_near_power_sum_on_frequency_average(self):
        # a 10% frequency comb only partially decorrelates the image
        # phases; the coherent mean still lands near the power sum
        link = corridor_link(24.0)
        freqs = np.linspace(1.9e9, 2.1e9, 41)
        coherent = [image_sum_power(corridor_link(24.0, f=float(f)),
                                    coherent=True) for f in freqs]
        incoherent = image_sum_power(link)
        assert abs(db(np.mean(coherent)) - db(incoherent)) < 2.0

    def test_refinement_self_consistency(self):
        link = corridor_link(100.0)
        default = image_sum_power(link)
        strict = image_sum_power(link, ctl=STRICT_SUM)
        assert abs(strict - default) <= 1e-9 * default

    # by coherent: a rel_tail_tol that the 64 < |k| <= 128 shell meets, and
    # one that only the 128 < |k| <= 256 shell meets.  At a wall loss of
    # 0.03 the first shells are 1e-4..1e-2 of the total, the second 1e-7..1e-4.
    SHELL_TOLERANCES = {False: (1e-3, 1e-6), True: (5e-2, 1e-3)}

    @pytest.mark.parametrize("include_ground", [False, True],
                             ids=["walls", "ground"])
    @pytest.mark.parametrize("coherent", [False, True],
                             ids=["incoherent", "coherent"])
    def test_shell_sum_equals_fixed_order_sum(self, coherent, include_ground):
        # adding only the new shell at each doubling sums the same images
        # as the truncated sum; max_order shows where each sum stopped
        link = corridor_link(30.0)
        kwargs = dict(include_ground=include_ground, coherent=coherent,
                      wall_loss_override=0.03)
        for n, tol in zip((128, 256), self.SHELL_TOLERANCES[coherent]):
            ctl = SummationControl(rel_tail_tol=tol, max_order=n)
            if n > 128:
                with pytest.raises(OracleConvergenceError):
                    image_sum_power(link, replace(ctl, max_order=n // 2),
                                    **kwargs)
            assert image_sum_power(link, ctl, **kwargs) == pytest.approx(
                image_sum_power(link, fixed_order=n, **kwargs), rel=1e-13, abs=0.0)


class TestOiSeries:
    GEOMETRY = CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)
    PEN = PenetrationSpec.facade_mixture(0.37, 1.0, 0.0)
    INDOOR = IndoorClutter(0.18, 2.0)

    def test_direct_illumination_limit(self):
        # with reflections absorbed, only the m = 0 standoff term remains
        geometry = CanyonGeometry(
            8.6, 5.0, 1.5,
            type(URBAN_WALL)(URBAN_WALL.dielectric,
                             TelegraphRoughness(5.0, 0.85, 0.15, 3.0, 0.5)))
        link = Link(60.0, 3.5e9)
        d = 2.7
        value = oi_image_series_power(geometry, self.PEN, self.INDOOR, link,
                                      standoff_m=d, gamma_g2=1.0)
        lam = wavelength_m(3.5e9)
        r = math.hypot(60.0, 3.5)
        direct = (lam**2 * t_eff(self.PEN, 2.0) * 4.0 * math.exp(-0.18 * 2.0)
                  * d * d / (8.0 * math.pi**2 * r**4))
        assert value == pytest.approx(direct, rel=1e-9, abs=0.0)

    def test_continuum_law_close_beyond_10lw(self):
        k = wavenumber_rad_m(3.5e9)
        loss = wall_loss(URBAN_WALL, k)
        for mult, bound in ((10.0, 1.5), (40.0, 1.0)):
            link = Link(mult * loss * 8.6, 3.5e9)
            closed = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN,
                                                self.INDOOR, link).gain
            oracle = oi_image_series_power(self.GEOMETRY, self.PEN,
                                           self.INDOOR, link)
            assert abs(db(closed) - db(oracle)) < bound

    def test_gap_shrinks_with_range(self):
        k = wavenumber_rad_m(3.5e9)
        loss = wall_loss(URBAN_WALL, k)
        gaps = []
        for mult in (10.0, 20.0, 50.0, 100.0):
            link = Link(mult * loss * 8.6, 3.5e9)
            closed = outdoor_indoor_canyon_gain(self.GEOMETRY, self.PEN,
                                                self.INDOOR, link).gain
            oracle = oi_image_series_power(self.GEOMETRY, self.PEN,
                                           self.INDOOR, link)
            gaps.append(abs(db(closed) - db(oracle)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_standoff_insensitivity_at_long_range(self):
        k = wavenumber_rad_m(3.5e9)
        loss = wall_loss(URBAN_WALL, k)
        link = Link(20.0 * loss * 8.6, 3.5e9)
        near_wall = oi_image_series_power(self.GEOMETRY, self.PEN, self.INDOOR,
                                          link, standoff_m=0.0)
        mid_street = oi_image_series_power(self.GEOMETRY, self.PEN, self.INDOOR,
                                           link, standoff_m=4.3)
        assert abs(db(near_wall) - db(mid_street)) < 2.0


class TestGuidedTreesSeries:
    def scene(self, rho):
        geometry = CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
        foliage = FoliageLayer(3.0, 0.38)
        return StreetScene(geometry, foliage, standoff_m=8.0, rho_v=rho)

    def test_reduces_to_oi_series_without_trees(self):
        scene = self.scene(0.0)
        link = Link(500.0, 28e9)
        value = guided_trees_series_power(scene, link, gamma_g2=0.8)
        reference = oi_image_series_power(
            scene.canyon, PenetrationSpec.unbounded(), IndoorClutter(0.0, 0.0),
            link, standoff_m=8.0, gamma_g2=0.8)
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_absorption_leaves_first_image_terms(self):
        # at rho_v = 1 the foliage absorbs the series down to its first
        # images, not to the direct (m = 0) term: the m = 1 image at a 56 m
        # standoff adds 0.711 of it.  Orders m = 0..3, summed by hand, leave
        # a tail below 1e-11 of the total
        scene = self.scene(1.0)
        link = Link(300.0, 28e9)
        value = guided_trees_series_power(scene, link, gamma_g2=1.0)
        lam = wavelength_m(28e9)
        loss = wall_loss(AVENUE_WALL, wavenumber_rad_m(28e9))
        r = math.hypot(300.0, 54.5)
        series = sum(d_m**2 * math.exp(-loss * m * d_m / r)
                     * math.exp(-0.38 * math.hypot(r, d_m))
                     for m, d_m in enumerate((8.0, 56.0, 72.0, 120.0)))
        expected = (lam**2 * 4.0 * math.exp(-0.38 * 3.0) * series
                    / (8.0 * math.pi**2 * r**4))
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_closed_form_gap_at_fig_scale_ranges(self):
        # measured series-vs-continuum gaps on the sparse avenue, frozen.
        # Below r ~ L1 w the series collapses toward its standoff term and
        # the gap is not monotone; within the guided regime it shrinks.
        scene = StreetScene(
            CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
            FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                         tree_height_m=10.0),
            standoff_m=8.0)
        loss_w = wall_loss(AVENUE_WALL, wavenumber_rad_m(28e9)) * 32.0

        def gap(x):
            link = Link(x, 28e9)
            closed = sidewalk_guided_gain(scene, link).gain
            return db(closed) - db(guided_trees_series_power(scene, link))

        assert gap(300.0) == pytest.approx(-1.10, abs=0.1)
        assert gap(1000.0) == pytest.approx(-1.72, abs=0.1)
        assert abs(gap(5.0 * loss_w)) < abs(gap(2.5 * loss_w)) < 2.0


# the street scenes of the gap map (bench/gapmap.py), at the n_eff of their
# verify suites: corridor, urban canyon and wide avenue
GAP_MAP_SCENES = {
    "corridor": CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL),
    "urban": CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL),
    "avenue": CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
}


def direct_series(r, width, wall_l, d, ctl, path_factor=None, terms=8192):
    """The first `terms` reflection orders of the standoff series in one
    numpy sum; 8,192 is far past the orders any gap-map series needs."""
    m = np.arange(terms)
    d_m = np.where(m % 2 == 0, m * width + d, m * width + width - d)
    values = d_m**2 * np.exp(-wall_l * m * d_m / r)
    if path_factor is not None:
        values = values * path_factor(r, d_m)
    return float(np.sum(values))


class TestSeriesEarlyStop:
    @pytest.mark.parametrize("f_hz", [2e9, 3.5e9, 28e9])
    @pytest.mark.parametrize("r_over_lw", [0.5, 100.0])
    @pytest.mark.parametrize("scene", sorted(GAP_MAP_SCENES))
    def test_series_match_8192_term_sum(self, monkeypatch, scene, r_over_lw,
                                        f_hz):
        # at the gap map's shortest and longest ranges, where the series
        # needs the most and the fewest orders, the doubling blocks stop
        # at the sum that 8,192 terms give
        geometry = GAP_MAP_SCENES[scene]
        wall_l = wall_loss(geometry.wall, wavenumber_rad_m(f_hz))
        link = Link(r_over_lw * wall_l * geometry.width_m, f_hz)
        calls = []

        def recording(*args, **kwargs):
            value = series(*args, **kwargs)
            calls.append((args, kwargs, value))
            return value

        series = oracles._standoff_series
        monkeypatch.setattr(oracles, "_standoff_series", recording)
        oi_image_series_power(geometry, PenetrationSpec.facade_mixture(
            0.3, 1.0, 0.05), IndoorClutter(0.18, 2.0), link)
        try:
            guided_trees_series_power(StreetScene(
                geometry, FoliageLayer(3.0, 0.38, n_tree_per_m=0.05,
                                       tree_width_m=4.0, tree_height_m=10.0),
                standoff_m=geometry.width_m / 4.0), link)
        except GainError as exc:
            # at 100 L w the vegetated power of some scenes underflows to 0
            # and the oracle raises; its series is recorded and checked all
            # the same
            assert "underflows to 0" in str(exc)
        assert len(calls) == 2
        for args, kwargs, value in calls:
            assert value == pytest.approx(direct_series(*args, **kwargs),
                                          rel=1e-12, abs=0.0)


class TestHotwallQuadrature:
    def test_unbounded_lossless(self):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.unbounded()
        oracle = hotwall_quadrature(link, spec)
        closed = diffuse_pathgain(link, spec)
        assert abs(db(closed) - db(oracle)) < 0.05

    def test_unbounded_with_absorption(self):
        link = DiffuseLink(20.0, 100.0, 10.0, 0.38, wavelength_m(28e9))
        spec = PenetrationSpec.unbounded()
        oracle = hotwall_quadrature(link, spec)
        closed = diffuse_pathgain(link, spec)
        assert abs(db(closed) - db(oracle)) < 0.1

    def test_radial_reduction_cross_check(self):
        link = DiffuseLink(20.0, 100.0, 5.0, 0.1, wavelength_m(28e9))
        radial = radial_flux_integral(link)
        closed = diffuse_pathgain(link, PenetrationSpec.unbounded())
        assert radial == pytest.approx(closed, rel=1e-8, abs=0.0)
        # the 2-D aperture quadrature, which shares neither the radial
        # reduction nor its [d_in, inf) range: at kappa W = 60 the flux
        # beyond the square is about e^-30 of the total
        two_d = hotwall_quadrature(link, PenetrationSpec.aperture(600.0, 600.0))
        assert two_d == pytest.approx(radial, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("material_t2", [-0.5, math.nan, 2.0])
    def test_radial_flux_rejects_transmission_out_of_range(self, material_t2):
        # as a PenetrationSpec does: a power transmission in [0, 1]
        link = DiffuseLink(20.0, 100.0, 5.0, 0.1, wavelength_m(28e9))
        with pytest.raises(ValueError,
                           match=r"material power transmission must be in \[0, 1\]"):
            radial_flux_integral(link, material_t2)

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.38, 2.0])
    @pytest.mark.parametrize("depth", [0.5, 5.0])
    def test_kernel_is_radial_flux_of_greens_function(self, kappa, depth):
        # -d/dr of e^{-kappa r}/((4 pi)^2 r), projected through depth/r, with
        # the derivative taken by mpmath at 30 digits
        def green(r):
            return mpmath.exp(-kappa * r) / ((4 * mpmath.pi) ** 2 * r)

        with mpmath.workdps(30):
            for r_in in (depth * ratio for ratio in (1.0, 2.0, 10.0, 100.0)):
                expected = float(-mpmath.diff(green, r_in) * depth / r_in)
                if expected < sys.float_info.min:
                    continue  # the float kernel underflows here
                kernel = oracles._hotwall_kernel(r_in, kappa, depth, False)
                assert kernel == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("w1_rel", [0.1, 1.0, 100.0])
    @pytest.mark.parametrize("w2_rel", [0.1, 10.0])
    def test_rectangular_aperture_matches_arctan_form(self, w1_rel, w2_rel):
        d_in = 1.0
        link = DiffuseLink(20.0, 100.0, d_in, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(w1_rel * d_in, w2_rel * d_in,
                                        material_t2=0.8)
        oracle = hotwall_quadrature(link, spec)
        closed = diffuse_pathgain(link, spec)
        assert abs(db(closed) - db(oracle)) < 0.05

    def test_frozen_absorption_error_is_small_when_kappa_shallow(self):
        # quantifies the exp(-kappa r') ~ exp(-kappa d_in) approximation the
        # closed aperture form relies on (condition kappa << 1/d_in); the
        # exact kernel's (1 + kappa r') flux term slightly exceeds it
        d_in = 1.0
        link = DiffuseLink(20.0, 100.0, d_in, 0.01, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(5.0, 5.0)
        exact = hotwall_quadrature(link, spec)
        frozen = hotwall_quadrature(link, spec, approximate_kappa=True)
        assert db(exact) - db(frozen) == pytest.approx(0.043, abs=0.01)

    def test_aperture_ratio_tends_to_unbounded(self):
        d_in = 1.0
        link = DiffuseLink(20.0, 100.0, d_in, 0.0, wavelength_m(28e9))
        unbounded = diffuse_pathgain(link, PenetrationSpec.unbounded())
        ratios = []
        for scale in (3.0, 30.0, 3000.0):
            spec = PenetrationSpec.aperture(scale * d_in, scale * d_in)
            ratios.append(hotwall_quadrature(link, spec) / unbounded)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=2e-3)

    def test_28ghz_suburban_point(self):
        link = DiffuseLink(20.0, 100.0, 10.0, 0.38, wavelength_m(28e9))
        spec = PenetrationSpec.unbounded()
        closed = diffuse_pathgain(link, spec)
        oracle = hotwall_quadrature(link, spec, STRICT_QUAD)
        assert abs(db(closed) - db(oracle)) < 0.1

    @pytest.mark.parametrize("spec", [PenetrationSpec.street(3.0)],
                             ids=["street"])
    def test_variant_has_no_boundary_integral(self, spec):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        with pytest.raises(ValueError, match="no boundary integral"):
            hotwall_quadrature(link, spec)

    def test_facade_integrates_as_unbounded_mixture(self):
        # a facade is an unbounded boundary with the mixed transmission
        # p |T_window|^2 + (1 - p) |T_wall|^2
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        facade = PenetrationSpec.facade_mixture(0.3, 1.0, 0.1)
        mix = 0.3 * 1.0 + (1.0 - 0.3) * 0.1
        value = hotwall_quadrature(link, facade)
        assert value == hotwall_quadrature(
            link, PenetrationSpec.unbounded(material_t2=mix))
        assert abs(db(value) - db(diffuse_pathgain(link, facade))) < 0.05

    @pytest.mark.parametrize("approximate_kappa", [False, True])
    @pytest.mark.parametrize("ctl", [QuadratureControl(), STRICT_QUAD],
                             ids=["default", "strict"])
    def test_unbounded_is_the_radial_flux_integral(self, monkeypatch, ctl,
                                                   approximate_kappa):
        # one 1-D form: the unbounded boundary passes its material_t2 and the
        # kernel choice through to radial_flux_integral
        link = DiffuseLink(20.0, 100.0, 10.0, 0.38, wavelength_m(28e9))
        kernels = []
        kernel = oracles._hotwall_kernel

        def recording(r_in, kappa, depth, approximate):
            kernels.append(approximate)
            return kernel(r_in, kappa, depth, approximate)

        monkeypatch.setattr(oracles, "_hotwall_kernel", recording)
        value = hotwall_quadrature(link, PenetrationSpec.unbounded(0.7), ctl,
                                   approximate_kappa=approximate_kappa)
        assert kernels == [approximate_kappa]
        assert value == radial_flux_integral(link, 0.7, ctl,
                                             approximate_kappa=approximate_kappa)
        # over the whole plane both kernels integrate to exp(-kappa d_in)
        # times the lossless flux, the closed form
        closed = diffuse_pathgain(link, PenetrationSpec.unbounded(0.7))
        assert value == pytest.approx(closed, rel=1e-10, abs=0.0)


class TestRoughnessIntegral:
    def test_smooth_surface_no_loss(self):
        flat = TelegraphRoughness(0.0, 0.25, 0.75, 1.0, 1.0 / 3.0)
        k = wavenumber_rad_m(28e9)
        assert roughness_loss_integral(0.01, flat, k) == 0.0

    @pytest.mark.parametrize("rough", [CORRIDOR_WALL.roughness,
                                       URBAN_WALL.roughness])
    @pytest.mark.parametrize("f_hz", [2e9, 3.5e9, 28e9])
    def test_matches_closed_form_within_2_percent(self, rough, f_hz):
        k = wavenumber_rad_m(f_hz)
        for theta in (0.001, 0.01, 0.05):
            integral = roughness_loss_integral(theta, rough, k)
            closed = roughness_loss_rate(rough, k) * theta
            assert integral / closed == pytest.approx(1.0, abs=0.02)

    def test_depth_squared_scaling(self):
        k = wavenumber_rad_m(28e9)
        r1 = TelegraphRoughness(0.035, 0.25, 0.75, 1.0, 1.0 / 3.0)
        r2 = TelegraphRoughness(0.070, 0.25, 0.75, 1.0, 1.0 / 3.0)
        v1 = roughness_loss_integral(0.01, r1, k)
        v2 = roughness_loss_integral(0.01, r2, k)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("general_bracket", [False, True])
    @pytest.mark.parametrize("theta, k, message", [
        (0.01, -1.0, "wavenumber must be positive"),
        (0.01, 0.0, "wavenumber must be positive"),
        (0.01, math.nan, "wavenumber must be positive"),
        (0.01, math.inf, "wavenumber must be positive"),
        (math.nan, 587.0, "grazing angle"),
        (-0.5, 587.0, "grazing angle"),
        (2.0, 587.0, "grazing angle"),
    ])
    def test_rejects_angle_or_wavenumber_out_of_range(self, theta, k, message,
                                                      general_bracket):
        # as the closed form does: theta in [0, pi/2], k finite and positive
        with pytest.raises(ValueError, match=message):
            roughness_loss_integral(theta, CORRIDOR_WALL.roughness, k,
                                    general_bracket=general_bracket)

    @pytest.mark.filterwarnings("error")
    def test_rejects_any_bad_element_of_an_array(self):
        rough = CORRIDOR_WALL.roughness
        with pytest.raises(ValueError, match="wavenumber must be positive"):
            roughness_loss_integral(0.01, rough, np.array([[58.7], [-1.0]]))
        with pytest.raises(ValueError, match="grazing angle"):
            roughness_loss_integral(np.array([0.01, -0.5]), rough, 58.7)

    def test_general_bracket_restricts_to_propagating_band(self):
        # the full angular bracket admits only down-shifted spatial
        # frequencies at grazing, roughly halving the simplified loss term
        rough = CORRIDOR_WALL.roughness
        k = wavenumber_rad_m(28e9)
        simplified = roughness_loss_integral(0.01, rough, k)
        general = roughness_loss_integral(0.01, rough, k, general_bracket=True)
        assert 0.0 < general < simplified
        assert general / simplified == pytest.approx(0.5, abs=0.1)
