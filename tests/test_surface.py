import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from pathgain import surface
from pathgain.surface import (
    Dielectric,
    TelegraphRoughness,
    WallSurface,
    fresnel_exact,
    fresnel_low_grazing,
    roughness_loss_rate,
    roughness_spectrum,
    wall_loss,
)
from pathgain.units import wavenumber_rad_m

from conftest import CORRIDOR_WALL, URBAN_WALL

SQRT5 = math.sqrt(5.0)

angles = st.floats(min_value=0.0, max_value=math.pi / 2.0)
indices = st.floats(min_value=1.05, max_value=10.0)
polarizations = st.sampled_from([surface.PERPENDICULAR, surface.PARALLEL])


class TestFresnelExact:
    def test_normal_incidence_perpendicular(self):
        value = fresnel_exact(math.pi / 2.0, Dielectric(SQRT5))
        assert value == pytest.approx((1.0 - SQRT5) / (1.0 + SQRT5), rel=1e-14)
        assert value == pytest.approx(-0.3819660112501051, rel=1e-12)

    @pytest.mark.parametrize("n", [1.2, SQRT5, 3.0])
    @pytest.mark.parametrize("pol", [surface.PERPENDICULAR, surface.PARALLEL])
    def test_grazing_limit_is_minus_one(self, n, pol):
        assert fresnel_exact(0.0, Dielectric(n), pol) == pytest.approx(-1.0)

    @given(theta=angles, n=indices, pol=polarizations)
    def test_magnitude_bounded(self, theta, n, pol):
        assert abs(fresnel_exact(theta, Dielectric(n), pol)) <= 1.0 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fresnel_exact(-0.1, Dielectric(2.0))
        with pytest.raises(ValueError):
            fresnel_exact(0.1, Dielectric(2.0), "circular")
        with pytest.raises(ValueError):
            Dielectric(0.9)


class TestFresnelLowGrazing:
    def test_zero_angle_exact(self):
        assert fresnel_low_grazing(0.0, Dielectric(SQRT5)) == -1.0
        assert fresnel_low_grazing(0.0, Dielectric(SQRT5), surface.PARALLEL) == -1.0

    def test_perpendicular_form(self):
        value = fresnel_low_grazing(0.05, Dielectric(SQRT5))
        assert value == pytest.approx(-math.exp(-2.0 * 0.05 / SQRT5), rel=1e-14)
        # truncation error against the exact coefficient at this index
        exact = fresnel_exact(0.05, Dielectric(SQRT5))
        assert abs(value - exact) < 0.01

    def test_parallel_form_and_measured_deviation(self):
        value = fresnel_low_grazing(0.05, Dielectric(SQRT5), surface.PARALLEL)
        expected = -math.exp(-(2.0 * 5.0 / math.sqrt(3.0)) * 0.05)
        assert value == pytest.approx(expected, rel=1e-14)
        # the parallel exponent rate 2n^2/sqrt(n^2-2) differs from the
        # leading Taylor rate 2n^2/sqrt(n^2-1) of the exact coefficient;
        # the deviation at n=sqrt(5), theta=0.05 is ~0.029 (regression value)
        exact = fresnel_exact(0.05, Dielectric(SQRT5), surface.PARALLEL)
        assert abs(value - exact) == pytest.approx(0.0287, abs=0.002)

    def test_parallel_singular_below_sqrt2(self):
        with pytest.raises(ValueError):
            fresnel_low_grazing(0.01, Dielectric(1.3), surface.PARALLEL)

    def test_parallel_rate_of_a_huge_index_is_2n(self):
        # n^2 overflows; the rate 2 n^2 / sqrt(n^2 - 2) is 2 n to the last bit
        rate = surface.low_grazing_rate(Dielectric(1e300), surface.PARALLEL)
        assert rate == 2e300

    def test_parallel_rate_past_the_float_range_names_the_index(self):
        with pytest.raises(ValueError, match=r"refraction index 1e\+308$"):
            surface.low_grazing_rate(Dielectric(1e308), surface.PARALLEL)

    def test_approximation_error_at_moderate_index(self):
        # the exponential forms track the exact coefficients only for
        # indices well above 1; measured bounds on theta <= 0.1 rad:
        thetas = np.linspace(1e-4, 0.1, 101)
        for n in np.linspace(2.0, 3.0, 11):
            d = Dielectric(float(n))
            dev_perp = max(abs(fresnel_low_grazing(t, d) - fresnel_exact(t, d))
                           for t in thetas)
            assert dev_perp < 0.02
        for n in np.linspace(2.25, 3.0, 11):
            d = Dielectric(float(n))
            dev_par = max(
                abs(fresnel_low_grazing(t, d, surface.PARALLEL)
                    - fresnel_exact(t, d, surface.PARALLEL))
                for t in thetas)
            assert dev_par < 0.05

    def test_low_index_breakdown_regression(self):
        # at n = 1.5 the n >> 1 assumption fails; the worst deviations over
        # theta <= 0.1 are frozen here so any formula change is caught
        thetas = np.linspace(1e-4, 0.1, 201)
        d = Dielectric(1.5)
        dev_perp = max(abs(fresnel_low_grazing(t, d) - fresnel_exact(t, d))
                       for t in thetas)
        dev_par = max(abs(fresnel_low_grazing(t, d, surface.PARALLEL)
                          - fresnel_exact(t, d, surface.PARALLEL))
                      for t in thetas)
        assert dev_perp == pytest.approx(0.03852, abs=3e-4)
        assert dev_par == pytest.approx(0.25994, abs=3e-4)


def corridor_roughness() -> TelegraphRoughness:
    return CORRIDOR_WALL.roughness


class TestRoughnessSpectrum:
    def test_zero_frequency_value(self):
        rough = corridor_roughness()
        expected = (4.0 * 0.035**2 * 0.25 * 0.75 / math.pi) / (1.0 + 1.0 / 3.0)
        assert roughness_spectrum(rough, 0.0) == pytest.approx(expected, rel=1e-14)

    @given(chi=st.floats(min_value=0.0, max_value=1e4))
    def test_even_and_nonnegative(self, chi):
        rough = corridor_roughness()
        assert roughness_spectrum(rough, chi) == roughness_spectrum(rough, -chi)
        assert roughness_spectrum(rough, chi) >= 0.0

    @pytest.mark.parametrize("rough", [CORRIDOR_WALL.roughness, URBAN_WALL.roughness])
    def test_integrates_to_variance(self, rough):
        # Parseval: the continuous spectrum carries the height variance
        span = 1e4 * rough.rate_sum_per_m
        total, _ = quad(lambda c: roughness_spectrum(rough, c), -span, span,
                        limit=200)
        assert total == pytest.approx(rough.height_variance_m2, rel=1e-3)

    def test_far_tail_underflows_to_zero(self):
        # chi^2 is past a float there; the spectrum, falling as chi^-2, is 0
        assert roughness_spectrum(corridor_roughness(), 1e200) == 0.0


class TestWallLoss:
    def test_smooth_wall(self):
        assert wall_loss(WallSurface(Dielectric(2.0)), 10.0) == 2.0

    def test_corridor_wall_at_2ghz_regression(self):
        k = wavenumber_rad_m(2e9)
        expected = 4.0 / 1.7 + (32.0 * k**1.5 * 0.035**2 * 0.25 * 0.75
                                * math.sqrt(1.0 + 1.0 / 3.0))
        value = wall_loss(CORRIDOR_WALL, k)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(4.656187831042508, rel=1e-12)

    def test_urban_roughness_term_larger_than_corridor(self):
        k = wavenumber_rad_m(3.5e9)
        urban_term = wall_loss(URBAN_WALL, k) - 4.0 / 2.2
        corridor_term = wall_loss(CORRIDOR_WALL, k) - 4.0 / 1.7
        assert urban_term > corridor_term > 0.0
        assert wall_loss(URBAN_WALL, k) == pytest.approx(49.98045430890863,
                                                         rel=1e-12)

    def test_depth_squared_past_a_float_is_value_error(self):
        rough = TelegraphRoughness(1e200, 0.25, 0.75, 1.0, 1.0 / 3.0)
        with pytest.raises(ValueError, match=r"^wall loss overflows for roughness "
                                             r"A = 1e\+200 m at wavenumber 586 rad/m$"):
            wall_loss(WallSurface(Dielectric(1.7), rough), 586.0)


class TestTelegraphValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TelegraphRoughness(0.035, 0.25, 0.74, 1.0, 1.0)

    def test_rates_positive(self):
        with pytest.raises(ValueError):
            TelegraphRoughness(0.035, 0.25, 0.75, 0.0, 1.0)

    def test_loss_rate_scales_with_depth_squared(self):
        # at 2, 3.5 and 28 GHz: no loss on a flat surface, and on a rough one
        # a loss that rises with k and quadruples at twice the depth
        ks = wavenumber_rad_m(np.array([2e9, 3.5e9, 28e9]))
        flat = TelegraphRoughness(0.0, 0.25, 0.75, 1.0, 1.0 / 3.0)
        assert np.all(roughness_loss_rate(flat, ks) == 0.0)
        r1 = TelegraphRoughness(0.035, 0.25, 0.75, 1.0, 1.0 / 3.0)
        r2 = TelegraphRoughness(0.070, 0.25, 0.75, 1.0, 1.0 / 3.0)
        rates = roughness_loss_rate(r1, ks)
        assert np.all(np.diff(rates) > 0.0)
        np.testing.assert_allclose(roughness_loss_rate(r2, ks), 4.0 * rates,
                                   rtol=1e-14)
