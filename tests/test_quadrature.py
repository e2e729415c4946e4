"""The vectorized Gauss-Kronrod quadrature behind the hot-wall and roughness
oracles: closed-form integrals of the same shapes, its convergence contract,
and agreement with scipy.integrate, kept here as a test-only reference.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from pathgain import oracles, verify
from pathgain.diffuse import UNBOUNDED, DiffuseLink, PenetrationSpec
from pathgain.oracles import (
    OracleConvergenceError,
    QuadratureControl,
    gauss_kronrod,
    hotwall_quadrature,
    radial_flux_integral,
    roughness_loss_integral,
)
from pathgain.surface import TelegraphRoughness, roughness_spectrum
from pathgain.units import wavelength_m, wavenumber_rad_m

from conftest import CORRIDOR_WALL, URBAN_WALL

DEFAULT = QuadratureControl()
STRICT = QuadratureControl(abs_tol=1e-15, rel_tol=1e-12, max_subdivisions=400)


# scipy references: the integrals as scalar Python integrands, with the
# tolerances the oracles use


def _kernel(r_in, kappa, depth, approximate_kappa):
    if approximate_kappa:
        radial = math.exp(-kappa * depth) / (r_in * r_in)
    else:
        radial = math.exp(-kappa * r_in) * (1.0 + kappa * r_in) / (r_in * r_in)
    return radial / (4.0 * math.pi) ** 2 * (depth / r_in)


def _prefactor(link, material_t2):
    return (link.wavelength_m**2 * 4.0 * link.standoff_m**2 * material_t2
            / (4.0 * math.pi * link.range_m**4))


def scipy_hotwall(link, spec, ctl=DEFAULT, approximate_kappa=False):
    d_in, kappa = link.depth_m, link.kappa_np_per_m
    rel = max(ctl.rel_tol, 1e-11)
    if spec.variant == UNBOUNDED:
        radius = max(2.0e4 * d_in, 100.0 * d_in)
        if kappa > 0.0:
            radius = min(radius, d_in + 60.0 / kappa)
        value, _ = integrate.dblquad(
            lambda rho, _phi: rho * _kernel(math.hypot(d_in, rho), kappa, d_in,
                                            approximate_kappa),
            0.0, 2.0 * math.pi, 0.0, radius, epsabs=ctl.abs_tol, epsrel=rel)
    else:
        w1, w2 = spec.width1_m, spec.width2_m
        value, _ = integrate.dblquad(
            lambda y, x: _kernel(math.sqrt(d_in * d_in + x * x + y * y), kappa,
                                 d_in, approximate_kappa),
            -w1 / 2.0, w1 / 2.0, -w2 / 2.0, w2 / 2.0,
            epsabs=ctl.abs_tol, epsrel=rel)
    return _prefactor(link, spec.material_t2) * value


def scipy_radial(link, ctl=DEFAULT):
    d_in, kappa = link.depth_m, link.kappa_np_per_m
    value, _ = integrate.quad(
        lambda r_in: r_in * _kernel(r_in, kappa, d_in, False), d_in, np.inf,
        epsabs=ctl.abs_tol, epsrel=ctl.rel_tol, limit=ctl.max_subdivisions)
    return _prefactor(link, 1.0) * 2.0 * math.pi * value


def scipy_roughness(theta, rough, k, ctl=DEFAULT, general_bracket=False):
    if general_bracket:
        def f_general(chi):
            u = chi / k
            bracket = math.sin(theta) ** 2 + 2.0 * u * math.cos(theta) - u * u
            return roughness_spectrum(rough, chi) * math.sqrt(max(bracket, 0.0))

        chi_max = k * (1.0 + math.cos(theta))
        value, _ = integrate.quad(f_general, -chi_max, chi_max, points=[0.0],
                                  epsabs=ctl.abs_tol, epsrel=ctl.rel_tol,
                                  limit=ctl.max_subdivisions)
        return 2.0 * k * k * math.sin(theta) * value
    value, _ = integrate.quad(
        lambda chi: roughness_spectrum(rough, chi) * math.sqrt(chi), 0.0, np.inf,
        epsabs=ctl.abs_tol, epsrel=ctl.rel_tol, limit=ctl.max_subdivisions)
    return 2.0 * k * k * theta * math.sqrt(2.0 / k) * (2.0 * value)


def _suite_calls(suite, profile, oracle_name):
    """(args, kwargs, value) of every call a verify suite makes to an oracle."""
    calls = []
    original = getattr(oracles, oracle_name)

    def recording(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append((args, kwargs, value))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, oracle_name, recording)
        verify.SUITES[suite](profile)
    return calls


class TestAgainstScipy:
    @pytest.mark.parametrize("profile", ["default", "strict"])
    def test_diffuse_suite(self, profile):
        calls = _suite_calls("diffuse", profile, "hotwall_quadrature")
        assert len(calls) == 8
        for args, kwargs, value in calls:
            assert value == pytest.approx(scipy_hotwall(*args, **kwargs), rel=1e-10)

    @pytest.mark.parametrize("profile", ["default", "strict"])
    def test_roughness_suite(self, profile):
        calls = _suite_calls("roughness", profile, "roughness_loss_integral")
        assert len(calls) == 18
        for args, kwargs, value in calls:
            assert value == pytest.approx(scipy_roughness(*args, **kwargs),
                                          rel=1e-10)

    @pytest.mark.parametrize("ctl", [DEFAULT, STRICT], ids=["default", "strict"])
    @pytest.mark.parametrize("depth, kappa", [(5.0, 0.1), (2.0, 0.18), (1.0, 0.0)])
    def test_radial_flux_integral(self, ctl, depth, kappa):
        link = DiffuseLink(20.0, 100.0, depth, kappa, wavelength_m(28e9))
        assert radial_flux_integral(link, ctl=ctl) == pytest.approx(
            scipy_radial(link, ctl), rel=1e-10)

    @pytest.mark.parametrize("ctl", [DEFAULT, STRICT], ids=["default", "strict"])
    @pytest.mark.parametrize("wall, f_hz, theta", [
        (CORRIDOR_WALL, 28e9, 0.01), (URBAN_WALL, 3.5e9, 0.05)])
    def test_general_bracket(self, ctl, wall, f_hz, theta):
        k = wavenumber_rad_m(f_hz)
        value = roughness_loss_integral(theta, wall.roughness, k, ctl,
                                        general_bracket=True)
        assert value == pytest.approx(
            scipy_roughness(theta, wall.roughness, k, ctl, general_bracket=True),
            rel=1e-10)

    @pytest.mark.parametrize("approximate_kappa", [False, True])
    def test_absorbing_aperture(self, approximate_kappa):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.01, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(5.0, 5.0)
        value = hotwall_quadrature(link, spec, approximate_kappa=approximate_kappa)
        assert value == pytest.approx(
            scipy_hotwall(link, spec, approximate_kappa=approximate_kappa),
            rel=1e-10)


class TestAnalytic:
    @pytest.mark.parametrize("d", [0.5, 1.0, 10.0])
    def test_inverse_square_tail(self, d):
        # integral over [d, inf) of d/r^2 dr = 1
        value, error, evaluations = gauss_kronrod(lambda r: d / r**2,
                                                  ((d, math.inf),), STRICT)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert abs(value - 1.0) <= error
        assert evaluations % 15 == 0

    @pytest.mark.parametrize("s", [0.1, 4.0 / 3.0, 3.53, 50.0])
    def test_lorentzian_times_sqrt(self, s):
        # integral over [0, inf) of s sqrt(chi)/(s^2 + chi^2) dchi = pi sqrt(s/2);
        # the tail falls as chi^(-3/2)
        value, error, _ = gauss_kronrod(
            lambda chi: s * np.sqrt(chi) / (s * s + chi * chi),
            ((0.0, math.inf),), STRICT)
        exact = math.pi * math.sqrt(s / 2.0)
        assert value == pytest.approx(exact, rel=1e-12)
        assert abs(value - exact) <= error

    @pytest.mark.parametrize("d, a, b", [(1.0, 0.05, 0.05), (1.0, 50.0, 5.0),
                                         (0.3, 2.0, 7.0), (1.0, 1500.0, 1500.0)])
    def test_rectangle_of_smooth_kernel(self, d, a, b):
        # over [-a, a] x [-b, b], d (d^2 + x^2 + y^2)^(-3/2) integrates to
        # 4 arctan(ab / (d sqrt(d^2 + a^2 + b^2)))
        value, error, evaluations = gauss_kronrod(
            lambda x, y: d * (d * d + x * x + y * y) ** -1.5,
            ((-a, 0.0, a), (-b, 0.0, b)), DEFAULT)
        exact = 4.0 * math.atan(a * b / (d * math.sqrt(d * d + a * a + b * b)))
        assert value == pytest.approx(exact, rel=1e-12)
        assert abs(value - exact) <= error
        assert evaluations % 225 == 0

    def test_breakpoint_at_kink(self):
        # |x| over [-1, 2] is exact on each side of the break at 0
        value, _, evaluations = gauss_kronrod(np.abs, ((-1.0, 0.0, 2.0),), DEFAULT)
        assert value == pytest.approx(2.5, rel=1e-14)
        assert evaluations == 30


class TestConvergenceContract:
    def test_too_few_subdivisions_raise(self):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(3000.0, 3000.0)
        with pytest.raises(OracleConvergenceError, match="max_subdivisions=10"):
            hotwall_quadrature(link, spec, QuadratureControl(max_subdivisions=10))
        assert hotwall_quadrature(link, spec) > 0.0

    @pytest.mark.parametrize("edges", [((0.0, 1.0),), ((0.0, math.inf),),
                                       ((-1.0, 1.0), (-1.0, 1.0))])
    @pytest.mark.filterwarnings("error")
    def test_nan_integrand_raises_instead_of_looping(self, edges):
        def nan_beyond_half(*x):
            return np.where(x[0] > 0.5, np.nan, 1.0) + 0.0 * sum(x)

        with pytest.raises(OracleConvergenceError, match="not finite"):
            gauss_kronrod(nan_beyond_half, edges, STRICT)

    def test_flat_surface_has_exactly_no_loss_in_the_general_bracket(self):
        # the simplified bracket: test_oracles.py::TestRoughnessIntegral
        flat = TelegraphRoughness(0.0, 0.25, 0.75, 1.0, 1.0 / 3.0)
        k = wavenumber_rad_m(28e9)
        assert roughness_loss_integral(0.01, flat, k, general_bracket=True) == 0.0
