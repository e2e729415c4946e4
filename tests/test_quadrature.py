"""The vectorized Gauss-Kronrod quadrature behind the hot-wall and roughness
oracles: closed-form integrals of the same shapes, its convergence contract,
and agreement with scipy.integrate, kept here as a test-only reference.
"""

import math
from dataclasses import replace

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

from conftest import CORRIDOR_WALL, QUADRATURE_CACHES, URBAN_WALL, load_gapmap

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
    if spec.variant == UNBOUNDED:
        # the whole plane, 2 pi times its radial integral over [0, inf)
        value, _ = integrate.quad(
            lambda rho: rho * _kernel(math.hypot(d_in, rho), kappa, d_in,
                                      approximate_kappa),
            0.0, np.inf, epsabs=ctl.abs_tol, epsrel=ctl.rel_tol,
            limit=ctl.max_subdivisions)
        value *= 2.0 * math.pi
    else:
        w1, w2 = spec.width1_m, spec.width2_m
        value, _ = integrate.dblquad(
            lambda y, x: _kernel(math.sqrt(d_in * d_in + x * x + y * y), kappa,
                                 d_in, approximate_kappa),
            -w1 / 2.0, w1 / 2.0, -w2 / 2.0, w2 / 2.0,
            epsabs=ctl.abs_tol, epsrel=max(ctl.rel_tol, 1e-11))
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
            assert value == pytest.approx(scipy_hotwall(*args, **kwargs),
                                          rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("profile", ["default", "strict"])
    def test_roughness_suite(self, profile):
        # one quadrature per wall gives every angle at every carrier; each
        # of the 18 values is checked at its own theta and k
        calls = _suite_calls("roughness", profile, "roughness_loss_integral")
        assert len(calls) == 2
        checked = 0
        for (theta, rough, k, ctl), kwargs, value in calls:
            thetas, ks = np.broadcast_arrays(theta, k)
            assert thetas.shape == np.shape(value)
            for t, k_i, v in zip(thetas.ravel().tolist(), ks.ravel().tolist(),
                                 np.ravel(value).tolist()):
                assert v == pytest.approx(scipy_roughness(t, rough, k_i, ctl, **kwargs),
                                          rel=1e-10)
                checked += 1
        assert checked == 18

    @pytest.mark.parametrize("ctl", [DEFAULT, STRICT], ids=["default", "strict"])
    @pytest.mark.parametrize("depth, kappa", [(5.0, 0.1), (2.0, 0.18), (1.0, 0.0)])
    def test_radial_flux_integral(self, ctl, depth, kappa):
        link = DiffuseLink(20.0, 100.0, depth, kappa, wavelength_m(28e9))
        assert radial_flux_integral(link, ctl=ctl) == pytest.approx(
            scipy_radial(link, ctl), rel=1e-10, abs=0.0)

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

    @pytest.mark.parametrize("ctl", [DEFAULT, STRICT], ids=["default", "strict"])
    @pytest.mark.parametrize("approximate_kappa", [False, True])
    @pytest.mark.parametrize("kappa", [0.0, 0.18])
    @pytest.mark.parametrize("width", [1.6, 8.6, 32.0])
    def test_gap_map_aperture(self, width, kappa, approximate_kappa, ctl):
        # the aperture of bench/gapmap.py, w/4 by 1.5 m at d_in = 1 m, against
        # dblquad over the whole rectangle: the quadrant the oracle
        # integrates, times 4, must give the same integral
        link = DiffuseLink(width / 2.0, 100.0, 1.0, kappa, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(width / 4.0, 1.5)
        value = hotwall_quadrature(link, spec, ctl,
                                   approximate_kappa=approximate_kappa)
        assert value == pytest.approx(
            scipy_hotwall(link, spec, ctl, approximate_kappa=approximate_kappa),
            rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("approximate_kappa", [False, True])
    def test_absorbing_aperture(self, approximate_kappa):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.01, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(5.0, 5.0)
        value = hotwall_quadrature(link, spec, approximate_kappa=approximate_kappa)
        assert value == pytest.approx(
            scipy_hotwall(link, spec, approximate_kappa=approximate_kappa),
            rel=1e-10, abs=0.0)


class TestWorkBudget:
    # quadrature evaluations over `verify all` at both profiles; the bound
    # sits between the 36,600 of a quadrant aperture split in geometric
    # steps from d_in and the 112,530 of a full aperture split at its centre.
    # With one roughness quadrature per wall instead of per value, the
    # count is 28,920
    MAX_EVALUATIONS = 60_000

    def test_verify_all_evaluations(self):
        evaluations = []
        original = oracles.gauss_kronrod

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            evaluations.append(result[2])
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", counting)
            for profile in ("default", "strict"):
                verify.run_suites(list(verify.SUITES), profile)
        # eight hot-wall quadratures and one roughness quadrature per wall
        assert len(evaluations) == 2 * (8 + 2)
        assert sum(evaluations) <= self.MAX_EVALUATIONS


def _initial_box_count(edges):
    if edges[0][-1] == math.inf:
        return len(oracles._UNIT_EDGES) - 1
    return math.prod(len(e) - 1 for e in edges)


def _recording_quadratures(calls):
    """A stand-in for gauss_kronrod that appends (edges, evaluations) of
    each quadrature it runs to calls."""
    original = oracles.gauss_kronrod

    def recording(f, edges, ctl):
        result = original(f, edges, ctl)
        calls.append((edges, result[2]))
        return result

    return recording


def _run_grid(gapmap):
    for point in gapmap.grid():
        gapmap.evaluate(point)


class TestFirstPass:
    def test_verify_and_gap_map_quadratures_need_no_bisection(self):
        # every quadrature of `verify all` at both profiles and of the whole
        # gap-map grid meets its tolerance on its initial boxes
        calls = []
        gapmap = load_gapmap()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", _recording_quadratures(calls))
            for profile in ("default", "strict"):
                verify.run_suites(list(verify.SUITES), profile)
            _run_grid(gapmap)
        # 20 for verify, then 5 the grid adds: the room's radial flux, one
        # aperture per street width and the avenue's roughness.  Every other
        # oracle call of the grid is a bit-identical repeat of one of these
        assert len(calls) == 20 + 5
        bisected = [(edges, evaluations) for edges, evaluations in calls
                    if evaluations != 15 ** len(edges) * _initial_box_count(edges)]
        assert not bisected


def _cached_calls(run):
    """{helper: [args, ...]} of every call that run() makes to the cached
    quadratures, repeats included."""
    calls = {cache: [] for cache in QUADRATURE_CACHES}

    def recording(cache):
        def record(*args):
            calls[cache].append(args)
            return cache(*args)
        return record

    with pytest.MonkeyPatch.context() as patch:
        for cache in QUADRATURE_CACHES:
            patch.setattr(oracles, cache.__name__, recording(cache))
        run()
    return calls


def _as(kind, args):
    """args with every float, numpy floats included, converted to kind."""
    return tuple(kind(a) if isinstance(a, (float, np.floating)) else a
                 for a in args)


class TestQuadratureCache:
    def test_cached_values_are_the_quadratures_bit_for_bit(self):
        # every distinct integral of `verify all` at both profiles and of
        # the grid, from the cache and computed afresh with float and numpy
        # float arguments (verify passes aperture widths as numpy floats)
        gapmap = load_gapmap()

        def run():
            for profile in ("default", "strict"):
                verify.run_suites(list(verify.SUITES), profile)
            _run_grid(gapmap)

        calls = _cached_calls(run)
        assert {cache.__name__: len(set(args)) for cache, args in calls.items()} == {
            "_radial_flux": 5, "_aperture_quadrant": 15, "_roughness_integral": 5}
        for cache, arg_list in calls.items():
            for args in set(arg_list):
                cached = cache(*args)
                for kind in (float, np.float64):
                    fresh = cache.__wrapped__(*_as(kind, args))
                    assert type(fresh) is float
                    assert fresh.hex() == cached.hex(), (cache.__name__, args)

    def test_verify_and_grid_quadrature_counts(self):
        calls = []
        gapmap = load_gapmap()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", _recording_quadratures(calls))
            for profile in ("default", "strict"):
                verify.run_suites(list(verify.SUITES), profile)
            assert len(calls) == 20
            assert sum(evaluations for _, evaluations in calls) == 28_920
            # a second verify in the same process integrates nothing
            for profile in ("default", "strict"):
                verify.run_suites(list(verify.SUITES), profile)
            assert len(calls) == 20
            _run_grid(gapmap)
            assert len(calls) == 25

    def test_grid_alone_runs_seven_quadratures(self):
        # one radial flux for the room, one aperture per street width and
        # one roughness integral per scene, over all 183 points
        calls = []
        gapmap = load_gapmap()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", _recording_quadratures(calls))
            _run_grid(gapmap)
        assert len(calls) == 7

    def test_range_and_carrier_hit_and_scene_constants_miss(self):
        calls = []
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(3.0, 10.0)
        rough = URBAN_WALL.roughness
        k = wavenumber_rad_m(28e9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", _recording_quadratures(calls))
            hotwall_quadrature(link, spec)
            radial_flux_integral(link)
            roughness_loss_integral(0.01, rough, k)
            assert len(calls) == 3
            # another range, carrier, standoff, angle or transmission: hits
            other = DiffuseLink(5.0, 300.0, 1.0, 0.0, wavelength_m(3.5e9))
            hotwall_quadrature(other, PenetrationSpec.aperture(3.0, 10.0, 0.5))
            radial_flux_integral(other, 0.5)
            roughness_loss_integral(0.05, rough, wavenumber_rad_m(2e9))
            assert len(calls) == 3
            # a changed control, kappa, depth, width or roughness: misses
            hotwall_quadrature(link, spec, STRICT)
            radial_flux_integral(replace(link, kappa_np_per_m=0.1))
            radial_flux_integral(replace(link, depth_m=2.0))
            hotwall_quadrature(link, PenetrationSpec.aperture(3.0, 11.0))
            roughness_loss_integral(0.01, CORRIDOR_WALL.roughness, k)
            roughness_loss_integral(0.01, rough, k, STRICT)
            assert len(calls) == 9

    def test_aperture_control_is_keyed_after_its_floor(self):
        # below 1e-11 the aperture's relative tolerance is raised to 1e-11,
        # so two controls that differ only there share one integral
        calls = []
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(3.0, 10.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "gauss_kronrod", _recording_quadratures(calls))
            first = hotwall_quadrature(link, spec, STRICT)
            second = hotwall_quadrature(link, spec, replace(STRICT, rel_tol=1e-13))
        assert len(calls) == 1
        assert second == first

    def test_failed_quadrature_raises_again_and_is_not_kept(self):
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(3000.0, 3000.0)
        ctl = QuadratureControl(max_subdivisions=10)
        for _ in range(2):
            with pytest.raises(OracleConvergenceError, match="max_subdivisions=10"):
                hotwall_quadrature(link, spec, ctl)
            assert oracles._aperture_quadrant.cache_info().currsize == 0


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

    @pytest.mark.parametrize("edges", [(np.linspace(0.0, 1.0, 12),),
                                       ((0.0, math.inf),),
                                       ((0.0, 1.0, 2.0, 3.0, 4.0),
                                        (0.0, 1.0, 2.0, 3.0))])
    def test_initial_boxes_beyond_the_cap_raise_before_any_evaluation(self, edges):
        # 11, 16 and 12 initial boxes, against a cap of 10
        evaluated = []

        def f(*x):
            evaluated.append(x)
            return 1.0 + 0.0 * sum(x)

        with pytest.raises(OracleConvergenceError, match="max_subdivisions=10"):
            gauss_kronrod(f, edges, QuadratureControl(max_subdivisions=10))
        assert evaluated == []

    def test_initial_boxes_at_the_cap_are_evaluated(self):
        value, _, evaluations = gauss_kronrod(
            lambda x: x, (np.linspace(0.0, 1.0, 11),),
            QuadratureControl(max_subdivisions=10))
        assert value == pytest.approx(0.5, rel=1e-14)
        assert evaluations == 150

    def test_smallest_absolute_tolerance_is_taken_as_given(self):
        # the least positive float constructs, so the aperture may not divide
        # it down to zero; the relative tolerance then decides
        link = DiffuseLink(20.0, 100.0, 1.0, 0.0, wavelength_m(28e9))
        spec = PenetrationSpec.aperture(3.0, 10.0)
        value = hotwall_quadrature(link, spec, QuadratureControl(abs_tol=5e-324))
        assert value == pytest.approx(hotwall_quadrature(link, spec), rel=1e-9, abs=0.0)

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
