"""`units.require` at the call sites whose values may be arrays: each keeps
its message and the inputs it accepts and rejects, and a message that
prints the rejected value is formatted only when the check fails."""

import math

import numpy as np
import pytest

from pathgain import units
from pathgain.canyon import CanyonGeometry, LosLink
from pathgain.diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain
from pathgain.morphology import Link
from pathgain.oracles import hotwall_quadrature, radial_flux_integral
from pathgain.reference import friis_gain, uma_nlos_36814
from pathgain.surface import (PARALLEL, Dielectric, fresnel_exact, fresnel_low_grazing,
                              low_grazing_rate)
from pathgain.units import require, wavelength_m

GLASS = Dielectric(2.0)
UMA = (20.0, 20.0, 25.0, 1.5, 3.5)  # street width, building, base, mobile, GHz
# a terminal on the boundary of the scattering region
ON_BOUNDARY = DiffuseLink(20.0, 100.0, 0.0, 0.0, 0.01)

REJECTED = {
    "grazing_above_right_angle": (lambda: fresnel_exact(2.0, GLASS),
                                  "grazing angle must be in [0, pi/2], got 2.0"),
    "grazing_nan": (lambda: fresnel_low_grazing(math.nan, GLASS),
                    "grazing angle must be in [0, pi/2], got nan"),
    "grazing_array": (lambda: fresnel_low_grazing(np.array([0.1, -0.2]), GLASS),
                      "grazing angle must be in [0, pi/2], got [ 0.1 -0.2]"),
    "friis_zero_wavelength": (lambda: friis_gain(0.0, 10.0),
                              "wavelength and range must be positive"),
    "friis_inf_range": (lambda: friis_gain(0.1, np.array([10.0, math.inf])),
                        "wavelength and range must be positive"),
    "friis_negative_range": (lambda: friis_gain(0.1, np.array([10.0, -1.0])),
                             "wavelength and range must be positive"),
    "uma_negative_width": (lambda: uma_nlos_36814(-20.0, *UMA[1:], 100.0),
                           "street_width_m must be positive, got -20.0"),
    "uma_inf_frequency": (lambda: uma_nlos_36814(*UMA[:4], math.inf, 100.0),
                          "f_ghz must be positive, got inf"),
    "uma_nan_distance": (lambda: uma_nlos_36814(*UMA, np.array([100.0, math.nan])),
                         "d3d_m must be positive, got [100.  nan]"),
    "diffuse_link_negative_depth": (lambda: DiffuseLink(20.0, 100.0, -1.0, 0.0, 0.01),
                                    "depth must be nonnegative"),
    "radial_flux_zero_depth": (lambda: radial_flux_integral(ON_BOUNDARY),
                               "hot-wall quadrature needs a positive depth"),
    "hotwall_unbounded_zero_depth": (
        lambda: hotwall_quadrature(ON_BOUNDARY, PenetrationSpec.unbounded()),
        "hot-wall quadrature needs a positive depth"),
    "hotwall_aperture_zero_depth": (
        lambda: hotwall_quadrature(ON_BOUNDARY, PenetrationSpec.aperture(3.0, 10.0)),
        "hot-wall quadrature needs a positive depth"),
    # an unbounded boundary needs no depth; a street or aperture's T_eff does
    "diffuse_street_zero_depth": (
        lambda: diffuse_pathgain(ON_BOUNDARY, PenetrationSpec.street(3.0)),
        "street variant needs a positive depth"),
    "diffuse_aperture_zero_depth": (
        lambda: diffuse_pathgain(ON_BOUNDARY, PenetrationSpec.aperture(3.0, 10.0)),
        "aperture variant needs a positive depth"),
    "diffuse_link_inf_wavelength": (lambda: DiffuseLink(20.0, 100.0, 1.0, 0.0, math.inf),
                                    "lengths must be positive"),
    "diffuse_link_range_array": (
        lambda: DiffuseLink(20.0, np.array([100.0, -1.0]), 1.0, 0.0, 0.01),
        "lengths must be positive"),
}

ACCEPTED = {
    "grazing_bounds": lambda: fresnel_low_grazing(np.array([0.0, math.pi / 2.0]), GLASS),
    "friis_range_array": lambda: friis_gain(0.1, np.array([1.0, 10.0])).gain,
    "uma_distance_array": lambda: uma_nlos_36814(*UMA, np.array([50.0, 500.0])),
    "diffuse_link_range_array": lambda: DiffuseLink(20.0, np.array([20.0, 100.0]),
                                                    1.0, 0.0, 0.01).range_m,
    "diffuse_link_zero_depth": lambda: ON_BOUNDARY.depth_m,
    "diffuse_unbounded_zero_depth": lambda: diffuse_pathgain(ON_BOUNDARY,
                                                             PenetrationSpec.unbounded()),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_keeps_its_message(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("case", list(ACCEPTED))
def test_accepted_input_gives_finite_values(case):
    assert np.all(np.isfinite(ACCEPTED[case]()))


def test_message_function_runs_only_on_failure():
    calls = []

    def message():
        calls.append(None)
        return "checked value"

    require(np.array([1.0, 2.0]) > 0.0, message, np.array([1.0, 2.0]))
    assert calls == []
    with pytest.raises(ValueError, match="^checked value$"):
        require(True, message, math.inf)
    assert len(calls) == 1


def _counting(base):
    """A subclass of base whose values count, in the list returned with
    it, each time they are formatted as text."""
    calls = []

    class Counting(base):
        def __format__(self, spec):
            calls.append(spec)
            return base.__format__(self, spec)

        def __str__(self):
            calls.append("str")
            return base.__str__(self)

        def __repr__(self):
            calls.append("repr")
            return base.__repr__(self)

    return Counting, calls


def test_passing_checks_format_nothing():
    # the message of a check that prints its value is built only when it fails
    array, array_calls = _counting(np.ndarray)
    number, number_calls = _counting(float)
    wavelength_m(np.array([2e9, 28e9]).view(array))
    wavelength_m(number(28e9))
    low_grazing_rate(Dielectric(number(2.0)), PARALLEL)
    assert array_calls == [] and number_calls == []
    # the control: a failing check formats its value, and the count sees it
    with pytest.raises(ValueError, match=r"got \[ 2\.e\+09 -1\.e\+00\]$"):
        wavelength_m(np.array([2e9, -1.0]).view(array))
    assert array_calls


# every carrier goes through units.wavelength_m: a frequency at or below
# c/DBL_MAX (about 1.7e-300 Hz) has no finite wavelength
CARRIER_CHECKS = {
    "wavelength_m": wavelength_m,
    "link": lambda f: Link(100.0, f),
    "los_link": lambda f: LosLink(CanyonGeometry(1.6, 2.2, 1.0), 100.0, f),
}


@pytest.mark.parametrize("check", list(CARRIER_CHECKS))
@pytest.mark.parametrize("frequency_hz", [5e-324, 1e-320, 1e-300])
def test_carrier_without_finite_wavelength_is_rejected(check, frequency_hz):
    with pytest.raises(ValueError) as info:
        CARRIER_CHECKS[check](frequency_hz)
    assert str(info.value) == ("frequency must be positive with a finite "
                               f"wavelength, got {frequency_hz}")


@pytest.mark.parametrize("check", list(CARRIER_CHECKS))
def test_carrier_above_the_overflow_is_accepted(check):
    CARRIER_CHECKS[check](1e-299)
    assert 0.0 < wavelength_m(1e-299) < math.inf


def test_least_carrier_is_the_overflow_edge():
    # the check is tight: just below the least frequency, c/f overflows
    least = units._MIN_FREQUENCY_HZ
    assert wavelength_m(least) < math.inf
    below = math.nextafter(least, 0.0)
    assert units.SPEED_OF_LIGHT_M_S / below == math.inf
    with pytest.raises(ValueError, match="finite wavelength"):
        wavelength_m(below)
