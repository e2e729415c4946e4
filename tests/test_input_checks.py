"""`units.require` at the call sites whose values may be arrays: each keeps
its message and the inputs it accepts and rejects, and a message that
prints the rejected value is formatted only when the check fails."""

import math

import numpy as np
import pytest

from pathgain.diffuse import DiffuseLink
from pathgain.reference import friis_gain, uma_nlos_36814
from pathgain.surface import Dielectric, fresnel_exact, fresnel_low_grazing
from pathgain.units import require

GLASS = Dielectric(2.0)
UMA = (20.0, 20.0, 25.0, 1.5, 3.5)  # street width, building, base, mobile, GHz

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
    "diffuse_link_zero_depth": (lambda: DiffuseLink(20.0, 100.0, 0.0, 0.0, 0.01),
                                "lengths must be positive"),
    "diffuse_link_inf_wavelength": (lambda: DiffuseLink(20.0, 100.0, 1.0, 0.0, math.inf),
                                    "lengths must be positive"),
    "diffuse_link_range_array": (
        lambda: DiffuseLink(20.0, np.array([100.0, -1.0]), 1.0, 0.0, 0.01),
        "lengths must be positive"),
}

ACCEPTED = {
    "grazing_bounds": lambda: fresnel_low_grazing(np.array([0.0, math.pi / 2.0]), GLASS),
    "friis_range_array": lambda: friis_gain(0.1, np.array([1.0, 10.0])),
    "uma_distance_array": lambda: uma_nlos_36814(*UMA, np.array([50.0, 500.0])),
    "diffuse_link_range_array": lambda: DiffuseLink(20.0, np.array([20.0, 100.0]),
                                                    1.0, 0.0, 0.01).range_m,
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
