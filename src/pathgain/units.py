"""Physical constants, unit conversions and the shared input check.

All internal quantities are SI: lengths in meters, frequency in hertz,
absorption in nepers per meter, gains as linear power ratios.  Decibels
appear only at presentation boundaries (CLI output, fitting, reports).
"""

import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0

# 1 neper = 10/ln(10) dB ~= 4.343 dB
NEPER_TO_DB = 10.0 / math.log(10.0)


def require(condition, message: str, *finite) -> None:
    """Raise ValueError(message) unless condition holds at every element
    and every element of each value in `finite` is finite.

    The one input check of the package's dataclasses and laws.  Write the
    condition positively (`x > 0`, not `not x <= 0`): NaN then fails it,
    as it fails every comparison, and the finiteness test rejects +-inf.
    """
    if not (everywhere(condition) and all(_finite(v) for v in finite)):
        raise ValueError(message)


def everywhere(condition) -> bool:
    """Whether a bool, or every element of a boolean array, is true."""
    return condition.all() if isinstance(condition, np.ndarray) else bool(condition)


def _finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return np.isfinite(value).all()
    return math.isfinite(value)


def positive_ranges(range_m, message: str):
    """One range as a float, or an array of ranges as a float array, after
    checking that every element is finite and positive."""
    ranges = np.asarray(range_m, dtype=float)
    if ranges.ndim == 0:
        ranges = ranges[()]  # a numpy float: cheaper arithmetic than a 0-d array
    require(ranges > 0.0, message, ranges)
    return ranges


def wavelength_m(frequency_hz: float) -> float:
    """Free-space wavelength (m) for a carrier frequency (Hz)."""
    require(frequency_hz > 0.0, f"frequency must be positive, got {frequency_hz}",
            frequency_hz)
    return SPEED_OF_LIGHT_M_S / frequency_hz


def wavenumber_rad_m(frequency_hz: float) -> float:
    """Free-space wavenumber k = 2*pi*f/c (rad/m)."""
    return 2.0 * math.pi / wavelength_m(frequency_hz)


def to_db(power_ratio):
    """Linear power ratio, a float or an array, to dB."""
    ratio = np.asarray(power_ratio, dtype=float)
    bad = ~(ratio > 0.0) | ~np.isfinite(ratio)
    if bad.any():
        raise ValueError(f"power ratio must be finite and positive, "
                         f"got {ratio[bad].flat[0]}")
    return 10.0 * np.log10(ratio)
