"""Physical constants, unit conversions and the shared input and gain checks.

All internal quantities are SI: lengths in meters, frequency in hertz,
absorption in nepers per meter, gains as linear power ratios.  Decibels
appear only at presentation boundaries (CLI output, fitting, reports).
"""

import functools
import math
import sys

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
_MIN_FREQUENCY_HZ = SPEED_OF_LIGHT_M_S / sys.float_info.max  # c/DBL_MAX

# 1 neper = 10/ln(10) dB ~= 4.343 dB
NEPER_TO_DB = 10.0 / math.log(10.0)


def require(condition, message, *finite) -> None:
    """Raise ValueError(message) unless condition holds at every element
    and every element of each value in `finite` is finite.

    The one input check of the package's dataclasses and laws.  Write the
    condition positively (`x > 0`, not `not x <= 0`): NaN then fails it,
    as it fails every comparison, and the finiteness test rejects +-inf.
    message is a string, or a function that returns one: a message that
    prints an array is then formatted only when the check fails.
    """
    if isinstance(condition, np.ndarray):
        condition = condition.all()
    if condition:
        for value in finite:
            if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
                    else math.isfinite(value)):
                break
        else:
            return
    raise ValueError(message() if callable(message) else message)


class GainError(ValueError):
    """A law's gain is not finite and positive."""


def _first_bad(values):
    """(index, value) of the first element of values, flattened, that is
    not finite and positive; None when every one is."""
    if isinstance(values, float):  # one value: no arrays
        return None if 0.0 < values < math.inf else (0, values)
    flat = np.ravel(values)
    bad = ~(flat > 0.0) | ~np.isfinite(flat)
    return (bad.argmax(), flat[bad.argmax()]) if bad.any() else None


def checked_gain(law):
    """law with the one check of a gain: run with numpy's float warnings
    off, it returns a finite, positive gain (its result's `gain`, or the
    result) at every range, or raises GainError naming the first range of
    its link (`range_m` or `range_x_m`, else its `range_m` or last
    argument) or a scene value whose float power overflows.  The unchecked
    law is `__wrapped__`."""
    @functools.wraps(law)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                result = law(*args, **kwargs)
        except OverflowError:
            raise GainError("gain overflows: a scene value is out of float range") from None
        gain = getattr(result, "gain", result)
        bad = _first_bad(gain)
        if bad is not None:
            inputs = (*args, *kwargs.values())
            ranges = next((getattr(arg, name) for arg in inputs
                           for name in ("range_m", "range_x_m") if hasattr(arg, name)),
                          kwargs.get("range_m", inputs[-1]))
            where = np.ravel(np.broadcast_to(ranges, np.shape(gain)))[bad[0]]
            raise GainError(f"gain underflows to 0 at range {where:g} m" if bad[1] == 0.0
                            else f"gain is {bad[1]} at range {where:g} m")
        return result

    return checked


def positive_ranges(range_m, message: str):
    """One range as a float, or an array of ranges as a float array, after
    checking that every element is finite and positive."""
    ranges = np.asarray(range_m, dtype=float)
    if ranges.ndim == 0:
        ranges = ranges[()]  # a numpy float: cheaper arithmetic than a 0-d array
    require(ranges > 0.0, message, ranges)
    return ranges


def wavelength_m(frequency_hz):
    """Free-space wavelength (m) for a carrier frequency (Hz), or an array
    of them: the one check of a carrier.  Raises ValueError for one that is
    not finite or lies below c/DBL_MAX (about 1.7e-300 Hz), where c/f
    overflows."""
    require(frequency_hz >= _MIN_FREQUENCY_HZ,
            f"frequency must be positive with a finite wavelength, got {frequency_hz}",
            frequency_hz)
    return SPEED_OF_LIGHT_M_S / frequency_hz


def wavenumber_rad_m(frequency_hz: float) -> float:
    """Free-space wavenumber k = 2*pi*f/c (rad/m)."""
    return 2.0 * math.pi / wavelength_m(frequency_hz)


def to_db(power_ratio):
    """Linear power ratio, a float or an array, to dB."""
    bad = _first_bad(power_ratio)
    if bad is not None:
        raise ValueError(f"power ratio must be finite and positive, got {bad[1]}")
    return 10.0 * np.log10(power_ratio)
