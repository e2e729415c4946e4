"""Reference path loss models: Friis, slope-intercept, and 3GPP baselines.

The 3GPP coefficients are transcribed from the public standards as data
(TR 38.901 V16.1.0 Table 7.4.1-1 and Table 7.4.3-2; TR 36.814 V9.0.0 Table
B.1.2.1-1) with the source section recorded next to each block.  Path loss
is returned in dB (positive); path gain is its negative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .units import SPEED_OF_LIGHT_M_S, checked_gain, require


@checked_gain
def friis_gain(wavelength_m: float, range_m):
    """Free-space path gain (lambda / 4 pi r)^2 as a linear power ratio, at
    one range or an array of ranges."""
    require(wavelength_m > 0.0 and range_m > 0.0,
            "wavelength and range must be positive", wavelength_m, range_m)
    return (wavelength_m / (4.0 * math.pi * range_m)) ** 2


@dataclass(frozen=True)
class SlopeIntercept:
    """Power-law path gain model: intercept at 1 m plus -10 n log10(r)."""

    intercept_db_1m: float
    exponent_n: float

    def __post_init__(self):
        require(self.exponent_n > 0.0, "distance exponent must be positive",
                self.exponent_n, self.intercept_db_1m)


def slope_intercept_eval(model: SlopeIntercept, range_m):
    """Path gain in dB at a range, or an array of ranges: P1_dB - 10 n log10(r)."""
    require(range_m > 0.0, "range must be positive", range_m)
    return model.intercept_db_1m - 10.0 * model.exponent_n * np.log10(range_m)


def uma_nlos_36814(street_width_m: float, building_height_m: float,
                   base_height_m: float, mobile_height_m: float,
                   f_ghz: float, d3d_m):
    """Urban-macro NLOS path loss (dB) per TR 36.814 Table B.1.2.1-1, at one
    3-D distance or an array of them.

    Depends explicitly on street width, building height and both antenna
    heights; distances in meters, carrier in GHz.
    """
    for name, value in (("street_width_m", street_width_m),
                        ("building_height_m", building_height_m),
                        ("base_height_m", base_height_m),
                        ("mobile_height_m", mobile_height_m),
                        ("f_ghz", f_ghz), ("d3d_m", d3d_m)):
        require(value > 0.0, lambda: f"{name} must be positive, got {value}", value)
    w, z_b, z_bs, z_m = street_width_m, building_height_m, base_height_m, mobile_height_m
    return (161.04
            - 7.1 * math.log10(w)
            + 7.5 * math.log10(z_b)
            - (24.37 - 3.7 * (z_b / z_bs) ** 2) * math.log10(z_bs)
            + (43.42 - 3.1 * math.log10(z_bs)) * (np.log10(d3d_m) - 3.0)
            + 20.0 * math.log10(f_ghz)
            - (3.2 * math.log10(11.75 * z_m) ** 2 - 4.97))


# TR 38.901 V16.1.0 Table 7.4.1-1 pathloss coefficients.  Breakpoint models:
# PL1 = a + b log10(d3D) + 20 log10(fc); beyond the breakpoint
# PL2 = a + 40 log10(d3D) + 20 log10(fc) - c log10(dBP'^2 + (hBS-hUT)^2),
# with dBP' = 4 hBS' hUT' fc / c and effective environment height hE = 1 m.
# NLOS rows give PL' and the standard takes max(PL_LOS, PL').
TR38901 = {
    "UMa": {  # Table 7.4.1-1 UMa rows
        "los": {"a": 28.0, "b": 22.0, "c": 9.0, "h_e": 1.0},
        "nlos": {"a": 13.54, "b": 39.08, "f": 20.0, "hut": 0.6},
        "default_h_bs": 25.0,
    },
    "UMi": {  # Table 7.4.1-1 UMi street-canyon rows
        "los": {"a": 32.4, "b": 21.0, "c": 9.5, "h_e": 1.0},
        "nlos": {"a": 22.4, "b": 35.3, "f": 21.3, "hut": 0.3},
        "default_h_bs": 10.0,
    },
    "InH": {  # Table 7.4.1-1 InH office rows (no breakpoint)
        "los": {"a": 32.4, "b": 17.3},
        "nlos": {"a": 17.30, "b": 38.3, "f": 24.9, "hut": 0.0},
        "default_h_bs": 3.0,
    },
}

# TR 38.901 Table 7.4.3-2, low-loss O2I building penetration.
O2I_LOW_LOSS = {"p_glass": 0.3, "glass": (2.0, 0.2), "concrete": (5.0, 4.0),
                "indoor_slope_db_per_m": 0.5, "const_db": 5.0}


@dataclass(frozen=True)
class ThreeGppScenario:
    """One 3GPP scenario selection with its geometry.

    family: UMa, UMi or InH; condition: LOS or NLOS.  indoor_depth_m > 0
    adds the UMi low-loss O2I penetration (outdoor part evaluated at the
    scenario's own family/condition).
    """

    family: str
    condition: str
    f_ghz: float
    base_height_m: float | None = None
    mobile_height_m: float = 1.5
    indoor_depth_m: float = 0.0

    def __post_init__(self):
        if self.family not in TR38901:
            raise ValueError(f"unsupported 3GPP family {self.family!r}")
        if self.condition not in ("LOS", "NLOS"):
            raise ValueError(f"condition must be LOS or NLOS, got {self.condition!r}")
        require(self.f_ghz > 0.0, "carrier frequency must be positive", self.f_ghz)
        require(self.indoor_depth_m >= 0.0, "indoor depth must be nonnegative",
                self.indoor_depth_m)
        if self.base_height_m is not None:
            require(self.base_height_m > 0.0, "base station height must be positive",
                    self.base_height_m)
        require(self.mobile_height_m >= 0.0, "mobile height must be nonnegative",
                self.mobile_height_m)

    @property
    def h_bs(self) -> float:
        if self.base_height_m is not None:
            return self.base_height_m
        return TR38901[self.family]["default_h_bs"]


def _breakpoint_m(h_bs: float, h_ut: float, f_ghz: float, h_e: float) -> float:
    f_hz = f_ghz * 1e9
    return 4.0 * (h_bs - h_e) * (h_ut - h_e) * f_hz / SPEED_OF_LIGHT_M_S


def _los_pathloss(family: str, f_ghz: float, d2d_m, h_bs: float, h_ut: float):
    row = TR38901[family]["los"]
    log_d3d = np.log10(np.hypot(d2d_m, h_bs - h_ut))
    base = row["a"] + 20.0 * math.log10(f_ghz)
    if "c" not in row:  # InH: single slope
        return base + row["b"] * log_d3d
    d_bp = _breakpoint_m(h_bs, h_ut, f_ghz, row["h_e"])
    pl = np.where(d2d_m <= d_bp, base + row["b"] * log_d3d,
                  base + 40.0 * log_d3d
                  - row["c"] * math.log10(d_bp**2 + (h_bs - h_ut) ** 2))
    return pl[()]  # a float, not a 0-d array, for one distance


def tr38901_pathloss(scenario: ThreeGppScenario, distance_m):
    """TR 38.901 path loss (dB) at a horizontal distance, or an array of them.

    NLOS returns max(LOS, NLOS') per the standard's convention, so NLOS is
    never below LOS at equal geometry.  For a scenario with indoor_depth_m
    the low-loss O2I penetration and indoor distance losses are added.
    """
    require(distance_m > 0.0, "distance must be positive", distance_m)
    fam = scenario.family
    h_bs, h_ut = scenario.h_bs, scenario.mobile_height_m
    pl = _los_pathloss(fam, scenario.f_ghz, distance_m, h_bs, h_ut)
    if scenario.condition == "NLOS":
        row = TR38901[fam]["nlos"]
        d3d = np.hypot(distance_m, h_bs - h_ut)
        pl_nlos = (row["a"] + row["b"] * np.log10(d3d)
                   + row["f"] * math.log10(scenario.f_ghz)
                   - row["hut"] * (h_ut - 1.5))
        pl = np.maximum(pl, pl_nlos)
    if scenario.indoor_depth_m > 0.0:
        pl = pl + o2i_low_loss_db(scenario.f_ghz, scenario.indoor_depth_m)
    return pl


def o2i_low_loss_db(f_ghz: float, indoor_depth_m: float) -> float:
    """Low-loss building penetration per TR 38.901 Table 7.4.3-2 (mean)."""
    t = O2I_LOW_LOSS
    l_glass = t["glass"][0] + t["glass"][1] * f_ghz
    l_concrete = t["concrete"][0] + t["concrete"][1] * f_ghz
    through_wall = t["const_db"] - 10.0 * math.log10(
        t["p_glass"] * 10.0 ** (-l_glass / 10.0)
        + (1.0 - t["p_glass"]) * 10.0 ** (-l_concrete / 10.0)
    )
    return through_wall + t["indoor_slope_db_per_m"] * indoor_depth_m

