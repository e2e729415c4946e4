"""The reference path loss models `pathgain evaluate` runs: Friis free
space and the 3GPP baselines (TR 38.901 UMa, UMi and InH, LOS and NLOS;
TR 36.814 UMa NLOS).  Friis returns a gain result, the power law of
exponent 2; the 3GPP models return path loss in dB.

The 3GPP coefficients are transcribed from the public standards as data
(TR 38.901 V16.1.0 Table 7.4.1-1; TR 36.814 V9.0.0 Table B.1.2.1-1) with
the source section recorded next to each block.  Path loss is positive;
path gain is its negative.
"""

import math
from dataclasses import dataclass

from .units import SPEED_OF_LIGHT_M_S, checked_gain, positive_ranges, require


@checked_gain
def friis_gain(wavelength_m: float, range_m):
    """Free-space path gain lambda^2 / (16 pi^2 r^2), the power law of
    exponent 2, at one range or an array of ranges: a gain result whose
    one factor is "spreading"."""
    message = "wavelength and range must be positive"
    require(wavelength_m > 0.0, message, wavelength_m)
    from .result import power_law  # loads numpy, which `pathgain fit` never needs
    return power_law(2.0, wavelength_m**2 / (16.0 * math.pi**2),
                     positive_ranges(range_m, message))


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
    import numpy as np
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

@dataclass(frozen=True)
class ThreeGppScenario:
    """One 3GPP scenario with its geometry: family UMa, UMi or InH,
    condition LOS or NLOS."""

    family: str
    condition: str
    f_ghz: float
    base_height_m: float | None = None
    mobile_height_m: float = 1.5

    def __post_init__(self):
        if self.family not in TR38901:
            raise ValueError(f"unsupported 3GPP family {self.family!r}")
        if self.condition not in ("LOS", "NLOS"):
            raise ValueError(f"condition must be LOS or NLOS, got {self.condition!r}")
        require(self.f_ghz > 0.0, "carrier frequency must be positive", self.f_ghz)
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


def tr38901_pathloss(scenario: ThreeGppScenario, distance_m):
    """TR 38.901 path loss (dB) at a horizontal distance, or an array of them.

    NLOS returns max(LOS, NLOS') per the standard's convention, so NLOS is
    never below LOS at equal geometry.
    """
    import numpy as np
    require(distance_m > 0.0, "distance must be positive", distance_m)
    los, nlos = TR38901[scenario.family]["los"], TR38901[scenario.family]["nlos"]
    f_ghz, h_bs, h_ut = scenario.f_ghz, scenario.h_bs, scenario.mobile_height_m
    dh = h_bs - h_ut
    log_d3d = np.log10(np.hypot(distance_m, dh))
    base = los["a"] + 20.0 * math.log10(f_ghz)
    pl = base + los["b"] * log_d3d
    if "c" in los:  # UMa, UMi: PL2 beyond the breakpoint dBP'
        h_e = los["h_e"]
        d_bp = 4.0 * (h_bs - h_e) * (h_ut - h_e) * (f_ghz * 1e9) / SPEED_OF_LIGHT_M_S
        # squared by products, which give inf where float ** 2 would raise
        # OverflowError; [()]: a float, not a 0-d array, for one distance
        pl = np.where(distance_m <= d_bp, pl, base + 40.0 * log_d3d
                      - los["c"] * math.log10(d_bp * d_bp + dh * dh))[()]
    if scenario.condition == "NLOS":
        pl = np.maximum(pl, nlos["a"] + nlos["b"] * log_d3d
                        + nlos["f"] * math.log10(f_ghz) - nlos["hut"] * (h_ut - 1.5))
    return pl
