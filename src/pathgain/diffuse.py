"""Average path gain from a free-space source into a diffusely scattering
half-space.

The boundary acts as a distributed secondary source (a "hot wall") whose
radiated power, for a terminal at depth d_in behind it, collapses to a
quartic range law times an effective boundary transmission T_eff and an
absorption factor.  T_eff folds the solid-angle geometry of the radiating
boundary region (full plane, an infinite strip, or a rectangular aperture)
together with the material power transmission.
"""

import math
from dataclasses import dataclass

import numpy as np

from .result import power_law
from .units import checked_gain, require

UNBOUNDED = "unbounded"
STREET = "street"
APERTURE = "aperture"


@dataclass(frozen=True)
class PenetrationSpec:
    """Boundary description for penetration into a scattering region.

    Use the constructors: unbounded(), street(w1), aperture(w1, w2),
    facade_mixture(p_window, t_window2, t_wall2).  material_t2 is the power
    transmission |T|^2 of the material covering the boundary (air = 1).
    """

    variant: str
    material_t2: float = 1.0
    width1_m: float | None = None
    width2_m: float | None = None

    def __post_init__(self):
        if self.variant not in (UNBOUNDED, STREET, APERTURE):
            raise ValueError(f"unknown penetration variant {self.variant!r}")
        if not 0.0 <= self.material_t2 <= 1.0:
            raise ValueError("material power transmission must be in [0, 1]")
        if self.variant in (STREET, APERTURE):
            require(self.width1_m is not None and self.width1_m > 0.0,
                    f"{self.variant} variant needs width1_m > 0", self.width1_m)
        if self.variant == APERTURE:
            require(self.width2_m is not None and self.width2_m > 0.0,
                    "aperture variant needs width2_m > 0", self.width2_m)

    @classmethod
    def unbounded(cls, material_t2: float = 1.0) -> "PenetrationSpec":
        return cls(UNBOUNDED, material_t2)

    @classmethod
    def street(cls, width1_m: float, material_t2: float = 1.0) -> "PenetrationSpec":
        return cls(STREET, material_t2, width1_m=width1_m)

    @classmethod
    def aperture(cls, width1_m: float, width2_m: float,
                 material_t2: float = 1.0) -> "PenetrationSpec":
        return cls(APERTURE, material_t2, width1_m=width1_m, width2_m=width2_m)

    @classmethod
    def facade_mixture(cls, p_window: float, t_window2: float,
                       t_wall2: float) -> "PenetrationSpec":
        """An unbounded boundary whose transmission mixes windows and wall:
        p |T_window|^2 + (1 - p) |T_wall|^2."""
        for name, value in (("p_window", p_window), ("t_window2", t_window2),
                            ("t_wall2", t_wall2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"facade variant needs {name} in [0, 1]")
        return cls(UNBOUNDED, p_window * t_window2 + (1.0 - p_window) * t_wall2)


@dataclass(frozen=True)
class DiffuseLink:
    """Geometry of one free-space-to-diffuse-region link.

    standoff_m: source distance d_s to the nearest boundary point.
    range_m: source distance r to the center of the hot boundary region
        (one range or an array of them).
    depth_m: terminal depth d_in inside the scattering medium.
    kappa_np_per_m: intrinsic absorption of the medium (nepers/m).
    wavelength_m: carrier wavelength.
    """

    standoff_m: float
    range_m: float | np.ndarray
    depth_m: float
    kappa_np_per_m: float
    wavelength_m: float

    def __post_init__(self):
        for length in (self.standoff_m, self.range_m, self.depth_m, self.wavelength_m):
            require(length > 0.0, "lengths must be positive", length)
        require(self.kappa_np_per_m >= 0.0, "absorption must be nonnegative",
                self.kappa_np_per_m)
        require(self.range_m >= self.standoff_m,
                "range must be at least the boundary standoff")


def t_eff(spec: PenetrationSpec, depth_m: float | None = None) -> float:
    """Effective power transmission of the boundary, in [0, 1].

    aperture w1 x w2:
        |T|^2 (2/pi) atan(w1 w2 / (2 d sqrt(4 d^2 + w1^2 + w2^2)))
    street of width w1 (strip, w2 -> inf):
        |T|^2 (2/pi) atan(w1 / (2 d))
    unbounded boundary (a facade mixture among them): |T|^2

    depth_m is the terminal depth behind the boundary; it is required for
    the bounded variants and ignored otherwise.
    """
    if spec.variant == UNBOUNDED:
        return spec.material_t2
    require(depth_m is not None and depth_m > 0.0,
            f"{spec.variant} variant needs a positive depth", depth_m)
    w1, w2 = spec.width1_m, spec.width2_m
    if spec.variant == STREET:
        angle = np.arctan(w1 / (2.0 * depth_m))
    else:
        angle = np.arctan(
            w1 * w2 / (2.0 * depth_m * np.sqrt(4.0 * depth_m**2 + w1 * w1 + w2 * w2))
        )
    return spec.material_t2 * (2.0 / math.pi) * angle


@checked_gain
def diffuse_pathgain(link: DiffuseLink, spec: PenetrationSpec) -> float:
    """Average path gain into the diffuse half-space (linear power ratio).

    lambda^2 d_s^2 T_eff exp(-kappa d_in) / (8 pi^2 r^4).  The quartic range
    law and the constant are validated against quadrature of the hot-wall
    integral by the oracles module (1-D radial for the unbounded boundary,
    2-D for the aperture).
    """
    return power_law(4.0, quartic_constant(link.wavelength_m, link.standoff_m),
                     link.range_m, t_eff=t_eff(spec, link.depth_m),
                     absorption=math.exp(-link.kappa_np_per_m * link.depth_m)).gain


def quartic_constant(wavelength_m: float, standoff_m: float) -> float:
    """lambda^2 d_s^2 / (8 pi^2), the constant of every quartic law."""
    return wavelength_m**2 * standoff_m**2 / (8.0 * math.pi**2)

