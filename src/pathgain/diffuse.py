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

UNBOUNDED = "unbounded"
STREET = "street"
APERTURE = "aperture"
FACADE = "facade"


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
    p_window: float | None = None
    t_window2: float | None = None
    t_wall2: float | None = None

    def __post_init__(self):
        if self.variant not in (UNBOUNDED, STREET, APERTURE, FACADE):
            raise ValueError(f"unknown penetration variant {self.variant!r}")
        if not 0.0 <= self.material_t2 <= 1.0:
            raise ValueError("material power transmission must be in [0, 1]")
        if self.variant in (STREET, APERTURE):
            if self.width1_m is None or self.width1_m <= 0.0:
                raise ValueError(f"{self.variant} variant needs width1_m > 0")
        if self.variant == APERTURE:
            if self.width2_m is None or self.width2_m <= 0.0:
                raise ValueError("aperture variant needs width2_m > 0")
        if self.variant == FACADE:
            for name in ("p_window", "t_window2", "t_wall2"):
                value = getattr(self, name)
                if value is None or not 0.0 <= value <= 1.0:
                    raise ValueError(f"facade variant needs {name} in [0, 1]")

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
        return cls(FACADE, p_window=p_window, t_window2=t_window2,
                   t_wall2=t_wall2)


@dataclass(frozen=True)
class DiffuseLink:
    """Geometry of one free-space-to-diffuse-region link.

    standoff_m: source distance d_s to the nearest boundary point.
    range_m: source distance r to the center of the hot boundary region.
    depth_m: terminal depth d_in inside the scattering medium.
    kappa_np_per_m: intrinsic absorption of the medium (nepers/m).
    wavelength_m: carrier wavelength.
    """

    standoff_m: float
    range_m: float
    depth_m: float
    kappa_np_per_m: float
    wavelength_m: float

    def __post_init__(self):
        if min(self.standoff_m, self.range_m, self.depth_m,
               self.wavelength_m) <= 0.0:
            raise ValueError("lengths must be positive")
        if self.kappa_np_per_m < 0.0:
            raise ValueError("absorption must be nonnegative")
        if self.range_m < self.standoff_m:
            raise ValueError("range must be at least the boundary standoff")


def t_eff(spec: PenetrationSpec, depth_m: float | None = None) -> float:
    """Effective power transmission of the boundary, in [0, 1].

    aperture w1 x w2:
        |T|^2 (2/pi) atan(w1 w2 / (2 d sqrt(4 d^2 + w1^2 + w2^2)))
    street of width w1 (strip, w2 -> inf):
        |T|^2 (2/pi) atan(w1 / (2 d))
    unbounded boundary: |T|^2
    facade mixture: p |T_window|^2 + (1 - p) |T_wall|^2

    depth_m is the terminal depth behind the boundary; it is required for
    the bounded variants and ignored otherwise.
    """
    if spec.variant == UNBOUNDED:
        return spec.material_t2
    if spec.variant == FACADE:
        return (spec.p_window * spec.t_window2
                + (1.0 - spec.p_window) * spec.t_wall2)
    if depth_m is None or depth_m <= 0.0:
        raise ValueError(f"{spec.variant} variant needs a positive depth")
    if spec.variant == STREET:
        return strip_t_eff(spec.width1_m, depth_m, spec.material_t2)
    w1, w2 = spec.width1_m, spec.width2_m
    angle = math.atan(
        w1 * w2 / (2.0 * depth_m * math.sqrt(4.0 * depth_m**2 + w1 * w1 + w2 * w2))
    )
    return spec.material_t2 * (2.0 / math.pi) * angle


def strip_t_eff(width_m: float, depth_m: float, material_t2: float = 1.0) -> float:
    """T_eff of a street opening of width w1 at depth d > 0 behind it:
    |T|^2 (2/pi) atan(w1 / (2 d)), without building a PenetrationSpec."""
    return material_t2 * (2.0 / math.pi) * math.atan(width_m / (2.0 * depth_m))


def quartic_gain(wavelength_m: float, standoff_m: float, range_m: float,
                 factor: float) -> float:
    """The quartic range law lambda^2 d_s^2 factor / (8 pi^2 r^4).

    factor collects the transmission, absorption and bounce factors of the
    scene; every quartic law in the package evaluates through here.
    """
    return (wavelength_m**2 * standoff_m**2 * factor
            / (8.0 * math.pi**2 * range_m**4))


def diffuse_pathgain(link: DiffuseLink, spec: PenetrationSpec) -> float:
    """Average path gain into the diffuse half-space (linear power ratio).

    lambda^2 d_s^2 T_eff exp(-kappa d_in) / (8 pi^2 r^4).  The quartic range
    law and the constant are validated against 2-D quadrature of the
    hot-wall integral by the oracles module.
    """
    factor = (t_eff(spec, link.depth_m)
              * math.exp(-link.kappa_np_per_m * link.depth_m))
    return quartic_gain(link.wavelength_m, link.standoff_m, link.range_m, factor)


def enhancement_factors(gamma_g2: float, gamma_w2: float) -> float:
    """Incoherent power enhancement (1 + |Gamma_g|^2)(1 + |Gamma_w|^2).

    gamma_g2 and gamma_w2 are the ground and back-wall power reflection
    coefficients; the product lies in [1, 4].
    """
    if not 0.0 <= gamma_g2 <= 1.0:
        raise ValueError(f"gamma_g2 must be in [0, 1], got {gamma_g2}")
    if not 0.0 <= gamma_w2 <= 1.0:
        raise ValueError(f"gamma_w2 must be in [0, 1], got {gamma_w2}")
    return (1.0 + gamma_g2) * (1.0 + gamma_w2)
