"""Line-of-sight path gain in street canyons and indoor corridors.

Wall reflections add to the direct path and slow the range decay from the
free-space exponent 2 to 1.5.  The closed form treats the two-sided image
sum as a continuum; where wall loss is high enough that reflections die out
(short range, or strong roughness scatter at mm-wave), the incoherent sum is
bounded below by its direct term, so the law carries a free-space floor
factor and the floored ranges are flagged.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import surface
from .result import (
    FLAG_FREE_SPACE_FLOOR,
    FLAG_NEAR_WALL,
    FLAG_SHORT_RANGE,
    FLAG_SPREADING_REGIME,
    GainResult,
    power_law,
)
from .surface import Dielectric, WallSurface
from .units import checked_gain, positive_ranges, require, wavelength_m, wavenumber_rad_m


@dataclass(frozen=True)
class CanyonGeometry:
    """Street canyon or corridor cross-section with antenna placement.

    Offsets are measured from the canyon centerline; the closed forms assume
    centered antennas and the image-sum oracle handles offsets exactly.
    """

    width_m: float
    tx_height_m: float
    rx_height_m: float
    wall: WallSurface | None = None
    ground: Dielectric = surface.DEFAULT_GROUND
    tx_offset_m: float = 0.0
    rx_offset_m: float = 0.0

    def __post_init__(self):
        require(self.width_m > 0.0, "canyon width must be positive", self.width_m)
        require(self.tx_height_m > 0.0 and self.rx_height_m > 0.0,
                "antenna heights must be positive",
                self.tx_height_m, self.rx_height_m)
        half = self.width_m / 2.0
        require(abs(self.tx_offset_m) < half and abs(self.rx_offset_m) < half,
                "antenna offsets must stay inside the canyon")

    def wall_loss(self, frequency_hz: float) -> float:
        """Per-radian wall-loss parameter L of the walls at a carrier."""
        if self.wall is None:
            raise ValueError("canyon laws need wall parameters on the geometry")
        return surface.wall_loss(self.wall, wavenumber_rad_m(frequency_hz))

    def slant_range_m(self, horizontal_m):
        """Direct source-receiver distance r at a horizontal range (or an
        array of them)."""
        return np.hypot(horizontal_m, self.tx_height_m - self.rx_height_m)

    def ground_bounce(self, horizontal_m):
        """Ground field coefficient Gamma_g of this canyon's antennas and
        ground at a horizontal distance (or an array of them)."""
        return ground_bounce(self.tx_height_m + self.rx_height_m, horizontal_m,
                             self.ground)


@dataclass(frozen=True)
class Link:
    """Horizontal range, or an array of ranges, and carrier: the one check
    of both for every law.

    range_m is stored as a float or a float array; every law evaluates
    over its shape.
    """

    range_m: float | np.ndarray
    frequency_hz: float

    def __post_init__(self):
        object.__setattr__(self, "range_m", positive_ranges(
            self.range_m, "horizontal range must be positive"))
        wavelength_m(self.frequency_hz)

    @property
    def wavelength_m(self) -> float:
        return wavelength_m(self.frequency_hz)


@dataclass(frozen=True, init=False)
class LosLink(Link):
    """A Link between the antennas of a canyon geometry: range_m is their
    horizontal range."""

    geometry: CanyonGeometry

    def __init__(self, geometry: CanyonGeometry, range_m, frequency_hz: float):
        object.__setattr__(self, "geometry", geometry)
        Link.__init__(self, range_m, frequency_hz)

    @property
    def slant_range_m(self) -> np.ndarray:
        """Direct source-receiver distance r."""
        return self.geometry.slant_range_m(self.range_m)


def ground_bounce(height_sum_m: float, horizontal_m, ground: Dielectric):
    """Ground field reflection coefficient Gamma_g (vertical polarization).

    The low-grazing parallel form at the ground-image grazing angle
    asin((z_s + z)/r_g), r_g = hypot(horizontal, z_s + z), for one
    horizontal distance or an array of them.  Canyon scenes reach it
    through CanyonGeometry.ground_bounce, the over-top laws directly.
    """
    theta_g = np.arcsin(height_sum_m / np.hypot(horizontal_m, height_sum_m))
    return surface.fresnel_low_grazing(theta_g, ground, surface.PARALLEL)


def _waveguide(link: LosLink, **factors) -> GainResult:
    """lambda^2 / (16 pi^1.5 sqrt(w L) r^1.5) times the free-space floor
    max(1, Friis / spreading) = max(1, sqrt(w L / (pi r))), flagged where
    it lifts the law, and the given factors."""
    g = link.geometry
    r = link.slant_range_m
    lam = link.wavelength_m
    wall_l = g.wall_loss(link.frequency_hz)
    floor = np.maximum(1.0, np.sqrt(g.width_m * wall_l / (math.pi * r)))
    half = g.width_m / 2.0
    flags = [(FLAG_SHORT_RANGE, r < 2.0 * g.width_m),
             (FLAG_SPREADING_REGIME, wall_l <= g.width_m / r),
             # incoherent summation breaks within a wavelength of a wall
             (FLAG_NEAR_WALL,
              min(half - abs(g.tx_offset_m), half - abs(g.rx_offset_m)) < lam),
             (FLAG_FREE_SPACE_FLOOR, floor > 1.0)]
    constant = lam**2 / (16.0 * math.pi**1.5 * math.sqrt(g.width_m * wall_l))
    return power_law(1.5, constant, r, flags, free_space_floor=floor, **factors)


@checked_gain
def los_gain_incoherent(link: LosLink) -> GainResult:
    """Waveguide law with ground bounce added in power: factor 1 + |Gamma_g|^2.

    This is the pre-breakpoint range average of the coherent form.
    """
    gamma = link.geometry.ground_bounce(link.range_m)
    return _waveguide(link, ground_bounce=1.0 + gamma * gamma)


@checked_gain
def los_gain_coherent(link: LosLink) -> GainResult:
    """Waveguide law with the two-ray ground interference retained.

    Factor |exp(ikr) + Gamma_g exp(ik r_g)|^2; oscillates with range up to
    the breakpoint and averages to the incoherent form.
    """
    g = link.geometry
    gamma = g.ground_bounce(link.range_m)
    r_g = np.hypot(link.range_m, g.tx_height_m + g.rx_height_m)
    k = wavenumber_rad_m(link.frequency_hz)
    phasor = np.exp(1j * k * link.slant_range_m) + gamma * np.exp(1j * k * r_g)
    return _waveguide(link, two_ray=np.abs(phasor) ** 2)
