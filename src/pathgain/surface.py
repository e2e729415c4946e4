"""Reflection from smooth and rough dielectric boundaries at grazing incidence.

Walls and window wells are idealized as a corrugated two-state random
telegraph surface: sections of depth 2A alternating with flat wall, with
occupancy fractions p1/p2 and mean section widths 1/mu1 and 1/mu2.  The
specular reflection magnitude then factors into a smooth-dielectric loss and
a roughness scatter loss, both exponential in the grazing angle, which is
what makes the waveguide sums downstream tractable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .units import require

PERPENDICULAR = "perpendicular"
PARALLEL = "parallel"
_POLARIZATIONS = (PERPENDICULAR, PARALLEL)

# Typical ground (concrete / dry soil) refraction index.
GROUND_INDEX_DEFAULT = math.sqrt(5.0)


@dataclass(frozen=True)
class Dielectric:
    """Lossless dielectric half-space described by its refraction index."""

    refraction_index: float

    def __post_init__(self):
        require(self.refraction_index > 1.0,
                lambda: f"refraction index must exceed 1, got {self.refraction_index}",
                self.refraction_index)


DEFAULT_GROUND = Dielectric(GROUND_INDEX_DEFAULT)


@dataclass(frozen=True)
class TelegraphRoughness:
    """Two-state telegraph description of a corrugated wall surface.

    half_depth_m: half-depth A of the recessed sections (window wells).
    fraction_p1 / fraction_p2: wall-area fractions of the two states; must
        sum to one.
    rate_mu1_per_m / rate_mu2_per_m: transition rates, the reciprocals of the
        mean section width and mean section gap.
    """

    half_depth_m: float
    fraction_p1: float
    fraction_p2: float
    rate_mu1_per_m: float
    rate_mu2_per_m: float

    def __post_init__(self):
        require(self.half_depth_m >= 0.0, "roughness half-depth must be nonnegative",
                self.half_depth_m)
        require(0.0 < self.fraction_p1 < 1.0 and 0.0 < self.fraction_p2 < 1.0,
                "state fractions must lie in (0, 1)")
        if abs(self.fraction_p1 + self.fraction_p2 - 1.0) > 1e-12:
            raise ValueError(
                f"state fractions must sum to 1, got "
                f"{self.fraction_p1 + self.fraction_p2}"
            )
        require(self.rate_mu1_per_m > 0.0 and self.rate_mu2_per_m > 0.0,
                "transition rates must be positive",
                self.rate_mu1_per_m, self.rate_mu2_per_m)

    @property
    def rate_sum_per_m(self) -> float:
        return self.rate_mu1_per_m + self.rate_mu2_per_m

    @property
    def height_variance_m2(self) -> float:
        """Surface height variance 4 A^2 p1 p2 about the mean."""
        a = self.half_depth_m
        return 4.0 * (a * a) * self.fraction_p1 * self.fraction_p2


@dataclass(frozen=True)
class WallSurface:
    """A wall: dielectric index plus optional corrugation roughness."""

    dielectric: Dielectric
    roughness: TelegraphRoughness | None = None


def _check_polarization(polarization: str):
    if polarization not in _POLARIZATIONS:
        raise ValueError(
            f"polarization must be one of {_POLARIZATIONS}, got {polarization!r}"
        )


def _check_grazing(theta_rad):
    require((0.0 <= theta_rad) & (theta_rad <= math.pi / 2.0),
            lambda: f"grazing angle must be in [0, pi/2], got {theta_rad}")


def fresnel_exact(theta_rad: float, dielectric: Dielectric,
                  polarization: str = PERPENDICULAR) -> float:
    """Plane-wave field reflection coefficient of a dielectric half-space.

    theta_rad is the grazing angle (complement of the incidence angle).  For
    a real index > 1 the coefficient is real; it tends to -1 for both
    polarizations as the angle goes to grazing.
    """
    _check_polarization(polarization)
    _check_grazing(theta_rad)
    n2 = dielectric.refraction_index**2
    s = math.sin(theta_rad)
    root = math.sqrt(n2 - math.cos(theta_rad) ** 2)
    if polarization == PERPENDICULAR:
        return (s - root) / (s + root)
    return (n2 * s - root) / (n2 * s + root)


def fresnel_low_grazing(theta_rad, dielectric: Dielectric,
                        polarization: str = PERPENDICULAR):
    """Exponential low-grazing approximation to the Fresnel coefficient.

    Returns -exp(-(2/n) * theta) for perpendicular polarization and
    -exp(-(2 n^2 / sqrt(n^2 - 2)) * theta) for parallel, for one grazing
    angle or an array of them.  Both assume a small grazing angle and an
    index well above unity; compare against fresnel_exact to quantify the
    truncation for a given index.
    """
    _check_grazing(theta_rad)
    return -np.exp(-low_grazing_rate(dielectric, polarization) * theta_rad)


def low_grazing_rate(dielectric: Dielectric,
                     polarization: str = PERPENDICULAR) -> float:
    """Rate a of the low-grazing form -exp(-a theta).

    2/n for perpendicular polarization, 2 n^2 / sqrt(n^2 - 2) for parallel;
    the parallel rate is singular for n^2 <= 2 and overflows for n above
    about 9e307, where it raises ValueError.
    """
    _check_polarization(polarization)
    n = dielectric.refraction_index
    if polarization == PERPENDICULAR:
        return 2.0 / n
    if n * n <= 2.0:
        raise ValueError(
            f"parallel low-grazing form is singular for n^2 <= 2 (n={n})"
        )
    # 2 n / sqrt(1 - 2/n^2) is 2 n to the last bit above 1e150 (2 n^2 overflows)
    rate = 2.0 * n if n > 1e150 else 2.0 * n * n / math.sqrt(n * n - 2.0)
    require(rate < math.inf,
            lambda: f"parallel low-grazing rate overflows for refraction index {n}")
    return rate


def roughness_spectrum(roughness: TelegraphRoughness, chi_x_per_m: float) -> float:
    """Continuous part of the telegraph-surface roughness spectrum (m^3).

    This is the Lorentzian transform of the exponential height correlation;
    the delta contribution at zero spatial frequency carries the mean height
    and produces specular reflection rather than scatter loss, so it is
    excluded here and handled analytically by callers.
    """
    s = roughness.rate_sum_per_m
    return (roughness.height_variance_m2 / math.pi * s
            / (s * s + chi_x_per_m * chi_x_per_m))


def roughness_loss_rate(roughness: TelegraphRoughness,
                        wavenumber_rad_m: float) -> float:
    """Specular loss per radian of grazing angle due to roughness scatter.

    Equals 16 k^{3/2} A^2 p1 p2 sqrt(mu1 + mu2); the spectrum integral it
    summarizes is recomputed numerically by the oracles module.
    """
    require(wavenumber_rad_m > 0.0, "wavenumber must be positive", wavenumber_rad_m)
    # 16 k^{3/2} A^2 p1 p2 sqrt(mu1+mu2), written via the variance 4 A^2 p1 p2
    return (4.0 * wavenumber_rad_m**1.5 * roughness.height_variance_m2
            * math.sqrt(roughness.rate_sum_per_m))


def wall_loss(surface: WallSurface, wavenumber_rad_m: float) -> float:
    """Dimensionless per-radian wall-loss parameter L.

    L = 4/n_eff + 32 k^{3/2} A^2 p1 p2 sqrt(mu1 + mu2): twice the
    perpendicular low-grazing rate plus twice the roughness loss rate (the
    reflected power decays as exp(-L * theta) per bounce).  Raises
    ValueError where the roughness term overflows a float.
    """
    require(wavenumber_rad_m > 0.0, "wavenumber must be positive", wavenumber_rad_m)
    loss = 2.0 * low_grazing_rate(surface.dielectric)
    rough = surface.roughness
    if rough is not None:
        loss += 2.0 * roughness_loss_rate(rough, wavenumber_rad_m)
        require(math.isfinite(loss), lambda: f"wall loss overflows for roughness A = "
                f"{rough.half_depth_m:g} m at wavenumber {wavenumber_rad_m:g} rad/m")
    return loss

