"""First-principles numerical checks for every closed-form approximation.

Each oracle recomputes a quantity the closed forms approximate, without
sharing the approximation under test: image sums use exact image distances
and per-bounce angles (no small-offset expansion), reflection-order series
are summed term by term with exact image standoffs, and the hot-wall and
roughness integrals are evaluated by adaptive quadrature with the
unapproximated kernels.  scipy.integrate is imported inside the three
quadrature oracles only, so the closed-form commands never pay its start-up.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import surface
from .canyon import LosLink, ground_bounce
from .diffuse import (
    APERTURE,
    UNBOUNDED,
    DiffuseLink,
    PenetrationSpec,
    enhancement_factors,
    t_eff,
)
from .morphology import IndoorClutter, Link, StreetScene, _scene_rho
from .units import wavelength_m, wavenumber_rad_m


@dataclass(frozen=True)
class SummationControl:
    """Truncation policy for the image and reflection-order series.

    deadline_s, when set, is a wall-clock budget checked between blocks so
    callers can cancel runaway sums cooperatively.
    """

    max_order: int = 500_000
    rel_tail_tol: float = 1e-10
    block: int = 4096
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_order < 1 or self.rel_tail_tol <= 0.0 or self.block < 1:
            raise ValueError("summation control parameters must be positive")
        if self.deadline_s is not None and self.deadline_s < 0.0:
            raise ValueError("deadline must be nonnegative")

    def start_clock(self) -> float:
        return time.monotonic()

    def check_deadline(self, started_at: float):
        if self.deadline_s is not None and \
                time.monotonic() - started_at > self.deadline_s:
            raise OracleConvergenceError(
                f"summation exceeded the {self.deadline_s} s deadline"
            )


@dataclass(frozen=True)
class QuadratureControl:
    """Tolerances for the adaptive quadratures."""

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0 or self.max_subdivisions < 10:
            raise ValueError("quadrature control parameters out of range")


class OracleConvergenceError(RuntimeError):
    """A truncated sum or quadrature failed to meet its tolerance."""


def _canyon_image_total(link: LosLink, k_max: int, coherent: bool,
                        include_ground: bool, wall_loss_value: float):
    """Image sum at a fixed truncation order (2*k_max bounces)."""
    g = link.geometry
    w = g.width_m
    x = link.range_x_m
    # shift so the walls sit at y = 0 and y = w
    y_s = g.tx_offset_m + w / 2.0
    y_r = g.rx_offset_m + w / 2.0
    k = np.arange(-k_max, k_max + 1)
    pos = np.concatenate([2.0 * k * w + y_s, 2.0 * k * w - y_s])
    refl = np.concatenate([np.abs(2 * k), np.abs(2 * k - 1)])
    dy = pos - y_r
    g_coef = surface.low_grazing_rate(g.ground, surface.PARALLEL)

    def image_set(dz: float, via_ground: bool):
        dist = np.sqrt(x * x + dy * dy + dz * dz)
        theta_wall = np.arcsin(np.abs(dy) / dist)
        amp = np.exp(-0.5 * wall_loss_value * theta_wall) ** refl
        if via_ground:
            theta_ground = np.arcsin(abs(dz) / dist)
            gamma_g = -np.exp(-g_coef * theta_ground)
        if coherent:
            fields = (-1.0) ** refl * amp * np.exp(1j * link.wavenumber_rad_m * dist) / dist
            if via_ground:
                fields = fields * gamma_g
            return np.sum(fields)
        powers = amp * amp / (dist * dist)
        if via_ground:
            powers = powers * gamma_g * gamma_g
        return np.sum(powers)

    total = image_set(g.tx_height_m - g.rx_height_m, False)
    if include_ground:
        total = total + image_set(g.tx_height_m + g.rx_height_m, True)
    return total


def image_sum_power(link: LosLink, ctl: SummationControl = SummationControl(),
                    include_ground: bool = False, coherent: bool = False,
                    wall_loss_override: float | None = None,
                    fixed_order: int | None = None) -> float:
    """Brute-force image-sum path gain for a LOS canyon link.

    Sums wall-reflection images with exact image distances
    sqrt(x^2 + dy^2 + dz^2) and exact per-bounce grazing angles
    asin(|dy|/dist); per-bounce reflection magnitude is exp(-L/2 * theta).
    include_ground adds the ground-image copy of every wall image; coherent
    sums fields with phase instead of powers.  wall_loss_override replaces L
    (0 forces unit reflection); fixed_order evaluates the truncated sum at
    that order without a convergence check.
    """
    wall_l = link.wall_loss if wall_loss_override is None else wall_loss_override
    lam = link.wavelength_m
    scale = lam * lam / (4.0 * math.pi) ** 2

    def finish(total):
        return scale * (abs(total) ** 2 if coherent else float(total))

    if fixed_order is not None:
        return finish(_canyon_image_total(link, max(fixed_order, 1), coherent,
                                          include_ground, wall_l))
    started = ctl.start_clock()
    k_max = 64
    prev = _canyon_image_total(link, k_max, coherent, include_ground, wall_l)
    while 2 * k_max <= ctl.max_order:
        ctl.check_deadline(started)
        k_max *= 2
        total = _canyon_image_total(link, k_max, coherent, include_ground, wall_l)
        if abs(total - prev) <= ctl.rel_tail_tol * abs(total):
            return finish(total)
        prev = total
    raise OracleConvergenceError(
        f"image sum did not converge within max_order={ctl.max_order}"
    )


def _standoff_series(r: float, width: float, wall_l: float, d: float,
                     ctl: SummationControl, extra_factor=None) -> float:
    """Sum over reflection order m of d_m^2 exp(-L m d_m / r) [* extra].

    Image standoffs alternate d_m = mw + d (even m) and mw + w - d (odd m);
    the per-bounce grazing angle of the m-bounce path is d_m / r.
    """
    total = 0.0
    m_start = 0
    started = ctl.start_clock()
    while m_start <= ctl.max_order:
        ctl.check_deadline(started)
        m = np.arange(m_start, min(m_start + ctl.block, ctl.max_order + 1))
        d_m = np.where(m % 2 == 0, m * width + d, m * width + width - d)
        terms = d_m**2 * np.exp(-wall_l * m * d_m / r)
        if extra_factor is not None:
            terms = terms * extra_factor(d_m)
        block = float(np.sum(terms))
        total += block
        if m_start > 0 and block <= ctl.rel_tail_tol * total:
            return total
        m_start += len(m)
    raise OracleConvergenceError(
        f"reflection-order series did not converge within max_order={ctl.max_order}"
    )


def oi_image_series_power(geometry, pen: PenetrationSpec, indoor: IndoorClutter,
                          link: Link, ctl: SummationControl = SummationControl(),
                          standoff_m: float | None = None,
                          gamma_g2: float | None = None,
                          gamma_w2: float = 1.0) -> float:
    """Outdoor-indoor canyon power by direct summation over reflection order.

    Each image at standoff d_m from the building face contributes
    d_m^2 |Gamma|^{2m}; no continuum or large-m approximation.  standoff_m
    is the source distance to that face (default mid-street).
    """
    lam = wavelength_m(link.frequency_hz)
    wall_l = surface.wall_loss(geometry.wall, wavenumber_rad_m(link.frequency_hz))
    d = geometry.width_m / 2.0 if standoff_m is None else standoff_m
    dz = geometry.tx_height_m - geometry.rx_height_m
    r = math.hypot(link.range_m, dz)
    if gamma_g2 is None:
        gamma_g2 = ground_bounce(geometry.tx_height_m + geometry.rx_height_m,
                                 link.range_m, geometry.ground) ** 2
    series = _standoff_series(r, geometry.width_m, wall_l, d, ctl)
    return (lam**2 * t_eff(pen, indoor.depth_m)
            * enhancement_factors(gamma_g2, gamma_w2)
            * math.exp(-indoor.kappa_np_per_m * indoor.depth_m)
            / (8.0 * math.pi**2 * r**4) * series)


def guided_trees_series_power(scene: StreetScene, link: Link,
                              ctl: SummationControl = SummationControl(),
                              gamma_g2: float | None = None,
                              gamma_w2: float = 1.0) -> float:
    """Tree-lined sidewalk guided power by direct summation.

    The outdoor-indoor series with T_eff = 1 and every image path attenuated
    over its exact length: exp(-kappa_v rho_v sqrt(r^2 + d_m^2)).
    """
    g = scene.canyon
    lam = wavelength_m(link.frequency_hz)
    wall_l = surface.wall_loss(g.wall, wavenumber_rad_m(link.frequency_hz))
    rho = _scene_rho(scene)
    k_rho = scene.foliage.kappa_np_per_m * rho
    dz = g.tx_height_m - g.rx_height_m
    r = math.hypot(link.range_m, dz)
    if gamma_g2 is None:
        gamma_g2 = ground_bounce(g.tx_height_m + g.rx_height_m, link.range_m,
                                 g.ground) ** 2

    def vegetation(d_m):
        return np.exp(-k_rho * np.sqrt(r * r + d_m * d_m))

    series = _standoff_series(r, g.width_m, wall_l, scene.standoff_m, ctl,
                              extra_factor=vegetation)
    return (lam**2 * enhancement_factors(gamma_g2, gamma_w2)
            * math.exp(-k_rho * scene.foliage.depth_m)
            / (8.0 * math.pi**2 * r**4) * series)


def _hotwall_kernel(r_in: float, kappa: float, depth: float,
                    approximate_kappa: bool) -> float:
    # radial flux -d/dr(e^{-kappa r}/((4 pi)^2 r)) projected through depth/r
    if approximate_kappa:
        radial = math.exp(-kappa * depth) / (r_in * r_in)
    else:
        radial = math.exp(-kappa * r_in) * (1.0 + kappa * r_in) / (r_in * r_in)
    return radial / (4.0 * math.pi) ** 2 * (depth / r_in)


def hotwall_quadrature(link: DiffuseLink, spec: PenetrationSpec,
                       ctl: QuadratureControl = QuadratureControl(),
                       approximate_kappa: bool = False) -> float:
    """Path gain into the diffuse half-space by 2-D boundary quadrature.

    Integrates the hot-wall surface flux over the radiating boundary region
    (full plane in polar coordinates, rectangular aperture in cartesian) and
    applies the free-space spreading prefactor.  The street strip and
    the facade mixture have no boundary integral here (the strip, integrated
    as a very long aperture, does not converge); the street T_eff is checked
    through the aperture-to-street limit instead.  approximate_kappa freezes
    the absorption at exp(-kappa d_in), the approximation the closed-form
    aperture expression makes; the default integrates the exact
    exp(-kappa r') kernel.
    """
    from scipy import integrate

    d_in = link.depth_m
    kappa = link.kappa_np_per_m
    rel = max(ctl.rel_tol, 1e-11)
    if spec.variant == UNBOUNDED:
        # truncate where the 1/r^3 tail falls below tolerance of the total
        radius = max(2.0e4 * d_in, 100.0 * d_in)
        if kappa > 0.0:
            radius = min(radius, d_in + 60.0 / kappa)
        value, _ = integrate.dblquad(
            lambda rho, _phi: rho * _hotwall_kernel(
                math.hypot(d_in, rho), kappa, d_in, approximate_kappa),
            0.0, 2.0 * math.pi, 0.0, radius, epsabs=ctl.abs_tol, epsrel=rel,
        )
    elif spec.variant == APERTURE:
        w1, w2 = spec.width1_m, spec.width2_m

        def integrand(y: float, x_: float) -> float:
            r_in = math.sqrt(d_in * d_in + x_ * x_ + y * y)
            return _hotwall_kernel(r_in, kappa, d_in, approximate_kappa)

        value, _ = integrate.dblquad(integrand, -w1 / 2.0, w1 / 2.0,
                                     -w2 / 2.0, w2 / 2.0,
                                     epsabs=ctl.abs_tol, epsrel=rel)
    else:
        raise ValueError(f"no boundary integral for variant {spec.variant!r}")
    prefactor = (4.0 * link.standoff_m**2 * spec.material_t2
                 / (4.0 * math.pi * link.range_m**4))
    return link.wavelength_m**2 * prefactor * value


def radial_flux_integral(link: DiffuseLink, material_t2: float = 1.0,
                         ctl: QuadratureControl = QuadratureControl()) -> float:
    """1-D radial reduction of the unbounded hot-wall integral (cross-check).

    r' dr' = rho' drho' collapses the polar integral exactly; must agree
    with the 2-D quadrature and with the closed form.
    """
    from scipy import integrate

    d_in, kappa = link.depth_m, link.kappa_np_per_m
    value, _ = integrate.quad(
        lambda r_in: r_in * _hotwall_kernel(r_in, kappa, d_in, False),
        d_in, np.inf, epsabs=ctl.abs_tol, epsrel=ctl.rel_tol,
        limit=ctl.max_subdivisions,
    )
    prefactor = (4.0 * link.standoff_m**2 * material_t2
                 / (4.0 * math.pi * link.range_m**4))
    return link.wavelength_m**2 * prefactor * 2.0 * math.pi * value


def roughness_loss_integral(theta_rad: float,
                            roughness: surface.TelegraphRoughness,
                            wavenumber: float,
                            ctl: QuadratureControl = QuadratureControl(),
                            general_bracket: bool = False) -> float:
    """Specular roughness loss term by quadrature of the spectrum integral.

    Simplified (grazing incidence, large-scale roughness) bracket:
        2 k^2 theta sqrt(2/k) * integral G(chi) sqrt(|chi|) dchi
    general_bracket keeps [sin^2 t + 2 (chi/k) cos t - (chi/k)^2]^{1/2} over
    the band where it is real.  Returns the loss term; the closed-form
    counterpart is surface.roughness_loss_rate(...) * theta.
    """
    from scipy import integrate

    k = wavenumber
    if general_bracket:
        chi_max = k * (1.0 + math.cos(theta_rad))

        def f_general(chi: float) -> float:
            u = chi / k
            bracket = (math.sin(theta_rad) ** 2
                       + 2.0 * u * math.cos(theta_rad) - u * u)
            if bracket <= 0.0:
                return 0.0
            return surface.roughness_spectrum(roughness, chi) * math.sqrt(bracket)

        value, _ = integrate.quad(f_general, -chi_max, chi_max,
                                  points=[0.0], epsabs=ctl.abs_tol,
                                  epsrel=ctl.rel_tol,
                                  limit=ctl.max_subdivisions)
        return 2.0 * k * k * math.sin(theta_rad) * value

    value, _ = integrate.quad(
        lambda chi: surface.roughness_spectrum(roughness, chi) * math.sqrt(chi),
        0.0, np.inf, epsabs=ctl.abs_tol, epsrel=ctl.rel_tol,
        limit=ctl.max_subdivisions,
    )
    return 2.0 * k * k * theta_rad * math.sqrt(2.0 / k) * (2.0 * value)
