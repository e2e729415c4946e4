"""First-principles numerical checks for every closed-form approximation.

Each oracle recomputes a quantity the closed forms approximate, without
sharing the approximation under test: image sums use exact image distances
and per-bounce angles (no small-offset expansion), reflection-order series
are summed term by term with exact image standoffs, and the hot-wall and
roughness integrals are evaluated by adaptive quadrature with the
unapproximated kernels.  The quadrature is the module's own vectorized
Gauss-Kronrod rule (`gauss_kronrod`), so no command loads scipy.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

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
    """Tolerances for the adaptive quadratures; max_subdivisions caps the
    intervals (rectangles, in 2-D) that one quadrature may hold."""

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


# Kronrod 15-point nodes on [-1, 1] and their Kronrod and Gauss 7-point
# weights (QUADPACK qk15); the Gauss rule uses every other node
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0,
       0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_KRONROD = np.array(_WK + tuple(reversed(_WK[:-1])))
_GAUSS = np.array(_WG + tuple(reversed(_WG[:-1])))
_EPS = np.finfo(float).eps


def _contract(values, axis_weights):
    """Weighted sum over the trailing node axes, one weight vector each."""
    for weights in reversed(axis_weights):
        values = values @ weights
    return values


def _box_rule(f, boxes):
    """Kronrod value and per-axis error estimate of f on each box.

    boxes is (count, dims, 2), the low and high edge of each box on each
    axis; f is called once on node arrays that broadcast to (count, 15,
    ..., 15).  Along each axis, every line of nodes gets QUADPACK's qk15
    error estimate, |K15 - G7| scaled by the line's spread about its mean;
    the axis's error is the Kronrod integral of those line errors over the
    other axes.
    """
    count, dims, _ = boxes.shape
    half = (boxes[:, :, 1] - boxes[:, :, 0]) / 2.0
    center = boxes.mean(axis=2)
    nodes = [(center[:, j, None] + half[:, j, None] * _NODES).reshape(
        (count,) + (1,) * j + (15,) + (1,) * (dims - j - 1)) for j in range(dims)]
    values = f(*nodes)
    jacobian = np.prod(half, axis=1)
    errors = np.empty((count, dims))
    for j in range(dims):
        lines = values.swapaxes(j + 1, -1)
        kronrod = lines @ _KRONROD
        spread = np.abs(lines - kronrod[..., None] / 2.0) @ _KRONROD
        error = np.abs(kronrod - lines @ _GAUSS)
        ratio = np.divide(200.0 * error, spread, out=np.zeros_like(error),
                          where=spread > 0.0)
        error = np.maximum(spread * np.minimum(1.0, ratio**1.5),
                           50.0 * _EPS * (np.abs(lines) @ _KRONROD))
        errors[:, j] = _contract(error, [_KRONROD] * (dims - 1)) * jacobian
    return _contract(values, [_KRONROD] * dims) * jacobian, errors


def gauss_kronrod(f, edges, ctl: QuadratureControl):
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of f over a box.

    edges holds one increasing sequence of breakpoints per axis, so
    ((a, 0.0, b),) is a 1-D integral over [a, b] split at 0 and
    ((a, b), (c, d)) a rectangle, integrated with the tensor-product rule;
    the initial boxes are the products of the segments.  A 1-D range
    ((a, inf),) is integrated over sixteen equal pieces of t in [0, 1) with
    x = a + (t/(1-t))^2.  f takes one node array per axis and returns the
    integrand on their broadcast.

    Each pass evaluates every new box in one call of f, then bisects the
    boxes that carry the most error, each along its worse axis, until the
    summed error estimate meets max(abs_tol, rel_tol * |value|) of ctl.
    Returns (value, abs_error, evaluations).
    Raises OracleConvergenceError when that takes more than
    ctl.max_subdivisions boxes or an error estimate is not finite.
    """
    if edges[0][-1] == math.inf:
        f, edges = _to_infinity(f, edges[0][0]), (np.linspace(0.0, 1.0, 17),)
    boxes = np.array(list(itertools.product(
        *[list(zip(e[:-1], e[1:])) for e in edges])), dtype=float)
    values, errors = _box_rule(f, boxes)
    evaluations = len(boxes) * 15 ** len(edges)
    while True:
        box_errors = errors.sum(axis=1)
        value, error = float(values.sum()), float(box_errors.sum())
        if not math.isfinite(error):
            raise OracleConvergenceError(
                f"quadrature error estimate is not finite ({error})")
        tolerance = max(ctl.abs_tol, ctl.rel_tol * abs(value))
        if error <= tolerance:
            return value, error, evaluations
        # bisect the fewest worst boxes that leave the rest within tolerance/2
        order = np.argsort(-box_errors)
        rest = error - np.cumsum(box_errors[order])
        count = min(int(np.count_nonzero(rest > tolerance / 2.0)) + 1,
                    ctl.max_subdivisions - len(boxes))
        if count <= 0:
            raise OracleConvergenceError(
                f"quadrature error {error:.3g} above tolerance {tolerance:.3g} "
                f"with max_subdivisions={ctl.max_subdivisions}")
        split, keep = order[:count], order[count:]
        # children in pairs: the low half of a box, then its high half
        children = np.repeat(boxes[split], 2, axis=0)
        rows = np.arange(2 * count)
        axes = np.repeat(np.argmax(errors[split], axis=1), 2)
        children[rows, axes, 1 - rows % 2] = children[rows, axes].mean(axis=1)
        new_values, new_errors = _box_rule(f, children)
        evaluations += len(children) * 15 ** len(edges)
        boxes = np.concatenate([boxes[keep], children])
        values = np.concatenate([values[keep], new_values])
        errors = np.concatenate([errors[keep], new_errors])


def _to_infinity(f, start: float):
    """f on [start, inf) as an integrand on [0, 1), by x = start + (t/(1-t))^2.

    The square keeps a tail falling as x^(-3/2) smooth at t = 1, where
    t/(1-t) alone would leave a (1-t)^(-1/2) singularity."""
    def mapped(t):
        u = t / (1.0 - t)
        return f(start + u * u) * 2.0 * u / (1.0 - t) ** 2
    return mapped


def _hotwall_kernel(r_in, kappa: float, depth: float, approximate_kappa: bool):
    # radial flux -d/dr(e^{-kappa r}/((4 pi)^2 r)) projected through depth/r
    if approximate_kappa:
        radial = math.exp(-kappa * depth) / (r_in * r_in)
    else:
        radial = np.exp(-kappa * r_in) * (1.0 + kappa * r_in) / (r_in * r_in)
    return radial / (4.0 * math.pi) ** 2 * (depth / r_in)


def hotwall_quadrature(link: DiffuseLink, spec: PenetrationSpec,
                       ctl: QuadratureControl = QuadratureControl(),
                       approximate_kappa: bool = False) -> float:
    """Path gain into the diffuse half-space by boundary quadrature.

    Integrates the hot-wall surface flux over the radiating boundary region
    and applies the free-space spreading prefactor.  The full plane does
    not depend on the azimuth, so it is 2 pi times a radial integral out to
    the truncation radius; the rectangular aperture is a 2-D cartesian
    integral.  The street strip and the facade mixture have no boundary
    integral here (the strip, integrated as a very long aperture, does not
    converge); the street T_eff is checked through the aperture-to-street
    limit instead.  approximate_kappa freezes the absorption at
    exp(-kappa d_in), the approximation the closed-form aperture expression
    makes; the default integrates the exact exp(-kappa r') kernel.
    """
    d_in = link.depth_m
    kappa = link.kappa_np_per_m
    ctl = replace(ctl, rel_tol=max(ctl.rel_tol, 1e-11))
    if spec.variant == UNBOUNDED:
        # truncate where the 1/r^3 tail falls below tolerance of the total
        radius = max(2.0e4 * d_in, 100.0 * d_in)
        if kappa > 0.0:
            radius = min(radius, d_in + 60.0 / kappa)
        # breakpoints in geometric steps: the flux falls on the scale of rho
        value, _, _ = gauss_kronrod(
            lambda rho: rho * _hotwall_kernel(np.hypot(d_in, rho), kappa, d_in,
                                              approximate_kappa),
            ((0.0, *np.geomspace(d_in, radius, 8)),), ctl)
        value *= 2.0 * math.pi
    elif spec.variant == APERTURE:
        w1, w2 = spec.width1_m, spec.width2_m
        # split at the flux peak, the boundary point nearest the receiver
        value, _, _ = gauss_kronrod(
            lambda x_, y: _hotwall_kernel(np.sqrt(d_in * d_in + x_ * x_ + y * y),
                                          kappa, d_in, approximate_kappa),
            ((-w1 / 2.0, 0.0, w1 / 2.0), (-w2 / 2.0, 0.0, w2 / 2.0)), ctl)
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
    d_in, kappa = link.depth_m, link.kappa_np_per_m
    value, _, _ = gauss_kronrod(
        lambda r_in: r_in * _hotwall_kernel(r_in, kappa, d_in, False),
        ((d_in, math.inf),), ctl)
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
    k = wavenumber
    if general_bracket:
        chi_max = k * (1.0 + math.cos(theta_rad))

        def f_general(chi):
            u = chi / k
            bracket = (math.sin(theta_rad) ** 2
                       + 2.0 * u * math.cos(theta_rad) - u * u)
            return (surface.roughness_spectrum(roughness, chi)
                    * np.sqrt(np.maximum(bracket, 0.0)))

        value, _, _ = gauss_kronrod(f_general, ((-chi_max, 0.0, chi_max),), ctl)
        return 2.0 * k * k * math.sin(theta_rad) * value

    value, _, _ = gauss_kronrod(
        lambda chi: surface.roughness_spectrum(roughness, chi) * np.sqrt(chi),
        ((0.0, math.inf),), ctl)
    return 2.0 * k * k * theta_rad * math.sqrt(2.0 / k) * (2.0 * value)
