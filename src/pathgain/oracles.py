"""First-principles numerical checks for every closed-form approximation.

Each oracle recomputes a quantity the closed forms approximate, without
sharing the approximation under test: image sums use exact image distances
and per-bounce angles (no small-offset expansion), reflection-order series
are summed term by term with exact image standoffs, and the hot-wall and
roughness integrals are evaluated by adaptive quadrature with the
unapproximated kernels.  The quadrature is the module's own vectorized
Gauss-Kronrod rule (`gauss_kronrod`), so no command loads scipy.

The image sum and both series oracles take the swept range as a float or
an array, and the roughness oracle its grazing angle and wavenumber as
arrays that broadcast; a float gives a float.  An array runs through the
same numpy code as a float, so each element gets, bit for bit, what its
float call gets.

Each oracle stops once its own tolerance is met, and most often after
its first evaluation:

- the image sum starts at 64 orders and doubles them, adding only the new
  shell of images, until a shell is within rel_tail_tol of the total; one
  evaluation of 128 orders gives the total at 64 and the first shell;
- the reflection-order series sums blocks of 64, 128, 256, ... orders
  until a block after the first is within rel_tail_tol of the total; one
  evaluation of orders 0..191 gives the first two blocks;
- over an array of ranges, both sums test each range on its own: a range
  that has met its tolerance keeps its total, and only the others take
  the next shell or block;
- no quadrature depends on the range, the carrier or the grazing angle:
  each runs in a private function of the scene constants and the control
  alone, behind `functools.lru_cache`, so a process integrates each
  distinct integral once, one roughness quadrature serves every angle and
  wavenumber, and each oracle call applies its own prefactor;
- the quadratures bisect their worst boxes until the summed error estimate
  meets the tolerance.  The unbounded boundary is one radial integral over
  [d_in, inf); the aperture one quadrant, split at d_in/2 and then in
  geometric steps of at most 2, on the kernel's own scale d_in.  On these
  partitions the initial boxes meet the tolerance, so bisection is only
  the safety net.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import surface
from .canyon import Link, LosLink
from .diffuse import APERTURE, UNBOUNDED, DiffuseLink, PenetrationSpec, t_eff
from .morphology import WALL_BOUNCE, IndoorClutter, StreetScene
from .units import checked_gain, require, wavelength_m


# the caps past which an oracle raises OracleConvergenceError: the orders of
# a sum and the boxes (rectangles, in 2-D) of one quadrature
MAX_ORDER = 500_000
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureControl:
    """Tolerances for the adaptive quadratures."""

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10

    def __post_init__(self):
        require(self.abs_tol > 0.0 and self.rel_tol > 0.0,
                "quadrature control parameters out of range",
                self.abs_tol, self.rel_tol)


class OracleConvergenceError(ValueError):
    """A truncated sum or quadrature failed to meet its tolerance."""


# the sign of y_s, and the offset of the bounce count 2k, of the two images
# of order k
_SIGNS = np.array([[1.0], [-1.0]])
_BOUNCE_OFFSETS = np.array([[0], [1]])


@checked_gain
def image_sum_power(link: LosLink, rel_tail_tol: float = 1e-10, *,
                    include_ground: bool = True):
    """Brute-force image-sum path gain for a LOS canyon link, at its one
    range (a float) or its array of ranges (an array of that shape).

    Sums the powers of wall-reflection images, and of the ground image of
    each, with exact image distances sqrt(x^2 + dy^2 + dz^2) and exact
    per-bounce grazing angles asin(|dy|/dist); per-bounce reflection
    magnitude is exp(-L/2 * theta).  include_ground is accepted as True
    only, as bench/gapmap.py passes it.

    Order k holds the images 2kw + y_s and 2kw - y_s, with |2k| and
    |2k - 1| wall bounces, so orders -n..n truncate the sum at 2n bounces.
    The sum starts at n = 64 and doubles n, adding only the new shell of
    orders n < |k| <= 2n, until that shell is within rel_tail_tol of the
    total.  One evaluation of the orders |k| <= 128 gives the total at
    n = 64 and its first shell.  Each range stops at its own shell: its
    total stays as it is while the ranges still short of the tolerance
    take the next shell.  Checked as a law is (units.checked_gain).
    """
    require(include_ground is True, "the image sum always includes the ground image")
    require(rel_tail_tol > 0.0, "rel_tail_tol must be positive and finite", rel_tail_tol)
    g = link.geometry
    w = g.width_m
    # one row per range, before the (ground row, sign, order) axes of its images
    x_all = np.asarray(link.range_m).reshape(-1, 1, 1, 1)
    wall_l = g.wall_loss(link.frequency_hz)
    # shift so the walls sit at y = 0 and y = w
    y_s = g.tx_offset_m + w / 2.0
    y_r = g.rx_offset_m + w / 2.0
    # one row of images at the direct height offset, one at the ground image's
    dz = np.array([[[g.tx_height_m - g.rx_height_m]],
                   [[g.tx_height_m + g.rx_height_m]]])
    g_coef = surface.low_grazing_rate(g.ground, surface.PARALLEL)

    def image_terms(k, x):
        """The terms of orders k at ranges x, as (len(x), rows, 2, len(k)):
        the images 2kw + y_s, then the images 2kw - y_s."""
        dy = 2.0 * k * w + _SIGNS * y_s - y_r
        refl = np.abs(2 * k - _BOUNCE_OFFSETS)
        dist = np.sqrt(x * x + dy * dy + dz * dz)
        theta_wall = np.arcsin(np.abs(dy) / dist)
        amp = np.exp(-0.5 * wall_l * theta_wall * refl)
        terms = amp * amp / (dist * dist)
        # |Gamma_g| times itself, as amp is, so verify's figures keep every bit
        ground_amp = np.exp(-g_coef * np.arcsin(np.abs(dz[1]) / dist[:, 1]))
        terms[:, 1] = terms[:, 1] * ground_amp * ground_amp
        return terms

    def summed(terms):
        # each row over its images, both signs in one line, then the rows
        return terms.reshape(*terms.shape[:2], -1).sum(axis=2).sum(axis=1)

    # the ranges still short of the tolerance, as indices into x_all
    active = np.arange(len(x_all))
    n = 64
    while 2 * n <= MAX_ORDER:
        if n == 64:
            # the first pass: one evaluation of the orders |k| <= 2n, split
            # into the total of |k| <= n and the first shell
            terms = image_terms(np.arange(-2 * n, 2 * n + 1), x_all)
            total = summed(terms[..., n:3 * n + 1])
            shell = summed(np.concatenate([terms[..., :n], terms[..., 3 * n + 1:]],
                                          axis=-1))
        else:
            shell = summed(image_terms(np.concatenate([np.arange(-2 * n, -n),
                                                       np.arange(n + 1, 2 * n + 1)]),
                                       x_all[active]))
        n *= 2
        total[active] += shell
        active = active[~(shell <= rel_tail_tol * total[active])]
        if not len(active):
            lam = link.wavelength_m
            power = lam * lam / (4.0 * math.pi) ** 2 * total
            if np.ndim(link.range_m):
                return power.reshape(np.shape(link.range_m))
            return float(power[0])
    raise OracleConvergenceError(
        f"image sum did not converge within max_order={MAX_ORDER}"
    )


def _standoff_series(r, width: float, wall_l: float, d: float,
                     rel_tail_tol: float, path_factor=None):
    """Sum over reflection order m of d_m^2 exp(-L m d_m / r)
    [* path_factor(r, d_m)], at one slant range r (a numpy float for a
    float) or an array of them (an array of that shape).

    Image standoffs alternate d_m = mw + d (even m) and mw + w - d (odd m);
    the per-bounce grazing angle of the m-bounce path is d_m / r.  The
    terms are summed in blocks of 64, 128, 256, ... orders, until a block
    after the first sums to within rel_tail_tol of the running total; one
    evaluation of orders 0..191 gives the first two blocks.  Each range
    stops at its own block: its total stays as it is while the ranges still
    short of the tolerance take the next block.
    """
    r_all = np.asarray(r).reshape(-1, 1)

    def block_terms(start, size, r):
        """The terms of orders start.. at the ranges r, as (len(r), size)."""
        m = np.arange(start, min(start + size, MAX_ORDER + 1))
        d_m = np.where(m % 2 == 0, m * width + d, m * width + width - d)
        terms = d_m**2 * np.exp(-wall_l * m * d_m / r)
        return terms if path_factor is None else terms * path_factor(r, d_m)

    first = block_terms(0, 192, r_all)
    total = first[:, :64].sum(axis=1)
    # the ranges still short of the tolerance, as indices into r_all
    active = np.arange(len(r_all))
    m_start, size, block = 64, 128, first[:, 64:]
    while m_start <= MAX_ORDER:
        block_sum = block.sum(axis=1)
        total[active] += block_sum
        active = active[~(block_sum <= rel_tail_tol * total[active])]
        if not len(active):
            return total.reshape(np.shape(r))[()]
        m_start += size
        size *= 2
        block = block_terms(m_start, size, r_all[active])
    raise OracleConvergenceError(
        f"reflection-order series did not converge within max_order={MAX_ORDER}"
    )


@checked_gain
def _guided_series_power(g, link: Link, standoff_m: float, scene_factor: float,
                         rel_tail_tol: float, path_factor=None):
    """The body of both series oracles: lambda^2 (1 + |Gamma_g|^2) 2 /
    (8 pi^2 r^4) * scene_factor * the reflection-order series of canyon g at
    standoff_m over slant range r, at the link's one range or array of
    ranges.  Gamma_g is the ground bounce of g; the back wall reflects
    fully, a bounce of WALL_BOUNCE as in the closed forms.
    path_factor(r, d_m), if given, multiplies each image term.  Checked as
    a law is (units.checked_gain)."""
    require(rel_tail_tol > 0.0, "rel_tail_tol must be positive and finite", rel_tail_tol)
    lam = wavelength_m(link.frequency_hz)
    wall_l = g.wall_loss(link.frequency_hz)
    r = g.slant_range_m(link.range_m)
    gamma = g.ground_bounce(link.range_m)
    series = _standoff_series(r, g.width_m, wall_l, standoff_m, rel_tail_tol, path_factor)
    bounces = (1.0 + gamma * gamma) * WALL_BOUNCE
    r2 = r * r
    return lam**2 * scene_factor * bounces / (8.0 * math.pi**2 * (r2 * r2)) * series


def oi_image_series_power(geometry, pen: PenetrationSpec, indoor: IndoorClutter,
                          link: Link, rel_tail_tol: float = 1e-10):
    """Outdoor-indoor canyon power by direct summation over reflection order,
    at the link's one range or array of ranges.

    Each image at standoff d_m from the building face contributes
    d_m^2 |Gamma|^{2m}; no continuum or large-m approximation.  The source
    stands mid-street, at half the width from that face, and the scene
    factor is T_eff times the indoor absorption.
    """
    scene_factor = t_eff(pen, indoor.depth_m) * indoor.absorption
    return _guided_series_power(geometry, link, geometry.width_m / 2.0,
                                scene_factor, rel_tail_tol)


def guided_trees_series_power(scene: StreetScene, link: Link,
                              rel_tail_tol: float = 1e-10):
    """Tree-lined sidewalk guided power by direct summation, at the link's
    one range or array of ranges.

    The outdoor-indoor series at the scene's standoff, with the foliage
    absorption as scene factor and every image path attenuated over its
    exact length: exp(-kappa_v rho_v sqrt(r^2 + d_m^2)).
    """
    k_rho = scene.foliage.kappa_np_per_m * scene.rho

    def vegetation(r, d_m):
        return np.exp(-k_rho * np.sqrt(r * r + d_m * d_m))

    return _guided_series_power(scene.canyon, link, scene.standoff_m,
                                math.exp(-k_rho * scene.foliage.depth_m), rel_tail_tol,
                                vegetation)


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
# both rules side by side, so one matmul applies them
_RULES = np.stack([_KRONROD, _GAUSS], axis=1)
_EPS = np.finfo(float).eps
# sixteen equal pieces of [0, 1], for the mapped infinite ranges
_UNIT_EDGES = np.linspace(0.0, 1.0, 17)


def _line_rule(lines):
    """Kronrod value and QUADPACK's qk15 error estimate of each line of 15
    node values (the last axis) on [-1, 1]: |K15 - G7| scaled by the
    line's spread about its mean."""
    rules = lines @ _RULES
    kronrod = rules[..., 0]
    spread = np.abs(lines - kronrod[..., None] / 2.0) @ _KRONROD
    error = np.abs(kronrod - rules[..., 1])
    ratio = np.divide(200.0 * error, spread, out=np.zeros_like(error),
                      where=spread > 0.0)
    return kronrod, np.maximum(spread * np.minimum(1.0, ratio**1.5),
                               50.0 * _EPS * (np.abs(lines) @ _KRONROD))


def _box_rule(f, boxes):
    """Kronrod value and per-axis error estimate of f on each box of one
    axis or a rectangle.

    boxes is (count, dims, 2), the low and high edge of each box on each of
    its one or two axes; f is called once on node arrays that broadcast to
    (count, 15) or (count, 15, 15).  Along each axis, every line of nodes
    gets the qk15 error estimate of `_line_rule`; on a rectangle the axis's
    error is the Kronrod integral of those line errors over the other axis.
    """
    low, high = boxes[:, :, 0], boxes[:, :, 1]
    half = (high - low) / 2.0
    center = (low + high) / 2.0
    # One axis has a path of its own: an N-axis contraction gave it the same
    # bits, but over 8 alternating process pairs on a 2-core host (each the
    # median of 9 rounds) radial_flux_integral took 93 us here against 137
    # us there (slower in 7 pairs), roughness_loss_integral 84 against 123
    # us (in 6).
    if boxes.shape[1] == 1:
        kronrod, error = _line_rule(f(center + half * _NODES))
        return kronrod * half[:, 0], error[:, None] * half
    # both node axes in one broadcast, (2, count, 15): x, then y
    x, y = center.T[:, :, None] + half.T[:, :, None] * _NODES
    values = f(x[:, :, None], y[:, None])
    jacobian = half[:, 0] * half[:, 1]
    # the x-lines, then the y-lines: (2, count, 15, 15)
    kronrod, error = _line_rule(np.stack([values.swapaxes(1, 2), values]))
    # the y-lines' sums, contracted over x
    return kronrod[1] @ _KRONROD * jacobian, (error @ _KRONROD * jacobian).T


def _initial_boxes(edges):
    """The products of the segments between each axis's breakpoints, as
    (count, dims, 2), the first axis outermost."""
    return np.array(list(itertools.product(
        *[list(zip(e[:-1], e[1:])) for e in edges])), dtype=float)


def gauss_kronrod(f, edges, ctl: QuadratureControl):
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of f over one axis or a
    rectangle.

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
    MAX_SUBDIVISIONS boxes, checked before the first pass against the
    initial boxes, or when an error estimate is not finite.
    """
    if edges[0][-1] == math.inf:
        f, edges = _to_infinity(f, edges[0][0]), (_UNIT_EDGES,)
    initial = math.prod(len(e) - 1 for e in edges)
    if initial > MAX_SUBDIVISIONS:
        raise OracleConvergenceError(
            f"{initial} initial boxes exceed max_subdivisions={MAX_SUBDIVISIONS}")
    boxes = _initial_boxes(edges)
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
        # bisect the fewest worst boxes that leave the rest within tolerance/2;
        # all of them where rounding leaves a rest above a tolerance near 0
        order = np.argsort(-box_errors)
        rest = error - np.cumsum(box_errors[order])
        count = min(int(np.count_nonzero(rest > tolerance / 2.0)) + 1, len(boxes),
                    MAX_SUBDIVISIONS - len(boxes))
        if count <= 0:
            raise OracleConvergenceError(
                f"quadrature error {error:.3g} above tolerance {tolerance:.3g} "
                f"with max_subdivisions={MAX_SUBDIVISIONS}")
        split, keep = order[:count], order[count:]
        # children in pairs: the low half of a box, then its high half
        children = np.repeat(boxes[split], 2, axis=0)
        rows = np.arange(2 * count)
        axes = np.repeat(np.argmax(errors[split], axis=1), 2)
        children[rows, axes, 1 - rows % 2] = (children[rows, axes, 0]
                                              + children[rows, axes, 1]) / 2.0
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


def _aperture_edges(d_in: float, half_width: float):
    """Breakpoints 0, d_in/2, ..., half_width, in equal ratios of at most 2:
    the hot-wall flux falls on the scale of d_in from its peak at 0, and on
    segments this narrow the K15 rule meets the tolerance without
    bisection."""
    start = d_in / 2.0
    if half_width <= start:
        return (0.0, half_width)
    ratio = half_width / start
    steps = math.ceil(math.log2(ratio))
    return (0.0, *[start * ratio ** (i / steps) for i in range(steps)], half_width)


def _hotwall_kernel(r_in, kappa: float, depth: float):
    # radial flux -d/dr(e^{-kappa r}/((4 pi)^2 r)) projected through depth/r
    radial = np.exp(-kappa * r_in) * (1.0 + kappa * r_in) / (r_in * r_in)
    return radial / (4.0 * math.pi) ** 2 * (depth / r_in)


def _hotwall_gain(link: DiffuseLink, material_t2: float, flux: float) -> float:
    """Path gain from the hot-wall flux integral: lambda^2 times the
    spreading prefactor 4 d_s^2 |T|^2 / (4 pi r^4) times the flux."""
    prefactor = (4.0 * link.standoff_m**2 * material_t2
                 / (4.0 * math.pi * link.range_m**4))
    return link.wavelength_m**2 * prefactor * flux


@checked_gain
def hotwall_quadrature(link: DiffuseLink, spec: PenetrationSpec,
                       ctl: QuadratureControl = QuadratureControl()) -> float:
    """Path gain into the diffuse half-space by boundary quadrature.

    Integrates the hot-wall surface flux over the radiating boundary region
    and applies the free-space spreading prefactor.  An unbounded boundary,
    a facade mixture among them, is `radial_flux_integral` with its
    material_t2.  A rectangular aperture is 4 times a 2-D integral over the
    quadrant x, y >= 0, split at d_in/2 around the flux peak and then in
    geometric steps of at most 2; only here is the relative tolerance taken
    no lower than 1e-11.  The street strip has no boundary integral (as a
    very long aperture it does not converge); its T_eff is checked through
    the aperture-to-street limit.  The kernel is the exact exp(-kappa r')
    one; the closed-form aperture expression freezes it at exp(-kappa d_in).
    Raises ValueError for a terminal on the boundary (depth 0), where the
    flux concentrates at one point.  Checked as a law is (checked_gain).
    """
    if spec.variant == UNBOUNDED:
        return radial_flux_integral(link, spec.material_t2, ctl)
    if spec.variant != APERTURE:
        raise ValueError(f"no boundary integral for variant {spec.variant!r}")
    require(link.depth_m > 0.0, "hot-wall quadrature needs a positive depth")
    if ctl.rel_tol < 1e-11:
        ctl = replace(ctl, rel_tol=1e-11)
    return _hotwall_gain(link, spec.material_t2, _aperture_quadrant(
        link.depth_m, link.kappa_np_per_m, spec.width1_m, spec.width2_m, ctl))


@functools.lru_cache(maxsize=1024)
def _aperture_quadrant(d_in, kappa, width1_m, width2_m, ctl):
    """The hot-wall flux through a width1_m x width2_m aperture, once per
    distinct set of arguments.  The kernel is even in x and in y: the
    integral is that of 4 x kernel over the quadrant x, y >= 0, whose
    corner is the flux peak, so the tolerances apply to the quadrant as to
    the whole."""
    value, _, _ = gauss_kronrod(
        lambda x_, y: 4.0 * _hotwall_kernel(np.sqrt(d_in * d_in + x_ * x_ + y * y),
                                            kappa, d_in),
        (_aperture_edges(d_in, width1_m / 2.0),
         _aperture_edges(d_in, width2_m / 2.0)), ctl)
    return value


@checked_gain
def radial_flux_integral(link: DiffuseLink, material_t2: float = 1.0,
                         ctl: QuadratureControl = QuadratureControl()) -> float:
    """Path gain through the unbounded hot wall, by its radial flux integral.

    The flux does not depend on the azimuth, and r' dr' = rho' drho' turns
    the integral over the plane exactly into 2 pi times a 1-D integral over
    [d_in, inf), with no cut-off radius and ctl's tolerances as given.
    material_t2 must be in [0, 1], as a `PenetrationSpec`'s, and the depth
    positive, as in `hotwall_quadrature`.  Checked as a law is (checked_gain).
    """
    require(0.0 <= material_t2 <= 1.0, "material power transmission must be in [0, 1]")
    require(link.depth_m > 0.0, "hot-wall quadrature needs a positive depth")
    value = _radial_flux(link.depth_m, link.kappa_np_per_m, ctl)
    return _hotwall_gain(link, material_t2, 2.0 * math.pi * value)


@functools.lru_cache(maxsize=1024)
def _radial_flux(d_in, kappa, ctl):
    """The radial hot-wall flux integral over [d_in, inf), once per distinct
    set of arguments."""
    value, _, _ = gauss_kronrod(
        lambda r_in: r_in * _hotwall_kernel(r_in, kappa, d_in),
        ((d_in, math.inf),), ctl)
    return value


def roughness_loss_integral(theta_rad, roughness: surface.TelegraphRoughness,
                            wavenumber, ctl: QuadratureControl = QuadratureControl()):
    """Specular roughness loss term by quadrature of the spectrum integral.

    Simplified (grazing incidence, large-scale roughness) bracket:
        2 k^2 theta sqrt(2/k) * integral G(chi) sqrt(|chi|) dchi
    The integral depends on neither theta nor k, so theta_rad and
    wavenumber may be arrays that broadcast against each other: one
    quadrature gives the loss term at every pair, as an array of their
    broadcast shape (a float for two floats).  Returns the loss term; the
    closed-form counterpart is surface.roughness_loss_rate(...) * theta.
    theta_rad must be in [0, pi/2] and wavenumber finite and positive, as
    in the closed form.  A loss term out of float range, nan included,
    raises ValueError; numpy's float warnings are off meanwhile.
    """
    k = wavenumber
    surface._check_grazing(theta_rad)
    require(k > 0.0, "wavenumber must be positive", k)
    with np.errstate(all="ignore"):
        loss = (2.0 * k * k * theta_rad * np.sqrt(2.0 / k)
                * (2.0 * _roughness_integral(roughness, ctl)))
    require(loss >= 0.0, "roughness loss term is out of float range", loss)
    return loss if np.ndim(loss) else float(loss)


@functools.lru_cache(maxsize=1024)
def _roughness_integral(roughness, ctl):
    """The integral of G(chi) sqrt(chi) over [0, inf), once per distinct
    roughness and control."""
    value, _, _ = gauss_kronrod(
        lambda chi: surface.roughness_spectrum(roughness, chi) * np.sqrt(chi),
        ((0.0, math.inf),), ctl)
    return value
