"""Oracle-versus-closed-form comparison suites.

Every closed-form approximation in the package is compared against its
first-principles oracle at representative parameter sets, with a pass bound
per comparison.  The CLI `verify` command prints the gap table and fails on
any exceedance.  Parameter sets cover an office corridor at 1.6 m width, an
urban canyon at 8.6 m with deep corrugation, and a wide avenue wall with
shallow corrugation, at 2, 3.5 and 28 GHz.  A suite runs its closed form
once per scene, over the array of its swept values.  The image-sum and
series oracles run once per scene over that array too, and the roughness
oracle once per wall, over every grazing angle and carrier: its spectrum
integral depends on neither.  The hot-wall quadrature runs once per
aperture or boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import canyon, diffuse, morphology, oracles, surface
from .canyon import Link, LosLink
from .result import GainResult
from .units import to_db, wavelength_m, wavenumber_rad_m

# Wall parameter sets used across the verification suites and example
# configs: (n_eff, A m, p1, p2, mean section width m, mean gap m).
CORRIDOR_WALL = surface.WallSurface(
    surface.Dielectric(1.7),
    surface.TelegraphRoughness(0.035, 0.25, 0.75, 1.0, 1.0 / 3.0),
)
URBAN_WALL = surface.WallSurface(
    surface.Dielectric(2.2),
    surface.TelegraphRoughness(0.1, 0.85, 0.15, 1.0 / 0.33, 0.5),
)
AVENUE_WALL = surface.WallSurface(
    surface.Dielectric(2.2),
    surface.TelegraphRoughness(0.01, 0.85, 0.15, 1.0 / 0.33, 0.5),
)

CORRIDOR_GEOMETRY = canyon.CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL)
URBAN_GEOMETRY = canyon.CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)

# Swept values of the suites, read at call time: range in widths w (canyon,
# slant) or guiding lengths L w, aperture widths in depths d_in, and angles.
CANYON_R_OVER_W = (10.0, 32.0, 100.0, 200.0)
OUTDOOR_INDOOR_R_OVER_LW = (10.0, 30.0)
TREES_R_OVER_LW = (2.5, 5.0)  # the continuum form needs r beyond ~2.5 L w
APERTURE_W1_OVER_D = (0.1, 1.0, 100.0)
APERTURE_W2_OVER_D = (0.1, 10.0)
GRAZING_RAD = (0.001, 0.01, 0.05)


@dataclass(frozen=True)
class Comparison:
    """One closed-form-versus-oracle comparison with its pass bound."""

    name: str
    closed_db: float
    oracle_db: float
    bound_db: float
    flags: tuple[str, ...] = ()

    @property
    def gap_db(self) -> float:
        return self.closed_db - self.oracle_db

    @property
    def passed(self) -> bool:
        return abs(self.gap_db) <= self.bound_db


def _controls(profile: str):
    if profile == "strict":
        return 1e-13, oracles.QuadratureControl(abs_tol=1e-15, rel_tol=1e-12)
    if profile == "default":
        return 1e-10, oracles.QuadratureControl()
    raise ValueError(f"unknown tolerance profile {profile!r}")


def _suite(scenes):
    """The suite of scenes(rel_tail_tol, quadrature control), which yields
    per scene a name pattern, the swept values, the closed form over their
    array (a gain, or a GainResult whose flag masks flag each comparison),
    the oracle at the swept values (an array over them, or a list of one
    value each), and the bound in dB."""
    def suite(profile: str = "default") -> list[Comparison]:
        out = []
        for pattern, values, closed, oracle, bound in scenes(*_controls(profile)):
            closed, flags = ((closed.gain, closed.flags)
                             if isinstance(closed, GainResult) else (closed, {}))
            closed_db, oracle_db = np.ravel(to_db(closed)), to_db(oracle)
            out.extend(Comparison(pattern.format(value), closed_db[i], oracle_db[i],
                                  bound, tuple(f for f, mask in flags.items() if mask[i]))
                       for i, value in enumerate(values))
        return out
    return suite


def _canyon_scenes(tail_tol, _):
    """LOS canyon closed form vs the exact image sum, with ground bounce."""
    for label, geometry in (("corridor", CORRIDOR_GEOMETRY), ("urban", URBAN_GEOMETRY)):
        dz = geometry.tx_height_m - geometry.rx_height_m
        x = [math.sqrt(max(r * r - dz * dz, 1e-12))
             for r in (r_w * geometry.width_m for r_w in CANYON_R_OVER_W)]
        for f_hz in (2.0e9, 28.0e9):
            link = LosLink(geometry, x, f_hz)
            yield (f"canyon/{label}/{f_hz/1e9:g}GHz/r={{:g}}w", CANYON_R_OVER_W,
                   canyon.los_gain_incoherent(link),
                   oracles.image_sum_power(link, tail_tol), 1.5)


def _outdoor_indoor_scenes(tail_tol, _):
    """Outdoor-indoor canyon continuum law vs the reflection-order series."""
    pen = diffuse.PenetrationSpec.facade_mixture(0.3, 1.0, 0.05)
    indoor = morphology.IndoorClutter(0.18, 2.0)
    r_lw = OUTDOOR_INDOOR_R_OVER_LW
    for label, geometry, f_hz in (("urban", URBAN_GEOMETRY, 3.5e9),
                                  ("corridor", CORRIDOR_GEOMETRY, 2.0e9),
                                  ("corridor", CORRIDOR_GEOMETRY, 28.0e9)):
        wall_l = geometry.wall_loss(f_hz)
        link = Link([mult * wall_l * geometry.width_m for mult in r_lw], f_hz)
        yield (f"outdoor_indoor/{label}/{f_hz/1e9:g}GHz/r={{:g}}Lw", r_lw,
               morphology.outdoor_indoor_canyon_gain(geometry, pen, indoor, link),
               oracles.oi_image_series_power(geometry, pen, indoor, link, tail_tol), 1.5)


def _trees_scenes(tail_tol, _):
    """Guided sidewalk law vs the vegetated reflection-order series."""
    geometry = canyon.CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
    foliage = morphology.FoliageLayer(3.0, 0.38, n_tree_per_m=0.05,
                                      tree_width_m=4.0, tree_height_m=10.0)
    scene = morphology.StreetScene(geometry, foliage, standoff_m=8.0)
    f_hz, r_lw = 28.0e9, TREES_R_OVER_LW
    link = Link([mult * geometry.wall_loss(f_hz) * geometry.width_m for mult in r_lw],
                f_hz)
    yield ("trees/sparse/28GHz/r={:g}Lw", r_lw,
           morphology.sidewalk_guided_gain(scene, link),
           oracles.guided_trees_series_power(scene, link, tail_tol), 2.0)


def _diffuse_scenes(_, quad_ctl):
    """Diffuse half-space closed forms vs boundary quadrature (1-D radial
    for the unbounded boundary, 2-D for the aperture), and the
    aperture-to-street-to-unbounded limit chain."""
    lam, spec = wavelength_m(28.0e9), diffuse.PenetrationSpec
    # unbounded boundary, exact absorption kernel: closed form is exact
    for kappa, d_in in ((0.38, 10.0), (0.0, 1.0)):
        link = diffuse.DiffuseLink(20.0, 100.0, d_in, kappa, lam)
        yield ("diffuse/unbounded/kappa={:g}", (kappa,),
               diffuse.diffuse_pathgain(link, spec.unbounded()),
               [oracles.hotwall_quadrature(link, spec.unbounded(), quad_ctl)], 0.05)
    # rectangular aperture with the frozen-absorption kernel the closed
    # form assumes (kappa = 0 isolates the aperture geometry)
    d_in, w2_d = 1.0, APERTURE_W2_OVER_D
    link = diffuse.DiffuseLink(20.0, 100.0, d_in, 0.0, lam)
    w2 = np.multiply(w2_d, d_in)
    for w1_d in APERTURE_W1_OVER_D:
        yield (f"diffuse/aperture/w1={w1_d:g}d/w2={{:g}}d", w2_d,
               diffuse.diffuse_pathgain(link, spec.aperture(w1_d * d_in, w2)),
               [oracles.hotwall_quadrature(link, spec.aperture(w1_d * d_in, w), quad_ctl)
                for w in w2], 0.05)
    # limit chain: aperture -> street -> unbounded, 1e-4 relative
    yield ("diffuse/limit/{}", ("aperture->street", "street->unbounded"),
           [diffuse.t_eff(spec.aperture(3.0, 1e6 * d_in), d_in),
            diffuse.t_eff(spec.street(1e6 * d_in), d_in)],
           [diffuse.t_eff(spec.street(3.0), d_in), 1.0], to_db(1.0 + 1e-4))


def _roughness_scenes(_, quad_ctl):
    """Closed-form roughness loss term vs quadrature of the spectrum
    integral (2% bound), one quadrature per wall for every carrier and
    angle."""
    theta = np.array(GRAZING_RAD)
    carriers_hz = (2.0e9, 3.5e9, 28.0e9)
    wavenumbers = [wavenumber_rad_m(f_hz) for f_hz in carriers_hz]
    for label, wall in (("corridor", CORRIDOR_WALL), ("urban", URBAN_WALL)):
        # one row of angles per carrier
        oracle = oracles.roughness_loss_integral(
            theta, wall.roughness, np.array(wavenumbers)[:, None], quad_ctl)
        for f_hz, k, row in zip(carriers_hz, wavenumbers, oracle):
            yield (f"roughness/{label}/{f_hz/1e9:g}GHz/theta={{:g}}", GRAZING_RAD,
                   surface.roughness_loss_rate(wall.roughness, k) * theta, row,
                   to_db(1.02))


SUITES = {
    "canyon": _suite(_canyon_scenes),
    "outdoor_indoor": _suite(_outdoor_indoor_scenes),
    "trees": _suite(_trees_scenes),
    "diffuse": _suite(_diffuse_scenes),
    "roughness": _suite(_roughness_scenes),
}


def run_suites(names, profile: str = "default") -> list[Comparison]:
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'"
            )
        results.extend(SUITES[name](profile))
    return results
