"""Oracle-versus-closed-form comparison suites.

Every closed-form approximation in the package is compared against its
first-principles oracle at representative parameter sets, with a pass bound
per comparison.  The CLI `verify` command prints the gap table and fails on
any exceedance.  Parameter sets cover an office corridor at 1.6 m width, an
urban canyon at 8.6 m with deep corrugation, and a wide avenue wall with
shallow corrugation, at 2, 3.5 and 28 GHz.
"""

import math
from dataclasses import dataclass

from . import canyon, diffuse, morphology, oracles, surface
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
        return (oracles.SummationControl(rel_tail_tol=1e-13),
                oracles.QuadratureControl(abs_tol=1e-15, rel_tol=1e-12,
                                          max_subdivisions=400))
    if profile == "default":
        return oracles.SummationControl(), oracles.QuadratureControl()
    raise ValueError(f"unknown tolerance profile {profile!r}")


def suite_canyon(profile: str = "default") -> list[Comparison]:
    """LOS canyon closed form vs the exact image sum, with ground bounce."""
    sum_ctl, _ = _controls(profile)
    out = []
    for label, geometry in (("corridor", CORRIDOR_GEOMETRY),
                            ("urban", URBAN_GEOMETRY)):
        for f_hz in (2.0e9, 28.0e9):
            for r_over_w in (10.0, 32.0, 100.0, 200.0):
                r = r_over_w * geometry.width_m
                dz = geometry.tx_height_m - geometry.rx_height_m
                x = math.sqrt(max(r * r - dz * dz, 1e-12))
                link = canyon.LosLink(geometry, x, f_hz)
                closed = canyon.los_gain_incoherent(link)
                oracle = oracles.image_sum_power(link, sum_ctl,
                                                 include_ground=True)
                out.append(Comparison(
                    f"canyon/{label}/{f_hz/1e9:g}GHz/r={r_over_w:g}w",
                    to_db(closed.gain), to_db(oracle), 1.5, tuple(closed.flags),
                ))
    return out


def suite_outdoor_indoor(profile: str = "default") -> list[Comparison]:
    """Outdoor-indoor canyon continuum law vs the reflection-order series."""
    sum_ctl, _ = _controls(profile)
    pen = diffuse.PenetrationSpec.facade_mixture(0.3, 1.0, 0.05)
    indoor = morphology.IndoorClutter(0.18, 2.0)
    out = []
    for label, geometry, f_hz in (("urban", URBAN_GEOMETRY, 3.5e9),
                                  ("corridor", CORRIDOR_GEOMETRY, 2.0e9),
                                  ("corridor", CORRIDOR_GEOMETRY, 28.0e9)):
        wall_l = geometry.wall_loss(f_hz)
        for mult in (10.0, 30.0):
            r = mult * wall_l * geometry.width_m
            link = morphology.Link(r, f_hz)
            closed = morphology.outdoor_indoor_canyon_gain(
                geometry, pen, indoor, link)
            oracle = oracles.oi_image_series_power(geometry, pen, indoor,
                                                   link, sum_ctl)
            out.append(Comparison(
                f"outdoor_indoor/{label}/{f_hz/1e9:g}GHz/r={mult:g}Lw",
                to_db(closed.gain), to_db(oracle), 1.5, tuple(closed.flags),
            ))
    return out


def _sparse_tree_scene() -> morphology.StreetScene:
    geometry = canyon.CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
    foliage = morphology.FoliageLayer(3.0, 0.38, n_tree_per_m=0.05,
                                      tree_width_m=4.0, tree_height_m=10.0)
    return morphology.StreetScene(geometry, foliage, standoff_m=8.0)


def suite_trees(profile: str = "default") -> list[Comparison]:
    """Guided sidewalk law vs the vegetated reflection-order series."""
    sum_ctl, _ = _controls(profile)
    scene = _sparse_tree_scene()
    f_hz = 28.0e9
    wall_l = scene.canyon.wall_loss(f_hz)
    out = []
    # the continuum form needs r beyond ~2.5 L w; the gap shrinks with range
    for mult in (2.5, 5.0):
        r = mult * wall_l * scene.canyon.width_m
        link = morphology.Link(r, f_hz)
        closed = morphology.sidewalk_guided_gain(scene, link)
        oracle = oracles.guided_trees_series_power(scene, link, sum_ctl)
        out.append(Comparison(
            f"trees/sparse/28GHz/r={mult:g}Lw",
            to_db(closed.gain), to_db(oracle), 2.0, tuple(closed.flags),
        ))
    return out


def suite_diffuse(profile: str = "default") -> list[Comparison]:
    """Diffuse half-space closed forms vs boundary quadrature (1-D radial
    for the unbounded boundary, 2-D for the aperture), and the
    aperture-to-street-to-unbounded limit chain."""
    _, quad_ctl = _controls(profile)
    out = []
    # unbounded boundary, exact absorption kernel: closed form is exact
    for kappa, d_in in ((0.38, 10.0), (0.0, 1.0)):
        link = diffuse.DiffuseLink(20.0, 100.0, d_in, kappa,
                                   wavelength_m(28.0e9))
        spec = diffuse.PenetrationSpec.unbounded()
        closed = diffuse.diffuse_pathgain(link, spec)
        oracle = oracles.hotwall_quadrature(link, spec, quad_ctl)
        out.append(Comparison(
            f"diffuse/unbounded/kappa={kappa:g}",
            to_db(closed), to_db(oracle), 0.05,
        ))
    # rectangular aperture with the frozen-absorption kernel the closed
    # form assumes (kappa = 0 isolates the aperture geometry)
    d_in = 1.0
    for w1_rel in (0.1, 1.0, 100.0):
        for w2_rel in (0.1, 10.0):
            link = diffuse.DiffuseLink(20.0, 100.0, d_in, 0.0,
                                       wavelength_m(28.0e9))
            spec = diffuse.PenetrationSpec.aperture(w1_rel * d_in, w2_rel * d_in)
            closed = diffuse.diffuse_pathgain(link, spec)
            oracle = oracles.hotwall_quadrature(link, spec, quad_ctl)
            out.append(Comparison(
                f"diffuse/aperture/w1={w1_rel:g}d/w2={w2_rel:g}d",
                to_db(closed), to_db(oracle), 0.05,
            ))
    # limit chain: aperture -> street -> unbounded, 1e-4 relative
    bound_db = to_db(1.0 + 1e-4)
    aperture = diffuse.t_eff(
        diffuse.PenetrationSpec.aperture(3.0, 1e6 * d_in), d_in)
    street = diffuse.t_eff(diffuse.PenetrationSpec.street(3.0), d_in)
    out.append(Comparison("diffuse/limit/aperture->street",
                          to_db(aperture), to_db(street), bound_db))
    wide = diffuse.t_eff(diffuse.PenetrationSpec.street(1e6 * d_in), d_in)
    out.append(Comparison("diffuse/limit/street->unbounded",
                          to_db(wide), 0.0, bound_db))
    return out


def suite_roughness(profile: str = "default") -> list[Comparison]:
    """Closed-form roughness loss term vs quadrature of the spectrum
    integral (2% bound)."""
    _, quad_ctl = _controls(profile)
    bound_db = to_db(1.02)
    out = []
    for label, wall in (("corridor", CORRIDOR_WALL), ("urban", URBAN_WALL)):
        rough = wall.roughness
        for f_hz in (2.0e9, 3.5e9, 28.0e9):
            k = wavenumber_rad_m(f_hz)
            for theta in (0.001, 0.01, 0.05):
                closed = surface.roughness_loss_rate(rough, k) * theta
                oracle = oracles.roughness_loss_integral(theta, rough, k,
                                                         quad_ctl)
                out.append(Comparison(
                    f"roughness/{label}/{f_hz/1e9:g}GHz/theta={theta:g}",
                    to_db(closed), to_db(oracle), bound_db,
                ))
    return out


SUITES = {
    "canyon": suite_canyon,
    "outdoor_indoor": suite_outdoor_indoor,
    "trees": suite_trees,
    "diffuse": suite_diffuse,
    "roughness": suite_roughness,
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
