"""Seeded gap map of closed forms against their oracles.

A fixed grid spans three street scenes (the corridor, urban and avenue
scenes of the verify suites), wall index n_eff, carrier frequency and range
in units of the guiding length L*w.  Each grid point evaluates seven oracle
calls against their closed forms:

    image_sum_power             vs canyon.los_gain_incoherent
    oi_image_series_power       vs morphology.outdoor_indoor_canyon_gain
    guided_trees_series_power   vs morphology.sidewalk_guided_gain
    hotwall_quadrature (unbounded) and radial_flux_integral
                                vs diffuse.diffuse_pathgain
    hotwall_quadrature (aperture) vs diffuse.diffuse_pathgain
    roughness_loss_integral     vs surface.roughness_loss_rate * theta

A gap is checked against a suite's bound only inside the parameter box
that suite covers; elsewhere it is mapped and not judged.  The grid stops
at 2.5 km and at 1000 street widths, inside which every oracle converges
at its default control and every closed form stays above underflow.
"""

import warnings
from dataclasses import dataclass

from pathgain import canyon, diffuse, morphology, oracles, surface, verify
from pathgain.units import to_db, wavelength_m, wavenumber_rad_m

ORACLE_CALLS_PER_POINT = 7
MAX_RANGE_M = 2500.0
MAX_R_OVER_W = 1000.0
N_EFF = (1.7, 2.2, 3.0)
FREQUENCIES_HZ = (2.0e9, 3.5e9, 28.0e9)
R_OVER_LW = (0.5, 1.0, 2.5, 3.5, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0)
DIFFUSE_DB = 0.05
ROUGHNESS_DB = to_db(1.02)


@dataclass(frozen=True)
class Scene:
    name: str
    width_m: float
    tx_height_m: float
    rx_height_m: float
    roughness: surface.TelegraphRoughness
    suite_n_eff: float


SCENES = (
    Scene("corridor", 1.6, 2.2, 1.0, verify.CORRIDOR_WALL.roughness, 1.7),
    Scene("urban", 8.6, 5.0, 1.5, verify.URBAN_WALL.roughness, 2.2),
    Scene("avenue", 32.0, 56.0, 1.5, verify.AVENUE_WALL.roughness, 2.2),
)
FACADE = diffuse.PenetrationSpec.facade_mixture(0.3, 1.0, 0.05)
ROOM = morphology.IndoorClutter(0.18, 2.0)
TREES = morphology.FoliageLayer(3.0, 0.38, n_tree_per_m=0.05,
                                tree_width_m=4.0, tree_height_m=10.0)


@dataclass(frozen=True)
class Point:
    scene: Scene
    n_eff: float
    frequency_hz: float
    r_over_lw: float

    @property
    def geometry(self) -> canyon.CanyonGeometry:
        s = self.scene
        wall = surface.WallSurface(surface.Dielectric(self.n_eff), s.roughness)
        return canyon.CanyonGeometry(s.width_m, s.tx_height_m, s.rx_height_m,
                                     wall)

    @property
    def range_m(self) -> float:
        wall_l = surface.wall_loss(self.geometry.wall,
                                   wavenumber_rad_m(self.frequency_hz))
        return self.r_over_lw * wall_l * self.scene.width_m

    def is_suite_scene(self, *names: str) -> bool:
        return (self.scene.name in names
                and self.n_eff == self.scene.suite_n_eff)


def grid() -> list[Point]:
    points = [Point(s, n, f, x) for s in SCENES for n in N_EFF
              for f in FREQUENCIES_HZ for x in R_OVER_LW]
    return [p for p in points if p.range_m <= MAX_RANGE_M
            and p.range_m <= MAX_R_OVER_W * p.scene.width_m]


@dataclass(frozen=True)
class Gap:
    name: str
    gap_db: float
    bound_db: float
    judged: bool


def _gap(closed: float, oracle: float) -> float:
    return to_db(closed) - to_db(oracle)


def evaluate(point: Point) -> list[Gap]:
    """Closed-form-versus-oracle gaps at one grid point.

    Raises RuntimeError when an oracle warns of non-convergence or fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gaps = _evaluate(point)
        except (ValueError, oracles.OracleConvergenceError) as exc:
            raise RuntimeError(f"{point}: {exc}") from exc
    if caught:
        raise RuntimeError(f"{point}: {caught[0].message}")
    return gaps


def _evaluate(p: Point) -> list[Gap]:
    f_hz, w = p.frequency_hz, p.scene.width_m
    geometry = p.geometry
    r = p.range_m
    out = []

    link = canyon.LosLink(geometry, r, f_hz)
    r_over_w = link.slant_range_m / w
    out.append(Gap("canyon", _gap(canyon.los_gain_incoherent(link).gain,
                                  oracles.image_sum_power(link, include_ground=True)),
                   1.5, p.is_suite_scene("corridor", "urban")
                   and f_hz in (2.0e9, 28.0e9) and 10.0 <= r_over_w <= 200.0))

    street_link = morphology.Link(r, f_hz)
    oi_scene = ((p.is_suite_scene("urban") and f_hz == 3.5e9)
                or (p.is_suite_scene("corridor") and f_hz in (2.0e9, 28.0e9)))
    out.append(Gap("outdoor_indoor", _gap(
        morphology.outdoor_indoor_canyon_gain(geometry, FACADE, ROOM,
                                              street_link).gain,
        oracles.oi_image_series_power(geometry, FACADE, ROOM, street_link)),
        1.5, oi_scene and 10.0 <= p.r_over_lw <= 30.0))

    scene = morphology.StreetScene(geometry, TREES, standoff_m=w / 4.0)
    out.append(Gap("trees", _gap(
        morphology.sidewalk_guided_gain(scene, street_link).gain,
        oracles.guided_trees_series_power(scene, street_link)),
        2.0, p.is_suite_scene("avenue") and f_hz == 28.0e9
        and 2.5 <= p.r_over_lw <= 5.0))

    lam = wavelength_m(f_hz)
    absorbing = diffuse.DiffuseLink(w / 2.0, r, ROOM.depth_m,
                                    ROOM.kappa_np_per_m, lam)
    unbounded = diffuse.PenetrationSpec.unbounded()
    closed = diffuse.diffuse_pathgain(absorbing, unbounded)
    hotwall = oracles.hotwall_quadrature(absorbing, unbounded)
    radial = oracles.radial_flux_integral(absorbing)
    out.append(Gap("diffuse/unbounded", _gap(closed, hotwall), DIFFUSE_DB, True))
    out.append(Gap("diffuse/radial", _gap(closed, radial), DIFFUSE_DB, True))
    out.append(Gap("diffuse/hotwall-radial", _gap(hotwall, radial),
                   DIFFUSE_DB, True))

    # kappa = 0 isolates the aperture geometry, as in the diffuse suite
    clear = diffuse.DiffuseLink(w / 2.0, r, 1.0, 0.0, lam)
    aperture = diffuse.PenetrationSpec.aperture(w / 4.0, 1.5)
    out.append(Gap("diffuse/aperture", _gap(
        diffuse.diffuse_pathgain(clear, aperture),
        oracles.hotwall_quadrature(clear, aperture)), DIFFUSE_DB,
        0.1 <= w / 4.0 <= 100.0))

    k = wavenumber_rad_m(f_hz)
    theta = min(0.05, w / (2.0 * r))
    closed = surface.roughness_loss_rate(p.scene.roughness, k) * theta
    out.append(Gap("roughness", _gap(
        closed, oracles.roughness_loss_integral(theta, p.scene.roughness, k)),
        ROUGHNESS_DB, p.scene.name in ("corridor", "urban")
        and 0.001 <= theta <= 0.05))
    return out


if __name__ == "__main__":
    # Full-grid sweep, from the repository root:
    #   PYTHONPATH=src:bench python3 bench/gapmap.py
    # every point must converge and every judged gap stay within its bound
    worst: dict[str, float] = {}
    points = grid()
    for point in points:
        for gap in evaluate(point):
            if gap.judged:
                worst[gap.name] = max(worst.get(gap.name, 0.0),
                                      abs(gap.gap_db) / gap.bound_db)
    print(f"{len(points)} points converged; worst judged |gap|/bound:")
    for name, ratio in sorted(worst.items()):
        print(f"  {name:24s} {ratio:.3f}")
    if max(worst.values()) > 1.0:
        raise SystemExit(1)
