"""Composite path gain laws for suburban, macro, outdoor-indoor and
cluttered-sidewalk environments.

Each law combines the waveguide and diffuse-penetration primitives with the
scene geometry.  Ground and back-wall bounces enter as incoherent power
factors (1 + |Gamma|^2); the ground coefficient is computed from the scene
geometry by default and both can be overridden, e.g. to pin them for slope
analysis or to use an angle-averaged wall bounce instead of the maximum.
"""

import math
from dataclasses import dataclass

from . import surface
from .canyon import CanyonGeometry, ground_bounce
from .diffuse import (PenetrationSpec, enhancement_factors, quartic_gain,
                      strip_t_eff, t_eff)
from .reference import friis_gain
from .result import FLAG_GUIDED_RANGE, GainResult
from .surface import DEFAULT_GROUND, Dielectric
from .units import wavelength_m, wavenumber_rad_m

# Foliage absorption anchors for linear interpolation in frequency.
KAPPA_V_ANCHORS = ((2.0e9, 0.07), (35.0e9, 0.40))  # (Hz, Np/m)

# Interpolating the anchors gives ~0.33 Np/m at 28 GHz; measured tree-stand
# attenuation at that band is usually quoted a bit higher, so this is the
# recommended default for 28 GHz scenes (overridable everywhere).
DEFAULT_KAPPA_V_28GHZ = 0.38  # Np/m

KAPPA_INDOOR_DEFAULT = 0.18   # Np/m, cluttered interiors
KAPPA_PEDESTRIAN = 0.02       # Np/m, sidewalk crowds (1 person / 50 m^3)
KAPPA_SCAFFOLDING = 0.1       # Np/m, street scaffolding


def kappa_v_at_frequency(frequency_hz: float) -> float:
    """Foliage absorption (Np/m) linearly interpolated between the anchors.

    Values outside roughly 1-100 GHz are extrapolations of the same line and
    should be treated with caution.
    """
    if frequency_hz <= 0.0:
        raise ValueError("frequency must be positive")
    (f_lo, k_lo), (f_hi, k_hi) = KAPPA_V_ANCHORS
    return k_lo + (k_hi - k_lo) * (frequency_hz - f_lo) / (f_hi - f_lo)


@dataclass(frozen=True)
class FoliageLayer:
    """Vegetation in front of (or above) the terminal.

    depth_m is the foliage depth d_v crossed by the penetrating path;
    the tree-density fields feed the volume-fraction estimate for streets
    with discrete trees.  veg_start_m marks a vegetation-free stretch at the
    start of the street (direct path unattenuated up to that range).
    """

    depth_m: float
    kappa_np_per_m: float
    n_tree_per_m: float = 0.0
    tree_width_m: float = 0.0
    tree_height_m: float = 0.0
    veg_start_m: float = 0.0

    def __post_init__(self):
        if self.depth_m < 0.0 or self.kappa_np_per_m < 0.0:
            raise ValueError("foliage depth and absorption must be nonnegative")
        if min(self.n_tree_per_m, self.tree_width_m, self.tree_height_m,
               self.veg_start_m) < 0.0:
            raise ValueError("tree density parameters must be nonnegative")


@dataclass(frozen=True)
class IndoorClutter:
    """Interior scattering clutter: absorption rate and terminal depth."""

    kappa_np_per_m: float
    depth_m: float

    def __post_init__(self):
        if self.kappa_np_per_m < 0.0 or self.depth_m < 0.0:
            raise ValueError("indoor clutter parameters must be nonnegative")


@dataclass(frozen=True)
class MacroGeometry:
    """Above-clutter base to below-clutter terminal geometry."""

    base_height_m: float
    clutter_height_m: float
    mobile_height_m: float
    street_width_m: float

    def __post_init__(self):
        if not self.base_height_m > self.clutter_height_m > self.mobile_height_m >= 0.0:
            raise ValueError(
                "over-top laws need base height > clutter height > mobile height"
            )
        if self.street_width_m <= 0.0:
            raise ValueError("street width must be positive")


@dataclass(frozen=True)
class StreetScene:
    """Urban/suburban street description for the sidewalk and suburban laws.

    standoff_m is the source distance d_s to the clutter boundary near the
    terminal (use the street width for a base near the middle of the
    street).  rho_v, if None, is estimated from the foliage tree-density
    fields.  direct_veg_path_m, if None, is estimated from tree coverage and
    the below-clutter fraction of the direct path.
    """

    canyon: CanyonGeometry
    foliage: FoliageLayer
    standoff_m: float
    rho_v: float | None = None
    kappa_extra_np_per_m: float = 0.0
    direct_veg_path_m: float | None = None

    def __post_init__(self):
        if self.standoff_m <= 0.0:
            raise ValueError("standoff must be positive")
        if self.rho_v is not None and not 0.0 <= self.rho_v <= 1.0:
            raise ValueError("rho_v must be in [0, 1]")
        if self.kappa_extra_np_per_m < 0.0:
            raise ValueError("extra absorption must be nonnegative")


@dataclass(frozen=True)
class Link:
    """Horizontal range and carrier for one evaluation point."""

    range_m: float
    frequency_hz: float

    def __post_init__(self):
        if self.range_m <= 0.0 or self.frequency_hz <= 0.0:
            raise ValueError("range and frequency must be positive")

    @property
    def wavelength_m(self) -> float:
        return wavelength_m(self.frequency_hz)


def tree_density_fraction(n_tree_per_m: float, tree_height_m: float,
                          mobile_height_m: float, base_height_m: float,
                          tree_width_m: float, street_width_m: float) -> float:
    """Fraction of the canyon volume below the base occupied by tree crowns.

    n_tree (z_tree - z_m) 2 w_tree / ((z_BS - z_m) w), assuming trees along
    both sides, clamped to [0, 1].
    """
    if base_height_m <= mobile_height_m:
        raise ValueError("base must be above the mobile")
    frac = (n_tree_per_m * max(tree_height_m - mobile_height_m, 0.0)
            * 2.0 * tree_width_m
            / ((base_height_m - mobile_height_m) * street_width_m))
    return min(max(frac, 0.0), 1.0)


def _scene_rho(scene: StreetScene) -> float:
    if scene.rho_v is not None:
        return scene.rho_v
    f = scene.foliage
    return tree_density_fraction(
        f.n_tree_per_m, f.tree_height_m, scene.canyon.rx_height_m,
        scene.canyon.tx_height_m, f.tree_width_m, scene.canyon.width_m,
    )


def _unguided_gain(scene: StreetScene, link: Link, rho: float,
                   gamma_g2: float | None, gamma_w2: float) -> GainResult:
    """Shared body of the suburban street (rho = 1) and unguided sidewalk
    laws: the quartic law with foliage loss exp(-kappa_v rho d_v)."""
    g = scene.canyon
    dz = g.tx_height_m - g.rx_height_m
    r = math.sqrt(link.range_m**2 + dz * dz + scene.standoff_m**2)
    if gamma_g2 is None:
        horizontal = math.hypot(link.range_m, scene.standoff_m)
        gamma_g2 = ground_bounce(g.tx_height_m + g.rx_height_m, horizontal,
                                 g.ground) ** 2
    factor = (math.exp(-scene.foliage.kappa_np_per_m * rho * scene.foliage.depth_m)
              * enhancement_factors(gamma_g2, gamma_w2))
    return GainResult(quartic_gain(link.wavelength_m, scene.standoff_m, r, factor), r)


def _guided_gain(geometry: CanyonGeometry, link: Link, r: float, wall_l: float,
                 factor: float, gamma_g2: float | None,
                 gamma_w2: float) -> GainResult:
    """Guided penetration law (exponent 2.5) at slant range r:

        lambda^2 factor (1+|Gg|^2)(1+|Gw|^2) sqrt(w) / (32 pi^1.5 L^1.5 r^2.5)

    factor carries the boundary transmission and absorption; the result is
    flagged guided_range for r < L w.
    """
    g = geometry
    if gamma_g2 is None:
        gamma_g2 = ground_bounce(g.tx_height_m + g.rx_height_m, link.range_m,
                                 g.ground) ** 2
    gain = (link.wavelength_m**2 * factor * enhancement_factors(gamma_g2, gamma_w2)
            * math.sqrt(g.width_m)
            / (32.0 * math.pi**1.5 * wall_l**1.5 * r**2.5))
    flags = (FLAG_GUIDED_RANGE,) if r < wall_l * g.width_m else ()
    return GainResult(gain, r, flags)


def _direct_gain(macro: MacroGeometry, link: Link, kappa_v: float,
                 veg_path_m: float | None = None, cover: float = 1.0,
                 veg_start_m: float = 0.0,
                 kappa_extra: float = 0.0) -> tuple[float, float]:
    """Friis term of the slant base-terminal path r, attenuated in clutter.

    Returns (gain, r).  kappa_v acts over the vegetated length: veg_path_m
    when given, otherwise cover (r - veg_start) (z_c - z_m) / (z_BS - z_m),
    the below-clutter fraction of the path beyond any vegetation-free
    stretch.  kappa_extra acts over the whole below-clutter segment.
    """
    drop = macro.base_height_m - macro.mobile_height_m
    r = math.hypot(link.range_m, drop)
    below_frac = (macro.clutter_height_m - macro.mobile_height_m) / drop
    if veg_path_m is None:
        veg_path_m = cover * max(r - veg_start_m, 0.0) * below_frac
    attenuation = kappa_v * veg_path_m + kappa_extra * r * below_frac
    return friis_gain(link.wavelength_m, r) * math.exp(-attenuation), r


def suburban_street_gain(scene: StreetScene, link: Link,
                         gamma_g2: float | None = None,
                         gamma_w2: float = 1.0) -> GainResult:
    """Outdoor terminal behind a continuous foliage layer (quartic law).

    lambda^2 d_s^2 exp(-kappa_v d_v) / (8 pi^2 r^4) times the bounce
    factors, with r from the horizontal range, height difference and
    boundary standoff.
    """
    return _unguided_gain(scene, link, 1.0, gamma_g2, gamma_w2)


def suburban_indoor_gain(scene: StreetScene, indoor: IndoorClutter,
                         pen: PenetrationSpec, link: Link,
                         gamma_g2: float | None = None,
                         gamma_w2: float = 1.0) -> GainResult:
    """Suburban street law with the terminal moved indoors.

    Adds wall penetration T_eff and interior clutter absorption
    exp(-kappa_in d_in) to the outdoor law.
    """
    outdoor = suburban_street_gain(scene, link, gamma_g2, gamma_w2)
    extra = (t_eff(pen, indoor.depth_m)
             * math.exp(-indoor.kappa_np_per_m * indoor.depth_m))
    return GainResult(outdoor.gain * extra, outdoor.range_m, outdoor.flags)


def overtop_gain(macro: MacroGeometry, kappa_v: float, link: Link,
                 gamma_g2: float | None = None, wide_street: bool = False,
                 ground: Dielectric | None = None) -> GainResult:
    """Above-rooftop base to a terminal below clutter height (quartic law).

    The base stands d_s = z_BS - z_c above the clutter top; the terminal
    sits z_c - z_m below it, reached through the street opening of width w
    (T_eff from the strip aperture; wide_street drops that factor, the
    w -> infinity limit).  kappa_v attenuates the descent through the
    clutter layer.
    """
    if kappa_v < 0.0:
        raise ValueError("absorption must be nonnegative")
    ds = macro.base_height_m - macro.clutter_height_m
    depth = macro.clutter_height_m - macro.mobile_height_m
    r = math.hypot(link.range_m, ds)
    teff = 1.0 if wide_street else strip_t_eff(macro.street_width_m, depth)
    if gamma_g2 is None:
        gamma_g2 = ground_bounce(macro.base_height_m - macro.mobile_height_m,
                                 link.range_m,
                                 DEFAULT_GROUND if ground is None else ground) ** 2
    factor = math.exp(-kappa_v * depth) * teff * (1.0 + gamma_g2)
    return GainResult(quartic_gain(link.wavelength_m, ds, r, factor), r)


def rural_gain(macro: MacroGeometry, foliage: FoliageLayer, link: Link,
               gamma_g2: float | None = None,
               ground: Dielectric | None = None) -> GainResult:
    """Rural macro: direct path through vegetation plus the over-top term.

    The direct Friis term is attenuated over the vegetated fraction
    r_v = r (z_c - z_m) / (z_BS - z_m) of the slant path; when absorption
    is light it dominates up to a crossover range, beyond which the
    wide-street over-top quartic term takes over.
    """
    kv = foliage.kappa_np_per_m
    direct, r_direct = _direct_gain(macro, link, kv)
    over = overtop_gain(macro, kv, link, gamma_g2, wide_street=True,
                        ground=ground)
    return GainResult(direct + over.gain, r_direct,
                      components={"direct": direct, "over_top": over.gain})


def outdoor_indoor_canyon_gain(geometry: CanyonGeometry, pen: PenetrationSpec,
                               indoor: IndoorClutter, link: Link,
                               gamma_g2: float | None = None,
                               gamma_w2: float = 1.0) -> GainResult:
    """Base in a canyon (or corridor) to a terminal inside a building (room).

    Canyon wall reflections guide power onto the building face; penetration
    and interior absorption follow.  Long-range decay has exponent 2.5
    independent of wall properties:

        lambda^2 T_eff (1+|Gg|^2)(1+|Gw|^2) exp(-k_in d_in) sqrt(w)
            / (32 pi^1.5 L^1.5 r^2.5)
    """
    wall_l = surface.wall_loss(geometry.wall, wavenumber_rad_m(link.frequency_hz))
    r = math.hypot(link.range_m, geometry.tx_height_m - geometry.rx_height_m)
    factor = (t_eff(pen, indoor.depth_m)
              * math.exp(-indoor.kappa_np_per_m * indoor.depth_m))
    return _guided_gain(geometry, link, r, wall_l, factor, gamma_g2, gamma_w2)


def sidewalk_guided_gain(scene: StreetScene, link: Link,
                         gamma_g2: float | None = None,
                         gamma_w2: float = 1.0) -> GainResult:
    """Wall-guided contribution for a terminal on a tree-lined sidewalk.

    The outdoor-indoor canyon law with T_eff = 1, vegetation absorption
    exp(-kappa_v rho_v (d_v + r)) and the wall loss raised to
    L1 = L + kappa_v rho_v w / 2 for the extra absorption of high-order
    reflections crossing the trees.
    """
    g = scene.canyon
    k_rho = scene.foliage.kappa_np_per_m * _scene_rho(scene)
    wall_l = surface.wall_loss(g.wall, wavenumber_rad_m(link.frequency_hz))
    l1 = wall_l + k_rho * g.width_m / 2.0
    r = math.hypot(link.range_m, g.tx_height_m - g.rx_height_m)
    factor = math.exp(-k_rho * (scene.foliage.depth_m + r))
    return _guided_gain(g, link, r, l1, factor, gamma_g2, gamma_w2)


def sidewalk_unguided_gain(scene: StreetScene, link: Link,
                           gamma_g2: float | None = None,
                           gamma_w2: float = 1.0) -> GainResult:
    """Direct side illumination of the sidewalk clutter (quartic law).

    Same form as the suburban street law with the vegetation loss reduced
    by the tree volume fraction: exp(-kappa_v rho_v d_v).  Set the scene
    standoff to the street width for a base near the middle of the street.
    """
    return _unguided_gain(scene, link, _scene_rho(scene), gamma_g2, gamma_w2)


def canyon_with_trees_gain(scene: StreetScene, link: Link,
                           gamma_g2: float | None = None,
                           gamma_w2: float = 1.0) -> GainResult:
    """Tree-lined sidewalk: the larger of the guided and unguided terms.

    With more than a few trees the range-dependent guided absorption wins
    and the unguided quartic term dominates; with sparse trees the guided
    exponent-2.5 term takes over at long range.
    """
    guided = sidewalk_guided_gain(scene, link, gamma_g2, gamma_w2)
    unguided = sidewalk_unguided_gain(scene, link, gamma_g2, gamma_w2)
    value = max(guided.gain, unguided.gain)
    flags = guided.flags if guided.gain >= unguided.gain else unguided.flags
    return GainResult(value, unguided.range_m, flags,
                      components={"guided": guided.gain,
                                  "unguided": unguided.gain})


def canyon_total_gain(scene: StreetScene, macro: MacroGeometry, link: Link,
                      gamma_g2: float | None = None,
                      gamma_w2: float = 1.0) -> GainResult:
    """Total urban-canyon model: sidewalk term + over-top + attenuated direct.

    The direct Friis path is attenuated through its vegetated length (the
    per-street value when given, otherwise estimated from the along-street
    tree coverage) and, over the below-clutter segment, through any
    declared pedestrian or scaffolding absorption.  Components are returned
    for diagnostics and always sum to the total.
    """
    trees = canyon_with_trees_gain(scene, link, gamma_g2, gamma_w2)
    over = overtop_gain(macro, scene.foliage.kappa_np_per_m, link, gamma_g2,
                        wide_street=True, ground=scene.canyon.ground)
    f = scene.foliage
    direct, r_direct = _direct_gain(
        macro, link, f.kappa_np_per_m, scene.direct_veg_path_m,
        min(1.0, f.n_tree_per_m * f.tree_width_m), f.veg_start_m,
        scene.kappa_extra_np_per_m)
    total = trees.gain + over.gain + direct
    components = dict(trees.components)
    components.update({"canyon_trees": trees.gain, "over_top": over.gain,
                       "direct": direct})
    return GainResult(total, r_direct, trees.flags, components)
