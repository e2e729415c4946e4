"""Composite path gain laws for suburban, macro, outdoor-indoor and
cluttered-sidewalk environments.

Each law is one power law: a spreading term constant / r^n times named
factors, which the result keeps in its factors dict.  The wall-guided laws
(n = 2.5) are one power_law call; the quartic ones (n = 4) are
diffuse.quartic_law, the body `verify diffuse` checks, whose last factor
"absorption" is the foliage or clutter loss; the direct term of the rural
and canyon total laws is the Friis law (n = 2) reference.friis_gain times
its clutter loss.  Ground and back-wall bounces enter as incoherent power
factors (1 + |Gamma|^2): the ground coefficient comes from the scene
geometry and the back wall bounce is its maximum, WALL_BOUNCE.  For a
slope analysis, divide a factor out of the gain, e.g.
result.gain / result.factors["ground_bounce"].  The composite laws (rural,
tree-lined sidewalk, canyon total) sum or compare power laws and return
their terms as components, built from the unchecked laws (`__wrapped__`):
a term may underflow to 0 where the total does not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .canyon import CanyonGeometry, Link, ground_bounce
from .diffuse import PenetrationSpec, quartic_law, t_eff
from .reference import friis_gain
from .result import FLAG_GUIDED_RANGE, GainResult, power_law, regime_flags
from .surface import DEFAULT_GROUND, Dielectric
from .units import checked_gain, derived_length, require

# Foliage absorption anchors for linear interpolation in frequency.
KAPPA_V_ANCHORS = ((2.0e9, 0.07), (35.0e9, 0.40))  # (Hz, Np/m)

# Back wall power bounce 1 + |Gamma_w|^2 at its maximum |Gamma_w| = 1.
WALL_BOUNCE = 2.0

# Slant range, in guiding lengths L w, below which the outdoor-indoor law is
# flagged guided_range: on the gap map's grid it sits past its oracle's
# 1.5 dB bound up to 2.83 L w, on every scene, wall index and carrier.
OUTDOOR_INDOOR_GUIDED_LW = 3.0


def kappa_v_at_frequency(frequency_hz: float) -> float:
    """Foliage absorption (Np/m) linearly interpolated between the anchors.

    Values outside roughly 1-100 GHz are extrapolations of the same line and
    should be treated with caution.
    """
    require(frequency_hz > 0.0, "frequency must be positive", frequency_hz)
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
        require(self.depth_m >= 0.0 and self.kappa_np_per_m >= 0.0,
                "foliage depth and absorption must be nonnegative",
                self.depth_m, self.kappa_np_per_m)
        trees = (self.n_tree_per_m, self.tree_width_m, self.tree_height_m,
                 self.veg_start_m)
        require(all(x >= 0.0 for x in trees),
                "tree density parameters must be nonnegative", *trees)


@dataclass(frozen=True)
class IndoorClutter:
    """Interior scattering clutter: absorption rate and terminal depth."""

    kappa_np_per_m: float
    depth_m: float

    def __post_init__(self):
        require(self.kappa_np_per_m >= 0.0 and self.depth_m >= 0.0,
                "indoor clutter parameters must be nonnegative",
                self.kappa_np_per_m, self.depth_m)

    @property
    def absorption(self) -> float:
        """Power surviving the clutter to the terminal: exp(-kappa_in d_in)."""
        return math.exp(-self.kappa_np_per_m * self.depth_m)


@dataclass(frozen=True)
class MacroGeometry:
    """Above-clutter base to below-clutter terminal geometry."""

    base_height_m: float
    clutter_height_m: float
    mobile_height_m: float
    street_width_m: float

    def __post_init__(self):
        require(self.base_height_m > self.clutter_height_m > self.mobile_height_m >= 0.0,
                "over-top laws need base height > clutter height > mobile height",
                self.base_height_m)
        require(self.street_width_m > 0.0, "street width must be positive",
                self.street_width_m)


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
        require(self.standoff_m > 0.0, "standoff must be positive", self.standoff_m)
        require(self.rho_v is None or 0.0 <= self.rho_v <= 1.0,
                "rho_v must be in [0, 1]")
        require(self.kappa_extra_np_per_m >= 0.0,
                "extra absorption must be nonnegative", self.kappa_extra_np_per_m)

    @property
    def rho(self) -> float:
        """Tree volume fraction rho_v: the given value, or the fraction of the
        canyon volume below the base occupied by tree crowns along both sides,

            n_tree (z_tree - z_m) 2 w_tree / ((z_BS - z_m) w),

        from the foliage tree-density fields and the canyon cross-section
        (base z_BS at the transmitter, mobile z_m at the receiver), clamped
        to [0, 1]."""
        if self.rho_v is not None:
            return self.rho_v
        f, g = self.foliage, self.canyon
        if g.tx_height_m <= g.rx_height_m:
            raise ValueError("base must be above the mobile")
        # in mantissas and exponents (math.frexp): no over- or underflow, and the
        # plain product's rounding where it has none; from 2**8 on, frac > 1
        crown = max(f.tree_height_m - g.rx_height_m, 0.0)
        top, e_top = zip(*map(math.frexp, (f.n_tree_per_m, crown, 2.0, f.tree_width_m)))
        bottom, e_bottom = zip(*map(math.frexp, (g.tx_height_m - g.rx_height_m, g.width_m)))
        frac = math.prod(top) / math.prod(bottom)
        return min(math.ldexp(frac, min(sum(e_top) - sum(e_bottom), 8)), 1.0)


def _unguided(scene: StreetScene, link: Link, rho: float, **factors) -> GainResult:
    """Quartic law of the street scenes (diffuse.quartic_law): the given
    factors, the bounces and the foliage absorption exp(-kappa_v rho d_v),
    with d_s the boundary standoff and r from the horizontal range, height
    difference and standoff."""
    g = scene.canyon
    ds, foliage = scene.standoff_m, scene.foliage
    r = derived_length(np.hypot(np.hypot(link.range_m, g.tx_height_m - g.rx_height_m),
                                ds))
    gamma = g.ground_bounce(np.hypot(link.range_m, ds))
    return quartic_law(ds, r, foliage.depth_m, foliage.kappa_np_per_m * rho,
                       link.wavelength_m, **factors, ground_bounce=1.0 + gamma**2,
                       wall_bounce=WALL_BOUNCE)


def _guided(geometry: CanyonGeometry, link: Link, wall_l: float,
            guided_lw: float, **factors) -> GainResult:
    """Guided penetration law (exponent 2.5) at the canyon's slant range r:

        lambda^2 sqrt(w) / (32 pi^1.5 L^1.5 r^2.5)

    times the given factors and the bounces; flagged guided_range for
    r < guided_lw L w, the caller's measured edge of its continuum form.
    """
    g = geometry
    r = g.slant_range_m(link.range_m)
    gamma = g.ground_bounce(link.range_m)
    constant = (link.wavelength_m**2 * math.sqrt(g.width_m)
                / (32.0 * math.pi**1.5 * wall_l**1.5))
    guided = r < guided_lw * wall_l * g.width_m
    return power_law(2.5, constant, r, [(FLAG_GUIDED_RANGE, guided)],
                     **factors, ground_bounce=1.0 + gamma**2,
                     wall_bounce=WALL_BOUNCE)


def _overtop(macro: MacroGeometry, kappa_v: float, link: Link, ground: Dielectric,
             **factors) -> GainResult:
    """Over-top quartic law (diffuse.quartic_law) from d_s = z_BS - z_c
    above the clutter: the given factors, the ground bounce and the clutter
    absorption exp(-kappa_v (z_c - z_m))."""
    ds = macro.base_height_m - macro.clutter_height_m
    gamma = ground_bounce(macro.base_height_m - macro.mobile_height_m,
                          link.range_m, ground)
    return quartic_law(ds, derived_length(np.hypot(link.range_m, ds)),
                       macro.clutter_height_m - macro.mobile_height_m, kappa_v,
                       link.wavelength_m, **factors, ground_bounce=1.0 + gamma**2)


def _direct_gain(macro: MacroGeometry, link: Link, kappa_v: float,
                 veg_path_m: float | None = None, cover: float = 1.0,
                 veg_start_m: float = 0.0,
                 kappa_extra: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Friis law (reference.friis_gain) over the slant base-terminal path r,
    attenuated in clutter.

    Returns (gain, r).  kappa_v acts over the vegetated length: veg_path_m
    when given, otherwise cover (r - veg_start) (z_c - z_m) / (z_BS - z_m),
    the below-clutter fraction of the path beyond any vegetation-free
    stretch.  kappa_extra acts over the whole below-clutter segment.
    """
    drop = macro.base_height_m - macro.mobile_height_m
    r = derived_length(np.hypot(link.range_m, drop))
    below_frac = (macro.clutter_height_m - macro.mobile_height_m) / drop
    if veg_path_m is None:
        veg_path_m = cover * np.maximum(r - veg_start_m, 0.0) * below_frac
    attenuation = kappa_v * veg_path_m + kappa_extra * r * below_frac
    return friis_gain.__wrapped__(link.wavelength_m, r).gain * np.exp(-attenuation), r


@checked_gain
def suburban_street_gain(scene: StreetScene, link: Link) -> GainResult:
    """Outdoor terminal behind a continuous foliage layer (quartic law).

    lambda^2 d_s^2 exp(-kappa_v d_v) / (8 pi^2 r^4) times the bounce
    factors, with r from the horizontal range, height difference and
    boundary standoff.
    """
    return _unguided(scene, link, 1.0)


@checked_gain
def suburban_indoor_gain(scene: StreetScene, indoor: IndoorClutter,
                         pen: PenetrationSpec, link: Link) -> GainResult:
    """Suburban street law with the terminal moved indoors.

    Adds wall penetration T_eff and interior clutter absorption
    exp(-kappa_in d_in) to the outdoor law.
    """
    return _unguided(scene, link, 1.0, t_eff=t_eff(pen, indoor.depth_m),
                     indoor=indoor.absorption)


@checked_gain
def overtop_gain(macro: MacroGeometry, kappa_v: float, link: Link) -> GainResult:
    """Above-rooftop base to a terminal below clutter height (quartic law).

    The base stands d_s = z_BS - z_c above the clutter top; the terminal
    sits z_c - z_m below it, reached through the street opening of width w
    (T_eff from the strip aperture).  kappa_v attenuates the descent through
    the clutter layer.
    """
    require(kappa_v >= 0.0, "absorption must be nonnegative", kappa_v)
    depth = macro.clutter_height_m - macro.mobile_height_m
    return _overtop(macro, kappa_v, link, DEFAULT_GROUND,
                    t_eff=t_eff(PenetrationSpec.street(macro.street_width_m), depth))


@checked_gain
def rural_gain(macro: MacroGeometry, foliage: FoliageLayer, link: Link) -> GainResult:
    """Rural macro: direct path through vegetation plus the over-top term.

    The direct Friis term is attenuated over the vegetated fraction
    r_v = r (z_c - z_m) / (z_BS - z_m) of the slant path; when absorption
    is light it dominates up to a crossover range, beyond which the
    over-top quartic term of a wide street (no T_eff) takes over.
    """
    kv = foliage.kappa_np_per_m
    direct, r_direct = _direct_gain(macro, link, kv)
    over = _overtop(macro, kv, link, DEFAULT_GROUND)
    return GainResult(direct + over.gain, r_direct,
                      components={"direct": direct, "over_top": over.gain})


@checked_gain
def outdoor_indoor_canyon_gain(geometry: CanyonGeometry, pen: PenetrationSpec,
                               indoor: IndoorClutter, link: Link) -> GainResult:
    """Base in a canyon (or corridor) to a terminal inside a building (room).

    Canyon wall reflections guide power onto the building face; penetration
    and interior absorption follow.  Long-range decay has exponent 2.5
    independent of wall properties:

        lambda^2 T_eff (1+|Gg|^2)(1+|Gw|^2) exp(-k_in d_in) sqrt(w)
            / (32 pi^1.5 L^1.5 r^2.5)
    """
    return _guided(geometry, link, geometry.wall_loss(link.frequency_hz),
                   OUTDOOR_INDOOR_GUIDED_LW, t_eff=t_eff(pen, indoor.depth_m),
                   indoor=indoor.absorption)


@checked_gain
def sidewalk_guided_gain(scene: StreetScene, link: Link) -> GainResult:
    """Wall-guided contribution for a terminal on a tree-lined sidewalk.

    The outdoor-indoor canyon law with T_eff = 1, vegetation absorption
    exp(-kappa_v rho_v (d_v + r)) and the wall loss raised to
    L1 = L + kappa_v rho_v w / 2 for the extra absorption of high-order
    reflections crossing the trees.
    """
    g = scene.canyon
    k_rho = scene.foliage.kappa_np_per_m * scene.rho
    l1 = g.wall_loss(link.frequency_hz) + k_rho * g.width_m / 2.0
    r = g.slant_range_m(link.range_m)
    return _guided(g, link, l1, 1.0,
                   foliage=np.exp(-k_rho * (scene.foliage.depth_m + r)))


@checked_gain
def sidewalk_unguided_gain(scene: StreetScene, link: Link) -> GainResult:
    """Direct side illumination of the sidewalk clutter (quartic law).

    Same form as the suburban street law with the vegetation loss reduced
    by the tree volume fraction: exp(-kappa_v rho_v d_v).  Set the scene
    standoff to the street width for a base near the middle of the street.
    """
    return _unguided(scene, link, scene.rho)


@checked_gain
def canyon_with_trees_gain(scene: StreetScene, link: Link) -> GainResult:
    """Tree-lined sidewalk: the larger of the guided and unguided terms.

    With more than a few trees the range-dependent guided absorption wins
    and the unguided quartic term dominates; with sparse trees the guided
    exponent-2.5 term takes over at long range.
    """
    guided = sidewalk_guided_gain.__wrapped__(scene, link)
    unguided = sidewalk_unguided_gain.__wrapped__(scene, link)
    value = np.maximum(guided.gain, unguided.gain)
    # a range carries the guided term's flags where that term wins; the
    # unguided term sets none
    use_guided = guided.gain >= unguided.gain
    flags = regime_flags(np.shape(value), *((name, mask & use_guided)
                                            for name, mask in guided.flags.items()))
    return GainResult(value, unguided.range_m, flags,
                      components={"guided": guided.gain,
                                  "unguided": unguided.gain})


@checked_gain
def canyon_total_gain(scene: StreetScene, macro: MacroGeometry,
                      link: Link) -> GainResult:
    """Total urban-canyon model: sidewalk term + over-top + attenuated direct.

    The over-top term is that of a wide street (no T_eff) over the scene's
    ground.  The direct Friis path is attenuated through its vegetated
    length (the per-street value when given, otherwise estimated from the
    along-street tree coverage) and, over the below-clutter segment,
    through any declared pedestrian or scaffolding absorption.  Components
    are returned for diagnostics and always sum to the total.
    """
    trees = canyon_with_trees_gain.__wrapped__(scene, link)
    over = _overtop(macro, scene.foliage.kappa_np_per_m, link, scene.canyon.ground)
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
