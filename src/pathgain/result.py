"""Result container for path gain evaluations.

Regime flags mark inputs outside a law's asymptotic assumptions.  Laws keep
computing in those regimes (matching how such formulas are used in practice)
and the flags travel with the value so sweep outputs can surface them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .units import to_db

# Flags understood by the prediction layer.
FLAG_SHORT_RANGE = "short_range"                # r < 2w, continuum sum marginal
FLAG_FREE_SPACE_FLOOR = "free_space_floor"      # direct term exceeds waveguide law
FLAG_SPREADING_REGIME = "spreading_loss_regime"  # wall loss L <= w/r
FLAG_NEAR_WALL = "near_wall"                    # antenna within a wavelength of a wall
FLAG_GUIDED_RANGE = "guided_range"              # r < c*L*w, c per law: continuum marginal
FLAG_KAPPA_EXTRAPOLATED = "kappa_extrapolated"  # foliage absorption outside anchor band


def regime_flags(shape, *named_masks) -> dict[str, np.ndarray]:
    """{name: boolean array of the given shape} for each (name, mask) whose
    mask is set at one or more ranges, in the order given."""
    return {name: mask if np.shape(mask) == shape else np.broadcast_to(mask, shape)
            for name, mask in named_masks
            if (mask.any() if isinstance(mask, np.ndarray) else mask)}


@dataclass(frozen=True)
class GainResult:
    """Path gain over a range, or an array of ranges, with the effective
    range each value was evaluated at.

    gain is a linear power ratio (receive/transmit for unit-gain antennas),
    a float for one range and an array for an array of ranges.  flags maps
    each regime flag set at one or more ranges to its boolean array over
    the ranges, in the law's order; for one range it holds exactly the
    flags that are set.  components, when present, holds the additive or
    alternative terms of a composite law keyed by mechanism name.  A power
    law (see power_law) sets exponent to its n and factors to the terms
    whose product is the gain, "spreading" first; a composite leaves them
    None and empty.
    """

    gain: float | np.ndarray
    range_m: float | np.ndarray
    flags: dict[str, np.ndarray] = field(default_factory=dict)
    components: dict[str, float | np.ndarray] = field(default_factory=dict)
    factors: dict[str, float | np.ndarray] = field(default_factory=dict)
    exponent: float | None = None

    @property
    def gain_db(self) -> float | np.ndarray:
        return to_db(self.gain)

    def with_flags(self, *extra: str) -> "GainResult":
        """The result with each extra flag set at every range; a flag the
        law already set keeps its place."""
        every_range = np.ones(np.shape(self.gain), dtype=bool)
        return GainResult(self.gain, self.range_m,
                          {**self.flags, **dict.fromkeys(extra, every_range)},
                          dict(self.components), dict(self.factors), self.exponent)


def power_law(exponent: float, constant: float, r, flags=(), **factors) -> GainResult:
    """constant / r^exponent times the named factors, at range r.

    The one place a closed form divides by r^n.  The result's factors are
    "spreading" (constant / r^exponent) followed by the given factors in
    order, and its gain is their product.  Each factor keeps its own shape:
    a float for a scene constant, an array for a term that varies with
    range.  flags are (name, mask) pairs, as for regime_flags.
    """
    factors = {"spreading": constant / r**exponent, **factors}
    return GainResult(math.prod(factors.values()), r,
                      regime_flags(np.shape(r), *flags), factors=factors,
                      exponent=exponent)
