"""Every closed form is a power law: a spreading term constant / r^n times
named factors.  The factors account for the whole gain, and the spreading
term alone carries the law's exponent."""

import numpy as np
import pytest

from pathgain.canyon import (CanyonGeometry, LosLink, los_gain_coherent,
                             los_gain_incoherent)
from pathgain.config import MORPHOLOGIES, ConfigError, load_config, make_evaluator
from pathgain.diffuse import PenetrationSpec
from pathgain.fitting import MeasurementDataset, fit_slope_intercept
from pathgain.morphology import (FoliageLayer, IndoorClutter, Link, MacroGeometry,
                                 StreetScene, outdoor_indoor_canyon_gain, overtop_gain,
                                 sidewalk_guided_gain, sidewalk_unguided_gain,
                                 suburban_indoor_gain, suburban_street_gain)
from pathgain.reference import friis_gain
from pathgain.result import power_law
from pathgain.units import wavelength_m

from conftest import AVENUE_WALL, CORRIDOR_WALL, REPO_ROOT, URBAN_WALL

RANGES = np.geomspace(1.0, 1000.0, 60)
COMPOSITES = {"rural", "sidewalk_trees", "canyon_total"}


def supported_pairs():
    for path in sorted((REPO_ROOT / "configs").rglob("*.ini")):
        cfg = load_config(path)
        for name in MORPHOLOGIES:
            try:
                make_evaluator(cfg, name)
            except ConfigError:
                continue
            yield str(path.relative_to(REPO_ROOT)), name


PAIRS = list(supported_pairs())


def db(value):
    return 10.0 * np.log10(value)


def test_every_morphology_has_a_supported_pair():
    assert {name for _, name in PAIRS} == set(MORPHOLOGIES)


@pytest.mark.parametrize("config, morphology", PAIRS)
def test_factors_sum_to_the_gain_in_db(config, morphology):
    result = make_evaluator(load_config(config), morphology)(RANGES)
    if morphology in COMPOSITES:
        assert result.factors == {} and result.exponent is None
        parts = result.components
        if morphology == "sidewalk_trees":
            total = np.maximum(parts["guided"], parts["unguided"])
        elif morphology == "rural":
            total = parts["direct"] + parts["over_top"]
        else:
            assert np.array_equal(parts["canyon_trees"],
                                  np.maximum(parts["guided"], parts["unguided"]))
            total = parts["canyon_trees"] + parts["over_top"] + parts["direct"]
        np.testing.assert_allclose(total, result.gain, rtol=1e-15, atol=0)
    else:
        assert next(iter(result.factors)) == "spreading"
        # the exponents of the Friis, guided LOS, guided and quartic bodies
        # (tests/test_power_laws.py)
        assert result.exponent in {1.5, 2.0, 2.5, 4.0}
        if morphology == "friis":
            assert list(result.factors) == ["spreading"] and result.exponent == 2.0
        summed = sum(db(value) for value in result.factors.values())
        np.testing.assert_allclose(summed, result.gain_db, rtol=0, atol=1e-9)


def _street_scene():
    geometry = CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL)
    foliage = FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                           tree_height_m=10.0)
    return StreetScene(geometry, foliage, standoff_m=8.0)


CORRIDOR = CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL)
URBAN = CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)
PEN = PenetrationSpec.facade_mixture(0.37, 1.0, 0.0)
INDOOR = IndoorClutter(0.18, 2.0)
MACRO = MacroGeometry(14.0, 10.0, 1.5, 30.0)

# law over a range array -> (GainResult, exponent it must carry)
LAWS = {
    "friis_gain": (lambda r: friis_gain(wavelength_m(28e9), r), 2.0),
    "los_gain_incoherent": (lambda r: los_gain_incoherent(LosLink(CORRIDOR, r, 2e9)), 1.5),
    "los_gain_incoherent_28ghz": (lambda r: los_gain_incoherent(LosLink(CORRIDOR, r, 28e9)),
                                  1.5),
    "los_gain_coherent": (lambda r: los_gain_coherent(LosLink(URBAN, r, 3.5e9)), 1.5),
    "outdoor_indoor_canyon_gain": (lambda r: outdoor_indoor_canyon_gain(
        URBAN, PEN, INDOOR, Link(r, 3.5e9)), 2.5),
    "sidewalk_guided_gain": (lambda r: sidewalk_guided_gain(_street_scene(),
                                                            Link(r, 28e9)), 2.5),
    "suburban_street_gain": (lambda r: suburban_street_gain(_street_scene(),
                                                            Link(r, 28e9)), 4.0),
    "sidewalk_unguided_gain": (lambda r: sidewalk_unguided_gain(_street_scene(),
                                                                Link(r, 28e9)), 4.0),
    "suburban_indoor_gain": (lambda r: suburban_indoor_gain(
        _street_scene(), INDOOR, PEN, Link(r, 28e9)), 4.0),
    "overtop_gain": (lambda r: overtop_gain(MACRO, 0.38, Link(r, 28e9)), 4.0),
}


@pytest.mark.parametrize("law", sorted(LAWS))
def test_spreading_term_carries_the_exponent(law):
    evaluate, exponent = LAWS[law]
    result = evaluate(RANGES)
    assert result.exponent == exponent
    spreading_db = db(result.factors["spreading"])
    local = np.diff(spreading_db) / np.diff(db(result.range_m))
    np.testing.assert_allclose(local, -exponent, rtol=0, atol=1e-9)
    fitted = fit_slope_intercept(MeasurementDataset(result.range_m, spreading_db, 1.0))
    assert fitted.exponent_n == pytest.approx(exponent, abs=1e-4)


# each quartic law is diffuse.quartic_law: the caller's factors, then the
# absorption over the depth behind the boundary (foliage or clutter)
QUARTIC_FACTORS = {
    "suburban_street_gain": ["spreading", "ground_bounce", "wall_bounce", "absorption"],
    "sidewalk_unguided_gain": ["spreading", "ground_bounce", "wall_bounce", "absorption"],
    "suburban_indoor_gain": ["spreading", "t_eff", "indoor", "ground_bounce",
                             "wall_bounce", "absorption"],
    "overtop_gain": ["spreading", "t_eff", "ground_bounce", "absorption"],
}


@pytest.mark.parametrize("law", sorted(QUARTIC_FACTORS))
def test_quartic_factor_names_and_order(law):
    assert list(LAWS[law][0](RANGES).factors) == QUARTIC_FACTORS[law]


def test_power_law_keeps_factor_order_and_shape():
    r = np.array([10.0, 100.0])
    result = power_law(2.5, 3.0, r, [("near", r < 50.0)], first=0.5,
                       second=np.array([2.0, 4.0]))
    assert list(result.factors) == ["spreading", "first", "second"]
    assert result.factors["first"] == 0.5  # a scalar is not broadcast
    np.testing.assert_allclose(result.factors["spreading"], 3.0 / r**2.5, rtol=1e-15)
    np.testing.assert_allclose(result.gain, 3.0 / r**2.5 * 0.5 * np.array([2.0, 4.0]),
                               rtol=1e-15)
    assert list(result.flags) == ["near"]
    carried = result.with_flags("extra")
    assert carried.exponent == 2.5
    assert all(carried.factors[k] is v for k, v in result.factors.items())
    assert list(carried.flags) == ["near", "extra"]


def test_free_space_floor_is_friis_over_spreading():
    # at 28 GHz the corridor floor lifts the law to free space out to
    # w L / pi; the factor is exactly the ratio that does so
    result = los_gain_incoherent(LosLink(CORRIDOR, RANGES, 28e9))
    floor = result.factors["free_space_floor"]
    friis = friis_gain(wavelength_m(28e9), result.range_m).gain
    np.testing.assert_allclose(floor, np.maximum(1.0, friis / result.factors["spreading"]),
                               rtol=1e-13)
    assert np.array_equal(result.flags["free_space_floor"], floor > 1.0)
