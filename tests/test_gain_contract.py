"""The output contract of the public gain laws, called directly: each law
returns a finite, positive gain of its range's shape or raises a
ValueError, and never warns.  `make_evaluator` adds only the morphology
name to the law's message (tests/test_domain.py checks the evaluator)."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathgain.canyon import CanyonGeometry, LosLink, los_gain_coherent, los_gain_incoherent
from pathgain.diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain
from pathgain.morphology import (FoliageLayer, IndoorClutter, Link, MacroGeometry,
                                 StreetScene, canyon_total_gain,
                                 canyon_with_trees_gain, outdoor_indoor_canyon_gain,
                                 overtop_gain, rural_gain, sidewalk_guided_gain,
                                 sidewalk_unguided_gain, suburban_indoor_gain,
                                 suburban_street_gain)
from pathgain.oracles import (guided_trees_series_power, hotwall_quadrature,
                              image_sum_power, radial_flux_integral)
from pathgain.reference import friis_gain
from pathgain.surface import Dielectric, TelegraphRoughness, WallSurface
from pathgain.units import GainError
from pathgain.verify import URBAN_GEOMETRY

from conftest import AVENUE_WALL, walls_only_gain

EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-310, 1e-300, 1e300,
               sys.float_info.max]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_VALUES))
# mostly positive, so that most draws get past the range check
RANGES = st.lists(st.one_of(st.floats(min_value=0.0, exclude_min=True), FLOATS),
                  min_size=1, max_size=6)


def _canyon(x):
    wall = WallSurface(Dielectric(x(2.2)),
                       TelegraphRoughness(x(0.01), x(0.85), x(0.15), x(3.0), x(0.5)))
    return CanyonGeometry(x(32.0), x(56.0), x(1.5), wall, Dielectric(x(15.0)),
                          x(0.0), x(0.0))


def _foliage(x):
    return FoliageLayer(x(3.0), x(0.38), x(0.05), x(4.0), x(10.0), x(0.0))


def _street(x):
    return StreetScene(_canyon(x), _foliage(x), x(8.0), x(0.3), x(0.0), x(5.0))


def _macro(x):
    return MacroGeometry(x(30.0), x(10.0), x(1.5), x(20.0))


def _indoor(x):
    return IndoorClutter(x(0.18), x(2.0))


def _penetration(x):
    return PenetrationSpec.aperture(x(2.0), x(1.5), x(0.5))


def _link(x, ranges):
    return Link(ranges, x(28e9))


# law -> function of (x, ranges) that calls it, where x(nominal) draws one
# scene float
LAWS = {
    "los_gain_incoherent": lambda x, r: los_gain_incoherent(
        LosLink(_canyon(x), r, x(28e9))),
    "los_gain_coherent": lambda x, r: los_gain_coherent(
        LosLink(_canyon(x), r, x(28e9))),
    "walls_only": lambda x, r: walls_only_gain(LosLink(_canyon(x), r, x(28e9))),
    "suburban_street_gain": lambda x, r: suburban_street_gain(_street(x), _link(x, r)),
    "suburban_indoor_gain": lambda x, r: suburban_indoor_gain(
        _street(x), _indoor(x), _penetration(x), _link(x, r)),
    "overtop_gain": lambda x, r: overtop_gain(_macro(x), x(0.38), _link(x, r)),
    "rural_gain": lambda x, r: rural_gain(_macro(x), _foliage(x), _link(x, r)),
    "outdoor_indoor_canyon_gain": lambda x, r: outdoor_indoor_canyon_gain(
        _canyon(x), _penetration(x), _indoor(x), _link(x, r)),
    "sidewalk_guided_gain": lambda x, r: sidewalk_guided_gain(_street(x), _link(x, r)),
    "sidewalk_unguided_gain": lambda x, r: sidewalk_unguided_gain(
        _street(x), _link(x, r)),
    "canyon_with_trees_gain": lambda x, r: canyon_with_trees_gain(
        _street(x), _link(x, r)),
    "canyon_total_gain": lambda x, r: canyon_total_gain(
        _street(x), _macro(x), _link(x, r)),
    "diffuse_pathgain": lambda x, r: diffuse_pathgain(
        DiffuseLink(x(5.0), r, x(2.0), x(0.18), x(0.0107)), _penetration(x)),
    "friis_gain": lambda x, r: friis_gain(x(0.0107), r),
}


@pytest.mark.parametrize("law", sorted(LAWS))
@settings(max_examples=80, deadline=None)
@given(data=st.data(), values=RANGES)
def test_direct_call_gives_finite_positive_gain_or_value_error(law, data, values):
    # each scene float is a drawn one one time in eight, else its shipped
    # value, so that draws reach the law body as well as the constructors
    def x(nominal):
        return data.draw(FLOATS) if data.draw(st.integers(0, 7)) == 0 else nominal

    for ranges in (np.array(values), values[0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = LAWS[law](x, ranges)
            except ValueError:
                continue
        gain = np.asarray(getattr(result, "gain", result))
        assert gain.shape == np.shape(ranges)
        assert np.all(np.isfinite(gain) & (gain > 0.0)), (ranges, gain)


@pytest.mark.parametrize("kappa_v", [-1.0, math.nan, math.inf])
def test_overtop_rejects_absorption_out_of_range(kappa_v):
    # overtop_gain is the one law whose absorption reaches the quartic body
    # as a bare float, not through a checked scene object
    with pytest.raises(ValueError, match="^absorption must be nonnegative$"):
        overtop_gain(MacroGeometry(30.0, 10.0, 1.5, 20.0), kappa_v, Link(100.0, 28e9))


def test_friis_overflow_is_a_value_error():
    with pytest.raises(GainError, match="^gain is inf at range 1e-300 m$"):
        friis_gain(0.01, 1e-300)


# a wall of index 3e216 has a loss rate L of 1.3e-216 at 28 GHz, so L**1.5
# underflows to 0 and the guided term's float division by it raises
# ZeroDivisionError inside the laws
HUGE_INDEX_CANYON = CanyonGeometry(32.0, 56.0, 1.5, WallSurface(Dielectric(3e216)))
HUGE_INDEX_STREET = StreetScene(HUGE_INDEX_CANYON, FoliageLayer(3.0, 0.0),
                                standoff_m=8.0)


@pytest.mark.parametrize("law", [
    lambda link: outdoor_indoor_canyon_gain(
        HUGE_INDEX_CANYON, PenetrationSpec.aperture(2.0, 1.5, 0.5),
        IndoorClutter(0.18, 2.0), link),
    lambda link: sidewalk_guided_gain(HUGE_INDEX_STREET, link),
    lambda link: canyon_with_trees_gain(HUGE_INDEX_STREET, link),
    lambda link: canyon_total_gain(HUGE_INDEX_STREET,
                                   MacroGeometry(56.0, 10.0, 1.5, 32.0), link),
    # w = 1e-300 m and an index of 1e308: the waveguide's divisor w*L is 0
    lambda link: los_gain_incoherent(LosLink(
        CanyonGeometry(1e-300, 56.0, 1.5, WallSurface(Dielectric(1e308))),
        link.range_m, link.frequency_hz)),
], ids=["outdoor_indoor_canyon_gain", "sidewalk_guided_gain",
        "canyon_with_trees_gain", "canyon_total_gain", "los_gain_incoherent"])
@pytest.mark.parametrize("ranges", [100.0, np.array([10.0, 100.0, 1000.0])],
                         ids=["float", "array"])
def test_division_by_an_underflowed_value_is_a_value_error(law, ranges):
    with pytest.raises(GainError, match="^gain overflows: a scene value is out of "
                                        "float range$"):
        law(Link(ranges, 28e9))


def test_gain_error_names_the_first_input_range():
    # the rural law's result carries the slant range; the message names the
    # horizontal range the caller gave
    macro, foliage = MacroGeometry(14.0, 10.0, 1.5, 30.0), FoliageLayer(0.0, 1e4)
    with pytest.raises(GainError, match="^gain underflows to 0 at range 20 m$"):
        rural_gain(macro, foliage, Link(np.array([20.0, 30.0]), 28e9))


AVENUE = StreetScene(CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
                     FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                                  tree_height_m=10.0), standoff_m=8.0)


def _avenue_link(r_over_lw):
    geometry = AVENUE.canyon
    return Link(r_over_lw * geometry.wall_loss(28e9) * geometry.width_m, 28e9)


@pytest.mark.parametrize("power", [
    lambda link: sidewalk_guided_gain(AVENUE, link).gain,
    lambda link: guided_trees_series_power(AVENUE, link),
], ids=["sidewalk_guided_gain", "guided_trees_series_power"])
def test_guided_term_and_its_oracle_raise_where_it_underflows(power):
    # 4e-152 at 1,000 L w; the foliage term underflows by 3,000 L w
    assert power(_avenue_link(1000.0)) == pytest.approx(3.7e-152, rel=0.05)
    with pytest.raises(GainError,
                       match=r"^gain underflows to 0 at range 1\.22074e\+06 m$"):
        power(_avenue_link(3000.0))


def _unbounded_hotwall(d_in, kappa):
    return hotwall_quadrature(DiffuseLink(20.0, 100.0, d_in, kappa, 0.01),
                              PenetrationSpec.unbounded())


# each returned 0.0 or inf unchecked, and the image sum at 1e155 m warned of
# an overflow first
@pytest.mark.parametrize("oracle, message", [
    (lambda: _unbounded_hotwall(1e4, 0.38), "gain underflows to 0 at range 100 m"),
    (lambda: _unbounded_hotwall(1.0, 1e4), "gain underflows to 0 at range 100 m"),
    (lambda: _unbounded_hotwall(2000.0, 0.38), "gain underflows to 0 at range 100 m"),
    (lambda: radial_flux_integral(DiffuseLink(20.0, 100.0, 1e4, 0.38, 0.01)),
     "gain underflows to 0 at range 100 m"),
    (lambda: image_sum_power(LosLink(URBAN_GEOMETRY, 1e155, 2e9)),
     "gain underflows to 0 at range 1e+155 m"),
    (lambda: image_sum_power(LosLink(URBAN_GEOMETRY, 100.0, 1e200)),
     "gain underflows to 0 at range 100 m"),
    (lambda: image_sum_power(LosLink(URBAN_GEOMETRY, 100.0, 1e-150)),
     "gain is inf at range 100 m"),
], ids=["hotwall_deep", "hotwall_opaque", "hotwall_2km", "radial_flux_deep",
        "image_sum_far", "image_sum_high_carrier", "image_sum_low_carrier"])
def test_oracle_out_of_float_range_is_a_gain_error(oracle, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GainError, match=f"^{re.escape(message)}$"):
            oracle()


def test_composite_total_stands_where_a_component_underflows():
    result = canyon_with_trees_gain(AVENUE, _avenue_link(3000.0))
    assert result.gain == pytest.approx(1.67e-28, rel=1e-3)
    assert result.components["guided"] == 0.0

