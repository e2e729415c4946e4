"""The input-domain contract: every constructor rejects NaN and +-inf with
a ValueError, every law and oracle that needs wall parameters raises a
ValueError on a canyon without them, and the evaluator from
`make_evaluator` returns finite, positive gains or raises a ValueError,
for any range array."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathgain import cli
from pathgain.canyon import CanyonGeometry, LosLink, los_gain_incoherent
from pathgain.config import (MORPHOLOGIES, EnvironmentConfig, load_config,
                             make_evaluator)
from pathgain.diffuse import DiffuseLink, PenetrationSpec, t_eff
from pathgain.morphology import (FoliageLayer, IndoorClutter, Link, MacroGeometry,
                                 StreetScene, canyon_total_gain, canyon_with_trees_gain,
                                 outdoor_indoor_canyon_gain, sidewalk_guided_gain)
from pathgain.oracles import (QuadratureControl, SummationControl,
                              guided_trees_series_power, oi_image_series_power)
from pathgain.reference import ThreeGppScenario
from pathgain.surface import (PARALLEL, PERPENDICULAR, Dielectric, TelegraphRoughness,
                              low_grazing_rate)
from pathgain.units import SPEED_OF_LIGHT_M_S, require

from conftest import CORRIDOR_WALL, evaluator_for

NAN, INF = math.nan, math.inf
GEOMETRY = CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL)
FOLIAGE = FoliageLayer(3.0, 0.38)

CONSTRUCTORS = {
    "link_nan_range": lambda: Link(NAN, 28e9),
    "link_inf_range": lambda: Link(INF, 28e9),
    "link_nan_in_range_array": lambda: Link(np.array([10.0, NAN]), 28e9),
    "link_nan_frequency": lambda: Link(10.0, NAN),
    "link_inf_frequency": lambda: Link(10.0, INF),
    "los_link_inf_range": lambda: LosLink(GEOMETRY, INF, 28e9),
    "los_link_nan_range": lambda: LosLink(GEOMETRY, NAN, 28e9),
    "los_link_inf_frequency": lambda: LosLink(GEOMETRY, 10.0, INF),
    "canyon_nan_width": lambda: CanyonGeometry(NAN, 2.0, 1.0),
    "canyon_inf_width": lambda: CanyonGeometry(INF, 2.0, 1.0),
    "canyon_nan_height": lambda: CanyonGeometry(8.0, NAN, 1.0),
    "canyon_inf_height": lambda: CanyonGeometry(8.0, 2.0, INF),
    "canyon_nan_offset": lambda: CanyonGeometry(8.0, 2.0, 1.0, tx_offset_m=NAN),
    "foliage_nan_depth": lambda: FoliageLayer(NAN, 0.1),
    "foliage_inf_kappa": lambda: FoliageLayer(3.0, INF),
    "foliage_nan_trees": lambda: FoliageLayer(3.0, 0.1, n_tree_per_m=NAN),
    "indoor_nan_kappa": lambda: IndoorClutter(NAN, 2.0),
    "indoor_inf_depth": lambda: IndoorClutter(0.18, INF),
    "macro_inf_base": lambda: MacroGeometry(INF, 10.0, 1.5, 20.0),
    "macro_nan_street": lambda: MacroGeometry(30.0, 10.0, 1.5, NAN),
    "street_nan_standoff": lambda: StreetScene(GEOMETRY, FOLIAGE, NAN),
    "street_inf_extra_kappa": lambda: StreetScene(GEOMETRY, FOLIAGE, 8.0,
                                                  kappa_extra_np_per_m=INF),
    "dielectric_nan": lambda: Dielectric(NAN),
    "dielectric_inf": lambda: Dielectric(INF),
    "roughness_nan_depth": lambda: TelegraphRoughness(NAN, 0.5, 0.5, 1.0, 1.0),
    "roughness_inf_rate": lambda: TelegraphRoughness(0.1, 0.5, 0.5, INF, 1.0),
    "street_spec_nan_width": lambda: PenetrationSpec.street(NAN),
    "aperture_inf_width": lambda: PenetrationSpec.aperture(1.0, INF),
    "diffuse_link_nan_standoff": lambda: DiffuseLink(NAN, 100.0, 1.0, 0.0, 0.01),
    "diffuse_link_inf_range": lambda: DiffuseLink(20.0, INF, 1.0, 0.0, 0.01),
    "diffuse_link_nan_kappa": lambda: DiffuseLink(20.0, 100.0, 1.0, NAN, 0.01),
    "scenario_nan_frequency": lambda: ThreeGppScenario("UMa", "LOS", NAN),
    "scenario_nan_base_height": lambda: ThreeGppScenario("UMa", "LOS", 28.0,
                                                         base_height_m=NAN),
    "scenario_inf_base_height": lambda: ThreeGppScenario("UMa", "LOS", 28.0,
                                                         base_height_m=INF),
    "scenario_nan_mobile_height": lambda: ThreeGppScenario("UMa", "LOS", 28.0,
                                                           mobile_height_m=NAN),
    "scenario_inf_mobile_height": lambda: ThreeGppScenario("UMa", "LOS", 28.0,
                                                           mobile_height_m=INF),
    "summation_nan_tail_tol": lambda: SummationControl(rel_tail_tol=NAN),
    "summation_inf_tail_tol": lambda: SummationControl(rel_tail_tol=INF),
    "quadrature_nan_abs_tol": lambda: QuadratureControl(abs_tol=NAN),
    "quadrature_inf_abs_tol": lambda: QuadratureControl(abs_tol=INF),
    "quadrature_nan_rel_tol": lambda: QuadratureControl(rel_tol=NAN),
    "quadrature_inf_rel_tol": lambda: QuadratureControl(rel_tol=INF),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTORS))
def test_constructor_rejects_nonfinite(case):
    with pytest.raises(ValueError):
        CONSTRUCTORS[case]()


# (condition, values that must be finite) for `require`: bools, numpy bools,
# 0-d arrays and arrays, as the constructors and laws pass them
REQUIRE_HOLDS = {
    "bool": (True, ()),
    "numpy_bool": (np.bool_(True), (1.0, np.float64(2.0), 3)),
    "0d_arrays": (np.array(2.0) > 0.0, (np.array(2.0),)),
    "arrays": (np.array([1.0, 2.0]) > 0.0, (np.array([1.0, 2.0]), 5e-324)),
    "empty_array": (np.array([]) > 0.0, (np.array([]),)),
}
REQUIRE_FAILS = {
    "false": (False, ()),
    "numpy_false": (np.bool_(False), (1.0,)),
    "nan_condition": (NAN > 0.0, ()),
    "nan_0d_condition": (np.array(NAN) > 0.0, ()),
    "array_condition_one_false": (np.array([1.0, -1.0]) > 0.0, ()),
    "nan_value": (True, (1.0, NAN)),
    "inf_value": (True, (INF,)),
    "minus_inf_value": (True, (-INF,)),
    "numpy_nan_value": (True, (np.float64(NAN),)),
    "inf_0d_array": (True, (np.array(INF),)),
    "nan_in_array": (True, (np.array([1.0, NAN]),)),
    "minus_inf_in_array": (np.array([True, True]), (np.array([-INF, 1.0]),)),
}


@pytest.mark.parametrize("case", sorted(REQUIRE_HOLDS))
def test_require_passes_true_finite_inputs(case):
    condition, finite = REQUIRE_HOLDS[case]
    assert require(condition, "message", *finite) is None


@pytest.mark.parametrize("case", sorted(REQUIRE_FAILS))
def test_require_rejects_false_conditions_and_nonfinite_values(case):
    condition, finite = REQUIRE_FAILS[case]
    with pytest.raises(ValueError, match="^message$"):
        require(condition, "message", *finite)


BARE_GEOMETRY = CanyonGeometry(1.6, 2.2, 1.0)
BARE_STREET = StreetScene(BARE_GEOMETRY, FOLIAGE, 8.0)
FACADE = PenetrationSpec.facade_mixture(0.3, 1.0, 0.05)
ROOM = IndoorClutter(0.18, 2.0)
STREET_LINK = Link(100.0, 28e9)

WALL_LAWS = {
    "outdoor_indoor_canyon_gain": lambda: outdoor_indoor_canyon_gain(
        BARE_GEOMETRY, FACADE, ROOM, STREET_LINK),
    "sidewalk_guided_gain": lambda: sidewalk_guided_gain(BARE_STREET, STREET_LINK),
    "canyon_with_trees_gain": lambda: canyon_with_trees_gain(BARE_STREET, STREET_LINK),
    "canyon_total_gain": lambda: canyon_total_gain(
        BARE_STREET, MacroGeometry(30.0, 10.0, 1.5, 20.0), STREET_LINK),
    "oi_image_series_power": lambda: oi_image_series_power(
        BARE_GEOMETRY, FACADE, ROOM, STREET_LINK),
    "guided_trees_series_power": lambda: guided_trees_series_power(
        BARE_STREET, STREET_LINK),
}


@pytest.mark.parametrize("law", sorted(WALL_LAWS))
def test_law_without_wall_parameters_raises_value_error(law):
    with pytest.raises(ValueError, match="^canyon laws need wall parameters"):
        WALL_LAWS[law]()


def test_los_law_at_infinite_range_raises_instead_of_zero_gain():
    with pytest.raises(ValueError, match="horizontal range"):
        los_gain_incoherent(LosLink(GEOMETRY, INF, 28e9))


def _friis():
    return make_evaluator(load_config("configs/corridor_28ghz.ini"), "friis")


def test_evaluator_rejects_nonfinite_range():
    with pytest.raises(ValueError, match="range"):
        _friis()(NAN)


def test_evaluator_rejects_infinite_gain_naming_the_range():
    # (lambda / 4 pi r)^2 overflows for a range this small
    with pytest.raises(ValueError, match=r"^configs/corridor_28ghz\.ini: friis gain is inf "
                                         r"at range 1e-300 m$"):
        _friis()(1e-300)


def test_evaluator_names_the_first_bad_range_of_an_array():
    with pytest.raises(ValueError, match="at range 1e-300 m"):
        _friis()(np.array([10.0, 1e-300, 1e-310]))


EVALUATORS = {name: evaluator_for(name) for name in MORPHOLOGIES}
EDGE_VALUES = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 5e-324, 1e-310,
                               2.2250738585072014e-308, 1e-300, 1e300,
                               1.7976931348623157e308])
RANGE_ARRAYS = st.lists(st.one_of(st.floats(), EDGE_VALUES), min_size=1,
                        max_size=8)


@pytest.mark.parametrize("morphology", sorted(MORPHOLOGIES))
@settings(max_examples=60, deadline=None)
@given(values=RANGE_ARRAYS)
def test_evaluator_gives_finite_positive_gains_or_value_error(morphology, values):
    evaluator = EVALUATORS[morphology]
    for ranges in (np.array(values), values[0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = evaluator(ranges)
            except ValueError:
                continue
        gain = np.asarray(result.gain)
        assert gain.shape == np.shape(ranges)
        assert np.all(np.isfinite(gain) & (gain > 0.0)), (ranges, gain)


HEIGHTS = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                    st.sampled_from([0.0, 1.0, 1.5, 10.0, 25.0, 1e154, 1e300]))
MACROS = st.one_of(st.none(), st.builds(
    lambda heights, width: (*sorted(heights, reverse=True), width),
    st.lists(HEIGHTS, min_size=3, max_size=3),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))


@settings(max_examples=150, deadline=None)
@given(frequency_hz=st.one_of(
           st.floats(min_value=SPEED_OF_LIGHT_M_S / sys.float_info.max,
                     allow_infinity=False),
           st.sampled_from([28e9, 1e200, 1e300, sys.float_info.max])),
       macro=MACROS, values=RANGE_ARRAYS)
def test_reference_models_give_finite_db_or_value_error(frequency_hz, macro, values):
    """Each reference model of the CLI, on any carrier, [macro] block and
    range array that a config may hold, predicts a finite dB value per
    range or raises a ValueError."""
    if macro is not None:
        try:
            macro = MacroGeometry(*macro)
        except ValueError:
            macro = None
    cfg = EnvironmentConfig("scene.ini", frequency_hz, macro=macro)
    for name in cli.REFERENCE_MODELS:
        for ranges in (np.array(values), values[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    predicted = cli._model_predictor(cfg, name)(ranges)
                except ValueError:
                    continue
            assert np.shape(predicted) == np.shape(ranges)
            assert np.all(np.isfinite(predicted)), (name, ranges, predicted)


# any float, with the edges above and values whose squares or products
# overflow; nonnegative finite floats often enough that most scenes build
ANY_FLOAT = st.one_of(st.floats(), st.floats(min_value=0.0, allow_infinity=False),
                      EDGE_VALUES, st.sampled_from([1.0, 2.0, 1e154, 1e155, 1e308]))
PENETRATION_SPECS = {
    "unbounded": lambda a, b, c: PenetrationSpec.unbounded(a),
    "street": lambda a, b, c: PenetrationSpec.street(a, b),
    "aperture": PenetrationSpec.aperture,
    "facade_mixture": PenetrationSpec.facade_mixture,
}


def _value_or_none(compute):
    """compute(), with float warnings as errors; None where it raises
    ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return compute()
        except ValueError:
            return None


@settings(max_examples=300, deadline=None)
@given(index=ANY_FLOAT, polarization=st.sampled_from([PERPENDICULAR, PARALLEL]))
def test_low_grazing_rate_is_finite_positive_or_value_error(index, polarization):
    rate = _value_or_none(lambda: low_grazing_rate(Dielectric(index), polarization))
    assert rate is None or 0.0 < rate < INF, (index, rate)


@settings(max_examples=300, deadline=None)
@given(canyon=st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT),
       trees=st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT))
def test_tree_fraction_is_in_unit_interval_or_value_error(canyon, trees):
    n_tree, width, height = trees
    rho = _value_or_none(lambda: StreetScene(
        CanyonGeometry(*canyon), FoliageLayer(3.0, 0.38, n_tree_per_m=n_tree,
                                              tree_width_m=width, tree_height_m=height),
        8.0).rho)
    assert rho is None or 0.0 <= rho <= 1.0, (canyon, trees, rho)


@pytest.mark.parametrize("variant", sorted(PENETRATION_SPECS))
@settings(max_examples=150, deadline=None)
@given(values=st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), depth=ANY_FLOAT)
def test_t_eff_is_in_unit_interval_or_value_error(variant, values, depth):
    fraction = _value_or_none(lambda: t_eff(PENETRATION_SPECS[variant](*values), depth))
    assert fraction is None or 0.0 <= fraction <= 1.0, (values, depth, fraction)
