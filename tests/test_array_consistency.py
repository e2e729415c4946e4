"""The array call of every law and oracle matches its per-element float calls.

`predict`, `evaluate` and `verify` evaluate a whole sweep in one call; the
gap map and direct library use pass one float at a time.  Both go through
the same numpy code, so a law must agree to rounding, with identical flags,
and an oracle bit for bit, with each element stopping where its float call
stops.
"""

import numpy as np
import pytest

from pathgain import cli, diffuse, morphology, oracles, verify
from pathgain.canyon import CanyonGeometry, LosLink
from pathgain.config import MORPHOLOGIES, load_config
from pathgain.morphology import Link
from pathgain.units import wavenumber_rad_m

from conftest import AVENUE_WALL, evaluator_for

RANGES = np.geomspace(0.5, 3000.0, 400)
RTOL = 1e-14


@pytest.mark.parametrize("morphology", sorted(MORPHOLOGIES))
def test_morphology_array_call_matches_float_calls(morphology):
    evaluator = evaluator_for(morphology)
    swept = evaluator(RANGES)
    points = [evaluator(r) for r in RANGES.tolist()]
    np.testing.assert_allclose([p.gain for p in points], swept.gain, rtol=RTOL, atol=0)
    for name, values in swept.components.items():
        np.testing.assert_allclose([p.components[name] for p in points], values,
                                   rtol=RTOL, atol=0, err_msg=name)
    for name, values in swept.factors.items():
        # a scene constant stays a scalar in both calls
        np.testing.assert_allclose([p.factors[name] for p in points],
                                   np.broadcast_to(values, RANGES.shape),
                                   rtol=RTOL, atol=0, err_msg=name)
    for i, point in enumerate(points):
        assert sorted(point.components) == sorted(swept.components)
        assert list(point.factors) == list(swept.factors)
        assert point.exponent == swept.exponent
        assert tuple(point.flags) == tuple(
            name for name, mask in swept.flags.items() if mask[i]), RANGES[i]


@pytest.mark.parametrize("model", cli.REFERENCE_MODELS)
def test_reference_model_array_call_matches_float_calls(model):
    # the vegetated macro scene has the [macro] block uma_nlos_36814 needs
    predict_db = cli._model_predictor(
        load_config("configs/vegetated_macro_28ghz.ini"), model)
    np.testing.assert_allclose([predict_db(r) for r in RANGES.tolist()],
                               predict_db(RANGES), rtol=RTOL, atol=0)


# the first pass of each series: the image sum's orders |k| <= 128 and the
# reflection-order series' orders 0..191
FIRST_PASS_ONLY = oracles.SummationControl(max_order=191)
STRICT_SUM = oracles.SummationControl(rel_tail_tol=1e-13)
CORRIDOR = verify.CORRIDOR_GEOMETRY
FACADE = diffuse.PenetrationSpec.facade_mixture(0.3, 1.0, 0.05)
ROOM = morphology.IndoorClutter(0.18, 2.0)
TREES = morphology.StreetScene(
    CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
    morphology.FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                            tree_height_m=10.0),
    standoff_m=8.0)


def _assert_float_calls(oracle, link, values):
    """oracle(link(values)) equals oracle(link(v)) at each v, bit for bit,
    and a float call gives a float."""
    swept = oracle(link(values))
    points = [oracle(link(v)) for v in values.tolist()]
    assert all(isinstance(p, float) and np.ndim(p) == 0 for p in points)
    assert swept.shape == values.shape
    assert swept.tolist() == [float(p) for p in points]


@pytest.mark.parametrize("ctl", [oracles.SummationControl(), STRICT_SUM],
                         ids=["default", "strict"])
def test_image_sum_array_call_matches_float_calls(ctl):
    # the corridor at 2 GHz: 10 w stops at the first pass, 10,000 w later,
    # so the near total must stay as it was while the far one goes on
    near, far = 10.0 * CORRIDOR.width_m, 1.0e4 * CORRIDOR.width_m
    oracles.image_sum_power(LosLink(CORRIDOR, near, 2.0e9), FIRST_PASS_ONLY)
    with pytest.raises(oracles.OracleConvergenceError):
        oracles.image_sum_power(LosLink(CORRIDOR, far, 2.0e9), FIRST_PASS_ONLY)
    for f_hz in (2.0e9, 28.0e9):
        _assert_float_calls(lambda link: oracles.image_sum_power(link, ctl),
                            lambda x: LosLink(CORRIDOR, x, f_hz),
                            np.array([near, far, 32.0 * CORRIDOR.width_m, 1.0]))


SERIES = {
    "oi_image_series_power": (CORRIDOR, lambda link, ctl: oracles.oi_image_series_power(
        CORRIDOR, FACADE, ROOM, link, ctl)),
    "guided_trees_series_power": (TREES.canyon, lambda link, ctl: (
        oracles.guided_trees_series_power(TREES, link, ctl))),
}


@pytest.mark.parametrize("ctl", [oracles.SummationControl(), STRICT_SUM],
                         ids=["default", "strict"])
@pytest.mark.parametrize("series", sorted(SERIES))
def test_series_array_call_matches_float_calls(series, ctl):
    # 10 L w stops at the first two blocks, 1,000 L w at a later one
    geometry, oracle = SERIES[series]
    f_hz = 28.0e9
    lw = geometry.wall_loss(f_hz) * geometry.width_m
    near, far = 10.0 * lw, 1.0e3 * lw
    oracle(Link(near, f_hz), FIRST_PASS_ONLY)
    with pytest.raises(oracles.OracleConvergenceError):
        oracle(Link(far, f_hz), FIRST_PASS_ONLY)
    _assert_float_calls(lambda link: oracle(link, ctl), lambda r: Link(r, f_hz),
                        np.array([near, far, 0.5 * lw, 2.5 * lw]))


def test_converged_range_takes_no_further_block():
    # the freeze as work: after the first evaluation, only the range still
    # short of the tolerance gets the terms of a further block
    wall_l = CORRIDOR.wall_loss(28.0e9)
    lw = wall_l * CORRIDOR.width_m
    evaluated = []

    def recording(r, d_m):
        evaluated.append(np.ravel(r).tolist())
        return np.ones(np.broadcast_shapes(np.shape(r), np.shape(d_m)))

    near, far = 10.0 * lw, 1.0e3 * lw
    oracles._standoff_series(np.array([near, far]), CORRIDOR.width_m, wall_l,
                             CORRIDOR.width_m / 2.0, oracles.SummationControl(),
                             recording)
    assert evaluated == [[near, far], [far]]


@pytest.mark.parametrize("wall", [verify.CORRIDOR_WALL, verify.URBAN_WALL],
                         ids=["corridor", "urban"])
def test_roughness_integral_grid_matches_float_calls(wall):
    # the integral depends on neither angle nor wavenumber, so one call over
    # a theta x k grid gives each pair's float call
    theta = np.array([1e-4, 0.001, 0.01, 0.05, 0.2])
    k = np.array([wavenumber_rad_m(f) for f in (0.9e9, 2.0e9, 3.5e9, 28.0e9, 60.0e9)])
    grid = oracles.roughness_loss_integral(theta, wall.roughness, k[:, None])
    assert grid.shape == (len(k), len(theta))
    points = [[oracles.roughness_loss_integral(t, wall.roughness, k_i)
               for t in theta.tolist()] for k_i in k.tolist()]
    assert all(type(p) is float for row in points for p in row)
    assert grid.tolist() == points
