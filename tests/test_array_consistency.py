"""The array call of every law matches its per-element float calls.

`predict` and `evaluate` evaluate a whole sweep in one call; `verify`, the
oracles and direct library use pass one float at a time.  Both go through
the same numpy code, so they must agree to rounding, with identical flags.
"""

import numpy as np
import pytest

from pathgain import cli
from pathgain.config import MORPHOLOGIES, load_config

from conftest import evaluator_for

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
