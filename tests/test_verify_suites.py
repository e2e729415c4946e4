"""The verify suites as scene generators: each closed form runs once per
scene over the array of its swept values, and so does each image-sum and
series oracle, and every suite holds its bound over the whole box it
sweeps, at seeded samples as well as at its points."""

import numpy as np
import pytest

from pathgain import canyon, diffuse, morphology, oracles, surface, verify

PROFILES = ("default", "strict")

# each suite's closed form, its calls per profile (one per scene) and, for a
# range law, the tuple of swept values its link's range_m takes
LAWS = {
    "canyon": (canyon, "los_gain_incoherent", 4, "CANYON_R_OVER_W"),
    "outdoor_indoor": (morphology, "outdoor_indoor_canyon_gain", 3,
                       "OUTDOOR_INDOOR_R_OVER_LW"),
    "trees": (morphology, "sidewalk_guided_gain", 1, "TREES_R_OVER_LW"),
    "diffuse": (diffuse, "diffuse_pathgain", 5, None),
    "roughness": (surface, "roughness_loss_rate", 6, None),
}

# each suite's oracle, its calls per profile and the shape of what each call
# returns: the image sum and the series once per scene over its swept
# ranges, the roughness integral once per wall over every carrier and angle,
# and the hot-wall quadrature once per boundary or aperture; 18 calls per
# profile in all
ORACLES = {
    "canyon": ("image_sum_power", 4, (len(verify.CANYON_R_OVER_W),)),
    "outdoor_indoor": ("oi_image_series_power", 3,
                       (len(verify.OUTDOOR_INDOOR_R_OVER_LW),)),
    "trees": ("guided_trees_series_power", 1, (len(verify.TREES_R_OVER_LW),)),
    "diffuse": ("hotwall_quadrature", 8, ()),
    "roughness": ("roughness_loss_integral", 2, (3, len(verify.GRAZING_RAD))),
}

# the swept-value tuples of each suite, the log-uniform samples drawn for
# each, and the comparisons they give: 100 per scene, and 10 x 10 aperture
# widths beside the four fixed diffuse comparisons
BOXES = {
    "canyon": ({"CANYON_R_OVER_W": 100}, 400),
    "outdoor_indoor": ({"OUTDOOR_INDOOR_R_OVER_LW": 100}, 300),
    "trees": ({"TREES_R_OVER_LW": 100}, 100),
    "diffuse": ({"APERTURE_W1_OVER_D": 10, "APERTURE_W2_OVER_D": 10}, 104),
    "roughness": ({"GRAZING_RAD": 100}, 600),
}
SEED = 2021


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("suite", list(LAWS))
def test_each_law_runs_once_per_scene(suite, profile, monkeypatch):
    module, attr, scenes, swept = LAWS[suite]
    calls = []
    law = getattr(module, attr)

    def recording(*args):
        calls.append(args)
        return law(*args)

    monkeypatch.setattr(module, attr, recording)
    verify.SUITES[suite](profile)
    assert len(calls) == scenes
    if swept:
        shapes = [np.shape(args[-1].range_m) for args in calls]
        assert shapes == [(len(getattr(verify, swept)),)] * scenes


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("suite", list(ORACLES))
def test_each_oracle_runs_once_per_scene(suite, profile, monkeypatch):
    attr, calls, shape = ORACLES[suite]
    shapes = []
    oracle = getattr(oracles, attr)

    def recording(*args, **kwargs):
        value = oracle(*args, **kwargs)
        shapes.append(np.shape(value))
        return value

    monkeypatch.setattr(oracles, attr, recording)
    verify.SUITES[suite](profile)
    assert shapes == [shape] * calls


def _log_uniform(rng, values, n):
    low, high = np.log(min(values)), np.log(max(values))
    return tuple(np.exp(rng.uniform(low, high, n)))


@pytest.mark.parametrize("suite", list(BOXES))
def test_suite_holds_its_bound_over_its_box(suite, monkeypatch):
    samples, expected = BOXES[suite]
    rng = np.random.default_rng(SEED)
    for name, n in samples.items():
        monkeypatch.setattr(verify, name, _log_uniform(rng, getattr(verify, name), n))
    comparisons = verify.SUITES[suite]("default")
    assert len(comparisons) == expected
    worst = max(comparisons, key=lambda c: abs(c.gap_db) / c.bound_db)
    print(f"{suite}: {len(comparisons)} comparisons, worst |gap|/bound "
          f"{abs(worst.gap_db) / worst.bound_db:.3f} at {worst.name}")
    assert [c.name for c in comparisons if not c.passed] == []
