"""Closed-form average path gain laws for canonical radio environments.

The package pairs every closed form with a first-principles numerical
oracle (image sums, reflection-order series, boundary quadratures) plus
slope-intercept fitting, RMSE evaluation against measurements, and 3GPP
reference curves.  See the README for the CLI and the verification suites.

`import pathgain` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562), so a command pays only for
the modules it runs.
"""

import importlib

_EXPORTS = {
    "canyon": ("CanyonGeometry", "Link", "LosLink", "los_gain_coherent",
               "los_gain_incoherent"),
    "diffuse": ("DiffuseLink", "PenetrationSpec", "diffuse_pathgain", "t_eff"),
    "fitting": ("FitResult", "fit_slope_intercept", "load_dataset",
                "rmse_against_model"),
    "morphology": ("FoliageLayer", "IndoorClutter", "MacroGeometry",
                   "StreetScene", "canyon_total_gain", "canyon_with_trees_gain",
                   "kappa_v_at_frequency", "outdoor_indoor_canyon_gain",
                   "overtop_gain", "rural_gain", "sidewalk_guided_gain",
                   "sidewalk_unguided_gain", "suburban_indoor_gain",
                   "suburban_street_gain"),
    "reference": ("ThreeGppScenario", "friis_gain", "tr38901_pathloss",
                  "uma_nlos_36814"),
    "result": ("GainResult",),
    "surface": ("Dielectric", "TelegraphRoughness", "WallSurface",
                "fresnel_exact", "fresnel_low_grazing", "roughness_spectrum",
                "wall_loss"),
}
# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
