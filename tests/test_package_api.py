"""The package's public names resolve lazily to their submodules' objects.

`pathgain/__init__.py` maps each public name to the submodule that defines
it and imports that submodule on first access.  The names below are the
package's public names; each must resolve, through `from pathgain import
name`, to the very object its submodule holds.
"""

import importlib
import os
import subprocess
import sys

import pytest

import pathgain
from pathgain import cli

from conftest import REPO_ROOT

EXPORTS = {
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
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_name_resolves_to_its_submodule_object(module, name):
    namespace = {}
    exec(f"from pathgain import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"pathgain.{module}"), name)


def test_star_import_and_dir_list_every_name():
    assert sorted(pathgain.__all__) == sorted(name for _, name in NAMES)
    assert set(pathgain.__all__) <= set(dir(pathgain))
    namespace = {}
    exec("from pathgain import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'los_tunnel_gain'"):
        pathgain.los_tunnel_gain
    with pytest.raises(ImportError):
        exec("from pathgain import los_tunnel_gain", {})


def test_import_alone_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pathgain\n"
         "print(pathgain.__version__, sorted(m for m in sys.modules"
         " if m.startswith('pathgain.')))"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(" ", 1) == ["0.1.0", "[]\n"]


def test_help_names_match_the_tables_they_list():
    from pathgain import config, verify
    assert cli.MORPHOLOGY_NAMES == tuple(config.MORPHOLOGIES)
    assert cli.SUITE_NAMES == tuple(verify.SUITES)
