import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pathgain import oracles
from pathgain.canyon import CanyonGeometry, los_gain_incoherent
from pathgain.config import ConfigError, load_config, make_evaluator
from pathgain.surface import Dielectric, TelegraphRoughness, WallSurface

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_gapmap():
    """bench/gapmap.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "gapmap", REPO_ROOT / "bench" / "gapmap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True, scope="session")
def _run_from_repo_root():
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    yield
    os.chdir(previous)


# the quadratures that the oracles keep for the life of the process
QUADRATURE_CACHES = (oracles._radial_flux, oracles._aperture_quadrant,
                     oracles._roughness_integral)


@pytest.fixture(autouse=True)
def _cold_quadrature_caches():
    """Each test starts with no integral kept, so a test that counts or
    patches quadratures sees every one its own calls need."""
    for cache in QUADRATURE_CACHES:
        cache.cache_clear()

# Office corridor: 1.6 m wide, lightly corrugated walls (door jambs),
# transmitter at 2.2 m, receiver at 1 m.
CORRIDOR_WALL = WallSurface(
    Dielectric(1.7), TelegraphRoughness(0.035, 0.25, 0.75, 1.0, 1.0 / 3.0)
)

# Urban canyon: 8.6 m street, deep window-well corrugation.
URBAN_WALL = WallSurface(
    Dielectric(2.2), TelegraphRoughness(0.1, 0.85, 0.15, 1.0 / 0.33, 0.5)
)

# Wide avenue wall: same dielectric, shallow corrugation.
AVENUE_WALL = WallSurface(
    Dielectric(2.2), TelegraphRoughness(0.01, 0.85, 0.15, 1.0 / 0.33, 0.5)
)


@pytest.fixture
def corridor_geometry():
    return CanyonGeometry(1.6, 2.2, 1.0, CORRIDOR_WALL)


@pytest.fixture
def urban_geometry():
    return CanyonGeometry(8.6, 5.0, 1.5, URBAN_WALL)


def db(x: float) -> float:
    return 10.0 * math.log10(x)


def walls_only_gain(link):
    """The waveguide law without its ground factor: the spreading term times
    the free-space floor of los_gain_incoherent on the same link."""
    factors = los_gain_incoherent(link).factors
    return factors["spreading"] * factors["free_space_floor"]


def line_db(intercept_db_1m, exponent_n, range_m):
    """The slope-intercept line's gain in dB at a range, or an array of
    ranges: P1_dB - 10 n log10(r)."""
    return intercept_db_1m - 10.0 * exponent_n * np.log10(range_m)


def evaluator_for(morphology: str):
    """The evaluator of a morphology on the first shipped config (in path
    order) that supports it."""
    for path in sorted((REPO_ROOT / "configs").rglob("*.ini")):
        try:
            return make_evaluator(load_config(path), morphology)
        except ConfigError:
            continue
    raise AssertionError(f"no shipped config supports {morphology}")
