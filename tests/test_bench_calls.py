"""The names the benchmark's traced probe (bench/tracing.py) calls or wraps
in `src/` still exist.

`tracing.instrumented` skips a name the package no longer has without a
word, and the probe's direct calls run only in a traced benchmark run, so a
cut in `src/` that removes one of them would otherwise pass every test.
"""

import importlib.util
import inspect

import pytest

from pathgain import fitting, oracles

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def tracing():
    # tracing imports workloads (and workloads harness) from bench/
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT / "bench"))
        spec = importlib.util.spec_from_file_location(
            "tracing", REPO_ROOT / "bench" / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


def test_every_traced_oracle_exists(tracing):
    assert tracing.ORACLES
    missing = [name for name in tracing.ORACLES
               if not callable(getattr(oracles, name, None))]
    assert not missing


def test_probe_fitting_calls_exist(tmp_path):
    assert callable(fitting.rmse_against_model)
    assert list(inspect.signature(fitting.load_dataset).parameters) == [
        "path", "frequency_hz"]
    path = tmp_path / "sweep.csv"
    path.write_text("range_m,path_gain_db\n10,-60\n20,-70\n")
    dataset = fitting.load_dataset(path, 28e9)
    assert dataset.frequency_hz == 28e9
    assert fitting.rmse_against_model(dataset, lambda r: -60.0) > 0.0
