"""The names the benchmark's traced probe (bench/tracing.py) calls or wraps
in `src/` still exist.

`tracing.instrumented` skips a name the package no longer has without a
word, and the probe's direct calls run only in a traced benchmark run, so a
cut in `src/` that removes one of them would otherwise pass every test.
"""

import importlib.util
import inspect

import numpy as np
import pytest

from pathgain import cli, fitting, oracles, verify
from pathgain.config import load_config

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


def test_suites_give_their_rows_under_the_probe_wrappers(tracing):
    # the probe swaps each traced oracle for a plain wrapper, so an oracle
    # that reached another through an attribute of the function (its
    # `__wrapped__`, say) would fail only in a traced run
    rows = verify.run_suites(list(verify.SUITES))
    with tracing.instrumented(tracing.Tracer()):
        assert verify.run_suites(list(verify.SUITES)) == rows


def test_probe_fitting_calls_exist(tmp_path):
    assert callable(fitting.rmse_against_model)
    assert list(inspect.signature(fitting.load_dataset).parameters) == [
        "path", "frequency_hz"]
    path = tmp_path / "sweep.csv"
    path.write_text("range_m,path_gain_db\n10,-60\n20,-70\n")
    records = fitting.load_dataset(path, 28e9)
    assert records == fitting.read_records(path)
    assert fitting.rmse_against_model(records, lambda r: -60.0) > 0.0


@pytest.mark.parametrize("name", ("over_top",) + cli.REFERENCE_MODELS)
def test_probe_model_predictor_takes_arrays(name):
    # the probe builds these on the [macro] scene that uma_nlos_36814 needs
    cfg = load_config(REPO_ROOT / "configs" / "vegetated_macro_28ghz.ini")
    ranges = np.geomspace(10.0, 1000.0, 7)
    predicted = cli._model_predictor(cfg, name)(ranges)
    assert isinstance(predicted, np.ndarray) and predicted.shape == ranges.shape
    assert np.isfinite(predicted).all()
