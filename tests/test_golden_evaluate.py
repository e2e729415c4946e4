"""Golden-output regression gate for `pathgain fit` and `pathgain evaluate`.

For every supported (config, morphology) pair of the shipped `configs/`,
`predict <config> <morphology> 0.5:3000:400` writes a sweep CSV, and
`golden_evaluate.json` holds what the commands below print for it, run
from the repository root:

- `fit <sweep>`: stdout;
- `fit <sweep> --output <file>`: the file's text;
- `evaluate <sweep> <config> <morphology> --output <file>`: stdout and the
  SHA-256 of the residual file.

It also holds `evaluate` stdout and residual SHA-256 for every reference
model against the `over_top` sweep of `configs/vegetated_macro_28ghz.ini`,
a config with the `[macro]` block that `uma_nlos_36814` needs.  A command
that fails is recorded as its exit code and one-line stderr.  Any refactor
of dataset loading, fitting or evaluation must reproduce all of it byte for
byte.  Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden_evaluate.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from pathgain import cli

from test_golden_predict import DENSE_SWEEP, GOLDEN as PREDICT_GOLDEN, REPO_ROOT

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_evaluate.json"
REFERENCE_CONFIG = "configs/vegetated_macro_28ghz.ini"
REFERENCE_SWEEP = "over_top"

GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else {})


def _supported_pairs() -> list[str]:
    return sorted(key for key, value in PREDICT_GOLDEN.items()
                  if isinstance(value, str))


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _recorded(code: int, text: str, err: str):
    """Text of a command that succeeded, exit code and stderr otherwise."""
    return text if code == 0 else {"exit_code": code, "stderr": err}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep(config: str, morphology: str, directory: Path) -> Path:
    sweep = directory / "sweep.csv"
    code, _, err = _run("predict", config, morphology, DENSE_SWEEP,
                        "--output", str(sweep))
    if code != 0:
        raise AssertionError(f"{config} {morphology} {DENSE_SWEEP}: {err}")
    return sweep


def _evaluate(sweep: Path, config: str, model: str, directory: Path) -> dict:
    residuals = directory / f"residuals-{model}.csv"
    code, out, err = _run("evaluate", str(sweep), config, model,
                          "--output", str(residuals))
    if code != 0:
        return {"exit_code": code, "stderr": err}
    return {"stdout": out, "sha256": _sha256(residuals)}


def _pair_outputs(config: str, morphology: str, directory: Path) -> dict:
    sweep = _sweep(config, morphology, directory)
    fit_file = directory / "fit.csv"
    fit_stdout = _recorded(*_run("fit", str(sweep)))
    code, _, err = _run("fit", str(sweep), "--output", str(fit_file))
    fit_output = _recorded(code, fit_file.read_text(encoding="utf-8")
                           if code == 0 else "", err)
    return {"fit": fit_stdout, "fit --output": fit_output,
            "evaluate": _evaluate(sweep, config, morphology, directory)}


def _reference_outputs(directory: Path) -> dict:
    sweep = _sweep(REFERENCE_CONFIG, REFERENCE_SWEEP, directory)
    return {model: _evaluate(sweep, REFERENCE_CONFIG, model, directory)
            for model in cli.REFERENCE_MODELS}


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.mark.parametrize("key", sorted(GOLDEN.get("pairs", {})))
def test_fit_and_evaluate_match_golden(tmp_path, key):
    config, morphology = key.split("|")
    assert _pair_outputs(config, morphology, tmp_path) == GOLDEN["pairs"][key]


def test_reference_models_match_golden(tmp_path):
    assert _reference_outputs(tmp_path) == GOLDEN["reference"]


def test_golden_covers_every_supported_pair():
    assert sorted(GOLDEN["pairs"]) == _supported_pairs()
    assert sorted(GOLDEN["reference"]) == sorted(cli.REFERENCE_MODELS)
    assert all(isinstance(v["evaluate"], dict) and "sha256" in v["evaluate"]
               for v in GOLDEN["pairs"].values())


def _generate() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        pairs = {key: _pair_outputs(*key.split("|"), directory)
                 for key in _supported_pairs()}
        return {"sweep": DENSE_SWEEP, "pairs": pairs,
                "reference": _reference_outputs(directory)}


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
