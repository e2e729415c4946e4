"""Golden-output regression gate for `pathgain predict`.

`golden_predict.json` holds, for every (config, morphology) pair of the
shipped `configs/`, what `predict <config> <morphology> 1:1000:7` prints
from the repository root: the CSV text of each supported pair, and the exit
code and one-line stderr of each unsupported one.  For each supported pair
it also holds the SHA-256 of the `0.5:3000:400` CSV, a dense sweep that
crosses every flag transition of the shipped scenes.  Any refactor of the
laws or the config layer must reproduce both byte for byte.  Regenerate
the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden_predict.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from pathgain import cli
from pathgain.config import MORPHOLOGIES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_predict.json"
SWEEP = "1:1000:7"
DENSE_SWEEP = "0.5:3000:400"
DENSE_KEY = f"sha256 {DENSE_SWEEP}"


def _load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


_FILE = _load_golden() if GOLDEN_PATH.exists() else {}
GOLDEN = _FILE.get(SWEEP, {})
DENSE_SHA256 = _FILE.get(DENSE_KEY, {})


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_predict_matches_golden(capsys, key):
    config, morphology = key.split("|")
    code = cli.main(["predict", config, morphology, SWEEP])
    captured = capsys.readouterr()
    expected = GOLDEN[key]
    if isinstance(expected, str):
        assert code == 0, captured.err
        assert captured.out == expected
    else:
        assert (code, captured.out, captured.err) == (
            expected["exit_code"], "", expected["stderr"])


@pytest.mark.parametrize("key", sorted(DENSE_SHA256))
def test_dense_predict_matches_golden_sha256(capsys, key):
    config, morphology = key.split("|")
    code = cli.main(["predict", config, morphology, DENSE_SWEEP])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert _sha256(captured.out) == DENSE_SHA256[key]


def test_golden_covers_every_supported_pair():
    assert sum(isinstance(v, str) for v in GOLDEN.values()) == 141
    assert sorted(GOLDEN) == sorted(_pairs())
    assert sorted(DENSE_SHA256) == sorted(
        key for key, value in GOLDEN.items() if isinstance(value, str))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pairs():
    for path in sorted((REPO_ROOT / "configs").rglob("*.ini")):
        for name in MORPHOLOGIES:
            yield f"{path.relative_to(REPO_ROOT).as_posix()}|{name}"


def _predict(config: str, morphology: str, sweep: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["predict", config, morphology, sweep])
    return code, out.getvalue(), err.getvalue()


def _generate() -> dict[str, dict]:
    golden, dense = {}, {}
    for key in _pairs():
        config, morphology = key.split("|")
        code, out, err = _predict(config, morphology, SWEEP)
        golden[key] = out if code == 0 else {"exit_code": code, "stderr": err}
        if code == 0:
            dense_code, dense_out, dense_err = _predict(config, morphology,
                                                        DENSE_SWEEP)
            if dense_code != 0:
                raise SystemExit(f"{key} {DENSE_SWEEP}: {dense_err}")
            dense[key] = _sha256(dense_out)
    return {SWEEP: golden, DENSE_KEY: dense}


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
