"""Golden-output regression gate for `pathgain predict`.

`golden_predict.json` holds, for every (config, morphology) pair of the
shipped `configs/`, what `predict <config> <morphology> 1:1000:7` prints
from the repository root: the CSV text of each supported pair, and the exit
code and one-line stderr of each unsupported one.  Any refactor of the laws
or the config layer must reproduce it byte for byte.  Regenerate it only
for an intended output change:

    PYTHONPATH=src python tests/test_golden_predict.py
"""

import contextlib
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


def _load_golden() -> dict[str, str | dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


GOLDEN = _load_golden() if GOLDEN_PATH.exists() else {}


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


def test_golden_covers_every_supported_pair():
    assert sum(isinstance(v, str) for v in GOLDEN.values()) == 141
    assert sorted(GOLDEN) == sorted(_pairs())


def _pairs():
    for path in sorted((REPO_ROOT / "configs").rglob("*.ini")):
        for name in MORPHOLOGIES:
            yield f"{path.relative_to(REPO_ROOT).as_posix()}|{name}"


def _generate() -> dict[str, str | dict]:
    golden = {}
    for key in _pairs():
        config, morphology = key.split("|")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["predict", config, morphology, SWEEP])
        golden[key] = (out.getvalue() if code == 0
                       else {"exit_code": code, "stderr": err.getvalue()})
    return golden


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
