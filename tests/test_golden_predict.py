"""Golden-output regression gate for `pathgain predict`.

`golden_predict.json` holds the CSV text of `predict <config> <morphology>
1:1000:7` for every (config, morphology) pair that the shipped `configs/`
support.  Any refactor of the laws or the config layer must reproduce it
byte for byte.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden_predict.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from pathgain import cli
from pathgain.config import MORPHOLOGIES, ConfigError, load_config, make_evaluator

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_predict.json"
SWEEP = "1:1000:7"


def _load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


GOLDEN = _load_golden() if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_predict_matches_golden(capsys, key):
    config, morphology = key.split("|")
    code = cli.main(["predict", config, morphology, SWEEP])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == GOLDEN[key]


def test_golden_covers_every_supported_pair():
    assert len(GOLDEN) == 141
    assert sorted(GOLDEN) == sorted(_supported_pairs())


def _supported_pairs():
    configs = sorted((REPO_ROOT / "configs").rglob("*.ini"))
    for path in configs:
        cfg = load_config(path)
        for name in MORPHOLOGIES:
            try:
                make_evaluator(cfg, name)
            except ConfigError:
                continue
            yield f"{path.relative_to(REPO_ROOT).as_posix()}|{name}"


def _generate() -> dict[str, str]:
    golden = {}
    for key in _supported_pairs():
        config, morphology = key.split("|")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["predict", str(REPO_ROOT / config), morphology,
                             SWEEP])
        if code != 0:
            raise SystemExit(f"predict failed for {key}")
        golden[key] = buf.getvalue()
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
