"""Golden-output regression gate for `pathgain verify all`.

`golden_verify.json` holds, for each tolerance profile, what
`verify all --tolerance-profile <profile> --output <file>` prints and
writes from the repository root: the exit code, the gap table on stdout
and the text of the CSV file.  Any change to the oracles or the closed
forms must reproduce both byte for byte.  Regenerate the file only for an
intended output change:

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from pathgain import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_verify.json"
PROFILES = ("default", "strict")

GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else {})


def _verify(profile: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gaps.csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "all", "--tolerance-profile", profile,
                             "--output", path])
        with open(path, encoding="utf-8", newline="") as fh:
            csv_text = fh.read()
    return {"exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "csv": csv_text}


def test_golden_covers_both_profiles():
    assert sorted(GOLDEN) == sorted(PROFILES)


@pytest.mark.parametrize("profile", PROFILES)
def test_verify_all_matches_golden(profile):
    assert _verify(profile) == GOLDEN[profile]


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN_PATH.write_text(
        json.dumps({p: _verify(p) for p in PROFILES}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
