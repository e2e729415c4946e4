"""No command loads scipy.

Importing scipy.integrate would take most of a `pathgain` process's
start-up; the quadrature oracles behind `verify` use the package's own
Gauss-Kronrod rule instead.  Each command runs in a fresh interpreter, so
the check sees exactly the modules that command imports.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from pathgain import cli

# runs pathgain.cli.main on argv, then reports its exit code and every
# scipy module loaded by then as the last line of stderr
_WRAPPER = """
import json, sys
from pathgain import cli
code = cli.main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": scipy}), file=sys.stderr)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _run_cli(*argv):
    proc = _python("-c", _WRAPPER, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report["scipy"]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "sweep.csv"
    assert cli.main(["predict", "configs/corridor_2ghz.ini", "los_corridor",
                     "5:70:20", "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command", ["predict", "fit", "evaluate"])
def test_closed_form_command_does_not_load_scipy(command, sweep):
    argv = {
        "predict": ("predict", "configs/corridor_2ghz.ini", "los_corridor",
                    "5:70:20"),
        "fit": ("fit", sweep),
        "evaluate": ("evaluate", sweep, "configs/corridor_2ghz.ini",
                     "los_corridor"),
    }[command]
    assert _run_cli(*argv) == []


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_verify_loads_no_scipy(profile):
    assert _run_cli("verify", "all", "--tolerance-profile", profile) == []


def test_wrapper_sees_scipy_when_loaded():
    # the control: the report does list scipy once something imports it
    proc = _python("-c", "import scipy.integrate\n" + _WRAPPER, "verify", "trees")
    assert proc.returncode == 0, proc.stderr
    assert "scipy.integrate" in json.loads(proc.stderr.splitlines()[-1])["scipy"]


def test_importing_verify_does_not_load_scipy_integrate():
    proc = _python("-c", "import sys, pathgain.verify\n"
                         "print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_oracles_loads_no_scipy():
    proc = _python("-c", "import sys, pathgain.oracles\n"
                         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
