"""Each command loads only the modules it runs, and none loads scipy.

`pathgain/__init__.py` imports its public names on first access, and
`cli.py` imports `config`, `fitting`, `reference` or `verify` only in the
commands that run them, and numpy only in the code that computes, so
`--help` and a usage error load no numpy.  `fit` loads `cli` and `fitting`
alone: its reader and least squares are pure Python and its result holds
the fitted line itself, so it loads no numpy either.  Its record classes
are no dataclasses, so beyond what `--help` loads, `fit` loads only
`fitting`, the csv reader and its file's codec.  `fitting`,
`reference` and `units` import numpy only in the functions that compute
on arrays.  With bytecode not written, each
process compiles the source of every module it imports, so a module a
command does not run costs it start-up time.  The quadrature oracles behind
`verify` use the package's own Gauss-Kronrod rule, so importing
scipy.integrate, which would take most of a process's start-up, is never
needed.  Each command runs in a fresh interpreter, so the checks see
exactly the modules that command imports.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from pathgain import cli

# runs pathgain.cli.main on argv, then reports its exit code (that of
# SystemExit for --help), every scipy module and every pathgain submodule
# loaded by then, whether numpy and numpy.ma were, and every module, as the
# last line of stderr
_WRAPPER = """
import json, sys
from pathgain import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = {top: sorted(m for m in sys.modules if m.split(".")[0] == top
                      and m != top) for top in ("scipy", "pathgain")}
print(json.dumps({"code": code, **loaded, "numpy": "numpy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _report(*argv, code=0):
    proc = _python("-c", _WRAPPER, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == code, proc.stderr
    return report


def _run_cli(*argv):
    return _report(*argv)["scipy"]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "sweep.csv"
    assert cli.main(["predict", "configs/corridor_2ghz.ini", "los_corridor",
                     "5:70:20", "--output", str(path)]) == 0
    return str(path)


def _argv(command, sweep):
    return {
        "predict": ("predict", "configs/corridor_2ghz.ini", "los_corridor",
                    "5:70:20"),
        "fit": ("fit", sweep),
        "evaluate": ("evaluate", sweep, "configs/corridor_2ghz.ini",
                     "los_corridor"),
        "verify": ("verify", "trees"),
    }[command]


@pytest.mark.parametrize("command", ["predict", "fit", "evaluate"])
def test_closed_form_command_does_not_load_scipy(command, sweep):
    assert _run_cli(*_argv(command, sweep)) == []


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_verify_loads_no_scipy(profile):
    assert _run_cli("verify", "all", "--tolerance-profile", profile) == []


def test_fit_loads_only_cli_and_fitting(sweep):
    assert _report(*_argv("fit", sweep))["pathgain"] == [
        "pathgain.cli", "pathgain.fitting"]


def test_fit_loads_what_help_loads_and_its_reader(sweep):
    # beyond --help, fit loads its module, the csv reader and the codec of
    # its file, and no dataclasses (which loads inspect, ast and dis); both
    # sets come from one interpreter setup, so modules that site hooks
    # load are in both
    fit = set(_report(*_argv("fit", sweep))["modules"])
    assert fit - set(_report("--help")["modules"]) == {
        "pathgain.fitting", "csv", "_csv", "encodings.utf_8_sig"}


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_law_command_loads_no_oracle(command, sweep):
    loaded = set(_report(*_argv(command, sweep))["pathgain"])
    assert {"pathgain.config", "pathgain.canyon"} <= loaded
    assert not loaded & {"pathgain.verify", "pathgain.oracles"}


def test_predict_leaves_numpy_ma_unloaded(sweep):
    # np.unique imports numpy.ma, about 15 ms of start-up; predict labels
    # its flags without it
    assert _report(*_argv("predict", sweep))["numpy.ma"] is False


def test_verify_loads_no_config_or_fitting():
    loaded = set(_report("verify", "all")["pathgain"])
    assert {"pathgain.verify", "pathgain.oracles"} <= loaded
    assert not loaded & {"pathgain.config", "pathgain.fitting"}


@pytest.mark.parametrize("argv", [("--help",), ("predict", "--help"),
                                  ("verify", "--help"), ("fit", "--help"),
                                  ("evaluate", "--help")])
def test_help_loads_no_law_module(argv):
    report = _report(*argv)
    assert report["pathgain"] == ["pathgain.cli"]
    assert report["numpy"] is False


def test_usage_error_loads_no_law_module():
    # predict without its arguments: argparse rejects it, exit code 1
    report = _report("predict", code=cli.EXIT_VALIDATION)
    assert report["pathgain"] == ["pathgain.cli"]
    assert report["numpy"] is False


@pytest.mark.parametrize("command", ["predict", "evaluate", "verify"])
def test_computing_command_loads_numpy(command, sweep):
    # the control: the report does see numpy once a command computes
    assert _report(*_argv(command, sweep))["numpy"] is True


def test_fit_loads_no_numpy(sweep):
    # the reader, the record rule and the least squares are pure Python
    assert _report(*_argv("fit", sweep))["numpy"] is False


def test_importing_fit_modules_loads_no_numpy():
    proc = _python("-c", "import sys, pathgain.fitting, pathgain.reference, "
                         "pathgain.units\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
