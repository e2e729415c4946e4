"""One body per power law: each exponent the package passes to
`result.power_law` appears at exactly one call site, so every law of that
exponent runs the same function (and the oracle that checks it checks
them all)."""

import ast
from pathlib import Path

from pathgain import canyon, morphology

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pathgain").glob("*.py"))

# exponent -> (module, function) of its one call
BODIES = {1.5: ("canyon.py", "_waveguide"),
          2.0: ("reference.py", "friis_gain"),
          2.5: ("morphology.py", "_guided"),
          4.0: ("diffuse.py", "quartic_law")}


def _power_law_calls(path):
    """(exponent argument, enclosing top-level function) of each call of
    power_law in the module at path."""
    for function in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "power_law"
                    or getattr(node.func, "attr", None) == "power_law"):
                yield node.args[0], function.name


def test_each_exponent_has_one_body():
    calls = [(arg, (path.name, function)) for path in SOURCES
             for arg, function in _power_law_calls(path)]
    assert all(isinstance(arg, ast.Constant) for arg, _ in calls), \
        "every power_law exponent is a literal"
    assert sorted((arg.value, where) for arg, where in calls) == sorted(BODIES.items())


def test_one_link_record_per_input_path():
    # canyon.Link is the one check of a range and a carrier: LosLink is a
    # Link with a geometry, and the quartic laws of morphology pass their
    # checked scene values straight to quartic_law, building no DiffuseLink
    tree = ast.parse(Path(morphology.__file__).read_text(encoding="utf-8"))
    built = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "DiffuseLink" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))]
    assert built == []
    assert issubclass(canyon.LosLink, canyon.Link)
    assert morphology.Link is canyon.Link
