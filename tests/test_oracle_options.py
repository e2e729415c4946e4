"""No oracle option that only tests set: every parameter of every public
function of `pathgain.oracles` is supplied, by position or by keyword, by
at least one call in the package or in the benchmark (`verify` and the gap
map are the oracles' users); a call through *args or **kwargs supplies
none.  A parameter with a default is an option only if its callers vary
it: one that every caller sets to the same literal is a fixed input.  A
test that needs another input builds it as a scene, or checks against a
reference of its own."""

import ast
import itertools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ROOT / "src" / "pathgain" / "oracles.py"
CALLERS = sorted([*(ROOT / "src" / "pathgain").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])

# (function, parameter) that every caller sets to one literal, with why it
# stays: files under bench/ change only together with the benchmark
FIXED_BY_BENCH = {
    ("image_sum_power", "include_ground"):
        "bench/gapmap.py passes include_ground=True; the sum always has the ground image",
}


def _public_functions():
    """name -> (positional parameter names in order, names of the parameters
    with a default, all parameter names) of each public top-level function."""
    functions = {}
    for node in ast.parse(ORACLES.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = [a.arg for a in (*args.posonlyargs, *args.args)]
            defaulted = {*positional[len(positional) - len(args.defaults):],
                         *(a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)}
            functions[node.name] = (positional, defaulted,
                                    [*positional, *(a.arg for a in args.kwonlyargs)])
    return functions


def _calls():
    """Every call in CALLERS, as (called name, node)."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                yield getattr(node.func, "id", None) or getattr(node.func, "attr", None), node


FUNCTIONS = _public_functions()


def _supplied(name, call):
    """parameter name -> value node of each parameter of `name` that call
    supplies: the positional arguments before the first *args, and the
    keywords other than **kwargs."""
    before_star = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args)
    supplied = dict(zip(FUNCTIONS[name][0], before_star))
    supplied.update((k.arg, k.value) for k in call.keywords if k.arg is not None)
    return supplied


def _unsupplied_and_fixed(name, calls):
    """The parameters of `name` that no call of it in `calls` supplies, and
    those with a default that every supplying call sets to one literal."""
    values = {param: [] for param in FUNCTIONS[name][2]}
    for called, call in calls:
        if called == name:
            for param, value in _supplied(name, call).items():
                values[param].append(value)
    fixed = [p for p in FUNCTIONS[name][1]
             if values[p] and all(isinstance(v, ast.Constant) for v in values[p])
             and len({repr(v.value) for v in values[p]}) == 1]
    return sorted(p for p, v in values.items() if not v), sorted(fixed)


def _parsed_calls(*sources):
    return [(call.func.id, call) for call in (ast.parse(s).body[0].value for s in sources)]


def test_guard_sees_the_oracles():
    assert {"image_sum_power", "oi_image_series_power", "guided_trees_series_power",
            "gauss_kronrod"} <= set(FUNCTIONS)


def test_star_arguments_supply_no_parameter():
    call = ast.parse("image_sum_power(*links, **options)").body[0].value
    assert _supplied("image_sum_power", call) == {}
    call = ast.parse("image_sum_power(link, *rest, include_ground=True)").body[0].value
    assert sorted(_supplied("image_sum_power", call)) == ["include_ground", "link"]


def test_guard_sees_a_parameter_every_caller_fixes():
    calls = _parsed_calls("image_sum_power(link, ctl, include_ground=True)",
                          "image_sum_power(link, include_ground=True)")
    assert _unsupplied_and_fixed("image_sum_power", calls) == ([], ["include_ground"])
    calls.extend(_parsed_calls("image_sum_power(link, include_ground=flag)"))
    assert _unsupplied_and_fixed("image_sum_power", calls) == ([], [])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_oracle_parameter_has_a_caller(name):
    unsupplied, fixed = _unsupplied_and_fixed(name, _calls())
    assert unsupplied == []
    assert [p for p in fixed if (name, p) not in FIXED_BY_BENCH] == []
