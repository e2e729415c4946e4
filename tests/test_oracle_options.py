"""No oracle option that only tests set: every parameter of every public
function of `pathgain.oracles` is supplied, by position or by keyword, by
at least one call in the package or in the benchmark (`verify` and the gap
map are the oracles' users); a call through *args or **kwargs supplies
none.  A parameter with a default is an option only if its callers vary
it: one that every caller sets to the same literal is a fixed input.  So
too every field of a public control record of `pathgain.oracles`: some
call of the record, or a `replace` of one, sets it to other than its
default.  A test that needs another input builds it as a scene, checks
against a reference of its own, or patches a module constant."""

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


def _oracle_module():
    return ast.parse(ORACLES.read_text(encoding="utf-8"))


def _public_functions():
    """name -> (positional parameter names in order, names of the parameters
    with a default, all parameter names) of each public top-level function."""
    functions = {}
    for node in _oracle_module().body:
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


def _control_records():
    """name -> {field: default value node} of each public dataclass."""
    return {node.name: {stmt.target.id: stmt.value for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)}
            for node in _oracle_module().body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)}


FUNCTIONS = _public_functions()
RECORDS = _control_records()


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


def _fields_set(record, calls):
    """The fields of `record` that some call in `calls` sets to a value
    other than the field's default literal: a call of the record, by
    position or keyword, or a keyword of a `replace` call."""
    fields, found = RECORDS[record], set()
    for called, call in calls:
        if called not in (record, "replace"):
            continue
        supplied = {} if called == "replace" else dict(zip(fields, itertools.takewhile(
            lambda a: not isinstance(a, ast.Starred), call.args)))
        supplied.update((k.arg, k.value) for k in call.keywords if k.arg in fields)
        found.update(name for name, value in supplied.items()
                     if not (isinstance(value, ast.Constant)
                             and isinstance(fields[name], ast.Constant)
                             and value.value == fields[name].value))
    return found


def test_guard_sees_the_control_records():
    assert "QuadratureControl" in RECORDS
    assert list(RECORDS["QuadratureControl"]) == ["abs_tol", "rel_tol"]


def test_guard_sees_fields_set_and_defaults_passed():
    calls = _parsed_calls("QuadratureControl(1e-14, rel_tol=1e-10)",
                          "replace(ctl, rel_tol=1e-11)")
    assert _fields_set("QuadratureControl", calls) == {"rel_tol"}
    calls = _parsed_calls("QuadratureControl(tol)")
    assert _fields_set("QuadratureControl", calls) == {"abs_tol"}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_every_control_field_is_set_by_a_caller(record):
    assert sorted(set(RECORDS[record]) - _fields_set(record, _calls())) == []
