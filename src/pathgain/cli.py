"""Command-line interface: prediction sweeps, verification, fitting and
dataset evaluation.

Exit codes: 0 success, 1 validation failure (bad arguments, config or
dataset), 2 verification failure.  Outputs are deterministic for identical
inputs; all dB values are printed with two decimals.
"""

import argparse
import importlib
import re
import sys
from itertools import chain

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

REFERENCE_MODELS = ("tr38901_uma_los", "tr38901_uma_nlos", "tr38901_umi_los",
                    "tr38901_umi_nlos", "tr38901_inh_los", "tr38901_inh_nlos",
                    "uma_nlos_36814")
# the names `--help` lists, in the order of config.MORPHOLOGIES and
# verify.SUITES, which only the commands that run them import
MORPHOLOGY_NAMES = ("los_corridor", "los_corridor_coherent", "suburban_street",
                    "suburban_indoor", "over_top", "rural", "outdoor_indoor",
                    "sidewalk_trees", "canyon_total", "friis")
SUITE_NAMES = ("canyon", "outdoor_indoor", "trees", "diffuse", "roughness")


def _layer(module: str, name: str):
    """The function `name` of pathgain.<module>, which imports the module on
    its first call."""
    def layer(*args):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args)
    layer.__name__ = layer.__qualname__ = name
    return layer


# The layers the commands call.  The commands call them through this
# module, so a caller can replace one here (the per-layer trace of the
# benchmark does).  Numpy too is imported only by the code that computes,
# so `--help` and a usage error load argparse and this module alone.
load_config = _layer("config", "load_config")
make_evaluator = _layer("config", "make_evaluator")
tr38901_pathloss = _layer("reference", "tr38901_pathloss")
uma_nlos_36814 = _layer("reference", "uma_nlos_36814")
read_records = _layer("fitting", "read_records")
fit_slope_intercept = _layer("fitting", "fit_slope_intercept")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(ValueError):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="pathgain",
                     description="Path gain prediction, verification and fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="sweep a morphology over range")
    predict.add_argument("config", help="environment config file")
    predict.add_argument("morphology", help="one of: " + ", ".join(MORPHOLOGY_NAMES))
    predict.add_argument("ranges", help="sweep spec min:max:points (meters)")
    # argparse reads an argument that starts with '-' as an option unless it
    # looks like a negative number; here that includes a spec such as
    # -1:10:3, so `_parse_sweep` rejects it with its own message
    predict._negative_number_matcher = re.compile(r"-[\d.].*")
    predict.add_argument("--output", help="CSV output path (default stdout)")

    ver = sub.add_parser("verify", help="run oracle-vs-closed-form suites")
    ver.add_argument("suite", help="suite name or 'all': "
                     + ", ".join(SUITE_NAMES))
    ver.add_argument("--tolerance-profile", choices=["strict", "default"],
                     default="default")
    ver.add_argument("--output", help="CSV output path for the gap table")

    fit = sub.add_parser("fit", help="slope-intercept fit of a dataset CSV")
    fit.add_argument("dataset", help="CSV with range_m,path_gain_db columns")
    fit.add_argument("--output", help="CSV output path for the fit result")

    ev = sub.add_parser("evaluate", help="RMSE of a model against a dataset")
    ev.add_argument("dataset", help="CSV with range_m,path_gain_db columns")
    ev.add_argument("config", help="environment config file")
    ev.add_argument("model", help="morphology or reference model name")
    ev.add_argument("--output", help="CSV output path for per-record residuals")
    return parser


def _parse_sweep(spec: str):
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise CliError(f"range spec must be min:max:points, got {spec!r}") from exc
    # comparisons with nan are false, so the chain also rejects nan and inf
    if not 0.0 < lo < hi < float("inf") or n < 2:
        raise CliError("range spec needs 0 < min < max and points >= 2")
    import numpy as np
    return np.geomspace(lo, hi, n)


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _table(header, fields, columns) -> str:
    """CSV text: the header, then one row per index of the columns, whose
    cell i is column i's value formatted by the `%` spec fields[i]."""
    # one `%` over the whole table: a tuple of every cell, row after row
    cells = tuple(chain.from_iterable(zip(*columns)))
    body = (",".join(fields) + "\n") * (len(cells) // len(fields)) % cells
    return ",".join(header) + "\n" + body


def _flag_labels(flags: dict, n: int) -> list[str]:
    """The ';'-joined names of the flags set at each of n ranges (each a
    boolean array)."""
    import numpy as np
    codes = np.zeros(n, dtype=np.int64)
    for bit, mask in enumerate(flags.values()):
        codes |= mask.astype(np.int64) << bit
    # deduplicated in Python: np.unique would load numpy.ma into every predict
    codes = codes.tolist()
    labels = {code: ";".join(name for bit, name in enumerate(flags) if code >> bit & 1)
              for code in set(codes)}
    return [labels[code] for code in codes]


def cmd_predict(args) -> int:
    import numpy as np
    cfg = load_config(args.config)
    evaluator = make_evaluator(cfg, args.morphology)
    ranges = _parse_sweep(args.ranges)
    result = evaluator(ranges)
    component_names = sorted(result.components)
    header = ["range_m", "path_gain_db"]
    header += [f"component_{name}_db" for name in component_names]
    header.append("flags")
    # one column per field, then one `%` over the table
    fields, columns = ["%.6g", "%.2f"], [ranges.tolist(), result.gain_db.tolist()]
    for name in component_names:
        value = result.components[name]
        positive = value > 0.0
        value_db = (10.0 * np.log10(np.where(positive, value, 1.0))).tolist()
        if positive.all():
            fields.append("%.2f")
            columns.append(value_db)
        else:
            # a component that underflows to 0 has no dB value and prints empty
            fields.append("%s")
            columns.append([f"{v:.2f}" if ok else ""
                            for v, ok in zip(value_db, positive.tolist())])
    fields.append("%s")
    columns.append(_flag_labels(result.flags, len(ranges)))
    _write(args.output, _table(header, fields, columns))
    return EXIT_OK


def _two_decimals(value: float) -> str:
    """A dB value with two decimals; one that rounds to zero prints 0.00,
    never -0.00, so round-off of an exact gap cannot flip its sign."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def cmd_verify(args) -> int:
    from . import verify
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    comparisons = verify.run_suites(names, args.tolerance_profile)
    header = ("comparison", "closed_db", "oracle_db", "gap_db", "bound_db",
              "status", "flags")
    # each comparison's cells, for the table and the CSV alike
    rows = [(c.name, *map(_two_decimals, (c.closed_db, c.oracle_db, c.gap_db)),
             f"{c.bound_db:.2f}", "PASS" if c.passed else "FAIL", ";".join(c.flags))
            for c in comparisons]
    width = max(len(c.name) for c in comparisons) + 2
    line = f"{{:<{width}}}{{:>11}}{{:>11}}{{:>9}}{{:>10}}  {{}}  {{}}"
    lines = [line.format(*cells) for cells in (header, *rows)]
    failed = [c.name for c in comparisons if not c.passed]
    lines.append(f"{len(comparisons) - len(failed)}/{len(comparisons)} comparisons passed")
    if failed:
        lines.append("FAILED: " + ", ".join(failed))
    sys.stdout.write("\n".join(lines) + "\n")
    if args.output:
        _write(args.output, _table(header, ["%s"] * len(header), zip(*rows)))
    return EXIT_VERIFICATION if failed else EXIT_OK


def _of_dataset(path, compute, *args):
    """compute(*args), with the dataset path before the message of a
    DatasetError it raises (a degenerate fit, or a fit or RMS that is not
    finite)."""
    from .fitting import DatasetError
    try:
        return compute(*args)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def cmd_fit(args) -> int:
    result = _of_dataset(args.dataset, fit_slope_intercept, read_records(args.dataset))
    header = ("intercept_db_1m", "exponent_n", "rmse_db", "n_points")
    fields = ("%.2f", "%.4f", "%.2f", "%s")
    values = [getattr(result, name) for name in header]
    sys.stdout.write(" ".join(f"{name}={spec % value}" for name, spec, value
                              in zip(header, fields, values)) + "\n")
    if args.output:
        _write(args.output, _table(header, fields, [[value] for value in values]))
    return EXIT_OK


def _model_predictor(cfg, name: str):
    """dB-valued predictor, over a range or an array of ranges, for a
    morphology or reference model.  A reference model runs with numpy's
    float warnings off and raises ValueError where a value is not finite."""
    from .config import MORPHOLOGIES, ConfigError
    from .reference import ThreeGppScenario
    if name in MORPHOLOGIES:
        evaluator = make_evaluator(cfg, name)
        return lambda r: evaluator(r).gain_db
    if name not in REFERENCE_MODELS:
        raise ConfigError(
            f"unknown model {name!r}; choose a morphology "
            f"({', '.join(MORPHOLOGIES)}) or reference model "
            f"({', '.join(REFERENCE_MODELS)})"
        )
    if cfg.frequency_hz is None:
        raise ConfigError(f"{cfg.path}: model {name!r} needs [link] frequency_hz")
    f_ghz = cfg.frequency_hz / 1e9
    if name == "uma_nlos_36814":
        if cfg.macro is None:
            raise ConfigError(f"{cfg.path}: model {name!r} needs a [macro] block")
        m = cfg.macro
        model, args = uma_nlos_36814, (m.street_width_m, m.clutter_height_m,
                                       m.base_height_m, m.mobile_height_m, f_ghz)
    else:
        _, family, condition = name.split("_")
        kwargs = {}
        if cfg.macro is not None:
            kwargs["base_height_m"] = cfg.macro.base_height_m
            kwargs["mobile_height_m"] = cfg.macro.mobile_height_m
        scenario = ThreeGppScenario({"uma": "UMa", "umi": "UMi", "inh": "InH"}[family],
                                    condition.upper(), f_ghz, **kwargs)
        model, args = tr38901_pathloss, (scenario,)

    def predict(r):
        import numpy as np
        with np.errstate(all="ignore"):
            db = -model(*args, r)
        if not np.isfinite(db).all():
            raise ConfigError(f"{cfg.path}: {name} path loss is not finite: "
                              "a scene value is out of float range")
        return db
    return predict


def cmd_evaluate(args) -> int:
    import numpy as np
    from .fitting import rms_db
    cfg = load_config(args.config)
    # built first: it rejects a config without [link] frequency_hz
    predict_db = _model_predictor(cfg, args.model)
    ranges, gains = read_records(args.dataset)
    predicted = predict_db(np.array(ranges)).tolist()
    residual = [g - p for g, p in zip(gains, predicted)]
    rmse_db = _of_dataset(args.dataset, rms_db, residual)
    sys.stdout.write(f"rmse_db={rmse_db:.2f} n_points={len(ranges)}\n")
    if args.output:
        _write(args.output, _table(
            ("range_m", "path_gain_db", "predicted_db", "residual_db"),
            ("%.6g", "%.2f", "%.2f", "%.2f"), (ranges, gains, predicted, residual)))
    return EXIT_OK


_COMMANDS = {"predict": cmd_predict, "verify": cmd_verify, "fit": cmd_fit,
             "evaluate": cmd_evaluate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"pathgain: error: {exc}\n")
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
