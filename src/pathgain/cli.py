"""Command-line interface: prediction sweeps, verification, fitting and
dataset evaluation.

Exit codes: 0 success, 1 validation failure (bad arguments, config or
dataset), 2 verification failure.  Outputs are deterministic for identical
inputs; all dB values are printed with two decimals.
"""

import argparse
import sys

import numpy as np

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


# The layers the commands call.  Each imports its module on the first call,
# and the commands call them through this module, so a caller can replace
# one here (the per-layer trace of the benchmark does).
def load_config(path):
    from .config import load_config
    return load_config(path)


def make_evaluator(cfg, name: str):
    from .config import make_evaluator
    return make_evaluator(cfg, name)


def tr38901_pathloss(scenario, distance_m):
    from .reference import tr38901_pathloss
    return tr38901_pathloss(scenario, distance_m)


def uma_nlos_36814(street_width_m, building_height_m, base_height_m,
                   mobile_height_m, f_ghz, d3d_m):
    from .reference import uma_nlos_36814
    return uma_nlos_36814(street_width_m, building_height_m, base_height_m,
                          mobile_height_m, f_ghz, d3d_m)


def load_dataset(path, frequency_hz: float):
    from .fitting import load_dataset
    return load_dataset(path, frequency_hz)


def fit_slope_intercept(dataset):
    from .fitting import fit_slope_intercept
    return fit_slope_intercept(dataset)


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


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise CliError(f"range spec must be min:max:points, got {spec!r}") from exc
    # comparisons with nan are false, so the chain also rejects nan and inf
    if not 0.0 < lo < hi < float("inf") or n < 2:
        raise CliError("range spec needs 0 < min < max and points >= 2")
    return np.geomspace(lo, hi, n)


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _table(header, fields, columns) -> str:
    """CSV text: the header, then one row per index of the columns, whose
    cell i is column i's value formatted by fields[i]."""
    row = ",".join(fields) + "\n"
    return ",".join(header) + "\n" + "".join(map(row.format, *columns))


def _flag_labels(flags: dict[str, np.ndarray], n: int) -> list[str]:
    """The ';'-joined names of the flags set at each of n ranges."""
    codes = np.zeros(n, dtype=np.int64)
    for bit, mask in enumerate(flags.values()):
        codes |= mask.astype(np.int64) << bit
    labels = {code: ";".join(name for bit, name in enumerate(flags) if code >> bit & 1)
              for code in np.unique(codes).tolist()}
    return [labels[code] for code in codes.tolist()]


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    evaluator = make_evaluator(cfg, args.morphology)
    ranges = _parse_sweep(args.ranges)
    result = evaluator(ranges)
    component_names = sorted(result.components)
    header = ["range_m", "path_gain_db"]
    header += [f"component_{name}_db" for name in component_names]
    header.append("flags")
    # one column per field, then one str.format per row
    fields, columns = ["{:.6g}", "{:.2f}"], [ranges.tolist(), result.gain_db.tolist()]
    for name in component_names:
        value = result.components[name]
        positive = value > 0.0
        value_db = (10.0 * np.log10(np.where(positive, value, 1.0))).tolist()
        if positive.all():
            fields.append("{:.2f}")
            columns.append(value_db)
        else:
            # a component that underflows to 0 has no dB value and prints empty
            fields.append("{}")
            columns.append([f"{v:.2f}" if ok else ""
                            for v, ok in zip(value_db, positive.tolist())])
    fields.append("{}")
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
        _write(args.output, _table(header, ["{}"] * len(header), zip(*rows)))
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_fit(args) -> int:
    # the fit is frequency-agnostic; the dataset carrier is irrelevant here
    dataset = load_dataset(args.dataset, frequency_hz=1.0)
    result = fit_slope_intercept(dataset)
    model = result.model
    sys.stdout.write(
        f"intercept_db_1m={model.intercept_db_1m:.2f} "
        f"exponent_n={model.exponent_n:.4f} "
        f"rmse_db={result.rmse_db:.2f} n_points={result.n_points}\n"
    )
    if args.output:
        _write(args.output, _table(
            ("intercept_db_1m", "exponent_n", "rmse_db", "n_points"),
            ("{:.2f}", "{:.4f}", "{:.2f}", "{}"),
            ([model.intercept_db_1m], [model.exponent_n], [result.rmse_db],
             [result.n_points])))
    return EXIT_OK


def _model_predictor(cfg, name: str):
    """dB-valued predictor, over a range or an array of ranges, for a
    morphology or reference model."""
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
        return lambda r: -uma_nlos_36814(m.street_width_m, m.clutter_height_m,
                                         m.base_height_m, m.mobile_height_m,
                                         f_ghz, r)
    _, family, condition = name.split("_")
    kwargs = {}
    if cfg.macro is not None:
        kwargs["base_height_m"] = cfg.macro.base_height_m
        kwargs["mobile_height_m"] = cfg.macro.mobile_height_m
    scenario = ThreeGppScenario({"uma": "UMa", "umi": "UMi", "inh": "InH"}[family],
                                condition.upper(), f_ghz, **kwargs)
    return lambda r: -tr38901_pathloss(scenario, r)


def cmd_evaluate(args) -> int:
    from .fitting import rms_db
    cfg = load_config(args.config)
    # built first: it rejects a config without [link] frequency_hz
    predict_db = _model_predictor(cfg, args.model)
    dataset = load_dataset(args.dataset, cfg.frequency_hz)
    predicted = predict_db(dataset.ranges_m)
    residual = dataset.gains_db - predicted
    sys.stdout.write(f"rmse_db={rms_db(residual):.2f} n_points={len(dataset)}\n")
    if args.output:
        columns = (dataset.ranges_m, dataset.gains_db, predicted, residual)
        _write(args.output, _table(
            ("range_m", "path_gain_db", "predicted_db", "residual_db"),
            ("{:.6g}", "{:.2f}", "{:.2f}", "{:.2f}"), [c.tolist() for c in columns]))
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
