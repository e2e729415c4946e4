"""Command-line interface: prediction sweeps, verification, fitting and
dataset evaluation.

Exit codes: 0 success, 1 validation failure (bad arguments, config or
dataset), 2 verification failure.  Outputs are deterministic for identical
inputs; all dB values are printed with two decimals.
"""

import argparse
import io
import math
import sys

import numpy as np

from . import verify
from .config import MORPHOLOGIES, ConfigError, load_config, make_evaluator
from .fitting import fit_slope_intercept, load_dataset, model_predictions_db, rms_db
from .reference import ThreeGppScenario, tr38901_pathloss, uma_nlos_36814

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

REFERENCE_MODELS = ("tr38901_uma_los", "tr38901_uma_nlos", "tr38901_umi_los",
                    "tr38901_umi_nlos", "tr38901_inh_los", "tr38901_inh_nlos",
                    "uma_nlos_36814")


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
    predict.add_argument("morphology", help="one of: " + ", ".join(MORPHOLOGIES))
    predict.add_argument("ranges", help="sweep spec min:max:points (meters)")
    predict.add_argument("--output", help="CSV output path (default stdout)")

    ver = sub.add_parser("verify", help="run oracle-vs-closed-form suites")
    ver.add_argument("suite", help="suite name or 'all': "
                     + ", ".join(verify.SUITES))
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
    ev.add_argument("--frequency-hz", type=float, default=None,
                    help="dataset carrier if not taken from the config")
    ev.add_argument("--output", help="CSV output path for per-record residuals")
    return parser


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise CliError(f"range spec must be min:max:points, got {spec!r}") from exc
    if lo <= 0.0 or hi <= lo or n < 2:
        raise CliError("range spec needs 0 < min < max and points >= 2")
    return np.geomspace(lo, hi, n)


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    evaluator = make_evaluator(cfg, args.morphology)
    ranges = _parse_sweep(args.ranges)
    results = [evaluator(float(r)) for r in ranges]
    component_names = sorted({name for res in results for name in res.components})
    buf = io.StringIO()
    header = ["range_m", "path_gain_db"]
    header += [f"component_{name}_db" for name in component_names]
    header.append("flags")
    buf.write(",".join(header) + "\n")
    for r, res in zip(ranges, results):
        row = [f"{r:.6g}", f"{res.gain_db:.2f}"]
        for name in component_names:
            value = res.components.get(name)
            row.append("" if value is None or value <= 0.0
                       else f"{10.0 * math.log10(value):.2f}")
        row.append(";".join(res.flags))
        buf.write(",".join(row) + "\n")
    _write(args.output, buf.getvalue())
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    comparisons = verify.run_suites(names, args.tolerance_profile)
    width = max(len(c.name) for c in comparisons) + 2
    lines = [f"{'comparison':<{width}}{'closed_db':>11}{'oracle_db':>11}"
             f"{'gap_db':>9}{'bound_db':>10}  status  flags"]
    failed = []
    for c in comparisons:
        status = "PASS" if c.passed else "FAIL"
        if not c.passed:
            failed.append(c.name)
        lines.append(f"{c.name:<{width}}{c.closed_db:>11.2f}{c.oracle_db:>11.2f}"
                     f"{c.gap_db:>9.2f}{c.bound_db:>10.2f}  {status}"
                     f"  {';'.join(c.flags)}")
    lines.append(f"{len(comparisons) - len(failed)}/{len(comparisons)} comparisons passed")
    if failed:
        lines.append("FAILED: " + ", ".join(failed))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        buf = io.StringIO()
        buf.write("comparison,closed_db,oracle_db,gap_db,bound_db,status,flags\n")
        for c in comparisons:
            buf.write(f"{c.name},{c.closed_db:.2f},{c.oracle_db:.2f},"
                      f"{c.gap_db:.2f},{c.bound_db:.2f},"
                      f"{'PASS' if c.passed else 'FAIL'},"
                      f"{';'.join(c.flags)}\n")
        _write(args.output, buf.getvalue())
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_fit(args) -> int:
    # the fit is frequency-agnostic; the dataset carrier is irrelevant here
    records = load_dataset(args.dataset, frequency_hz=1.0)
    result = fit_slope_intercept(records)
    sys.stdout.write(
        f"intercept_db_1m={result.model.intercept_db_1m:.2f} "
        f"exponent_n={result.model.exponent_n:.4f} "
        f"rmse_db={result.rmse_db:.2f} n_points={result.n_points}\n"
    )
    if args.output:
        _write(args.output,
               "intercept_db_1m,exponent_n,rmse_db,n_points\n"
               f"{result.model.intercept_db_1m:.2f},"
               f"{result.model.exponent_n:.4f},"
               f"{result.rmse_db:.2f},{result.n_points}\n")
    return EXIT_OK


def _model_predictor(cfg, name: str):
    """dB-valued range predictor for a morphology or reference model."""
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
    cfg = load_config(args.config)
    frequency = args.frequency_hz or cfg.frequency_hz
    if frequency is None:
        raise CliError("dataset frequency unknown: set [link] frequency_hz "
                       "in the config or pass --frequency-hz")
    dataset = load_dataset(args.dataset, frequency_hz=frequency)
    predicted = model_predictions_db(dataset, _model_predictor(cfg, args.model))
    residual = dataset.gains_db - predicted
    sys.stdout.write(f"rmse_db={rms_db(residual):.2f} n_points={len(dataset)}\n")
    if args.output:
        buf = io.StringIO()
        buf.write("range_m,path_gain_db,predicted_db,residual_db\n")
        for rec, value, res in zip(dataset.records, predicted, residual):
            buf.write(f"{rec.range_m:.6g},{rec.path_gain_db:.2f},"
                      f"{value:.2f},{res:.2f}\n")
        _write(args.output, buf.getvalue())
    return EXIT_OK


_COMMANDS = {"predict": cmd_predict, "verify": cmd_verify, "fit": cmd_fit,
             "evaluate": cmd_evaluate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"pathgain: error: {exc}\n")
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
