"""Measurement ingestion, slope-intercept fitting and model RMSE evaluation.

Measured path gain is assumed pre-averaged over multipath fading.  RMSE
against a model keeps any mean bias (bias counts as error), and fit
residuals are population RMS, so an ordinary least squares fit is optimal
among slope-intercept models under exactly the metric reported here.

Measurements have one form: the (ranges, gains) lists of floats that
`read_records` returns, checked once as it reads them.  The reader, the
record rule and the fit are pure Python, so `pathgain fit` loads no numpy;
`rmse_against_model` imports it to call its predictor on an array.  The
fit's record is a `collections.namedtuple`, not a dataclass: `import
dataclasses` loads `inspect`, `ast` and `dis`, which no line of `fit`
uses.
"""

import csv
import io
import math
from collections import namedtuple
from operator import mul

# Path gain above this is considered a unit/parse error, not a measurement.
PATH_GAIN_SANITY_DB = 20.0

CSV_REQUIRED = ("range_m", "path_gain_db")


class DatasetError(ValueError):
    """Malformed dataset content (bad CSV, bad record, degenerate fit)."""


def _first_invalid(ranges, gains) -> tuple[int, str] | None:
    """Index and message of the first record, of two sequences of floats,
    that is not finite, has a range <= 0 or a gain at or above
    PATH_GAIN_SANITY_DB; None if none."""
    for i, (range_m, gain_db) in enumerate(zip(ranges, gains)):
        # NaN fails both chains, as it fails every comparison
        if not (0.0 < range_m < math.inf and -math.inf < gain_db < PATH_GAIN_SANITY_DB):
            if not (math.isfinite(range_m) and math.isfinite(gain_db)):
                return i, "record fields must be finite"
            if range_m <= 0.0:
                return i, f"range must be positive, got {range_m}"
            return i, f"path gain {gain_db} dB exceeds sanity bound"
    return None


FitResult = namedtuple("FitResult", "intercept_db_1m exponent_n rmse_db n_points")
FitResult.__doc__ = """The line intercept_db_1m - 10 exponent_n log10(r) (dB) and its RMS."""


def read_records(path) -> tuple[list[float], list[float]]:
    """The `range_m` and `path_gain_db` columns of a CSV file, as two lists
    of floats.

    Other columns (e.g. per-component gains written by prediction sweeps)
    are ignored, so any CSV this package emits can be read back, and blank
    lines are skipped.  A cell float() rejects, or a record that is not
    finite, has a range <= 0 or a gain at the sanity bound, is reported
    with the line it is on; a file that is not UTF-8, with its path.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    ranges, gains, lines = [], [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file")
    missing = [c for c in CSV_REQUIRED if c not in header]
    if missing:
        raise DatasetError(f"{path}: missing column(s) {', '.join(missing)}")
    # the last of repeated column names wins, as in csv.DictReader
    columns = [len(header) - 1 - header[::-1].index(c) for c in CSV_REQUIRED]
    i_range, i_gain = columns
    for row in reader:
        if not row:
            continue
        try:
            range_m, gain_db = float(row[i_range]), float(row[i_gain])
        except (IndexError, ValueError):
            _check_records(path, ranges, gains, lines)  # an earlier record fails first
            # convert again for the message, reading a cell past the end
            # of a short row as None, as csv.DictReader does
            try:
                for i in columns:
                    float(row[i] if i < len(row) else None)
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from exc
        ranges.append(range_m)
        gains.append(gain_db)
        lines.append(reader.line_num)
    if not ranges:
        raise DatasetError(f"{path}: no data rows")
    _check_records(path, ranges, gains, lines)
    return ranges, gains


def _check_records(path, ranges: list, gains: list, lines: list) -> None:
    """Raise DatasetError naming the line of the first invalid record."""
    invalid = _first_invalid(ranges, gains)
    if invalid:
        i, message = invalid
        raise DatasetError(f"{path}: line {lines[i]}: {message}")


def load_dataset(path, frequency_hz: float) -> tuple[list[float], list[float]]:
    """`read_records(path)`.  frequency_hz is not read: the benchmark's
    traced probe passes one."""
    return read_records(path)


def _fsum(values) -> float:
    """math.fsum, or nan for a sum past the float range or of +inf and -inf
    (where fsum raises)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def fit_slope_intercept(records) -> FitResult:
    """Ordinary least squares of path gain (dB) on log10(range), over the
    (ranges, gains) lists `read_records` returns.

    Returns the 1-m intercept, the distance exponent n = -slope/10 and the
    RMS residual, from exactly rounded sums of the centred values.  Needs
    at least two distinct ranges; raises DatasetError for a fit or RMS that
    is not finite, and for a fitted exponent that is not positive.
    """
    ranges, gains = records
    n = len(ranges)
    if len(gains) != n:
        raise DatasetError("ranges and gains must be of equal length")
    if n < 2:
        raise DatasetError("fit needs at least two records")
    x = list(map(math.log10, ranges))
    if x.count(x[0]) == n:
        raise DatasetError("fit needs at least two distinct ranges")
    x_mean, y_mean = math.fsum(x) / n, _fsum(gains) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in gains]
    slope = _fsum(map(mul, dx, dy)) / math.fsum(map(mul, dx, dx))
    intercept = y_mean - slope * x_mean
    if not math.isfinite(intercept):
        raise DatasetError("fit is not finite")
    exponent = -slope / 10.0 + 0.0  # + 0.0: a flat fit reads 0, not -0
    if not exponent > 0.0:
        raise DatasetError("distance exponent must be positive, "
                           f"the fit gives {exponent:.4f}")
    # the residuals of the returned line itself
    residual = [y - (intercept + slope * v) for v, y in zip(x, gains)]
    return FitResult(intercept, exponent, rms_db(residual), n)


def rms_db(residual_db: list[float]) -> float:
    """Root mean square of residuals in dB, a list of floats; raises
    DatasetError when there are none or it is not finite."""
    if not residual_db:
        raise DatasetError("RMS needs at least one residual")
    rms = math.sqrt(_fsum(map(mul, residual_db, residual_db)) / len(residual_db))
    if not math.isfinite(rms):
        raise DatasetError("RMS of the residuals is not finite")
    return rms


def rmse_against_model(records, predict_db) -> float:
    """RMS of (measured - predicted) path gain in dB over the (ranges, gains)
    lists `read_records` returns.

    predict_db maps an array of ranges in meters to predicted path gains in
    dB; it is called once, with the ranges of all records, and an error it
    raises reaches the caller unchanged.  No mean-bias removal: a constant
    model offset shows up in full.  Lists of unequal length, no records,
    or an RMS that is not finite raise DatasetError.
    """
    import numpy as np
    ranges, gains = records
    if len(gains) != len(ranges):  # numpy would broadcast a single gain
        raise DatasetError("ranges and gains must be of equal length")
    return rms_db((np.array(gains) - predict_db(np.array(ranges))).tolist())
