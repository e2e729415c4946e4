"""Measurement ingestion, slope-intercept fitting and model RMSE evaluation.

Measured path gain is assumed pre-averaged over multipath fading.  RMSE
against a model keeps any mean bias (bias counts as error), and fit
residuals are population RMS, so an ordinary least squares fit is optimal
among slope-intercept models under exactly the metric reported here.

The reader, the record rule and the fit are pure Python, so `pathgain fit`
loads no numpy; `MeasurementDataset` imports it to hold its arrays.  The
two record classes are a plain class and a `collections.namedtuple`, not
dataclasses: `import dataclasses` loads `inspect`, `ast` and `dis`, which
no line of `fit` uses.
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


class MeasurementDataset:
    """Measured path gain (dB) at ranges (m), as two read-only 1-D float
    arrays of equal length, sharing one carrier frequency.  Its attributes
    cannot be set, and two datasets are equal only if they are one."""

    def __init__(self, ranges_m, gains_db, frequency_hz: float):
        import numpy as np
        ranges = np.array(ranges_m, dtype=float)
        gains = np.array(gains_db, dtype=float)
        if ranges.ndim != 1 or ranges.shape != gains.shape:
            raise DatasetError("ranges and gains must be 1-D arrays of equal length")
        invalid = _first_invalid(ranges.tolist(), gains.tolist())
        if invalid:
            raise DatasetError(invalid[1])
        if not (frequency_hz > 0.0 and math.isfinite(frequency_hz)):
            raise DatasetError("dataset frequency must be finite and positive")
        ranges.flags.writeable = gains.flags.writeable = False
        self.__dict__.update(ranges_m=ranges, gains_db=gains, frequency_hz=frequency_hz)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.ranges_m)


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


def load_dataset(path, frequency_hz: float) -> MeasurementDataset:
    """The records `read_records` reads from a CSV file, as a dataset at
    the carrier frequency_hz."""
    return MeasurementDataset(*read_records(path), frequency_hz)


def _fsum(values) -> float:
    """math.fsum, or nan for a sum past the float range or of +inf and -inf
    (where fsum raises)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def fit_slope_intercept(records) -> FitResult:
    """Ordinary least squares of path gain (dB) on log10(range), over a
    MeasurementDataset or the (ranges, gains) lists `read_records` returns.

    Returns the 1-m intercept, the distance exponent n = -slope/10 and the
    RMS residual, from exactly rounded sums of the centred values.  Needs
    at least two distinct ranges; raises DatasetError for a fit or RMS that
    is not finite, and for a fitted exponent that is not positive.
    """
    if isinstance(records, MeasurementDataset):
        records = records.ranges_m.tolist(), records.gains_db.tolist()
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


def rmse_against_model(dataset: MeasurementDataset, predict_db) -> float:
    """RMS of (measured - predicted) path gain in dB over all records.

    predict_db maps an array of ranges in meters to predicted path gains in
    dB; it is called once, with the ranges of all records, and an error it
    raises reaches the caller unchanged.  No mean-bias removal: a constant
    model offset shows up in full.  An RMS that is not finite raises
    DatasetError.
    """
    if len(dataset) == 0:
        raise DatasetError("dataset is empty")
    return rms_db((dataset.gains_db - predict_db(dataset.ranges_m)).tolist())
