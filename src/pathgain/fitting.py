"""Measurement ingestion, slope-intercept fitting and model RMSE evaluation.

Measured path gain is assumed pre-averaged over multipath fading.  RMSE
against a model keeps any mean bias (bias counts as error), and fit
residuals are population RMS, so an ordinary least squares fit is optimal
among slope-intercept models under exactly the metric reported here.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .reference import SlopeIntercept

# Path gain above this is considered a unit/parse error, not a measurement.
PATH_GAIN_SANITY_DB = 20.0

CSV_REQUIRED = ("range_m", "path_gain_db")
CSV_OPTIONAL = ("street", "flag")


class DatasetError(ValueError):
    """Malformed dataset content (bad CSV, bad record, degenerate fit)."""


@dataclass(frozen=True)
class MeasurementRecord:
    range_m: float
    path_gain_db: float
    street: str = ""
    flag: str = ""

    def __post_init__(self):
        if not math.isfinite(self.range_m) or not math.isfinite(self.path_gain_db):
            raise DatasetError("record fields must be finite")
        if self.range_m <= 0.0:
            raise DatasetError(f"range must be positive, got {self.range_m}")
        if self.path_gain_db >= PATH_GAIN_SANITY_DB:
            raise DatasetError(
                f"path gain {self.path_gain_db} dB exceeds sanity bound"
            )


@dataclass(frozen=True)
class MeasurementDataset:
    """Ordered measurement records sharing one carrier frequency."""

    records: tuple[MeasurementRecord, ...]
    frequency_hz: float
    morphology: str = ""

    def __post_init__(self):
        if self.frequency_hz <= 0.0:
            raise DatasetError("dataset frequency must be positive")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def ranges_m(self) -> np.ndarray:
        return np.array([rec.range_m for rec in self.records])

    @property
    def gains_db(self) -> np.ndarray:
        return np.array([rec.path_gain_db for rec in self.records])


@dataclass(frozen=True)
class FitResult:
    model: SlopeIntercept
    rmse_db: float
    n_points: int


def read_csv_records(path) -> list[MeasurementRecord]:
    """Read `range_m,path_gain_db[,street,flag]` records from a CSV file.

    Extra columns (e.g. per-component gains written by prediction sweeps)
    are ignored so any CSV this package emits can be read back.  NaN or
    infinite values are rejected with the offending line number.
    """
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = [c for c in CSV_REQUIRED if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path}: missing column(s) {', '.join(missing)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                records.append(MeasurementRecord(
                    range_m=float(row["range_m"]),
                    path_gain_db=float(row["path_gain_db"]),
                    street=row.get("street") or "",
                    flag=row.get("flag") or "",
                ))
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}: line {line_no}: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no data rows")
    return records


def load_dataset(path, frequency_hz: float, morphology: str = "") -> MeasurementDataset:
    return MeasurementDataset(tuple(read_csv_records(path)), frequency_hz,
                              morphology)


def fit_slope_intercept(dataset: MeasurementDataset) -> FitResult:
    """Ordinary least squares of path gain (dB) on log10(range).

    Returns the 1-m intercept, the distance exponent n = -slope/10 and the
    RMS residual.  Needs at least two distinct ranges.
    """
    if len(dataset) < 2:
        raise DatasetError("fit needs at least two records")
    x = np.log10(dataset.ranges_m)
    y = dataset.gains_db
    if np.ptp(x) == 0.0:
        raise DatasetError("fit needs at least two distinct ranges")
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residual = y - (intercept + slope * x)
    return FitResult(SlopeIntercept(intercept, -slope / 10.0), rms_db(residual),
                     len(dataset))


def rms_db(residual_db: np.ndarray) -> float:
    """Root mean square of residuals in dB."""
    return float(np.sqrt(np.mean(residual_db**2)))


def model_predictions_db(dataset: MeasurementDataset, predict_db) -> np.ndarray:
    """predict_db (range in meters -> path gain in dB) at every record's
    range, called once per record.

    Evaluation failures are reported with the record index.
    """
    if len(dataset) == 0:
        raise DatasetError("dataset is empty")
    predicted = np.empty(len(dataset))
    for i, rec in enumerate(dataset.records):
        try:
            predicted[i] = predict_db(rec.range_m)
        except Exception as exc:
            raise DatasetError(
                f"model evaluation failed on record {i} (range "
                f"{rec.range_m} m): {exc}"
            ) from exc
    return predicted


def rmse_against_model(dataset: MeasurementDataset, predict_db) -> float:
    """RMS of (measured - predicted) path gain in dB over all records.

    predict_db maps a range in meters to a predicted path gain in dB.  No
    mean-bias removal: a constant model offset shows up in full.
    Evaluation failures are reported with the record index.
    """
    return rms_db(dataset.gains_db - model_predictions_db(dataset, predict_db))


@dataclass(frozen=True)
class StreetEvaluation:
    """One street's dataset with its model predictors (dB as a function of
    range in meters)."""

    name: str
    dataset: MeasurementDataset
    predictors: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]  # (street name, n_points, {column: rmse_db})


def model_error_table(streets: list[StreetEvaluation]) -> ErrorTable:
    """Per-street and pooled RMSE of each model, plus a slope-intercept fit.

    The per-street "fit" column fits that street's own data; the pooled row
    fits a single line to all records together, so streets at different
    levels inflate it even when each street alone fits perfectly.  Model
    columns pool squared residuals across streets.
    """
    if not streets:
        raise DatasetError("no streets to evaluate")
    model_names = list(streets[0].predictors)
    for ev in streets:
        if list(ev.predictors) != model_names:
            raise DatasetError("streets must share the same predictor set")
    columns = ("fit", *model_names)

    rows = []
    pooled_records = []
    pooled_sq = {name: [] for name in model_names}
    for ev in streets:
        cells = {"fit": fit_slope_intercept(ev.dataset).rmse_db}
        for name in model_names:
            rmse = rmse_against_model(ev.dataset, ev.predictors[name])
            cells[name] = rmse
            pooled_sq[name].append(rmse**2 * len(ev.dataset))
        rows.append((ev.name, len(ev.dataset), cells))
        pooled_records.extend(ev.dataset.records)

    pooled = MeasurementDataset(tuple(pooled_records),
                                streets[0].dataset.frequency_hz)
    total = len(pooled)
    overall = {"fit": fit_slope_intercept(pooled).rmse_db}
    for name in model_names:
        overall[name] = math.sqrt(sum(pooled_sq[name]) / total)
    rows.append(("Overall", total, overall))
    return ErrorTable(columns, tuple(rows))
