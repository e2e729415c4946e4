"""Differential test of `fitting.fit_slope_intercept` against the numpy
least squares it replaced.

`lstsq_fit` below is that fit: `np.linalg.lstsq` on the design [1, log10 r],
then the population RMS of the residuals of the fitted line.  The package's
fit is pure Python (exactly rounded sums of the centred values), so
`pathgain fit` loads no numpy.  On any records both must give the same
intercept, exponent and RMS to 1e-9, relative or absolute, and `pathgain fit`
must print the line that the reference values print, wherever no value lies
within 1e-9 of a rounding boundary of its printed digits.

Ranges are drawn log-uniform on 1e-3 to 1e6 m, on a grid of 1e-3 decades:
two ranges closer than that make a design so ill-conditioned that the two
methods part in the tenth digit.  Gains are drawn from -1000 to 20 dB, wider
than any path gain: the RMS of records on an exact line is rounding noise of
the size of the gains times 1e-16, which neither method resolves to 1e-9
once gains reach 1e7 dB.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathgain import cli
from pathgain.fitting import (PATH_GAIN_SANITY_DB, DatasetError, MeasurementDataset,
                              fit_slope_intercept)

TOLERANCE = 1e-9


def lstsq_fit(ranges, gains) -> tuple[float, float, float]:
    """(intercept, exponent, RMS) of the replaced numpy least squares."""
    x = np.log10(ranges)
    y = np.array(gains)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residual = y - (intercept + slope * x)
    return intercept, -slope / 10.0, float(np.sqrt(np.mean(residual**2)))


def fit_line(intercept, exponent, rmse, n) -> str:
    """The stdout line of `pathgain fit`, formatted as cmd_fit does."""
    return (f"intercept_db_1m={intercept:.2f} exponent_n={exponent:.4f} "
            f"rmse_db={rmse:.2f} n_points={n}\n")


def near_rounding_boundary(value: float, spec: str) -> bool:
    step = max(TOLERANCE, TOLERANCE * abs(value))
    return format(value - step, spec) != format(value + step, spec)


# (log10 of the range in millidecades, gain in dB) per record
records = st.lists(st.tuples(st.integers(min_value=-3000, max_value=6000),
                             st.floats(min_value=-1000.0, max_value=PATH_GAIN_SANITY_DB,
                                       exclude_max=True)),
                   min_size=2, max_size=500)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fit") / "data.csv"


@settings(max_examples=300, deadline=None)
@given(drawn=records)
def test_matches_lstsq(csv_path, drawn):
    ranges = [10.0 ** (k / 1000) for k, _ in drawn]
    gains = [gain for _, gain in drawn]
    if len(set(ranges)) == 1:
        with pytest.raises(DatasetError, match="two distinct ranges"):
            fit_slope_intercept((ranges, gains))
        return
    intercept, exponent, rmse = lstsq_fit(ranges, gains)
    # within the tolerance of 0, the sign of the exponent is rounding
    assume(abs(exponent) > TOLERANCE)
    csv_path.write_text("range_m,path_gain_db\n" + "".join(
        f"{r!r},{g!r}\n" for r, g in zip(ranges, gains)), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["fit", str(csv_path)])
    if exponent < 0.0:  # the fit rejects a gain that rises with range
        with pytest.raises(ValueError, match="exponent must be positive"):
            fit_slope_intercept((ranges, gains))
        assert code == cli.EXIT_VALIDATION
        return
    fit = fit_slope_intercept((ranges, gains))
    for ours, reference in ((fit.intercept_db_1m, intercept),
                            (fit.exponent_n, exponent), (fit.rmse_db, rmse)):
        assert math.isclose(ours, reference, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    assert code == cli.EXIT_OK
    if not any(near_rounding_boundary(value, spec) for value, spec in
               ((intercept, ".2f"), (exponent, ".4f"), (rmse, ".2f"))):
        assert stdout.getvalue() == fit_line(intercept, exponent, rmse, len(gains))


def test_dataset_and_records_give_one_fit():
    # the fit takes a MeasurementDataset, as bench/tracing.py passes it, or
    # the lists the reader returns, with the same result
    ranges = np.geomspace(3.0, 3000.0, 37).tolist()
    gains = [-31.0 - 23.0 * math.log10(r) + (-1) ** i for i, r in enumerate(ranges)]
    assert fit_slope_intercept(MeasurementDataset(ranges, gains, 1.0)) == \
        fit_slope_intercept((ranges, gains))
