import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathgain.fitting import (
    DatasetError,
    FitResult,
    fit_slope_intercept,
    read_records,
    rms_db,
    rmse_against_model,
)
from pathgain.morphology import MacroGeometry, Link, canyon_total_gain
from pathgain.reference import friis_gain
from pathgain.units import to_db, wavelength_m

from conftest import db, line_db
from test_morphology import sparse_street_scene


def make_records(ranges, gains_db):
    """(ranges, gains) as the lists of floats `read_records` returns."""
    return (np.asarray(ranges, dtype=float).tolist(),
            np.asarray(gains_db, dtype=float).tolist())


def friis_records(f_hz=28e9, n=50, lo=10.0, hi=1000.0):
    lam = wavelength_m(f_hz)
    ranges = np.geomspace(lo, hi, n)
    return make_records(ranges, [db(friis_gain(lam, r).gain) for r in ranges])


class TestFit:
    def test_noiseless_friis_recovers_exponent_two(self):
        fit = fit_slope_intercept(friis_records())
        assert fit.exponent_n == pytest.approx(2.0, abs=1e-12)
        assert fit.rmse_db < 1e-10
        lam = wavelength_m(28e9)
        assert fit.intercept_db_1m == pytest.approx(
            db(friis_gain(lam, 1.0).gain), abs=1e-9)

    def test_seeded_noise_recovery(self):
        rng = np.random.default_rng(20260810)
        lam = wavelength_m(28e9)
        base = (db(friis_gain(lam, 1.0).gain) + 3.0, 1.5)
        ranges = 10.0 ** rng.uniform(1.0, 3.0, 500)
        gains = [line_db(*base, r) + rng.normal(0.0, 3.0)
                 for r in ranges]
        fit = fit_slope_intercept(make_records(ranges, gains))
        assert 2.5 <= fit.rmse_db <= 3.5
        assert abs(fit.exponent_n - 1.5) <= 0.15

    def test_degenerate_dataset_rejected(self):
        with pytest.raises(DatasetError):
            fit_slope_intercept(make_records([10.0], [-60.0]))
        with pytest.raises(DatasetError):
            fit_slope_intercept(make_records([10.0, 10.0], [-60.0, -61.0]))

    @pytest.mark.parametrize("ranges, gains, message", [
        ([10.0, 20.0], [-80.0, -60.0], "exponent must be positive"),  # rising
        ([10.0, 20.0], [-60.0, -60.0], "exponent must be positive"),  # flat
        # the sum of the gains overflows: the intercept is not finite
        ([10.0, 20.0, 30.0], [-1e308] * 3, "fit is not finite"),
        # a NaN gain makes the slope, so the exponent, NaN
        ([10.0, 20.0], [math.nan, -60.0], "fit is not finite"),
    ], ids=["rising", "flat", "intercept_overflows", "nan_exponent"])
    def test_fit_that_is_no_decaying_line_rejected(self, ranges, gains, message):
        with pytest.raises(DatasetError, match=message):
            fit_slope_intercept((ranges, gains))

    @pytest.mark.parametrize("ranges, gains", [
        # the unchecked fit gave exponent 0.35 over n_points=4
        ([10.0, 100.0, 1000.0, 1e4], [-40.0, -60.0, -80.0]),
        # and here an RMS of 40 dB, from a third residual of no range
        ([10.0, 100.0], [-40.0, -60.0, -80.0]),
    ], ids=["more_ranges", "more_gains"])
    def test_lists_of_unequal_length_rejected(self, ranges, gains):
        with pytest.raises(DatasetError, match="equal length"):
            fit_slope_intercept((ranges, gains))

    def test_rms_of_no_residuals_rejected(self):
        with pytest.raises(DatasetError, match="at least one residual"):
            rms_db([])

    def test_round_trip_is_identity(self):
        model = (-41.2, 2.7)
        ranges = np.geomspace(5.0, 500.0, 40)
        records = make_records(ranges, [line_db(*model, r) for r in ranges])
        fit = fit_slope_intercept(records)
        for r in ranges:
            assert line_db(fit.intercept_db_1m, fit.exponent_n, r) == pytest.approx(
                line_db(*model, r), abs=1e-10)


class TestRecordClasses:
    def test_fit_result_fields_repr_and_equality(self):
        fit = FitResult(intercept_db_1m=-41.5, exponent_n=2.25, rmse_db=0.5,
                        n_points=7)
        assert repr(fit) == ("FitResult(intercept_db_1m=-41.5, exponent_n=2.25, "
                             "rmse_db=0.5, n_points=7)")
        assert (fit.intercept_db_1m, fit.exponent_n, fit.rmse_db, fit.n_points) == \
            (-41.5, 2.25, 0.5, 7)
        assert fit == FitResult(-41.5, 2.25, 0.5, 7)
        assert fit != FitResult(-41.5, 2.25, 0.5, 8)

    def test_attributes_cannot_be_set(self):
        fit = FitResult(-41.5, 2.25, 0.5, 7)
        with pytest.raises(AttributeError):
            fit.exponent_n = 1.0
        assert fit.exponent_n == 2.25


class TestRmseAgainstModel:
    def test_zero_for_generator(self):
        records = friis_records()
        lam = wavelength_m(28e9)
        rmse = rmse_against_model(records, lambda r: to_db(friis_gain(lam, r).gain))
        assert rmse == pytest.approx(0.0, abs=1e-12)

    @given(offset=st.floats(min_value=-30.0, max_value=30.0))
    def test_constant_offset_reported_in_full(self, offset):
        records = friis_records(n=20)
        lam = wavelength_m(28e9)
        rmse = rmse_against_model(records,
                                  lambda r: to_db(friis_gain(lam, r).gain) + offset)
        assert rmse == pytest.approx(abs(offset), abs=1e-9)

    def test_reorder_invariance(self):
        records = friis_records(n=30)
        rng = np.random.default_rng(7)
        ranges, gains = records
        perm = rng.permutation(len(ranges))
        shuffled = ([ranges[i] for i in perm], [gains[i] for i in perm])
        lam = wavelength_m(28e9)
        predict = lambda r: to_db(friis_gain(lam, r).gain) - 2.5
        assert rmse_against_model(records, predict) == pytest.approx(
            rmse_against_model(shuffled, predict), rel=1e-12)

    @pytest.mark.parametrize("ranges, gains", [
        ([10.0, 20.0], [-60.0]), ([10.0], [-60.0, -66.0])],
        ids=["more_ranges", "more_gains"])
    def test_lists_of_unequal_length_rejected(self, ranges, gains):
        with pytest.raises(DatasetError, match="equal length"):
            rmse_against_model((ranges, gains), lambda r: np.full_like(r, -60.0))

    def test_fit_is_optimal_among_slope_intercept_models(self):
        rng = np.random.default_rng(99)
        ranges = np.geomspace(20.0, 800.0, 120)
        gains = [-50.0 - 22.0 * math.log10(r) + rng.normal(0.0, 4.0)
                 for r in ranges]
        records = make_records(ranges, gains)
        best = fit_slope_intercept(records)
        for _ in range(25):
            other = (best.intercept_db_1m + rng.normal(0, 2),
                     abs(best.exponent_n + rng.normal(0, 0.3)))
            assert best.rmse_db <= rmse_against_model(
                records, lambda r: line_db(*other, r)) + 1e-12

    def test_synthetic_street_prefers_its_generator(self):
        rng = np.random.default_rng(11)
        scene = sparse_street_scene()
        macro = MacroGeometry(56.0, 10.0, 1.5, 32.0)
        ranges = np.geomspace(100.0, 900.0, 200)
        gains = [db(canyon_total_gain(scene, macro, Link(float(r), 28e9)).gain)
                 + rng.normal(0.0, 3.0) for r in ranges]
        records = make_records(ranges, gains)
        theory = lambda r: to_db(canyon_total_gain(scene, macro, Link(r, 28e9)).gain)
        lam = wavelength_m(28e9)
        friis = lambda r: to_db(friis_gain(lam, r).gain)
        rmse_theory = rmse_against_model(records, theory)
        rmse_friis = rmse_against_model(records, friis)
        assert 2.5 <= rmse_theory <= 3.5
        assert rmse_friis > rmse_theory + 3.0


class TestIngestion:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db,street,flag\n"
                        "10,-60.5,main,\n"
                        "20.5,-66.25,main,los\n", encoding="utf-8")
        ranges, gains = read_records(path)
        assert ranges == [10.0, 20.5]
        assert gains == [-60.5, -66.25]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db,component_direct_db,flags\n"
                        "10,-60.5,-70.0,short_range\n", encoding="utf-8")
        assert read_records(path) == ([10.0], [-60.5])

    def test_rejects_nan_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("range_m,path_gain_db\n10,-60.5\nnan,-61\n",
                        encoding="utf-8")
        with pytest.raises(DatasetError, match="line 3"):
            read_records(path)

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("range_m,gain\n10,-60.5\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="path_gain_db"):
            read_records(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            read_records(path)

    def test_sanity_bound_on_gain(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("range_m,path_gain_db\n10,25\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="path gain 25.0 dB exceeds"):
            read_records(path)

