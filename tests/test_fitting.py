import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathgain.fitting import (
    DatasetError,
    FitResult,
    MeasurementDataset,
    fit_slope_intercept,
    load_dataset,
    rms_db,
    rmse_against_model,
)
from pathgain.morphology import MacroGeometry, Link, canyon_total_gain
from pathgain.reference import friis_gain
from pathgain.units import to_db, wavelength_m

from conftest import db, line_db
from test_morphology import sparse_street_scene


def make_dataset(ranges, gains_db, f_hz=28e9):
    return MeasurementDataset(ranges, gains_db, f_hz)


def friis_dataset(f_hz=28e9, n=50, lo=10.0, hi=1000.0):
    lam = wavelength_m(f_hz)
    ranges = np.geomspace(lo, hi, n)
    return make_dataset(ranges, [db(friis_gain(lam, r).gain) for r in ranges], f_hz)


class TestFit:
    def test_noiseless_friis_recovers_exponent_two(self):
        fit = fit_slope_intercept(friis_dataset())
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
        fit = fit_slope_intercept(make_dataset(ranges, gains))
        assert 2.5 <= fit.rmse_db <= 3.5
        assert abs(fit.exponent_n - 1.5) <= 0.15

    def test_degenerate_dataset_rejected(self):
        with pytest.raises(DatasetError):
            fit_slope_intercept(make_dataset([10.0], [-60.0]))
        with pytest.raises(DatasetError):
            fit_slope_intercept(make_dataset([10.0, 10.0], [-60.0, -61.0]))

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
        ds = make_dataset(ranges, [line_db(*model, r)
                                   for r in ranges])
        fit = fit_slope_intercept(ds)
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
        ds = make_dataset([10.0, 20.0], [-60.0, -66.0])
        for record, name in ((fit, "exponent_n"), (ds, "ranges_m"),
                             (ds, "frequency_hz"), (ds, "label")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            del ds.gains_db
        assert fit.exponent_n == 2.25
        assert ds.frequency_hz == 28e9 and ds.gains_db.tolist() == [-60.0, -66.0]

    def test_datasets_are_equal_only_when_one(self):
        first = make_dataset([10.0, 20.0], [-60.0, -66.0])
        second = make_dataset([10.0, 20.0], [-60.0, -66.0])
        assert first == first and first != second
        assert len({first, second}) == 2


class TestRmseAgainstModel:
    def test_zero_for_generator(self):
        ds = friis_dataset()
        lam = wavelength_m(28e9)
        assert rmse_against_model(ds, lambda r: to_db(friis_gain(lam, r).gain)) == \
            pytest.approx(0.0, abs=1e-12)

    @given(offset=st.floats(min_value=-30.0, max_value=30.0))
    def test_constant_offset_reported_in_full(self, offset):
        ds = friis_dataset(n=20)
        lam = wavelength_m(28e9)
        rmse = rmse_against_model(ds, lambda r: to_db(friis_gain(lam, r).gain) + offset)
        assert rmse == pytest.approx(abs(offset), abs=1e-9)

    def test_reorder_invariance(self):
        ds = friis_dataset(n=30)
        rng = np.random.default_rng(7)
        perm = rng.permutation(len(ds))
        shuffled = MeasurementDataset(ds.ranges_m[perm], ds.gains_db[perm],
                                      ds.frequency_hz)
        lam = wavelength_m(28e9)
        predict = lambda r: to_db(friis_gain(lam, r).gain) - 2.5
        assert rmse_against_model(ds, predict) == pytest.approx(
            rmse_against_model(shuffled, predict), rel=1e-12)

    def test_fit_is_optimal_among_slope_intercept_models(self):
        rng = np.random.default_rng(99)
        ranges = np.geomspace(20.0, 800.0, 120)
        gains = [-50.0 - 22.0 * math.log10(r) + rng.normal(0.0, 4.0)
                 for r in ranges]
        ds = make_dataset(ranges, gains)
        best = fit_slope_intercept(ds)
        for _ in range(25):
            other = (best.intercept_db_1m + rng.normal(0, 2),
                     abs(best.exponent_n + rng.normal(0, 0.3)))
            assert best.rmse_db <= rmse_against_model(
                ds, lambda r: line_db(*other, r)) + 1e-12

    def test_synthetic_street_prefers_its_generator(self):
        rng = np.random.default_rng(11)
        scene = sparse_street_scene()
        macro = MacroGeometry(56.0, 10.0, 1.5, 32.0)
        ranges = np.geomspace(100.0, 900.0, 200)
        gains = [db(canyon_total_gain(scene, macro, Link(float(r), 28e9)).gain)
                 + rng.normal(0.0, 3.0) for r in ranges]
        ds = make_dataset(ranges, gains)
        theory = lambda r: to_db(canyon_total_gain(scene, macro, Link(r, 28e9)).gain)
        lam = wavelength_m(28e9)
        friis = lambda r: to_db(friis_gain(lam, r).gain)
        rmse_theory = rmse_against_model(ds, theory)
        rmse_friis = rmse_against_model(ds, friis)
        assert 2.5 <= rmse_theory <= 3.5
        assert rmse_friis > rmse_theory + 3.0


class TestIngestion:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db,street,flag\n"
                        "10,-60.5,main,\n"
                        "20.5,-66.25,main,los\n", encoding="utf-8")
        ds = load_dataset(path, 2e9)
        assert len(ds) == 2
        assert ds.ranges_m.tolist() == [10.0, 20.5]
        assert ds.gains_db.tolist() == [-60.5, -66.25]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db,component_direct_db,flags\n"
                        "10,-60.5,-70.0,short_range\n", encoding="utf-8")
        assert len(load_dataset(path, 2e9)) == 1

    def test_rejects_nan_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("range_m,path_gain_db\n10,-60.5\nnan,-61\n",
                        encoding="utf-8")
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path, 2e9)

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("range_m,gain\n10,-60.5\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="path_gain_db"):
            load_dataset(path, 2e9)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset(path, 2e9)

    def test_dataset_holds_read_only_copies(self):
        ranges = np.array([10.0, 20.0])
        ds = MeasurementDataset(ranges, [-60.0, -66.0], 2e9)
        ranges[0] = 5.0
        assert ds.ranges_m.tolist() == [10.0, 20.0]
        with pytest.raises(ValueError):
            ds.gains_db[0] = 0.0

    def test_dataset_needs_equal_length_1d_arrays(self):
        with pytest.raises(DatasetError, match="equal length"):
            MeasurementDataset([10.0, 20.0], [-60.0], 2e9)
        with pytest.raises(DatasetError, match="equal length"):
            MeasurementDataset([[10.0]], [[-60.0]], 2e9)

    def test_sanity_bound_on_gain(self):
        with pytest.raises(DatasetError, match="path gain 25.0 dB exceeds"):
            MeasurementDataset([10.0], [25.0], 2e9)

