import configparser
import contextlib
import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathgain import cli, verify
from pathgain.config import MORPHOLOGIES, ConfigError, load_config, make_evaluator
from pathgain.fitting import DatasetError, load_dataset

from conftest import REPO_ROOT


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_config(path) -> configparser.ConfigParser:
    """A config file read the way load_config reads it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    return parser


def write_edited_config(source, target, edits):
    """Copy config `source` to `target` with each (section, key, value) of
    `edits` set."""
    parser = read_config(source)
    for section, key, value in edits:
        parser[section][key] = value
    with open(target, "w", encoding="utf-8") as handle:
        parser.write(handle)


def read_csv_text(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestPredict:
    def test_corridor_sweep_shape_and_slope(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "predict", "configs/corridor_2ghz.ini",
                             "los_corridor", "5:70:60", "--output", str(out))
        assert code == 0
        rows = read_csv_text(out)
        assert len(rows) == 60
        ranges = [float(r["range_m"]) for r in rows]
        assert all(b > a for a, b in zip(ranges, ranges[1:]))
        gains = [float(r["path_gain_db"]) for r in rows]
        assert all(b <= a for a, b in zip(gains, gains[1:]))
        # over the sweep the growing ground-bounce factor flattens the
        # exponent-1.5 trend a little; far out it settles at -15 per decade
        tail = [(math.log10(r), g) for r, g in zip(ranges, gains) if r > 16.0]
        slope = np.polyfit([t[0] for t in tail], [t[1] for t in tail], 1)[0]
        assert -17.0 < slope < -12.0
        cfg = load_config("configs/corridor_2ghz.ini")
        evaluator = make_evaluator(cfg, "los_corridor")
        far = np.geomspace(1000.0, 10000.0, 20)
        far_gain = [evaluator(float(x)).gain_db for x in far]
        far_slope = np.polyfit(np.log10(far), far_gain, 1)[0]
        assert far_slope == pytest.approx(-15.0, abs=0.1)

    def test_suburban_sits_below_free_space(self, capsys, tmp_path):
        out_s = tmp_path / "suburban.csv"
        out_f = tmp_path / "friis.csv"
        run_cli(capsys, "predict", "configs/suburban_street_28ghz.ini",
                "suburban_street", "60:500:40", "--output", str(out_s))
        run_cli(capsys, "predict", "configs/suburban_street_28ghz.ini",
                "friis", "60:500:40", "--output", str(out_f))
        veg_loss_db = 0.38 * 10.0 * 10.0 / math.log(10.0)
        for row_s, row_f in zip(read_csv_text(out_s), read_csv_text(out_f)):
            assert float(row_s["path_gain_db"]) <= \
                float(row_f["path_gain_db"]) - veg_loss_db + 0.5

    def test_sparse_street_guided_component_dominates_far_out(self, capsys,
                                                              tmp_path):
        out = tmp_path / "sparse.csv"
        code, _, _ = run_cli(capsys, "predict",
                             "configs/sidewalk_sparse_trees_28ghz.ini",
                             "canyon_total", "100:1000:30",
                             "--output", str(out))
        assert code == 0
        for row in read_csv_text(out):
            if float(row["range_m"]) >= 200.0:
                guided = float(row["component_guided_db"])
                assert guided > float(row["component_unguided_db"])
                assert guided > float(row["component_over_top_db"])
                assert guided > float(row["component_direct_db"])

    @pytest.mark.parametrize("config, morphology, expected", [
        ("configs/suburban_street_28ghz.ini", "suburban_street",
         "range_m,path_gain_db,flags\n10,-82.87,\n100,-107.56,\n1000,-146.44,\n"),
        ("configs/sidewalk_sparse_trees_28ghz.ini", "sidewalk_trees",
         "range_m,path_gain_db,component_guided_db,component_unguided_db,flags\n"
         "10,-107.23,-111.72,-107.23,\n100,-119.60,-119.72,-119.60,\n"
         "1000,-144.38,-144.38,-155.53,\n"),
        ("configs/sidewalk_sparse_trees_28ghz.ini", "canyon_total",
         "range_m,path_gain_db,component_canyon_trees_db,component_direct_db,"
         "component_guided_db,component_over_top_db,component_unguided_db,flags\n"
         "10,-103.59,-107.23,-130.02,-111.72,-106.06,-107.23,\n"
         "100,-117.11,-119.60,-137.07,-119.72,-120.81,-119.60,\n"
         "1000,-144.15,-144.38,-167.98,-144.38,-157.32,-155.53,\n"),
    ], ids=["suburban_street", "sidewalk_trees", "canyon_total"])
    def test_zero_foliage_depth_predicts(self, capsys, tmp_path, config,
                                         morphology, expected):
        # load_config accepts [foliage] depth_m = 0, a terminal on the
        # boundary of the foliage
        path = tmp_path / "bare.ini"
        write_edited_config(config, path, [("foliage", "depth_m", "0.0")])
        assert run_cli(capsys, "predict", str(path), morphology,
                       "10:1000:3") == (0, expected, "")

    @pytest.mark.parametrize("spec", ["70:5:60", "nan:1:3", "1:nan:3",
                                      "1:inf:3", "inf:inf:3", "-1:10:3",
                                      "-.5:-0.1:3"])
    def test_bad_range_spec_is_validation_error(self, capsys, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "predict", "configs/corridor_2ghz.ini",
                                     "los_corridor", spec)
        assert code == 1
        assert out == ""
        assert err == ("pathgain: error: range spec needs 0 < min < max "
                       "and points >= 2\n")
        assert caught == []

    def test_unallocatable_sweep_is_one_line_error(self, capsys):
        # 10^15 float64 points exceed the whole address space, so the
        # request fails without touching memory
        code, out, err = run_cli(capsys, "predict", "configs/corridor_2ghz.ini",
                                 "los_corridor", "1:10:1000000000000000")
        assert code == 1
        assert out == ""
        assert err.startswith("pathgain: error: ")
        assert err.count("\n") == 1

    def test_unknown_morphology_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "predict", "configs/corridor_2ghz.ini",
                               "los_tunnel", "5:70:10")
        assert code == 1
        assert "unknown morphology" in err

    def test_ground_index_below_sqrt2_is_one_line_error(self, capsys,
                                                         tmp_path):
        # the corridor scene with a ground index whose parallel low-grazing
        # reflection is singular (n^2 <= 2)
        path = tmp_path / "ground.ini"
        path.write_text(
            "[link]\nfrequency_hz = 28.0e9\n"
            "[canyon]\nwidth_m = 1.6\ntx_height_m = 2.2\nrx_height_m = 1.0\n"
            "ground_index = 1.2\n"
            "[wall]\nn_eff = 1.7\nA_m = 0.035\np1 = 0.25\np2 = 0.75\n"
            "mean_width_m = 1.0\nmean_gap_m = 3.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "predict", str(path), "los_corridor",
                                 "20:500:20")
        assert code == 1
        assert out == ""
        assert err.startswith("pathgain: error: ")
        assert err.count("\n") == 1
        assert "ground_index" in err

    @pytest.mark.parametrize("index", ["1e300", "1e308"])
    def test_huge_ground_index_gives_gains_or_one_line_error(self, capsys, tmp_path,
                                                              index):
        # n^2 of the parallel ground rate overflows; from n = 9e307 on, the
        # rate 2 n does too
        path = tmp_path / "ground.ini"
        write_edited_config("configs/corridor_2ghz.ini", path,
                            [("canyon", "ground_index", index)])
        code, out, err = run_cli(capsys, "predict", str(path), "los_corridor",
                                 "1:100:10")
        if code == 0:
            assert err == ""
            gains = [float(row["path_gain_db"])
                     for row in csv.DictReader(io.StringIO(out))]
            assert len(gains) == 10 and all(map(math.isfinite, gains))
        else:
            assert (code, out) == (1, "")
            assert err == (f"pathgain: error: {path}: [canyon] ground_index: parallel "
                           f"low-grazing rate overflows for refraction index {float(index)}\n")
        assert (code == 0) == (index == "1e300")

    def test_underflowing_gain_is_one_line_error(self, capsys, tmp_path):
        # foliage absorption strong enough to underflow the rural gain to 0
        path = tmp_path / "rural.ini"
        path.write_text(
            "[link]\nfrequency_hz = 28.0e9\n"
            "[macro]\nz_bs_m = 14.0\nz_c_m = 10.0\nz_m_m = 1.5\n"
            "street_width_m = 30.0\n"
            "[foliage]\ndepth_m = 0.0\nkappa_np_per_m = 1e4\n",
            encoding="utf-8")
        code, out, err = run_cli(capsys, "predict", str(path), "rural",
                                 "20:500:20")
        assert code == 1
        assert out == ""
        assert err.startswith("pathgain: error: ")
        assert err.count("\n") == 1
        assert "rural" in err and "range 20 m" in err

    def test_underflowing_component_prints_empty(self, capsys):
        # the direct term underflows to 0 past about 3 km; the total stands
        code, out, err = run_cli(capsys, "predict", "configs/vegetated_macro_28ghz.ini",
                                 "rural", "1000:5000:5")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0][:4] == ["range_m", "path_gain_db", "component_direct_db",
                               "component_over_top_db"]
        assert [(row[0], row[2] == "") for row in rows[1:]] == [
            ("1000", False), ("1495.35", False), ("2236.07", False),
            ("3343.7", True), ("5000", True)]
        assert all(row[1] and row[3] for row in rows[1:])

    @pytest.mark.parametrize("config, section, key, value, sweep, morphology", [
        # a float power of 1e308 overflows inside the law
        ("configs/corridor_28ghz.ini", "link", "frequency_hz", "1e308", "1:1000:3",
         "los_corridor"),
        ("configs/suburban_street_28ghz.ini", "street", "standoff_m", "1e308",
         "1:1000:3", "suburban_street"),
        # 1.7e308 fits a float, but the slant length from it to a
        # terminal 1e308 m away does not
        ("configs/suburban_street_28ghz.ini", "street", "standoff_m", "1.7e308",
         "1:1e308:3", "suburban_street"),
        ("configs/vegetated_macro_28ghz.ini", "macro", "z_bs_m", "1.7e308",
         "1:1e308:3", "over_top"),
        ("configs/vegetated_macro_28ghz.ini", "macro", "z_bs_m", "1.7e308",
         "1:1e308:3", "rural"),
    ], ids=["configs/corridor_28ghz.ini-link-frequency_hz-los_corridor",
            "configs/suburban_street_28ghz.ini-street-standoff_m-suburban_street",
            "suburban_street-slant_length", "over_top-slant_length",
            "rural-slant_length"])
    def test_overflowing_scene_value_is_one_line_error(self, capsys, tmp_path,
                                                       config, section, key,
                                                       value, sweep, morphology):
        path = tmp_path / "huge.ini"
        write_edited_config(config, path, [(section, key, value)])
        code, out, err = run_cli(capsys, "predict", str(path), morphology, sweep)
        assert (code, out) == (1, "")
        assert err == (f"pathgain: error: {path}: {morphology} gain overflows: a "
                       "scene value is out of float range\n")

    @pytest.mark.parametrize("config, morphology, a_m", [
        ("configs/corridor_28ghz.ini", "los_corridor", "1e152"),
        ("configs/sidewalk_sparse_trees_28ghz.ini", "sidewalk_trees", "1e152"),
        ("configs/corridor_28ghz.ini", "los_corridor", "1.4e154"),
        ("configs/sidewalk_sparse_trees_28ghz.ini", "sidewalk_trees", "1.4e154"),
        ("configs/corridor_28ghz.ini", "los_corridor", "1e308"),
    ], ids=["configs/corridor_28ghz.ini-los_corridor",
            "configs/sidewalk_sparse_trees_28ghz.ini-sidewalk_trees",
            "configs/corridor_28ghz.ini-los_corridor-A_squared_past_a_float",
            "configs/sidewalk_sparse_trees_28ghz.ini-sidewalk_trees-A_squared_past_a_float",
            "configs/corridor_28ghz.ini-los_corridor-A_1e308"])
    def test_overflowing_wall_loss_is_one_line_error(self, capsys, tmp_path,
                                                     config, morphology, a_m):
        # at 1e152, A^2 fits a float, but the roughness loss rate
        # k^1.5 * A^2 ... does not; from 1.4e154 on, A^2 does not either
        path = tmp_path / "rough.ini"
        write_edited_config(config, path, [("wall", "A_m", a_m)])
        code, out, err = run_cli(capsys, "predict", str(path), morphology,
                                 "1:1000:3")
        assert code == 1
        assert out == ""
        assert err.startswith("pathgain: error: wall loss overflows for "
                              f"roughness A = {float(a_m):g} m")
        assert err.count("\n") == 1

    # a wall index whose loss rate L (1.3e-216) makes L**1.5 underflow to 0,
    # so the guided term's float division by it raises ZeroDivisionError
    UNDERFLOWING_WALL = ("[link]\nfrequency_hz = 28e9\n"
                         "[canyon]\nwidth_m = 32\ntx_height_m = 56\nrx_height_m = 1.5\n"
                         "[wall]\nn_eff = 3e216\n"
                         "[foliage]\ndepth_m = 3\nkappa_np_per_m = 0\n"
                         "[macro]\nz_bs_m = 56\nz_c_m = 10\nz_m_m = 1.5\n"
                         "street_width_m = 32\n"
                         "[street]\nstandoff_m = 8\n")

    @pytest.mark.parametrize("morphology", ["sidewalk_trees", "canyon_total"])
    def test_division_by_an_underflowed_value_is_one_line_error(
            self, capsys, tmp_path, morphology):
        path = tmp_path / "wall.ini"
        path.write_text(self.UNDERFLOWING_WALL, encoding="utf-8")
        code, out, err = run_cli(capsys, "predict", str(path), morphology,
                                 "10:1000:3")
        assert (code, out) == (1, "")
        assert err == (f"pathgain: error: {path}: {morphology} gain overflows: a "
                       "scene value is out of float range\n")

    def test_missing_blocks_named(self, capsys):
        code, _, err = run_cli(capsys, "predict", "configs/corridor_2ghz.ini",
                               "canyon_total", "5:70:10")
        assert code == 1
        assert "foliage" in err and "street" in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert "comparisons passed" in out
        assert "FAIL" not in out

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "diffuse")
        assert code == 0
        assert "diffuse/unbounded" in out

    def test_unknown_suite_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "barnacles")
        assert code == 1
        assert "unknown suite" in err

    def test_perturbed_constant_fails_named_comparison(self, capsys, tmp_path,
                                                       monkeypatch):
        # fault injection: scale one closed form and expect the verify gate
        # to catch it and name the comparison
        from pathgain import morphology

        original = morphology.outdoor_indoor_canyon_gain

        def skewed(*args, **kwargs):
            res = original(*args, **kwargs)
            return type(res)(res.gain * 2.0, res.range_m, res.flags,
                             dict(res.components))

        monkeypatch.setattr(morphology, "outdoor_indoor_canyon_gain", skewed)
        out_csv = tmp_path / "gaps.csv"
        code, out, _ = run_cli(capsys, "verify", "outdoor_indoor",
                               "--output", str(out_csv))
        assert code == 2
        assert "FAILED: outdoor_indoor/" in out
        # the CSV row of each comparison holds the cells of its table row
        table_rows = out.splitlines()[1:-2]
        csv_rows = list(csv.reader(io.StringIO(out_csv.read_text(encoding="utf-8"))))[1:]
        assert len(csv_rows) == len(table_rows) == 6
        assert [line.split() for line in table_rows] == [
            [cell for cell in row if cell] for row in csv_rows]
        assert all(row[5] == "FAIL" for row in csv_rows)

    def test_gap_that_rounds_to_zero_prints_unsigned(self, capsys, tmp_path,
                                                     monkeypatch):
        # an exact closed form leaves only quadrature round-off in the gap;
        # its sign must not reach the table or the CSV
        comparison = verify.Comparison("exact/case", -12.19, -12.19 + 1e-14, 0.09)
        assert comparison.gap_db == pytest.approx(-1e-14, rel=0.1, abs=0.0)
        monkeypatch.setattr(verify, "run_suites", lambda names, profile: [comparison])
        out_csv = tmp_path / "gaps.csv"
        code, out, _ = run_cli(capsys, "verify", "all", "--output", str(out_csv))
        assert code == 0
        assert out.splitlines()[1].split()[1:5] == ["-12.19", "-12.19", "0.00", "0.09"]
        row = read_csv_text(out_csv)[0]
        assert row["gap_db"] == "0.00"
        assert "-0.00" not in out + out_csv.read_text(encoding="utf-8")

    def test_non_converging_oracle_is_one_line_error(self, capsys, monkeypatch):
        from pathgain.oracles import OracleConvergenceError

        def stalls(profile):
            raise OracleConvergenceError("hot-wall quadrature did not converge")

        monkeypatch.setitem(verify.SUITES, "diffuse", stalls)
        code, out, err = run_cli(capsys, "verify", "diffuse")
        assert (code, out) == (1, "")
        assert err == "pathgain: error: hot-wall quadrature did not converge\n"

    def test_strict_profile_consistent(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "roughness",
                             "--tolerance-profile", "strict")
        assert code == 0


class TestFitCommand:
    def test_noiseless_power_law(self, capsys, tmp_path):
        path = tmp_path / "law.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("range_m,path_gain_db\n")
            for r in np.geomspace(10.0, 1000.0, 50):
                handle.write(f"{r:.6f},{-40.0 - 25.0 * math.log10(r):.6f}\n")
        code, out, _ = run_cli(capsys, "fit", str(path))
        assert code == 0
        assert "exponent_n=2.5000" in out
        assert "rmse_db=0.00" in out

    def test_fit_of_predicted_sweep(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.csv"
        run_cli(capsys, "predict", "configs/suburban_street_28ghz.ini",
                "suburban_street", "100:1000:50", "--output", str(sweep))
        code, out, _ = run_cli(capsys, "fit", str(sweep))
        assert code == 0
        exponent = float(out.split("exponent_n=")[1].split()[0])
        assert 3.5 < exponent < 4.3

    def test_non_utf8_file_is_one_line_error_with_its_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"range_m,path_gain_db\n10,-60\ncaf\xe9,-61\n")
        message = (f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 31: "
                   "invalid continuation byte")
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(path, 2e9)
        code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, out, err) == (1, "", f"pathgain: error: {message}\n")

    def test_empty_file_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert "empty" in err

    def test_output_csv(self, capsys, tmp_path):
        path = tmp_path / "law.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("range_m,path_gain_db\n10,-60\n100,-80\n")
        out_csv = tmp_path / "fit.csv"
        code, _, _ = run_cli(capsys, "fit", str(path), "--output", str(out_csv))
        assert code == 0
        row = read_csv_text(out_csv)[0]
        assert float(row["exponent_n"]) == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("rows, exponent", [
        ("10,-80\n20,-60\n", "-6.6439"),  # gain rises with range
        ("10,-60\n20,-60\n", "0.0000"),   # flat
    ], ids=["rising", "flat"])
    def test_exponent_not_positive_names_dataset_and_fit(self, capsys, tmp_path,
                                                         rows, exponent):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db\n" + rows, encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, out) == (1, "")
        assert err == (f"pathgain: error: {path}: distance exponent must be "
                       f"positive, the fit gives {exponent}\n")


class TestNonFiniteResult:
    """A fit or RMS that is not finite ends in one error line that names the
    dataset, with no numpy warning and no traceback: float overflow in a
    square, or an exactly rounded sum past the float range (where
    math.fsum raises OverflowError), is caught where it happens."""

    CASES = {
        # the squared residual of -1e300 dB overflows
        "evaluate_huge_residual": ("10,-1e300\n20,-60\n", "evaluate",
                                   "RMS of the residuals is not finite"),
        # each squared residual is finite, their sum is not
        "evaluate_sum_overflows": ("10,-1.3e154\n20,-1.3e154\n", "evaluate",
                                   "RMS of the residuals is not finite"),
        # the squared residuals of the fitted line overflow
        "fit_huge_residual": ("10,0\n100,-1e300\n1000,-1e300\n", "fit",
                              "RMS of the residuals is not finite"),
        # the sum of the gains overflows
        "fit_sum_overflows": ("10,-1e308\n20,-1e308\n30,-1e308\n", "fit",
                              "fit is not finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_naming_the_dataset(self, case, capsys, tmp_path):
        rows, command, message = self.CASES[case]
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db\n" + rows, encoding="utf-8")
        argv = [command, str(path)]
        if command == "evaluate":
            argv += ["configs/corridor_2ghz.ini", "los_corridor"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"pathgain: error: {path}: {message}\n")

    # lines through gains whose squares or squared spread overflow, fitted
    # exactly (to float rounding) and printed
    FINITE = {
        "exact_line": "10,-1e160\n100,-2e160\n",
        "extreme_ranges": "5e-324,-60\n1e308,-1e300\n",
    }

    @pytest.mark.parametrize("case", sorted(FINITE))
    def test_finite_fit_of_huge_gains_prints(self, case, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("range_m,path_gain_db\n" + self.FINITE[case], encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, err) == (0, "")
        fields = dict(f.split("=") for f in out.split())
        assert all(math.isfinite(float(v)) for v in fields.values())
        assert fields["n_points"] == "2"
        if case == "exact_line":
            assert out.startswith("intercept_db_1m=0.00 exponent_n=")
            assert fields["rmse_db"] == "0.00"


class TestEvaluateCommand:
    def make_synthetic(self, tmp_path, capsys, offset_db=0.0):
        sweep = tmp_path / "model.csv"
        run_cli(capsys, "predict", "configs/sidewalk_sparse_trees_28ghz.ini",
                "canyon_total", "100:900:40", "--output", str(sweep))
        data = tmp_path / "measured.csv"
        with open(sweep, newline="", encoding="utf-8") as handle, \
                open(data, "w", encoding="utf-8") as out:
            out.write("range_m,path_gain_db\n")
            for row in csv.DictReader(handle):
                gain = float(row["path_gain_db"]) + offset_db
                out.write(f"{row['range_m']},{gain:.6f}\n")
        return data

    def test_generator_scores_zero(self, capsys, tmp_path):
        data = self.make_synthetic(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "evaluate", str(data),
                               "configs/sidewalk_sparse_trees_28ghz.ini",
                               "canyon_total")
        assert code == 0
        rmse = float(out.split("rmse_db=")[1].split()[0])
        assert rmse < 0.01  # only CSV rounding remains

    def test_constant_offset_reported(self, capsys, tmp_path):
        data = self.make_synthetic(tmp_path, capsys, offset_db=7.0)
        code, out, _ = run_cli(capsys, "evaluate", str(data),
                               "configs/sidewalk_sparse_trees_28ghz.ini",
                               "canyon_total")
        assert code == 0
        assert float(out.split("rmse_db=")[1].split()[0]) == \
            pytest.approx(7.0, abs=0.01)

    def test_reference_model_scores_worse_than_generator(self, capsys,
                                                         tmp_path):
        data = self.make_synthetic(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "evaluate", str(data),
                               "configs/sidewalk_sparse_trees_28ghz.ini",
                               "tr38901_uma_los")
        assert code == 0
        assert float(out.split("rmse_db=")[1].split()[0]) > 3.0

    def test_residual_csv(self, capsys, tmp_path):
        data = self.make_synthetic(tmp_path, capsys, offset_db=2.0)
        residuals = tmp_path / "residuals.csv"
        code, _, _ = run_cli(capsys, "evaluate", str(data),
                             "configs/sidewalk_sparse_trees_28ghz.ini",
                             "canyon_total", "--output", str(residuals))
        assert code == 0
        rows = read_csv_text(residuals)
        assert len(rows) == 40
        assert float(rows[0]["residual_db"]) == pytest.approx(2.0, abs=0.02)

    def test_predictor_called_once_with_every_range(self, capsys, tmp_path,
                                                    monkeypatch):
        data = self.make_synthetic(tmp_path, capsys)
        calls = []

        def counting_make_evaluator(cfg, name):
            evaluator = make_evaluator(cfg, name)
            return lambda r: calls.append(np.array(r, copy=True)) or evaluator(r)

        monkeypatch.setattr(cli, "make_evaluator", counting_make_evaluator)
        code, _, _ = run_cli(capsys, "evaluate", str(data),
                             "configs/sidewalk_sparse_trees_28ghz.ini",
                             "canyon_total", "--output",
                             str(tmp_path / "residuals.csv"))
        assert code == 0
        assert len(calls) == 1
        ranges = [float(row["range_m"]) for row in read_csv_text(data)]
        assert calls[0].tolist() == ranges

        # records 40 and 41 are where the model underflows: the one call
        # fails, and its own message is the whole error
        with open(data, "a", encoding="utf-8") as handle:
            handle.write("1e100,-90\n1e200,-90\n")
        calls.clear()
        code, out, err = run_cli(capsys, "evaluate", str(data),
                                 "configs/sidewalk_sparse_trees_28ghz.ini",
                                 "canyon_total")
        assert (code, out) == (1, "")
        assert err == ("pathgain: error: configs/sidewalk_sparse_trees_28ghz.ini: "
                       "canyon_total gain underflows to 0 at range 1e+100 m\n")
        assert len(calls) == 1
        assert calls[0].tolist() == ranges + [1e100, 1e200]

    def test_frequency_option_is_a_usage_error(self, capsys, tmp_path):
        data = self.make_synthetic(tmp_path, capsys)
        code, out, err = run_cli(capsys, "evaluate", str(data),
                                 "configs/sidewalk_sparse_trees_28ghz.ini",
                                 "canyon_total", "--frequency-hz", "2e9")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --frequency-hz" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", ["canyon_total", "tr38901_umi_nlos"])
    def test_config_without_frequency_is_one_line_error(self, capsys, tmp_path,
                                                        model):
        data = self.make_synthetic(tmp_path, capsys)
        config = read_config("configs/sidewalk_sparse_trees_28ghz.ini")
        config.remove_section("link")
        path = tmp_path / "no_link.ini"
        with open(path, "w", encoding="utf-8") as handle:
            config.write(handle)
        code, out, err = run_cli(capsys, "evaluate", str(data), str(path), model)
        assert code == 1
        assert out == ""
        assert err.startswith("pathgain: error: ")
        assert err.count("\n") == 1
        assert "[link] frequency_hz" in err


    @pytest.mark.parametrize("section, key, value", [("link", "frequency_hz", "1e200"),
                                                     ("macro", "z_bs_m", "1e154")])
    @pytest.mark.parametrize("model", ["tr38901_uma_los", "tr38901_uma_nlos",
                                       "tr38901_umi_los", "tr38901_umi_nlos"])
    def test_breakpoint_model_at_an_extreme_scene_value_exits_cleanly(
            self, capsys, tmp_path, model, section, key, value):
        # the breakpoint distance d_BP', or the height difference, squared is
        # past a float
        data = self.make_synthetic(tmp_path, capsys)
        path = tmp_path / "extreme.ini"
        write_edited_config("configs/vegetated_macro_28ghz.ini", path,
                            [(section, key, value)])
        code, out, err = run_cli(capsys, "evaluate", str(data), str(path), model)
        if code == 0:
            assert err == ""
            assert math.isfinite(float(out.split("rmse_db=")[1].split()[0]))
        else:
            assert (code, out) == (1, "")
            assert err.startswith("pathgain: error: ") and err.count("\n") == 1


class TestRecordsCheckedOnce:
    """The CLI reads a dataset once: the record rule runs once per record,
    in `evaluate` as in `fit`."""

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_record_rule_runs_once(self, command, capsys, tmp_path, monkeypatch):
        from pathgain import fitting
        config = "configs/vegetated_macro_28ghz.ini"
        sweep = tmp_path / "sweep.csv"
        run_cli(capsys, "predict", config, "over_top", "20:500:20",
                "--output", str(sweep))
        original = fitting._first_invalid
        calls = []

        def counting(ranges, gains):
            calls.append(len(ranges))
            return original(ranges, gains)

        monkeypatch.setattr(fitting, "_first_invalid", counting)
        argv = [command, str(sweep)] + ([config, "over_top"] if command == "evaluate"
                                         else [])
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == [20]


class TestByteOrderMark:
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_dataset_with_a_byte_order_mark_reads_as_without(self, command, capsys,
                                                            tmp_path):
        # as Excel saves a UTF-8 CSV
        config = "configs/vegetated_macro_28ghz.ini"
        sweep = tmp_path / "sweep.csv"
        run_cli(capsys, "predict", config, "over_top", "20:500:20",
                "--output", str(sweep))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + sweep.read_bytes())
        extra = [config, "over_top"] if command == "evaluate" else []
        plain = run_cli(capsys, command, str(sweep), *extra)
        assert plain[0] == 0
        assert run_cli(capsys, command, str(marked), *extra) == plain


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "predict",
                                 "configs/streets/street_09.ini",
                                 "canyon_total", "50:1000:80",
                                 "--output", str(out))
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_verify_table_byte_identical(self, capsys, tmp_path):
        tables = []
        for name in ("v1.csv", "v2.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "verify", "diffuse",
                                 "--output", str(out))
            assert code == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]


class TestLayerAttributes:
    """The commands call their layers through `cli` attributes, which import
    their modules on first call, so a replacement set on `cli` is the one
    that runs (the benchmark's per-layer trace relies on this)."""

    MACRO = "configs/vegetated_macro_28ghz.ini"
    CALLERS = [
        ("load_config", "predict"), ("make_evaluator", "predict"),
        ("read_records", "fit"), ("fit_slope_intercept", "fit"),
        ("load_config", "evaluate"), ("make_evaluator", "evaluate"),
        ("read_records", "evaluate"),
        ("tr38901_pathloss", "evaluate_tr38901_uma_los"),
        ("uma_nlos_36814", "evaluate_uma_nlos_36814"),
    ]

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("layers") / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", self.MACRO, "over_top", "20:500:20",
                             "--output", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("attr, command", CALLERS)
    def test_replacement_is_called(self, attr, command, sweep, capsys,
                                   monkeypatch):
        argv = {"predict": ["predict", self.MACRO, "over_top", "20:500:20"],
                "fit": ["fit", sweep],
                "evaluate": ["evaluate", sweep, self.MACRO, "over_top"],
                "evaluate_tr38901_uma_los": ["evaluate", sweep, self.MACRO,
                                             "tr38901_uma_los"],
                "evaluate_uma_nlos_36814": ["evaluate", sweep, self.MACRO,
                                            "uma_nlos_36814"]}[command]
        original = getattr(cli, attr)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, attr, recording)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1


_CANYON ="[canyon]\nwidth_m = 20\ntx_height_m = 3\nrx_height_m = 1\n"
_FOLIAGE = "[foliage]\ndepth_m = 5\nkappa_np_per_m = 0.3\n"


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[canyon]\nwidth_m = 3\nheight_m = 2\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="height_m"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[tunnel]\nwidth_m = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="tunnel"):
            load_config(path)

    def test_partial_roughness_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[wall]\nn_eff = 2.0\nA_m = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="roughness"):
            load_config(path)

    def test_smooth_wall_accepted(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text("[wall]\nn_eff = 2.0\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.wall.roughness is None

    def test_kappa_auto_interpolates(self, tmp_path):
        path = tmp_path / "auto.ini"
        path.write_text("[link]\nfrequency_hz = 28e9\n"
                        "[foliage]\ndepth_m = 5\nkappa_np_per_m = auto\n",
                        encoding="utf-8")
        cfg = load_config(path)
        assert cfg.foliage.kappa_np_per_m == pytest.approx(0.33, abs=1e-12)

    def test_kappa_auto_needs_frequency(self, tmp_path):
        path = tmp_path / "auto.ini"
        path.write_text("[foliage]\ndepth_m = 5\nkappa_np_per_m = auto\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="frequency_hz"):
            load_config(path)

    def test_kappa_auto_flags_extrapolation(self, tmp_path):
        path = tmp_path / "auto.ini"
        path.write_text("[link]\nfrequency_hz = 200e9\n"
                        "[canyon]\nwidth_m = 20\ntx_height_m = 3\n"
                        "rx_height_m = 1\n"
                        "[foliage]\ndepth_m = 5\nkappa_np_per_m = auto\n"
                        "[street]\nstandoff_m = 20\n",
                        encoding="utf-8")
        cfg = load_config(path)
        evaluator = make_evaluator(cfg, "suburban_street")
        assert "kappa_extrapolated" in evaluator(100.0).flags

    def test_value_type_errors_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\nfrequency_hz = fast\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a number"):
            load_config(path)

    @pytest.mark.parametrize("frequency", ["5e-324", "1e-320", "1e-300"])
    def test_carrier_without_finite_wavelength_names_file_and_block(
            self, capsys, tmp_path, frequency):
        path = tmp_path / "link.ini"
        path.write_text(f"[link]\nfrequency_hz = {frequency}\n", encoding="utf-8")
        message = (f"{path}: [link] frequency must be positive with a finite "
                   f"wavelength, got {frequency}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        code, out, err = run_cli(capsys, "predict", str(path), "friis", "1:1000:5")
        assert (code, out, err) == (1, "", f"pathgain: error: {message}\n")

    def test_carrier_above_the_overflow_loads(self, tmp_path):
        path = tmp_path / "link.ini"
        path.write_text("[link]\nfrequency_hz = 1e-299\n", encoding="utf-8")
        assert load_config(path).frequency_hz == 1e-299

    # at this carrier lambda^2 overflows before any range enters the law
    @pytest.mark.parametrize("morphology, sweep", [
        ("los_corridor", "1:1000:5"), ("friis", "1e290:1e300:3")])
    def test_carrier_that_overflows_a_law_names_the_file(self, capsys, tmp_path,
                                                         morphology, sweep):
        path = tmp_path / "link.ini"
        path.write_text("[link]\nfrequency_hz = 1e-299\n[wall]\nn_eff = 2.2\n" + _CANYON,
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "predict", str(path), morphology, sweep)
        assert (code, out, err) == (1, "", f"pathgain: error: {path}: {morphology} gain "
                                           "overflows: a scene value is out of float range\n")

    @pytest.mark.parametrize("text, where", [
        ("[link]\nfrequency_hz 28e9\n", "line 2: expected key = value"),
        ("# corridor\nfrequency_hz = 28e9\n", "line 2: expected a [section] header"),
    ], ids=["no_equals_sign", "no_section_header"])
    def test_syntax_error_is_one_line_naming_file_and_line(self, capsys, tmp_path,
                                                           text, where):
        path = tmp_path / "syntax.ini"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: {where}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        code, out, err = run_cli(capsys, "predict", str(path), "friis", "1:1000:5")
        assert (code, out, err) == (1, "", f"pathgain: error: {message}\n")

    def test_byte_order_mark_before_the_first_section_is_read(self, tmp_path):
        # as Windows editors save UTF-8
        path = tmp_path / "bom.ini"
        path.write_text("[link]\nfrequency_hz = 28e9\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf[link]")
        assert load_config(path).frequency_hz == 28e9

    def test_non_utf8_config_is_one_line_error_with_its_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[link]\nfrequency_hz = 28e9  # caf\xe9\n")
        message = (f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 33: "
                   "invalid continuation byte")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        code, out, err = run_cli(capsys, "predict", str(path), "friis", "1:1000:5")
        assert (code, out, err) == (1, "", f"pathgain: error: {message}\n")

    def test_canyon_error_names_file_and_block(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[canyon]\nwidth_m = 1.6\ntx_height_m = 2.2\n"
                        "rx_height_m = 1.0\ntx_offset_m = 0.9\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: "
                           r"\[canyon\] antenna offsets"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        _CANYON + _FOLIAGE + "[street]\nrho_v = 0.5\n",
        _FOLIAGE + "[street]\nstandoff_m = 20\n",
        _CANYON + "[street]\nstandoff_m = 20\n",
    ], ids=["no_standoff", "no_canyon", "no_foliage"])
    def test_street_needs_standoff_canyon_and_foliage(self, tmp_path, text):
        path = tmp_path / "street.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(str(path))}: \[street\] "):
            load_config(path)

    @pytest.mark.parametrize("variant, extra", [
        ("facade\np_window = 0.1\nt_window2 = 1.0\nt_wall2 = 0.0",
         "material_t2 = 0.01"),
        ("unbounded", "w1_m = 3.0"),
        ("unbounded", "w2_m = 2.0"),
        ("street\nw1_m = 3.0", "w2_m = 2.0"),
        ("aperture\nw1_m = 3.0\nw2_m = 2.0", "p_window = 0.1"),
    ], ids=["facade_material_t2", "unbounded_w1", "unbounded_w2",
            "street_w2", "aperture_p_window"])
    def test_penetration_key_the_variant_does_not_take(self, tmp_path,
                                                        variant, extra):
        path = tmp_path / "pen.ini"
        path.write_text(f"[penetration]\nvariant = {variant}\n{extra}\n",
                        encoding="utf-8")
        name, key = variant.split()[0], extra.split()[0]
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(str(path))}: \[penetration\] {name} variant "
                rf"does not take {key}$")):
            load_config(path)

    def test_penetration_material_t2_optional(self, tmp_path):
        path = tmp_path / "pen.ini"
        path.write_text("[penetration]\nvariant = aperture\nw1_m = 3.0\n"
                        "w2_m = 2.0\nmaterial_t2 = 0.5\n", encoding="utf-8")
        assert load_config(path).penetration.material_t2 == 0.5
        path.write_text("[penetration]\nvariant = unbounded\n", encoding="utf-8")
        assert load_config(path).penetration.material_t2 == 1.0


SHIPPED_CONFIGS = sorted(str(p.relative_to(REPO_ROOT))
                         for p in (REPO_ROOT / "configs").rglob("*.ini"))
HOSTILE_VALUES = st.sampled_from(["nan", "NaN", "inf", "-inf", "0", "-0", "5e-324",
                                  "1e308", "1e400", "-1", "text", ""])
FUZZ_VALUES = HOSTILE_VALUES | st.text("0123456789.-+eE", max_size=6)


@st.composite
def edited_scenes(draw):
    """A shipped config, 1 to 3 of its keys set to hostile values, and a
    morphology."""
    config = draw(st.sampled_from(SHIPPED_CONFIGS))
    parser = read_config(REPO_ROOT / config)
    keys = [(section, key) for section in parser.sections() for key in parser[section]]
    picked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    edits = [(section, key, draw(FUZZ_VALUES)) for section, key in picked]
    return config, edits, draw(st.sampled_from(sorted(MORPHOLOGIES)))


@settings(max_examples=100, deadline=None)
@given(scene=edited_scenes())
def test_hostile_config_values_exit_cleanly(scene):
    # any value in any key of any shipped scene ends in output or in one
    # error line, never a traceback
    config, edits, morphology = scene
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.ini"
        write_edited_config(REPO_ROOT / config, path, edits)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["predict", str(path), morphology, "1:1000:5"])
    if code == 0:
        assert err.getvalue() == ""
        assert len(out.getvalue().splitlines()) == 6
    else:
        assert code == 1, (edits, morphology)
        assert err.getvalue().startswith("pathgain: error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
