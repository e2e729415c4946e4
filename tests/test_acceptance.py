"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or read the
captured output).  Criterion 1 asserts the documented bounds for the
low-grazing reflection approximations over refraction indices 1.5 to 3;
the exponential forms implemented here (and their stated coefficient
rates) do not meet those bounds near the low end of that index range, so
the criterion fails with the measured deviations; see the test body and
the surface tests for the quantified breakdown.
"""

import math
import time

import numpy as np
import pytest

from pathgain import cli, verify
from pathgain.canyon import CanyonGeometry, LosLink, los_gain_incoherent
from pathgain.diffuse import DiffuseLink, PenetrationSpec, diffuse_pathgain, t_eff
from pathgain.fitting import (
    MeasurementDataset,
    fit_slope_intercept,
)
from pathgain.morphology import (
    FoliageLayer,
    IndoorClutter,
    Link,
    MacroGeometry,
    StreetScene,
    canyon_total_gain,
    outdoor_indoor_canyon_gain,
    overtop_gain,
    sidewalk_unguided_gain,
    suburban_indoor_gain,
    suburban_street_gain,
)
from pathgain.oracles import (
    hotwall_quadrature,
    image_sum_power,
    oi_image_series_power,
    roughness_loss_integral,
)
from pathgain.reference import (
    ThreeGppScenario,
    tr38901_pathloss,
    uma_nlos_36814,
)
from pathgain.surface import (
    Dielectric,
    fresnel_exact,
    fresnel_low_grazing,
    roughness_loss_rate,
    wall_loss,
)
from pathgain.units import wavelength_m, wavenumber_rad_m

from conftest import AVENUE_WALL, CORRIDOR_WALL, URBAN_WALL, db, line_db

WALL_SETS = {"corridor": (CORRIDOR_WALL, 1.6, 2.2, 1.0),
             "urban": (URBAN_WALL, 8.6, 5.0, 1.5)}


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


def fit_log_slope(ranges, gains_db):
    return float(np.polyfit(np.log10(ranges), gains_db, 1)[0])


def test_criterion_01_fresnel_approximation():
    """Low-grazing reflection approximations vs exact coefficients:
    |perp diff| < 0.02 and |parallel diff| < 0.05 for theta <= 0.1 rad,
    index in [1.5, 3]."""
    start = time.perf_counter()
    thetas = np.linspace(1e-4, 0.1, 101)
    indices = np.linspace(1.5, 3.0, 61)
    worst = {"perpendicular": (0.0, None), "parallel": (0.0, None)}
    for n in indices:
        d = Dielectric(float(n))
        for pol in worst:
            dev = max(abs(fresnel_low_grazing(float(t), d, pol)
                          - fresnel_exact(float(t), d, pol)) for t in thetas)
            if dev > worst[pol][0]:
                worst[pol] = (dev, float(n))
    elapsed = time.perf_counter() - start
    perp_dev, perp_n = worst["perpendicular"]
    par_dev, par_n = worst["parallel"]
    passed = perp_dev < 0.02 and par_dev < 0.05 and elapsed < 1.0
    report(1, "fresnel approximation", passed,
           f"max perp dev {perp_dev:.4f} at n={perp_n:.2f} (bound 0.02), "
           f"max parallel dev {par_dev:.4f} at n={par_n:.2f} (bound 0.05), "
           f"{elapsed:.2f}s")
    assert elapsed < 1.0
    if not passed:
        pytest.fail(
            "the exponential low-grazing forms use the large-index rates "
            "2/n (perpendicular) and 2 n^2/sqrt(n^2-2) (parallel), which "
            "do not track the exact coefficients once n approaches 1.5: "
            f"measured max deviations {perp_dev:.4f} (perpendicular, bound "
            f"0.02) and {par_dev:.4f} (parallel, bound 0.05), both at "
            "n=1.5, theta=0.1 rad.  The bounds do hold for n >= 2.0 / "
            "n >= 2.25 respectively (see test_surface.py).  The forms are "
            "implemented verbatim by design, so this criterion cannot pass "
            "as stated; the analysis is in the README's \"Note on the "
            "acceptance gate\" and in tests/test_surface.py."
        )


def test_criterion_02_roughness_closed_form():
    """Roughness loss term within 2% of the spectrum-integral quadrature
    for both wall sets at 2/3.5/28 GHz, theta in [0.001, 0.05]."""
    start = time.perf_counter()
    worst = 0.0
    for wall in (CORRIDOR_WALL, URBAN_WALL):
        rough = wall.roughness
        for f_hz in (2e9, 3.5e9, 28e9):
            k = wavenumber_rad_m(f_hz)
            for theta in np.linspace(0.001, 0.05, 8):
                closed = roughness_loss_rate(rough, k) * theta
                oracle = roughness_loss_integral(float(theta), rough, k)
                worst = max(worst, abs(oracle / closed - 1.0))
    elapsed = time.perf_counter() - start
    passed = worst < 0.02 and elapsed < 10.0
    report(2, "roughness closed form", passed,
           f"worst ratio error {worst:.2e} (bound 2%), {elapsed:.2f}s")
    assert worst < 0.02
    assert elapsed < 10.0


def test_criterion_03_los_canyon():
    """Waveguide LOS law within 1.5 dB of the exact image sum for
    r/w in [10, 200], both wall sets, 2 and 28 GHz; fitted slope of the
    closed form -15 +/- 0.1 dB/decade."""
    start = time.perf_counter()
    worst = 0.0
    for label, (wall, width, zs, z) in WALL_SETS.items():
        geometry = CanyonGeometry(width, zs, z, wall)
        for f_hz in (2e9, 28e9):
            for r_over_w in np.geomspace(10.0, 200.0, 13):
                r = r_over_w * width
                x = math.sqrt(max(r * r - (zs - z) ** 2, 1e-9))
                link = LosLink(geometry, x, f_hz)
                closed = los_gain_incoherent(link).gain
                oracle = image_sum_power(link)
                worst = max(worst, abs(db(closed) - db(oracle)))
            # distance exponent of the closed form itself (no floor)
            sweep = np.geomspace(10.0 * width, 100.0 * width, 25)
            gains, rs = [], []
            for x in sweep:
                res = los_gain_incoherent(LosLink(geometry, float(x), f_hz))
                gains.append(db(res.factors["spreading"]))
                rs.append(res.range_m)
            slope = fit_log_slope(rs, gains)
            assert slope == pytest.approx(-15.0, abs=0.1)
    elapsed = time.perf_counter() - start
    passed = worst < 1.5 and elapsed < 30.0
    report(3, "LOS canyon vs image sum", passed,
           f"worst gap {worst:.2f} dB (bound 1.5), slopes -15.0, {elapsed:.2f}s")
    assert worst < 1.5
    assert elapsed < 30.0


def test_criterion_04_diffuse_halfspace():
    """Unbounded hot-wall quadrature within 0.05 dB of the closed quartic
    law; rectangular aperture quadrature within 0.05 dB of the arctan
    form over w/d in [0.1, 100]; T_eff limit chain to 1e-4 relative."""
    start = time.perf_counter()
    lam = wavelength_m(28e9)
    worst_unbounded = 0.0
    for kappa, d_in in ((0.0, 1.0), (0.38, 10.0)):
        link = DiffuseLink(20.0, 100.0, d_in, kappa, lam)
        spec = PenetrationSpec.unbounded()
        gap = abs(db(diffuse_pathgain(link, spec))
                  - db(hotwall_quadrature(link, spec)))
        worst_unbounded = max(worst_unbounded, gap)
    worst_aperture = 0.0
    d_in = 1.0
    link = DiffuseLink(20.0, 100.0, d_in, 0.0, lam)
    for w1 in (0.1, 1.0, 10.0, 100.0):
        for w2 in (0.1, 1.0, 10.0, 100.0):
            spec = PenetrationSpec.aperture(w1 * d_in, w2 * d_in)
            gap = abs(db(diffuse_pathgain(link, spec))
                      - db(hotwall_quadrature(link, spec)))
            worst_aperture = max(worst_aperture, gap)
    aperture_to_street = abs(
        t_eff(PenetrationSpec.aperture(3.0, 1e6 * d_in), d_in)
        / t_eff(PenetrationSpec.street(3.0), d_in) - 1.0)
    street_to_unbounded = abs(
        t_eff(PenetrationSpec.street(1e6 * d_in), d_in) - 1.0)
    chain = max(aperture_to_street, street_to_unbounded)
    elapsed = time.perf_counter() - start
    passed = (worst_unbounded < 0.05 and worst_aperture < 0.05
              and chain < 1e-4 and elapsed < 60.0)
    report(4, "diffuse half-space", passed,
           f"unbounded {worst_unbounded:.4f} dB, aperture {worst_aperture:.4f} dB "
           f"(bounds 0.05), limit chain {chain:.1e} (bound 1e-4), {elapsed:.2f}s")
    assert worst_unbounded < 0.05
    assert worst_aperture < 0.05
    assert chain < 1e-4
    assert elapsed < 60.0


def test_criterion_05_outdoor_indoor_canyon():
    """Guided outdoor-indoor law within 1.5 dB of the reflection-order
    series for r >= 10 L w on both scenario parameter sets; fitted slope
    -25 +/- 0.1 dB/decade."""
    start = time.perf_counter()
    pen = PenetrationSpec.facade_mixture(0.37, 1.0, 0.0)
    indoor = IndoorClutter(0.18, 2.0)
    cases = [(URBAN_WALL, 8.6, 5.0, 1.5, 3.5e9),
             (CORRIDOR_WALL, 1.6, 2.2, 1.0, 2e9),
             (CORRIDOR_WALL, 1.6, 2.2, 1.0, 28e9)]
    worst = 0.0
    for wall, width, zs, z, f_hz in cases:
        geometry = CanyonGeometry(width, zs, z, wall)
        loss = wall_loss(wall, wavenumber_rad_m(f_hz))
        for mult in (10.0, 20.0, 50.0):
            link = Link(mult * loss * width, f_hz)
            closed = outdoor_indoor_canyon_gain(geometry, pen, indoor, link).gain
            oracle = oi_image_series_power(geometry, pen, indoor, link)
            worst = max(worst, abs(db(closed) - db(oracle)))
        sweep = np.geomspace(100.0, 1000.0, 25)
        gains, rs = [], []
        for x in sweep:
            res = outdoor_indoor_canyon_gain(geometry, pen, indoor,
                                             Link(float(x), f_hz))
            gains.append(db(res.gain / res.factors["ground_bounce"]))
            rs.append(res.range_m)
        assert fit_log_slope(rs, gains) == pytest.approx(-25.0, abs=0.1)
    elapsed = time.perf_counter() - start
    passed = worst < 1.5 and elapsed < 30.0
    report(5, "outdoor-indoor canyon vs series", passed,
           f"worst gap {worst:.2f} dB (bound 1.5), slopes -25.0, {elapsed:.2f}s")
    assert worst < 1.5
    assert elapsed < 30.0


def test_criterion_06_quartic_slopes():
    """All side/over-top penetration laws fit -40 +/- 0.1 dB/decade over
    r in [100, 1000] m once absorption is disabled and the ground bounce
    divided out."""
    start = time.perf_counter()
    geometry = CanyonGeometry(20.0, 3.0, 1.0)
    scene = StreetScene(geometry, FoliageLayer(10.0, 0.0), 20.0)
    sidewalk = StreetScene(
        CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
        FoliageLayer(3.0, 0.0, n_tree_per_m=0.05, tree_width_m=4.0,
                     tree_height_m=10.0),
        standoff_m=8.0)
    macro = MacroGeometry(14.0, 10.0, 1.5, 30.0)
    indoor = IndoorClutter(0.0, 1.0)
    pen = PenetrationSpec.facade_mixture(0.1, 1.0, 0.0)
    # (law, factors divided out of its gain)
    laws = {
        "suburban_street": (lambda x: suburban_street_gain(
            scene, Link(x, 28e9)), ("ground_bounce",)),
        "suburban_indoor": (lambda x: suburban_indoor_gain(
            scene, indoor, pen, Link(x, 28e9)), ("ground_bounce",)),
        "over_top_street": (lambda x: overtop_gain(
            macro, 0.0, Link(x, 28e9)), ("ground_bounce",)),
        "over_top_wide": (lambda x: overtop_gain(
            macro, 0.0, Link(x, 28e9)), ("ground_bounce", "t_eff")),
        "sidewalk_unguided": (lambda x: sidewalk_unguided_gain(
            sidewalk, Link(x, 28e9)), ("ground_bounce",)),
    }
    slopes = {}
    for name, (law, divided_out) in laws.items():
        gains, rs = [], []
        for x in np.geomspace(100.0, 1000.0, 25):
            res = law(float(x))
            gains.append(db(res.gain / math.prod(res.factors[f] for f in divided_out)))
            rs.append(res.range_m)
        slopes[name] = fit_log_slope(rs, gains)
        assert slopes[name] == pytest.approx(-40.0, abs=0.1), name
    elapsed = time.perf_counter() - start
    spread = max(abs(s + 40.0) for s in slopes.values())
    report(6, "quartic distance exponents", True,
           f"{len(slopes)} laws within {spread:.2e} of -40 dB/decade, "
           f"{elapsed:.2f}s")


def test_criterion_07_composite_model():
    """Component breakdown sums exactly to the total; dense-tree streets
    are unguided-dominated and sparse-tree streets guided-dominated
    beyond 200 m."""
    start = time.perf_counter()
    sparse = StreetScene(
        CanyonGeometry(32.0, 56.0, 1.5, AVENUE_WALL),
        FoliageLayer(3.0, 0.38, n_tree_per_m=0.05, tree_width_m=4.0,
                     tree_height_m=10.0),
        standoff_m=8.0, direct_veg_path_m=20.0, kappa_extra_np_per_m=0.02)
    sparse_macro = MacroGeometry(56.0, 10.0, 1.5, 32.0)
    dense = StreetScene(
        CanyonGeometry(40.0, 20.0, 1.5, AVENUE_WALL),
        FoliageLayer(10.0, 0.38, n_tree_per_m=1.0, tree_width_m=4.0,
                     tree_height_m=10.0),
        standoff_m=40.0)
    dense_macro = MacroGeometry(20.0, 10.0, 1.5, 40.0)
    for r in np.geomspace(100.0, 1000.0, 15):
        res = canyon_total_gain(sparse, sparse_macro, Link(float(r), 28e9))
        total = (res.components["canyon_trees"] + res.components["over_top"]
                 + res.components["direct"])
        assert res.gain == total
    for r in np.geomspace(200.0, 1000.0, 12):
        s = canyon_total_gain(sparse, sparse_macro, Link(float(r), 28e9)).components
        assert s["guided"] == max(s["guided"], s["unguided"], s["over_top"],
                                  s["direct"])
        d = canyon_total_gain(dense, dense_macro, Link(float(r), 28e9)).components
        assert d["unguided"] == max(d["guided"], d["unguided"], d["over_top"],
                                    d["direct"])
    elapsed = time.perf_counter() - start
    report(7, "composite urban model", True,
           f"breakdown exact; sparse guided-dominated, dense "
           f"unguided-dominated beyond 200 m, {elapsed:.2f}s")


def test_criterion_08_reference_models():
    """Explicit-geometry NLOS macro formula regression-locked; 38.901
    NLOS >= LOS; the two NLOS macro models within 10 dB on the vegetated
    street geometry for d in [200, 1000] m."""
    start = time.perf_counter()
    locked = uma_nlos_36814(20.0, 10.0, 14.0, 1.5, 28.0, 1000.0)
    assert locked == pytest.approx(162.47923552204958, rel=1e-12)
    for family in ("UMa", "UMi", "InH"):
        for f_ghz in (2.0, 28.0):
            los = ThreeGppScenario(family, "LOS", f_ghz)
            nlos = ThreeGppScenario(family, "NLOS", f_ghz)
            top = 80.0 if family == "InH" else 5000.0
            for dist in np.geomspace(10.0, top, 20):
                assert tr38901_pathloss(nlos, float(dist)) >= \
                    tr38901_pathloss(los, float(dist)) - 1e-12
    scenario = ThreeGppScenario("UMa", "NLOS", 28.0, base_height_m=14.0)
    worst = 0.0
    for dist in np.geomspace(200.0, 1000.0, 15):
        gap = abs(uma_nlos_36814(30.0, 10.0, 14.0, 1.5, 28.0, float(dist))
                  - tr38901_pathloss(scenario, float(dist)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    passed = worst < 10.0
    report(8, "reference models", passed,
           f"regression lock ok, NLOS >= LOS, macro-model gap {worst:.2f} dB "
           f"(bound 10), {elapsed:.2f}s")
    assert worst < 10.0


def test_criterion_09_fitting():
    """Zero residual on noiseless power laws; seeded 3 dB noise recovery
    of the exponent within 0.15 and RMSE in [2.5, 3.5] on 500 points;
    pooled fit spreads while per-street fits stay exact."""
    start = time.perf_counter()
    model = (-45.0, 1.5)
    ranges = np.geomspace(10.0, 1000.0, 80)
    line = np.array([line_db(*model, float(r)) for r in ranges])
    noiseless = MeasurementDataset(ranges, line, 28e9)
    fit = fit_slope_intercept(noiseless)
    assert fit.rmse_db < 1e-10
    assert fit.exponent_n == pytest.approx(1.5, abs=1e-12)

    rng = np.random.default_rng(20260810)
    noisy_r = 10.0 ** rng.uniform(1.0, 3.0, 500)
    noisy = MeasurementDataset(
        noisy_r, [line_db(*model, float(r)) + float(rng.normal(0.0, 3.0))
                  for r in noisy_r], 28e9)
    noisy_fit = fit_slope_intercept(noisy)
    assert 2.5 <= noisy_fit.rmse_db <= 3.5
    assert abs(noisy_fit.exponent_n - 1.5) <= 0.15

    up = MeasurementDataset(ranges, line + 10.0, 28e9)
    down = MeasurementDataset(ranges, line - 10.0, 28e9)
    assert fit_slope_intercept(up).rmse_db < 1e-9
    assert fit_slope_intercept(down).rmse_db < 1e-9
    pooled = MeasurementDataset(np.concatenate([up.ranges_m, down.ranges_m]),
                                np.concatenate([up.gains_db, down.gains_db]), 28e9)
    pooled_fit = fit_slope_intercept(pooled)
    assert pooled_fit.rmse_db > 3.0
    elapsed = time.perf_counter() - start
    report(9, "fitting", True,
           f"noiseless exact, seeded n={noisy_fit.exponent_n:.3f}, "
           f"rmse={noisy_fit.rmse_db:.2f} dB, pooled spread "
           f"{pooled_fit.rmse_db:.1f} dB, {elapsed:.2f}s")


def test_criterion_10_determinism(capsys, tmp_path):
    """`verify all` exits 0 and repeated runs are byte-identical."""
    start = time.perf_counter()
    outputs = []
    tables = []
    for name in ("first.csv", "second.csv"):
        table = tmp_path / name
        code = cli.main(["verify", "all", "--output", str(table)])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
        tables.append(table.read_bytes())
    assert outputs[0] == outputs[1]
    assert tables[0] == tables[1]
    n_comparisons = len(verify.run_suites(list(verify.SUITES)))
    elapsed = time.perf_counter() - start
    report(10, "end-to-end determinism", True,
           f"verify all exit 0 twice, {n_comparisons} comparisons "
           f"byte-identical, {elapsed:.2f}s")
