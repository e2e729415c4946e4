"""The three workloads and the checks on their outputs.

Each workload repeats whole rounds of the same operations for the run
length, so every run fails the same share of its operations.
"""

import csv
import io
import itertools
import math
import random
import re
import resource
import sys
import time

import numpy as np

from harness import run_rounds

SPEED_OF_LIGHT_M_S = 299792458.0
MORPHOLOGIES = ("los_corridor", "los_corridor_coherent", "suburban_street",
                "suburban_indoor", "over_top", "rural", "outdoor_indoor",
                "sidewalk_trees", "canyon_total", "friis")
TR38901_MODELS = ("tr38901_uma_los", "tr38901_uma_nlos", "tr38901_umi_los",
                  "tr38901_umi_nlos", "tr38901_inh_los", "tr38901_inh_nlos")
REFERENCE_MODELS = TR38901_MODELS + ("uma_nlos_36814",)

SESSION_POINTS = 50
DENSE_POINTS = 20_000
# dense_sweep: the model each morphology's sweep is evaluated against.
# Three sweeps go back through their own law (two law calls per record);
# the other seven cover the reference models, uma_nlos_36814 on a scene
# that has the [macro] block it needs.
DENSE_EVALUATE = {
    "canyon_total": "canyon_total",
    "sidewalk_trees": "sidewalk_trees",
    "los_corridor": "los_corridor",
    "los_corridor_coherent": "tr38901_umi_los",
    "suburban_street": "tr38901_umi_nlos",
    "suburban_indoor": "tr38901_inh_nlos",
    "over_top": "uma_nlos_36814",
    "rural": "tr38901_uma_nlos",
    "outdoor_indoor": "tr38901_inh_los",
    "friis": "tr38901_uma_los",
}
DENSE_FIT = ("los_corridor_coherent", "suburban_indoor", "rural",
             "sidewalk_trees", "friis")
# dense_sweep runs `verify all` (default profile) after these sweeps, so
# that verify_wall_s is a median of like samples spread over the round
DENSE_VERIFY_AFTER = ("suburban_street", "rural", "canyon_total")
GAP_POINTS_PER_ROUND = 16
# malformed scenes that must end in a finite result or a one-line error
MALFORMED = (("bench/scenes/ground_index_1p2.ini", "los_corridor"),
             ("bench/scenes/rural_kappa_1e4.ini", "rural"))
MALFORMED_SPEC = "20:500:20"
ROUNDING_DB = 0.005 + 1e-9  # half a unit of the two-decimal dB print
FIT_LINE = re.compile(r"intercept_db_1m=(\S+) exponent_n=(\S+) rmse_db=(\S+) "
                      r"n_points=(\d+)$")
EVALUATE_LINE = re.compile(r"rmse_db=(\S+) n_points=(\d+)$")
VERIFY_LINE = re.compile(r"(\d+)/(\d+) comparisons passed$")


# -- inputs ----------------------------------------------------------------
def supported_pairs(root) -> list[tuple[str, str]]:
    """Every (config, morphology) pair the shipped configs support."""
    from pathgain.config import ConfigError, load_config, make_evaluator
    pairs = []
    for path in sorted((root / "configs").rglob("*.ini")):
        rel = str(path.relative_to(root))
        cfg = load_config(rel)
        for name in MORPHOLOGIES:
            try:
                make_evaluator(cfg, name)
            except ConfigError:
                continue
            pairs.append((rel, name))
    return pairs


def sweep_spec(rng: random.Random, points: int) -> str:
    lo = round(rng.uniform(5.0, 50.0), 1)
    hi = float(rng.randrange(300, 2001, 10))
    return f"{lo:g}:{hi:g}:{points}"


def synthetic_dataset(rng: random.Random, points: int = 200):
    """Seeded slope-intercept records with Gaussian noise: (csv text,
    intercept, exponent, noise sigma)."""
    intercept = rng.uniform(-60.0, -30.0)
    exponent = rng.uniform(1.5, 4.0)
    sigma = rng.uniform(1.0, 4.0)
    noise = np.random.default_rng(rng.getrandbits(32))
    ranges = np.exp(noise.uniform(math.log(10.0), math.log(1000.0), points))
    gains = (intercept - 10.0 * exponent * np.log10(ranges)
             + noise.normal(0.0, sigma, points))
    lines = ["range_m,path_gain_db"]
    lines += [f"{r:.6g},{g:.2f}" for r, g in zip(ranges, gains)]
    return "\n".join(lines) + "\n", intercept, exponent, sigma


# -- output checks -----------------------------------------------------------
def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, list(reader)


def check_sweep(session, text: str, config: str, morphology: str,
                spec: str) -> np.ndarray | None:
    """Check a predict CSV; returns its gains (dB) or None."""
    header, rows = _rows(text)
    lo, hi, n = spec.split(":")
    ranges = np.geomspace(float(lo), float(hi), int(n))
    where = f"predict {config} {morphology} {spec}"
    if not session.check(header[:2] == ["range_m", "path_gain_db"]
                         and header[-1] == "flags" and len(rows) == len(ranges),
                         f"{where}: header {header[:2]} or {len(rows)} rows"):
        return None
    session.check([row[0] for row in rows] == [f"{r:.6g}" for r in ranges],
                  f"{where}: ranges differ from numpy.geomspace of the spec")
    gains = np.array([float(row[1]) for row in rows])
    session.check(bool(np.all(np.isfinite(gains))) and gains.max() < 20.0,
                  f"{where}: non-finite or implausible gain")
    if morphology == "friis":
        from pathgain.config import load_config
        lam = SPEED_OF_LIGHT_M_S / load_config(config).frequency_hz
        expected = 10.0 * np.log10((lam / (4.0 * math.pi * ranges)) ** 2)
        session.check(bool(np.all(np.abs(gains - expected) <= ROUNDING_DB)),
                      f"{where}: differs from (lambda/4 pi r)^2")
    return gains


def _ols(log_ranges: np.ndarray, gains: np.ndarray):
    """Least-squares intercept and exponent, with their standard errors
    per unit noise sigma."""
    design = np.column_stack([np.ones_like(log_ranges), log_ranges])
    (intercept, slope), *_ = np.linalg.lstsq(design, gains, rcond=None)
    cov = np.linalg.inv(design.T @ design)
    return (float(intercept), float(-slope / 10.0),
            math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]) / 10.0)


def check_fit(session, proc, dataset_text: str, where: str):
    """Check `fit` output against the benchmark's own least squares.
    Returns (intercept, exponent) as printed, or None."""
    match = FIT_LINE.search(proc.stdout.strip())
    if not session.check(proc.returncode == 0 and match is not None,
                         f"fit {where}: rc={proc.returncode} {proc.stderr[-300:]}"):
        return None
    intercept, exponent = float(match[1]), float(match[2])
    _, rows = _rows(dataset_text)
    log_r = np.log10([float(row[0]) for row in rows])
    own_intercept, own_exponent, _, _ = _ols(log_r, np.array([float(row[1]) for row in rows]))
    session.check(int(match[4]) == len(rows)
                  and abs(intercept - own_intercept) <= ROUNDING_DB
                  and abs(exponent - own_exponent) <= 0.00005 + 1e-9,
                  f"fit {where}: {match[0]} but least squares gives "
                  f"{own_intercept:.4f}, {own_exponent:.6f}")
    return intercept, exponent


def check_friis_fit(session, fitted, config: str, text: str, exact: bool):
    """A friis sweep fits exponent 2 and intercept 20 log10(lambda / 4 pi),
    up to what the two-decimal rounding of the sweep can move them: at most
    0.005 dB times the absolute least-squares weights of the records, plus
    the print rounding.  exact also asks for the printed `2.0000`."""
    if fitted is None:
        return
    from pathgain.config import load_config
    intercept, exponent = fitted
    lam = SPEED_OF_LIGHT_M_S / load_config(config).frequency_hz
    expected = 20.0 * math.log10(lam / (4.0 * math.pi))
    _, rows = _rows(text)
    log_r = np.log10([float(row[0]) for row in rows])
    weights = np.abs(np.linalg.pinv(np.column_stack([np.ones_like(log_r), log_r])))
    slack_intercept = ROUNDING_DB * (weights[0].sum() + 1.0)
    slack_exponent = 0.0 if exact else ROUNDING_DB * weights[1].sum() / 10.0 + 0.00005
    session.check(abs(exponent - 2.0) <= slack_exponent + 1e-12
                  and abs(intercept - expected) <= slack_intercept,
                  f"friis fit of {config}: {intercept}, {exponent}; expected "
                  f"{expected:.4f} within {slack_intercept:.4f}, 2 within "
                  f"{slack_exponent:.5f}")


def check_synthetic_fit(session, fitted, truth):
    """The fit recovers the generating line within five standard errors."""
    if fitted is None:
        return
    text, intercept, exponent, sigma = truth
    _, rows = _rows(text)
    _, _, se_intercept, se_exponent = _ols(np.log10([float(r[0]) for r in rows]),
                                           np.zeros(len(rows)))
    session.check(abs(fitted[0] - intercept) <= 5.0 * sigma * se_intercept + 0.01
                  and abs(fitted[1] - exponent) <= 5.0 * sigma * se_exponent + 1e-4,
                  f"synthetic fit {fitted} vs truth {intercept:.3f}, "
                  f"{exponent:.4f} (sigma {sigma:.2f} dB)")


def check_evaluate(session, proc, dataset_text: str, residual_text: str,
                   own_law: bool, where: str) -> int:
    """Check `evaluate --output`; returns the records evaluated."""
    match = EVALUATE_LINE.search(proc.stdout.strip())
    if not session.check(proc.returncode == 0 and match is not None,
                         f"evaluate {where}: rc={proc.returncode} "
                         f"{proc.stderr[-300:]}"):
        return 0
    _, data = _rows(dataset_text)
    header, rows = _rows(residual_text)
    if not session.check(
            header == ["range_m", "path_gain_db", "predicted_db", "residual_db"]
            and len(rows) == len(data) == int(match[2])
            and all(r[:2] == d[:2] for r, d in zip(rows, data)),
            f"evaluate {where}: residual file does not match the dataset"):
        return 0
    table = np.array([[float(x) for x in row[1:]] for row in rows])
    measured, predicted, residual = table.T
    session.check(bool(np.all(np.abs(measured - predicted - residual)
                              <= 2 * ROUNDING_DB + 1e-9)),
                  f"evaluate {where}: residual != measured - predicted")
    rmse = float(match[1])
    own_rmse = math.sqrt(float(np.mean(residual ** 2)))
    session.check(abs(rmse - own_rmse) <= 2 * ROUNDING_DB + 1e-9,
                  f"evaluate {where}: rmse {rmse} vs {own_rmse:.4f} from residuals")
    if own_law:
        session.check(rmse <= 2 * ROUNDING_DB
                      and bool(np.all(np.abs(residual) <= 2 * ROUNDING_DB)),
                      f"evaluate {where}: own law misses its sweep by {rmse} dB")
    return len(rows)


def check_verify(session, proc, where: str) -> int:
    """Check `verify all` passed every comparison; returns their count."""
    lines = proc.stdout.strip().splitlines()
    match = VERIFY_LINE.search(lines[-1]) if lines else None
    ok = (proc.returncode == 0 and match is not None and match[1] == match[2]
          and not any("  FAIL  " in line for line in lines))
    session.check(ok, f"verify {where}: rc={proc.returncode} "
                      f"{lines[-1] if lines else proc.stderr[-300:]}")
    return int(match[2]) if ok else 0


def malformed_ok(proc) -> bool:
    """A malformed scene must end without a traceback, either with exit 0
    and finite gains or with exit 1 and a one-line `pathgain: error:`."""
    if "Traceback" in proc.stderr:
        return False
    if proc.returncode == 0:
        _, rows = _rows(proc.stdout)
        return bool(rows) and all(math.isfinite(float(row[1])) for row in rows)
    lines = proc.stderr.strip().splitlines()
    return (proc.returncode == 1 and len(lines) == 1
            and lines[0].startswith("pathgain: error:"))


# -- pieces shared by the workloads ----------------------------------------
class Counters:
    def __init__(self):
        self.points = 0
        self.records = 0
        self.comparisons = 0


def pair_steps(session, counters, config, morphology, spec, tr_model, tag):
    """predict (to stdout) -> fit -> evaluate against the own law and a
    TR 38.901 model, one process per step; returns the predict output."""
    where = f"{config} {morphology} {spec}"
    pred = session.cli("predict", config, morphology, spec, record="predict")
    session.operation(pred.returncode == 0)
    if not session.check(pred.returncode == 0,
                         f"predict {where}: rc={pred.returncode} {pred.stderr[-300:]}"):
        return pred.stdout
    check_sweep(session, pred.stdout, config, morphology, spec)
    counters.points += int(spec.split(":")[2])
    sweep = session.path(f"{tag}.csv")
    with open(session.root / sweep, "w", encoding="utf-8", newline="") as handle:
        handle.write(pred.stdout)
    yield

    fit = session.cli("fit", sweep, record="fit")
    session.operation(fit.returncode == 0)
    fitted = check_fit(session, fit, pred.stdout, where)
    if morphology == "friis":
        check_friis_fit(session, fitted, config, pred.stdout, exact=False)
    yield

    for model in (morphology, tr_model):
        evaluate_step(session, counters, sweep, pred.stdout, config, model,
                      model == morphology, f"{tag}-{model}.csv", where)
        yield
    return pred.stdout


def evaluate_step(session, counters, sweep, text, config, model, own_law,
                  out_name, where):
    out = session.path(out_name)
    ev = session.cli("evaluate", sweep, config, model, "--output", out,
                     record="evaluate")
    session.operation(ev.returncode == 0)
    residuals = session.read(out) if ev.returncode == 0 else ""
    counters.records += check_evaluate(session, ev, text, residuals, own_law,
                                       f"{where} vs {model}")


def drain(steps):
    """Run a step generator to its end and return its value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def verify_step(session, counters, profile: str):
    args = ["verify", "all"]
    if profile != "default":
        args += ["--tolerance-profile", profile]
    proc = session.cli(*args, record="verify")
    session.operation(proc.returncode == 0)
    counters.comparisons += check_verify(session, proc, profile)


class Workload:
    """Inputs drawn from the seed, one round of operations at a time, and
    the end-to-end metrics of the rounds run."""

    SETUP = ("-m", "pathgain.cli", "--help")

    def __init__(self, session):
        self.session = session
        self.rng = random.Random(session.seed)
        self.counters = Counters()

    def setup_seconds(self) -> float:
        return self.session.setup_seconds([sys.executable, *self.SETUP])

    def round(self, index: int):
        raise NotImplementedError

    def metrics(self, setup_s: float) -> dict:
        session, counters = self.session, self.counters
        return {
            "setup_s": (setup_s, "s"),
            "predict_wall_s": (session.median_wall("predict"), "s"),
            "fit_wall_s": (session.median_wall("fit"), "s"),
            "evaluate_wall_s": (session.median_wall("evaluate"), "s"),
            "verify_wall_s": (session.median_wall("verify"), "s"),
            "sweep_points_per_s": (counters.points / session.total_wall("predict"),
                                   "points/s"),
            "eval_records_per_s": (counters.records
                                   / session.total_wall("evaluate"), "records/s"),
            "oracle_calls_per_s": (counters.comparisons
                                   / session.total_wall("verify"), "calls/s"),
            "peak_rss_mb": (session.peak_rss_mb, "MB"),
        }


# -- workloads -------------------------------------------------------------
class CliSession(Workload):
    """Short CLI processes over seeded (config, morphology) pairs."""

    def __init__(self, session):
        super().__init__(session)
        self.pairs = supported_pairs(session.root)
        self.rng.shuffle(self.pairs)

    def round(self, index: int):
        session, counters, rng = self.session, self.counters, self.rng
        config, morphology = self.pairs[index % len(self.pairs)]
        spec = sweep_spec(rng, SESSION_POINTS)
        text = drain(pair_steps(session, counters, config, morphology, spec,
                                rng.choice(TR38901_MODELS), f"r{index}"))

        # the same command again must print the same bytes
        again = session.cli("predict", config, morphology, spec, record="predict")
        session.operation(again.returncode == 0)
        counters.points += SESSION_POINTS
        session.check(again.stdout == text,
                      f"predict {config} {morphology} {spec}: output not repeatable")

        truth = synthetic_dataset(rng)
        dataset = session.path(f"r{index}-synthetic.csv")
        with open(session.root / dataset, "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(truth[0])
        fit = session.cli("fit", dataset, record="fit")
        session.operation(fit.returncode == 0)
        check_synthetic_fit(session, check_fit(session, fit, truth[0], "synthetic"),
                            truth)

        for profile in ("default", "strict"):
            verify_step(session, counters, profile)

        for scene, scene_morphology in MALFORMED:
            proc = session.cli("predict", scene, scene_morphology, MALFORMED_SPEC)
            session.operation(malformed_ok(proc))


def dense_configs(session, rng) -> dict[str, str]:
    """One seeded config per morphology, among those that support it."""
    by_morphology: dict[str, list[str]] = {}
    for config, morphology in supported_pairs(session.root):
        by_morphology.setdefault(morphology, []).append(config)
    return {m: rng.choice(by_morphology[m]) for m in MORPHOLOGIES}


class DenseSweep(Workload):
    """Large sweeps written by predict and read back by fit and evaluate."""

    def __init__(self, session):
        super().__init__(session)
        self.configs = dense_configs(session, self.rng)

    def round(self, index: int):
        session, counters = self.session, self.counters
        for morphology in MORPHOLOGIES:
            config = self.configs[morphology]
            spec = sweep_spec(self.rng, DENSE_POINTS)
            where = f"{config} {morphology} {spec}"
            sweep = session.path(f"r{index}-{morphology}.csv")
            pred = session.cli("predict", config, morphology, spec,
                               "--output", sweep, record="predict")
            session.operation(pred.returncode == 0)
            if not session.check(pred.returncode == 0,
                                 f"predict {where}: {pred.stderr[-300:]}"):
                continue
            text = session.read(sweep)
            check_sweep(session, text, config, morphology, spec)
            counters.points += DENSE_POINTS

            if morphology in DENSE_FIT:
                fit = session.cli("fit", sweep, record="fit")
                session.operation(fit.returncode == 0)
                fitted = check_fit(session, fit, text, where)
                if morphology == "friis":
                    check_friis_fit(session, fitted, config, text, exact=True)

            model = DENSE_EVALUATE[morphology]
            evaluate_step(session, counters, sweep, text, config, model,
                          model == morphology, f"r{index}-{morphology}-{model}.csv",
                          where)
            if morphology in DENSE_VERIFY_AFTER:
                verify_step(session, counters, "default")


class OracleSweep(Workload):
    """In-process verify suites and gap-map points; one CLI control process
    per round keeps the per-command metrics, outside the oracle timing."""

    SETUP = ("-c", "import pathgain.verify")

    def __init__(self, session):
        super().__init__(session)
        import gapmap  # imports pathgain.verify, untimed
        self.gapmap = gapmap
        self.grid = gapmap.grid()
        self.pairs = supported_pairs(session.root)
        self.control = self._control_steps()
        self.oracle_calls = 0
        self.oracle_s = 0.0
        gapmap.evaluate(self.grid[0])  # lets scipy finish its lazy set-up

    def _control_steps(self):
        session, counters, rng = self.session, self.counters, self.rng
        for index in itertools.count():
            config, morphology = rng.choice(self.pairs)
            yield from pair_steps(session, counters, config, morphology,
                                  sweep_spec(rng, SESSION_POINTS),
                                  rng.choice(TR38901_MODELS), f"control{index}")
            verify_step(session, counters, "default")
            yield

    def round(self, index: int):
        from pathgain import verify
        session, rng = self.session, self.rng
        started = time.perf_counter()
        for profile in ("default", "strict"):
            comparisons = verify.run_suites(list(verify.SUITES), profile)
            failed = [c.name for c in comparisons if not c.passed]
            session.operation()
            session.check(not failed, f"verify {profile}: {failed} failed")
            self.oracle_calls += len(comparisons)
        for _ in range(GAP_POINTS_PER_ROUND):
            point = rng.choice(self.grid)
            session.operation()
            try:
                gaps = self.gapmap.evaluate(point)
            except RuntimeError as exc:
                session.check(False, f"gap map: {exc}")
                continue
            self.oracle_calls += self.gapmap.ORACLE_CALLS_PER_POINT
            for gap in gaps:
                session.check(not gap.judged or abs(gap.gap_db) <= gap.bound_db,
                              f"gap map {point}: {gap.name} gap {gap.gap_db:.3f} "
                              f"dB beyond its {gap.bound_db:.3f} dB bound")
        self.oracle_s += time.perf_counter() - started
        next(self.control)

    def metrics(self, setup_s: float) -> dict:
        metrics = super().metrics(setup_s)
        metrics["oracle_calls_per_s"] = (self.oracle_calls / self.oracle_s, "calls/s")
        peak_self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (max(self.session.peak_rss_mb, peak_self_mb), "MB")
        return metrics


WORKLOADS = {"cli_session": CliSession, "dense_sweep": DenseSweep,
             "oracle_sweep": OracleSweep}


def run(session, seconds: float) -> dict:
    workload = WORKLOADS[session.workload](session)
    setup_s = workload.setup_seconds()
    run_rounds(seconds, workload.round)
    return session.result(workload.metrics(setup_s))
