"""Traced run: per-layer self times and exact counts.

Spans are recorded from this file around calls into each layer, either
directly around the calls the probe makes or by wrapping the public
functions of the pathgain modules that `cli.main` and `verify.run_suites`
call in-process.  Each span has a name, a start, an end and a parent; a
layer's self time is its span's duration minus the time its child spans
cover.  Spans are kept in memory and written to .bench_work/ at the end.

The tracer's own work on each wrapped call is measured once per run on a
wrapped no-op (`span_costs`) and taken out of every figure: the part that
falls inside a span's timestamps from that span, the part outside them
from its parent.

The traced run does one untraced round of the workload (so its operation
counts match an untraced run's), then times the in-process probe without
tracing and with it, twice each; the difference of the fastest of each is
the tracing overhead.  Import times come from fresh interpreters.
"""

import contextlib
import gc
import io
import json
import math
import random
import statistics
import sys
import time

import numpy as np

import workloads

IMPORT_REPEATS = 3
PROBE_POINTS = 1000
GAP_POINTS = 16
OVERHEAD_PAIRS = 2
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5
ORACLES = ("image_sum_power", "oi_image_series_power",
           "guided_trees_series_power", "hotwall_quadrature",
           "radial_flux_integral", "roughness_loss_integral")
SUITES = ("canyon", "outdoor_indoor", "trees", "diffuse", "roughness")
SUITE_PROFILES = ("default", "strict")


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent index].  A name
    derived from the call's arguments is kept as (function, args, kwargs)
    until `resolve`, so deriving it costs nothing while spans are timed."""

    def __init__(self):
        self.spans: list[list] = []
        self.deferred: list[bool] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name):
        """fn with a span around every call; name may be a callable that
        derives the span name from the call's arguments."""
        if callable(name):
            def traced(*args, **kwargs):
                index = self.begin((name, args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(index)
        else:
            def traced(*args, **kwargs):
                index = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(index)
        return traced

    def resolve(self):
        """Turn deferred names into strings; call once, after tracing."""
        self.deferred = [isinstance(span[0], tuple) for span in self.spans]
        for span, deferred in zip(self.spans, self.deferred):
            if deferred:
                fn, args, kwargs = span[0]
                span[0] = fn(*args, **kwargs)

    def layers(self, costs) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds), with the
        tracer's cost taken out; costs is `span_costs()`.  Call after
        `resolve`."""
        count = len(self.spans)
        child_ns = [0] * count
        own_cost_ns = [0.0] * count   # own inside + children's outside
        all_cost_ns = [0.0] * count   # the same over the whole subtree
        for index in reversed(range(count)):  # children follow parents
            _, start, end, parent = self.spans[index]
            outside, inside = costs[self.deferred[index]]
            own_cost_ns[index] += inside
            all_cost_ns[index] += inside
            if parent >= 0:
                child_ns[parent] += end - start
                own_cost_ns[parent] += outside
                all_cost_ns[parent] += outside + all_cost_ns[index]
        out: dict[str, list] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child_ns[index] - own_cost_ns[index]
            entry[2] += end - start - all_cost_ns[index]
        return {name: (calls, self_ns / 1e9, total_ns / 1e9)
                for name, (calls, self_ns, total_ns) in out.items()}

    def under(self, ancestor: str, prefixes: tuple[str, ...]) -> int:
        """Spans whose name starts with a prefix and that run inside a span
        named ancestor."""
        count = 0
        for name, _, _, parent in self.spans:
            if not name.startswith(prefixes):
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


class NullTracer(Tracer):
    """Same calls, no recording: the untraced side of the overhead."""

    def begin(self, name):
        return 0

    def end(self, index):
        pass

    def wrap(self, fn, name):
        return fn


def span_costs() -> dict[bool, tuple[float, float]]:
    """Nanoseconds the tracer adds to one wrapped call, beyond the loop and
    the call the program makes anyway: (charged to the parent's self time,
    inside the span's own timestamps), keyed by whether the name is
    derived from the arguments.  Fastest of CALIBRATION_REPEATS loops of
    CALIBRATION_CALLS calls to a wrapped no-op."""
    def noop(x):
        return x

    items = range(CALIBRATION_CALLS)

    def fastest_ns(loop) -> float:
        best = math.inf
        for _ in range(CALIBRATION_REPEATS):
            started = time.perf_counter_ns()
            loop()
            best = min(best, time.perf_counter_ns() - started)
        return best / CALIBRATION_CALLS

    def empty():
        for x in items:
            pass

    def direct():
        for x in items:
            noop(x)

    loop_ns = fastest_ns(empty)
    call_ns = fastest_ns(direct) - loop_ns
    costs = {}
    for deferred in (False, True):
        outside = inside = math.inf
        for _ in range(CALIBRATION_REPEATS):
            tracer = Tracer()
            traced = tracer.wrap(noop, (lambda x: "noop") if deferred else "noop")
            parent = tracer.begin("parent")
            for x in items:
                traced(x)
            tracer.end(parent)
            children_ns = sum(end - start for _, start, end, _ in tracer.spans[1:])
            _, start, end, _ = tracer.spans[0]
            outside = min(outside, (end - start - children_ns) / CALIBRATION_CALLS
                          - loop_ns)
            inside = min(inside, children_ns / CALIBRATION_CALLS - call_ns)
        costs[deferred] = (outside, inside)
    return costs


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer functions that cli.main and verify.run_suites reach."""
    from pathgain import cli, config, oracles, verify

    def evaluator_factory(cfg, name):
        evaluator = config.make_evaluator(cfg, name)
        return tracer.wrap(evaluator, f"law.{name}")

    def tr38901_name(scenario, distance_m):
        return (f"reference.tr38901_{scenario.family.lower()}_"
                f"{scenario.condition.lower()}")

    saved = []

    def patch(owner, attr, name, wrapped=None):
        """Wrap owner.attr in spans; a name the module no longer has is
        skipped, and its per-layer figures read NaN."""
        if hasattr(owner, attr):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(wrapped or original, name))

    patch(cli, "load_config", "config.load_config")
    patch(cli, "make_evaluator", "config.make_evaluator", evaluator_factory)
    patch(cli, "tr38901_pathloss", tr38901_name)
    patch(cli, "uma_nlos_36814", "reference.uma_nlos_36814")
    for attr in ("load_dataset", "rmse_against_model", "fit_slope_intercept"):
        patch(cli, attr, f"fitting.{attr}")
    for attr in ORACLES:
        patch(oracles, attr, f"oracles.{attr}")
    for suite in list(verify.SUITES):
        patch_suite = tracer.wrap(verify.SUITES[suite],
                                  lambda profile="default", _s=suite:
                                  f"verify.{_s}_{profile}")
        saved.append((verify.SUITES, suite, verify.SUITES[suite]))
        verify.SUITES[suite] = patch_suite
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


class Probe:
    """Seeded in-process calls into every layer."""

    def __init__(self, session):
        from pathgain.config import load_config
        rng = random.Random(session.seed)
        self.session = session
        self.configs = workloads.dense_configs(session, rng)
        self.spec = workloads.sweep_spec(rng, PROBE_POINTS)
        self.ranges = np.geomspace(*map(float, self.spec.split(":")[:2]),
                                   PROBE_POINTS)
        self.pairs = workloads.supported_pairs(session.root)
        self.config_files = sorted({c for c, _ in self.pairs})
        self.scenes = {path: load_config(path) for path in self.config_files}
        self.loaded = {m: self.scenes[c] for m, c in self.configs.items()}
        import gapmap
        self.gap_points = [rng.choice(gapmap.grid()) for _ in range(GAP_POINTS)]
        self.evaluated_records = 0

    def run(self, tracer: Tracer):
        from pathgain import cli, config, fitting, verify
        import gapmap
        self.evaluated_records = 0
        load_config = tracer.wrap(config.load_config, "config.load_config")
        make_evaluator = tracer.wrap(config.make_evaluator, "config.make_evaluator")
        for path in self.config_files:
            load_config(path)
        for path, name in self.pairs:
            make_evaluator(self.scenes[path], name)
        for name, cfg in self.loaded.items():
            law = tracer.wrap(config.make_evaluator(cfg, name), f"law.{name}")
            for r in self.ranges:
                law(float(r))
        with instrumented(tracer):
            # the predictors `evaluate` builds, on a scene with the [macro]
            # block uma_nlos_36814 needs; spans come from the wrapped
            # reference functions they call
            for model in workloads.REFERENCE_MODELS:
                predictor = cli._model_predictor(self.loaded["over_top"], model)
                for r in self.ranges:
                    predictor(float(r))
            sweeps = {}
            for name, path in self.configs.items():
                out = self.session.path(f"probe-{name}.csv")
                with tracer.span("cli.predict"):
                    _quiet(cli.main, ["predict", path, name, self.spec,
                                      "--output", out])
                sweeps[name] = out
            load = tracer.wrap(fitting.load_dataset, "fitting.load_dataset")
            rmse = tracer.wrap(fitting.rmse_against_model,
                               "fitting.rmse_against_model")
            fit = tracer.wrap(fitting.fit_slope_intercept,
                              "fitting.fit_slope_intercept")
            for name, out in sweeps.items():
                dataset = load(out, self.loaded[name].frequency_hz)
                law = config.make_evaluator(self.loaded[name], name)
                rmse(dataset, tracer.wrap(lambda r, law=law: law(r).gain_db,
                                          "fitting.predictor"))
                fit(dataset)
            for name, model in workloads.DENSE_EVALUATE.items():
                with tracer.span("cli.evaluate"):
                    _quiet(cli.main, ["evaluate", sweeps[name], self.configs[name],
                                      model, "--output",
                                      self.session.path(f"probe-{name}-res.csv")])
                self.evaluated_records += PROBE_POINTS
            for profile in SUITE_PROFILES:
                verify.run_suites(list(verify.SUITES), profile)
            for point in self.gap_points:
                gapmap.evaluate(point)


def _quiet(fn, argv):
    """Run cli.main with its stdout discarded; it must return 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = fn(argv)
    if code != 0:
        raise RuntimeError(f"pathgain {' '.join(argv)} exited {code}")


def quadrature_counts() -> tuple[int, int]:
    """quad/dblquad calls and integrand evaluations of `verify all` at the
    default profile.  scipy.integrate.quad and .dblquad are replaced for the
    duration by counting stand-ins that wrap each integrand; oracles look
    them up on the module at call time."""
    from scipy import integrate
    from pathgain import verify
    counts = {"calls": 0, "evals": 0}
    originals = {name: getattr(integrate, name) for name in ("quad", "dblquad")}

    def counting(original):
        def stand_in(func, *args, **kwargs):
            counts["calls"] += 1

            def integrand(*x):
                counts["evals"] += 1
                return func(*x)
            return original(integrand, *args, **kwargs)
        return stand_in

    for name, original in originals.items():
        setattr(integrate, name, counting(original))
    try:
        verify.run_suites(list(verify.SUITES), "default")
    finally:
        for name, original in originals.items():
            setattr(integrate, name, original)
    return counts["calls"], counts["evals"]


def import_times(session) -> dict[str, float]:
    """Seconds an import statement takes in a fresh interpreter, median of
    IMPORT_REPEATS; each figure includes the modules the statement pulls
    in, except that scipy.integrate is timed after numpy has loaded."""
    timed = {
        "import.numpy_s": ("", "numpy"),
        "import.scipy_integrate_s": ("import numpy", "scipy.integrate"),
        "import.pathgain_cli_s": ("", "pathgain.cli"),
        "import.pathgain_verify_s": ("", "pathgain.verify"),
    }
    samples: dict[str, list[float]] = {metric: [] for metric in timed}
    for _ in range(IMPORT_REPEATS):
        for metric, (before, module) in timed.items():
            code = (f"{before}\nimport time\nstarted = time.perf_counter()\n"
                    f"import {module}\nprint(time.perf_counter() - started)")
            proc = session.spawn([sys.executable, "-c", code])
            if session.check(proc.returncode == 0,
                             f"import {module}: {proc.stderr[-300:]}"):
                samples[metric].append(float(proc.stdout))
    return {metric: statistics.median(values) if values else float("nan")
            for metric, values in samples.items()}


def traced_run(session) -> dict:
    workload = workloads.WORKLOADS[session.workload](session)
    workload.round(0)  # the operation counts and checks of one round

    probe = Probe(session)
    probe.run(NullTracer())  # warm-up: imports, lazy scipy set-up, caches
    # alternate untraced and traced probes; the fastest of each bounds the
    # overhead with less of the host's drift in it.  The cyclic collector
    # is off while probes and calibration run, on both sides: the spans the
    # tracer keeps would otherwise set off full collections that the
    # program alone never makes, and charge them to whatever span is open.
    untraced, traced = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(OVERHEAD_PAIRS):
            started = time.perf_counter()
            probe.run(NullTracer())
            untraced.append(time.perf_counter() - started)
            probe_tracer = Tracer()
            started = time.perf_counter()
            probe.run(probe_tracer)
            traced.append(time.perf_counter() - started)
        costs = span_costs()
    finally:
        gc.enable()
    quad_calls, integrand_evals = quadrature_counts()

    probe_tracer.resolve()
    layers = probe_tracer.layers(costs)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, value in import_times(session).items():
        metrics[metric] = (value, "s")

    def per_call(name, scale):
        calls, self_s, _ = layers.get(name, (0, 0.0, 0.0))
        return self_s / calls * scale if calls else float("nan")

    metrics["config.load_config_ms"] = (per_call("config.load_config", 1e3), "ms")
    metrics["config.make_evaluator_us"] = (per_call("config.make_evaluator", 1e6), "us")
    for name in workloads.MORPHOLOGIES:
        metrics[f"law.{name}_us"] = (per_call(f"law.{name}", 1e6), "us")
    for name in workloads.REFERENCE_MODELS:
        metrics[f"reference.{name}_us"] = (per_call(f"reference.{name}", 1e6), "us")
    points = layers["cli.predict"][0] * PROBE_POINTS
    metrics["cli.predict_row_us"] = (layers["cli.predict"][1] / points * 1e6, "us")
    for name in ("load_dataset", "rmse_against_model"):
        calls, self_s, _ = layers[f"fitting.{name}"]
        metrics[f"fitting.{name}_us"] = (self_s / (calls * PROBE_POINTS) * 1e6, "us")
    metrics["fitting.fit_slope_intercept_ms"] = (
        per_call("fitting.fit_slope_intercept", 1e3), "ms")
    predictor_calls = probe_tracer.under("cli.evaluate", ("law.", "reference."))
    metrics["cli.evaluate_predictor_calls_per_record"] = (
        predictor_calls / probe.evaluated_records, "count")
    for suite in SUITES:
        for profile in SUITE_PROFILES:
            calls, _, total_s = layers.get(f"verify.{suite}_{profile}", (0, 0.0, 0.0))
            metrics[f"verify.{suite}_{profile}_ms"] = (
                total_s / calls * 1e3 if calls else float("nan"), "ms")
    for name in ORACLES:
        metrics[f"oracles.{name}_ms"] = (per_call(f"oracles.{name}", 1e3), "ms")
    metrics["oracles.quad_calls"] = (quad_calls, "count")
    metrics["oracles.integrand_evals"] = (integrand_evals, "count")
    metrics["trace.overhead_pct"] = ((min(traced) - min(untraced))
                                     / min(untraced) * 100.0, "%")

    out = session.root / ".bench_work" / f"trace-{session.workload}-s{session.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(probe_tracer.spans, handle)
    return session.result(metrics, require_positive=False)

