"""Shared plumbing: the run session, timed CLI processes, checks and the
result record."""

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Proc:
    """One finished child process."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Session:
    """State of one benchmark run: its inputs, scratch directory, operation
    counts, check failures and the samples the metrics are made from."""

    def __init__(self, root, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.env = {key: value for key, value in os.environ.items()
                    if key not in ("PYTHONPATH", "PYTHONSTARTUP")}
        self.env["PYTHONPATH"] = "src"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.walls: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        self._serial = 0

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        return False

    # -- files ---------------------------------------------------------
    def path(self, name: str) -> str:
        """Path of a scratch file, relative to the repository root."""
        return str((self.work / name).relative_to(self.root))

    def read(self, relpath: str) -> str:
        with open(self.root / relpath, encoding="utf-8") as handle:
            return handle.read()

    # -- processes -----------------------------------------------------
    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion from the repository root and time it.

        Wall time runs from just before the fork to the reaped exit; the
        peak resident set comes from the child's own rusage."""
        self._serial += 1
        out_path = self.work / f"p{self._serial}.out"
        err_path = self.work / f"p{self._serial}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL,
                                     cwd=self.root, env=self.env)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        proc = Proc(child.returncode, wall, rss_mb,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return proc

    def cli(self, *args: str, record: str | None = None) -> Proc:
        """`PYTHONPATH=src python -m pathgain.cli <args>`; record names the
        wall-time sample list this process joins (None: not sampled)."""
        proc = self.spawn([sys.executable, "-m", "pathgain.cli", *args])
        if record is not None:
            self.walls.setdefault(record, []).append(proc.wall_s)
            self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)
        return proc

    def setup_seconds(self, argv: list[str]) -> float:
        """Median wall time of SETUP_REPEATS fresh interpreters running argv,
        after one untimed warm-up that compiles bytecode."""
        warm = self.spawn(argv)
        self.check(warm.returncode == 0, f"set-up process failed: {warm.stderr}")
        return statistics.median(self.spawn(argv).wall_s
                                 for _ in range(SETUP_REPEATS))

    # -- accounting ----------------------------------------------------
    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.errors.append(message)
            sys.stderr.write(f"bench: check failed: {message}\n")
        return bool(condition)

    def operation(self, ok: bool = True):
        """Count one attempted operation; ok=False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def median_wall(self, command: str) -> float:
        samples = self.walls.get(command)
        self.check(bool(samples), f"no {command} process was timed")
        return statistics.median(samples) if samples else float("nan")

    def total_wall(self, command: str) -> float:
        return float(sum(self.walls.get(command, ())))

    def result(self, metrics: dict[str, tuple[float, str]],
               require_positive: bool = True) -> dict:
        for name, (value, _) in metrics.items():
            self.check(bool(np.isfinite(value))
                       and (value > 0.0 or not require_positive),
                       f"metric {name} is {value}")
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def run_rounds(seconds: float, one_round):
    """Call one_round(index) while the next round, at the mean round time
    so far, would still end within `seconds`; at least one round runs and a
    started round always finishes."""
    started = time.perf_counter()
    index = 0
    while True:
        one_round(index)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / index > seconds:
            return
