"""The benchmark's workloads, their correctness checks and the pass loop.

Each workload is a frozen spec whose ``run(seed, control, span)`` performs
one pass and returns its checks plus a canonical report that is hashed into
``report_sha256``; ``one_pass`` measures one pass in this process.  The master seed reaches onebit only through
``ExperimentConfig.seed`` or ``rng.substream``.  Library functions are
looked up on their modules at call time so a traced pass sees the patches.
See README.md for why each workload exists.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

import onebit
from onebit import harness, processes, rng, sphere
from spans import HARNESS_SPAN, Tracer, layer_metrics

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def no_span(name: str):
    return nullcontext()


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


@dataclass(frozen=True)
class PassOutput:
    checks: tuple[Check, ...]
    report: object  # JSON-serializable canonical output of the pass


def report_sha256(report) -> str:
    """sha256 of the canonical JSON of a report; floats keep every digit (repr)."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DELTA = 0.2
CONTROL_M = 8  # an explicit rip budget far below what the rate needs


@dataclass(frozen=True)
class Battery:
    """Experiments run through ``harness.run_experiment`` with default n, s and m.

    Every experiment verdict is a check.  The negative control adds ``rip``
    at an explicit, underdetermined budget of ``CONTROL_M`` directions,
    whose verdict must fail.
    """

    experiments: tuple[str, ...]
    trials: int
    net_size: int

    def config(self, seed: int, experiment: str = "all", m="auto") -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            experiment=experiment, m=m, delta=DELTA, trials=self.trials,
            seed=seed, net_size=self.net_size,
        )

    def params(self, seed: int) -> dict:
        cfg = self.config(seed)
        resolved = {}
        for name in self.experiments:
            # default n and s have no public accessor yet; m comes from resolve_m
            eff = harness._effective(name, cfg)
            resolved[name] = {"n": eff.n, "s": eff.s, "m": harness.resolve_m(name, cfg, eff.n, eff.s)}
        return {**asdict(self), "delta": DELTA, "control_m": CONTROL_M, "resolved": resolved}

    def run(self, seed: int, control: bool = False, span=no_span) -> PassOutput:
        cfg = self.config(seed)
        rows, checks = [], []
        for name in self.experiments:
            with span(f"{HARNESS_SPAN}.{name}"):
                batch, verdict = harness.run_experiment(name, cfg, workers=1)
            rows.extend(batch)
            checks.append(Check(f"verdict.{name}", verdict))
        if control:
            _, verdict = harness.run_experiment("rip", self.config(seed, "rip", CONTROL_M))
            checks.append(Check(f"control.rip_m{CONTROL_M}", verdict))
        rows.sort(key=harness._sort_key)
        return PassOutput(tuple(checks), [asdict(r) for r in rows])


# criterion 7's shapes: 40 uniform points of S^3, 100-point width sets
HEMI_N = 3
HEMI_POINTS = 40
HEMI_M_INNER = 10_000
HEMI_SET_POINTS = 100
FALSE_ALARM = 1e-4  # family-wise false-alarm rate of one pass's checks
# one z test per column variance, per disjoint pair's covariance, and for the width set
NUM_CHECKS = HEMI_POINTS + HEMI_POINTS // 2 + 1
Z_LIMIT = NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * NUM_CHECKS))


@dataclass(frozen=True)
class Hemisphere:
    """Criterion 7's shapes: the empirical hemisphere process against its law.

    Checks, each a two-sided z test at a Bonferroni share of ``FALSE_ALARM``:

    - every column variance of ``draws`` empirical samples against 1/4, with
      standard error 1/4 * sqrt(2 / (draws - 1)) (the counts are binomial,
      so the samples are gaussian up to O(1/m_inner) excess kurtosis);
    - the covariance of disjoint point pairs against 1/4 - d/2, with the
      gaussian standard error sqrt((var_a var_b + cov^2) / (draws - 1));
    - on a fresh 100-point set, the Cholesky width estimate against the
      empirical one, scaled by their joint standard error.

    The negative control checks the covariances against the wrong target
    1/4 - d.
    """

    draws: int = 1000
    cholesky_draws: int = 4000
    empirical_draws: int = 250

    def params(self, seed: int) -> dict:
        return {
            **asdict(self), "n": HEMI_N, "points": HEMI_POINTS, "m_inner": HEMI_M_INNER,
            "set_points": HEMI_SET_POINTS, "false_alarm": FALSE_ALARM, "z_limit": Z_LIMIT,
        }

    def run(self, seed: int, control: bool = False, span=no_span) -> PassOutput:
        gen = rng.substream(seed, "perfbench-hemisphere", "pairs")
        pts = sphere.PointSet.uniform(HEMI_N, HEMI_POINTS, gen)
        samples = processes.hemisphere_empirical_samples(pts, HEMI_M_INNER, self.draws, gen)
        dist = pts.pairwise_geodesic()
        dof = self.draws - 1
        variances = samples.var(axis=0, ddof=1)
        var_se = 0.25 * math.sqrt(2.0 / dof)
        checks = [
            Check(f"variance.{i}", abs(v - 0.25) <= Z_LIMIT * var_se)
            for i, v in enumerate(variances.tolist())
        ]
        covariances = []
        for j in range(HEMI_POINTS // 2):
            a, b = 2 * j, 2 * j + 1
            cov = float(np.cov(samples[:, a], samples[:, b], ddof=1)[0, 1])
            target = 0.25 - (1.0 if control else 0.5) * float(dist[a, b])
            se = math.sqrt((variances[a] * variances[b] + cov**2) / dof)
            covariances.append(cov)
            checks.append(Check(f"covariance.{j}", abs(cov - target) <= Z_LIMIT * se))
        gen = rng.substream(seed, "perfbench-hemisphere", "set")
        set_pts = sphere.PointSet.uniform(HEMI_N, HEMI_SET_POINTS, gen)
        chol = processes.estimate_hemisphere_width_cholesky(set_pts, self.cholesky_draws, gen)
        emp = processes.estimate_hemisphere_width_empirical(
            set_pts, HEMI_M_INNER, self.empirical_draws, gen
        )
        joint = math.hypot(chol.std_error, emp.std_error)
        checks.append(Check("width", abs(chol.value - emp.value) <= Z_LIMIT * joint))
        report = {
            "variances": variances.tolist(),
            "covariances": covariances,
            "widths": [chol.value, chol.std_error, emp.value, emp.std_error],
        }
        return PassOutput(tuple(checks), report)


WIDE_NET_EXPERIMENTS = (
    "rip", "sign-product", "small-cells", "metric-ratio",
    "embed", "nets", "widths", "sudakov",
)

WORKLOADS = {
    "battery": Battery(harness.EXPERIMENT_ORDER, trials=4, net_size=200),
    "hemisphere": Hemisphere(),
    # 2000 is the widths/sudakov cap on net size
    "wide-net": Battery(WIDE_NET_EXPERIMENTS, trials=1, net_size=2000),
}


# --- running passes --------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy ships with, or None if it cannot be asked."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(seed: int) -> dict:
    """Where and with what this process runs onebit."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "onebit": onebit.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def usage() -> tuple[float, int]:
    """(user + sys seconds, minor page faults) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def one_pass(workload, seed: int, control: bool, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    (cpu0, faults0), t0 = usage(), time.perf_counter()
    if tracer is None:
        out = workload.run(seed, control)
    else:
        with tracer.installed():
            out = workload.run(seed, control, span=tracer.span)
    run_s = time.perf_counter() - t0
    cpu1, faults1 = usage()
    record = {
        "traced": traced,
        "run_s": run_s,
        "cpu_s": cpu1 - cpu0,
        "minor_faults": faults1 - faults0,
        "attempted": len(out.checks),
        "failed": [c.name for c in out.checks if not c.passed],
        "report_sha256": report_sha256(out.report),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, run_s, harness.EXPERIMENT_ORDER)
    return record
