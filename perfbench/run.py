"""onebit benchmark: one workload per run, measured in this fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``--control`` adds the workload's negative control,
which must make the run incorrect.  The last line of standard output is the
result object; the line before it holds provenance, resolved parameters and
every pass.  Exit status: 0 correct, 1 incorrect or failed run, 2 unusable
checkout or arguments.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("battery", "hemisphere", "wide-net")
SETUP_PROBES = 3  # before the first pass; one more follows every pass
MIN_PASSES = 3
MAX_SECONDS = 120
# a run must end within 180 s; passes stop by --seconds, this only catches a hang
DEADLINE_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
_PROBE = "import onebit, sys; sys.stdout.write(onebit.__file__ + '\\n'); sys.stdout.flush()"


def without_layout_randomization() -> None:
    """Re-execute this program once with address-space layout randomization off.

    Where the large temporaries of ``verify.linear_l1_rip`` land depends on
    the address-space layout: a battery pass takes either about 615k or
    about 1045k minor page faults, fixed for the life of the process, and
    the second kind of process is about 20% slower.  With randomization 14
    of 30 battery runs took the slow path; without it, 2 of 20 did.  The
    flag applies to this process and its children only; where
    personality(2) is refused, the run goes on randomized.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or persona & ADDR_NO_RANDOMIZE:
        return
    if libc.personality(persona | ADDR_NO_RANDOMIZE) != -1:
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def layout_randomized() -> bool:
    return not ctypes.CDLL(None).personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE


def probe_setup() -> float:
    """Seconds from spawning a fresh interpreter until ``import onebit`` has returned."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter did not import onebit from {SRC}")
    return elapsed


def measure(args, workloads) -> tuple[list[dict], list[float]]:
    """(passes, set-up probe times) of one run of ``--seconds``.

    Passes of the same seeded work repeat until ``--seconds`` is used up.
    With ``--trace 1`` every second pass runs with the tracer installed, so
    traced and untraced pass times come from the same process and their
    difference is the tracing overhead.  Untraced runs probe the set-up
    time before the first pass and after every pass: machine speed drifts
    in stretches of a few seconds, and probes spread over the whole run
    sample more of them than probes made back to back.
    """
    start = time.perf_counter()
    probe = not args.trace
    setup = [probe_setup() for _ in range(SETUP_PROBES)] if probe else []
    spec = workloads.WORKLOADS[args.workload]
    passes = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p["run_s"] for p in passes)
        <= args.seconds
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(workloads.one_pass(spec, args.seed, args.control, traced))
        if probe:
            setup.append(probe_setup())
    return passes, setup


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values.

    On a shared machine, speed can drift between regimes lasting tens of
    seconds, so a run's passes mix fast and slow stretches.  The mean of the
    middle half moves smoothly with that mix where the median jumps between
    the two modes, and it still ignores isolated outlier passes.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


def summarize(args, passes: list[dict], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """(result object, detail object) from the passes."""
    attempted = sum(p["attempted"] for p in passes) + len(passes) - 1
    failed = [name for p in passes for name in p["failed"]]
    first_sha = passes[0]["report_sha256"]
    failed += [
        f"deterministic.pass{i}" for i, p in enumerate(passes) if p["report_sha256"] != first_sha
    ]
    # the first pass is a warm-up (lazy set-up, first touch of memory) and is not timed
    untraced = [p for p in passes[1:] if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    run_s = interquartile_mean(p["run_s"] for p in untraced)
    if args.trace:
        layers = {
            key: interquartile_mean(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = interquartile_mean(p["run_s"] for p in traced) - run_s
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in layers.items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": interquartile_mean(p["cpu_s"] for p in untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_share": {"value": 1.0 - len(failed) / attempted, "unit": "share"},
        }
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "control": args.control,
        "report_sha256": first_sha,
        "failed_checks": failed,
        "failed_share": len(failed) / attempted,
        "setup_s_samples": setup,
        "peak_rss_mb": peak_rss_mb,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    return result, detail


def source_provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "onebit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _deadline(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", action="store_true", help="add the negative control")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not (SRC / "onebit" / "__init__.py").is_file():
        print(f"error: no onebit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        # the passes run in this process, on onebit from this checkout
        sys.path.insert(1, str(SRC))
        import workloads

        prov = {**workloads.provenance(args.seed), **source_provenance()}
        if not Path(prov["onebit"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"onebit was not imported from {SRC}")
        params = workloads.WORKLOADS[args.workload].params(args.seed)
        passes, setup = measure(args, workloads)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result, detail = summarize(args, passes, setup, peak_rss_mb)
    detail["provenance"] = {
        **prov, "run_seconds": args.seconds, "layout_randomized": layout_randomized()
    }
    detail["params"] = params
    print(
        f"{args.workload} seed={args.seed} passes={len(passes)} "
        f"failed={result['failed']}/{result['attempted']} sha={detail['report_sha256'][:12]}",
        file=sys.stderr,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    without_layout_randomization()
    sys.exit(main())
