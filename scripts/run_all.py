#!/usr/bin/env python3
"""Run the full experiment battery at reporting scale.

Runs every experiment once, writes one CSV per experiment into
--results-dir (default ./results) plus a combined JSON of the same rows,
and prints one verdict line per experiment.  Exits nonzero if any
experiment verdict fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

from onebit.harness import EXPERIMENT_ORDER, ExperimentConfig, run_experiment, write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--net-size", type=int, default=200)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--results-dir", default="results")
    args = ap.parse_args()

    out = pathlib.Path(args.results_dir)
    combined = ExperimentConfig(
        experiment="all",
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        net_size=args.net_size,
        out_path=str(out / "all.json"),
        format="json",
    )
    try:
        combined.validate()
    except ValueError as exc:
        ap.error(str(exc))
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = []
    for name in EXPERIMENT_ORDER:
        t0 = time.time()
        try:
            batch, verdict = run_experiment(name, combined, workers=args.workers)
        except ValueError as exc:  # a bad --workers, rejected before any trial
            ap.error(str(exc))
        per_experiment = dataclasses.replace(
            combined, experiment=name, out_path=str(out / f"{name}.csv"), format="csv"
        )
        path = write_report(per_experiment, batch)
        rows.extend(batch)
        print(f"{name:13s} {'pass' if verdict else 'FAIL'}  ({time.time() - t0:6.1f}s)  -> {path}")
        if not verdict:
            failures.append(name)

    path = write_report(combined, rows)
    print(f"{'all':13s} {'FAIL' if failures else 'pass'}  -> {path}")

    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
