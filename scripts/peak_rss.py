#!/usr/bin/env python3
"""Print each experiment's peak resident memory, alone and in one sequence.

Every measurement runs in a fresh interpreter that imports onebit from the
``src`` directory next to this script and calls ``harness.run_experiment``
with ``trials=1``, ``delta=0.2``, the default n, s and m, and the given
``--net-size`` and ``--seed``, as the benchmark's wide-net workload does.
It prints the process's ``ru_maxrss`` in MB (MiB, as the benchmark reports
``peak_rss_mb``):

- after ``import onebit`` alone;
- after each experiment, each in its own process;
- after each experiment of one process that runs them all in order,
  ``--passes`` times over.

The peak of a process never falls, so in the sequence a row shows the
highest peak so far.  The allocator keeps freed memory for later arrays,
so a later pass can peak above the first.  A pass that ends well above
pass 1 shows that what a large temporary leaves behind, not the live
arrays, sets the peak; at 2000 points the passes end within 0.4 MB of each
other (the README's peak table):

    python3 scripts/peak_rss.py --net-size 2000 --seed 7 --passes 3
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# the benchmark's wide-net experiments, in its order
EXPERIMENTS = (
    "rip", "sign-product", "small-cells", "metric-ratio",
    "embed", "nets", "widths", "sudakov",
)
DELTA = 0.2


def _child(net_size: int, seed: int, passes: int, experiments: list[str]) -> None:
    """Run the experiments in this process; print one JSON line of peaks (MB) per step."""
    import resource

    from onebit import harness

    def peak() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps(["import", peak()]), flush=True)
    for _ in range(passes):
        for name in experiments:
            cfg = harness.ExperimentConfig(
                experiment=name, delta=DELTA, trials=1, seed=seed, net_size=net_size
            )
            harness.run_experiment(name, cfg)
            print(json.dumps([name, peak()]), flush=True)


def _measure(net_size: int, seed: int, passes: int, experiments: list[str]) -> list[tuple[str, float]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--child", "--net-size", str(net_size),
            "--seed", str(seed), "--passes", str(passes), *experiments]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(experiments) or 'import'} failed:\n{out.stderr}")
    return [tuple(json.loads(line)) for line in out.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--net-size", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=3, help="passes of the sequence")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("experiments", nargs="*", help=f"default: {' '.join(EXPERIMENTS)}")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    if args.child:
        _child(args.net_size, args.seed, args.passes, args.experiments)
        return 0
    experiments = args.experiments or list(EXPERIMENTS)
    try:
        print(f"peak RSS in MB at net_size {args.net_size}, seed {args.seed}, trials 1")
        print(f"{'import onebit':<14}{_measure(args.net_size, args.seed, 1, [])[0][1]:>9.1f}")
        print("alone")
        for name in experiments:
            print(f"  {name:<12}{_measure(args.net_size, args.seed, 1, [name])[-1][1]:>9.1f}")
        steps = _measure(args.net_size, args.seed, args.passes, experiments)[1:]
    except RuntimeError as exc:
        print(f"peak_rss: {exc}", file=sys.stderr)
        return 1
    print("in sequence" + "".join(f"{f'pass {p + 1}':>9}" for p in range(args.passes)))
    for i, name in enumerate(experiments):
        row = steps[i :: len(experiments)]
        print(f"  {name:<12}" + "".join(f"{mb:>9.1f}" for _, mb in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
