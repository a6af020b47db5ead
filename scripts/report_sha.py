#!/usr/bin/env python3
"""Print the sha256 of the seed-11 battery report.

Runs ``onebit all --delta 0.2 --seed 11 --format json`` from the ``src``
directory next to this script, in a fresh temporary directory so the report
lands at its default out path (the report echoes ``out_path``, so the same
run written to two paths gives two shas), and prints the report's sha256.
A refactor that keeps every output leaves this sha unchanged:

    python3 scripts/report_sha.py

A second line names the numpy version, the BLAS build, and the route of
onebit's Gram, Cholesky-width and agreement kernels: numpy's bundled
OpenBLAS with the thread rule each experiment is pinned to, or numpy's
fallback, whose width product rounds differently.  The onebit run inherits
both through the same environment: the bytes hold for one numpy/BLAS build
and one route.  They do not depend on ``OPENBLAS_NUM_THREADS``: every
experiment runs its trials on 1 BLAS thread below 1000 net points and on 2
from there on, whatever count the process started with.  What still
depends on the thread count is library code called outside an experiment,
which runs at the caller's count.

Exits with onebit's status: 0 when every verdict passed, 1 when one failed
(the sha is still printed), 2 or 3 when no report was written.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ARGS = ["all", "--delta", "0.2", "--seed", "11", "--format", "json"]
sys.path.insert(0, str(SRC))

from onebit.blas import kernel_route  # noqa: E402


def provenance() -> str:
    """The numpy version, BLAS build and onebit's kernel route in this interpreter."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}, "
        f"kernels {kernel_route()}"
    )


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        status = subprocess.run(
            [sys.executable, "-m", "onebit", *ARGS], cwd=tmp, env=env, stdout=subprocess.DEVNULL
        ).returncode
        report = pathlib.Path(tmp, "onebit-all.json")
        if not report.exists():
            print(f"report_sha: onebit exited {status} without a report", file=sys.stderr)
            return status or 1
        print(f"{hashlib.sha256(report.read_bytes()).hexdigest()}  onebit {' '.join(ARGS)}")
        print(provenance())
    return status


if __name__ == "__main__":
    sys.exit(main())
