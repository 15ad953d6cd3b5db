#!/usr/bin/env python3
"""The benchmark of record for the repro package.

It drives three paths a user runs -- a service round trip, a sweep and
an EPTAS solve at the default epsilon -- from outside the program,
checks every output, and reports end-to-end and per-layer metrics; the
traced service run also times the ``repro.cli`` import chain.  Run it
from the repository root::

    python3 perfbench/run.py --workload service-fresh --seed 1 --seconds 22 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the same untraced
measurement is followed by a traced one, and the per-layer metrics are
reported.  The exit status is 0 only when every check passed.
perfbench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

import common
import workloads_inprocess
import workloads_service

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "service-fresh": lambda run: workloads_service.service(run, history=False),
    "service-history": lambda run: workloads_service.service(run, history=True),
    "sweep-grid": workloads_inprocess.sweep_grid,
    "eptas-default": workloads_inprocess.eptas_default,
}

#: CI sets these; each silently changes the measured path (sweep
#: backend, shard count, dispatch kernel, tracer), so no run inherits them.
CLEARED_ENV = ("REPRO_SWEEP_BACKEND", "REPRO_SWEEP_SHARDS", "REPRO_KERNEL", "REPRO_TRACE")

#: A run still going after this long is stopped and fails.
RUN_LIMIT_S = 170


class RunTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RunTimeout(f"the run took longer than {RUN_LIMIT_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of record for the repro package.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Before the first repro import (the workloads import it lazily): the
    # tracer reads REPRO_TRACE then.
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))

    common.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.OUT))
    run = common.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        WORKLOADS[args.workload](run)
    except Exception as exc:  # the run's boundary: a crash is a failed run
        traceback.print_exc()
        run.fail(f"{type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)
        common.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    common.finish(run)
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
