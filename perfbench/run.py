"""End-to-end compile benchmark.

    python3 perfbench/run.py --workload table1_cold --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md) through the program's public entry
points, checks every compiled circuit with the independent oracle in
``oracle.py``, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
line before it is the environment stamp.

It must be run from a checkout that holds ``src/``; without it the
import fails and the process exits non-zero without a result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from common import HERE, ROOT, SRC  # noqa: E402  (this file's directory)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short",
        action="store_true",
        help="one small circuit per workload (the benchmark's own tests)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import service_runner
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if workload.kind == "batch":
        import batch_runner as runner
    else:
        import service_runner as runner
    if args.setup_probe:
        runner.prepare(workload, args)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    # a terminated run still unwinds, so the daemons it started are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the first run of any workload in a checkout builds the warm service
    # library; the set-up clock starts after it
    service_runner.warm_library(workloads.WORKLOADS["service_warm"], args.short)
    setup_start = time.perf_counter()
    import envstamp

    ticks = envstamp.cpu_ticks()
    run_dir = os.path.join(HERE, ".runs", f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        outcome = runner.run(workload, args, setup_start, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"env": envstamp.stamp(ROOT, ticks)}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
