"""Helpers shared by the batch and service runners."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def own_cpu_seconds() -> float:
    """User+sys CPU time of this process, all its threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def gmean(values: List[float]) -> float:
    values = [max(v, 1e-300) for v in values]
    return statistics.geometric_mean(values) if values else 0.0


def setup_probes(args, count: int) -> List[float]:
    """Set-up times of ``count`` fresh interpreters doing this workload's
    set-up, each measured from the interpreter's first line of run.py."""
    samples = []
    for _ in range(count):
        command = [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-probe",
        ] + (["--short"] if args.short else [])
        output = subprocess.run(
            command, check=True, capture_output=True, text=True, cwd=ROOT, timeout=120
        ).stdout
        samples.append(json.loads(output.strip().splitlines()[-1])["setup_s"])
    return samples


def fork_call(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in a forked child and return its JSON-able result.

    The child inherits the parent's imports and inputs but none of the
    state ``fn`` builds, so each call starts as cold as a fresh process
    that has already imported the program.  An exception in the child is
    re-raised here as ``RuntimeError`` with the child's traceback.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            try:
                payload = {"ok": fn()}
            except BaseException:  # report everything, then exit
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as handle:
                json.dump(payload, handle)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r") as handle:
        raw = handle.read()
    os.waitpid(pid, 0)
    if not raw:
        raise RuntimeError("benchmark child exited without a result")
    payload = json.loads(raw)
    if "error" in payload:
        raise RuntimeError("benchmark child failed:\n" + payload["error"])
    return payload["ok"]
