"""Warm daemon workload: Table-1 requests replayed through ``repro serve``.

One client sends requests in a closed loop: the next request goes out
only when the previous one's followed event stream has ended, so the
timing carries no status-poll quantum.  The daemon serves them from a
pulse library warmed once per checkout (the build step below), which
every run copies and loads during its set-up.

Every result is checked against an in-process compile of the same
circuit and options, made during the build and checked there by the
oracle; each run also re-checks every pulse in the warm library.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import common
import workloads

CACHE = os.path.join(common.HERE, ".cache")


def _options(workload) -> Dict[str, Any]:
    return {
        "qubit_limit": workload.qubit_limit,
        "fidelity": workloads.FIDELITY,
        "dt": workloads.DT,
    }


def prepare(workload, args):
    """Client-side set-up: import the client and build the requests."""
    from repro.service import ServiceClient  # noqa: F401

    circuits = (
        workloads.short_circuits(workload.name)
        if args.short
        else workloads.circuits(workload.name, args.seed)
    )
    return {name: circuit.to_qasm() for name, circuit in circuits.items()}


# -- the warm library (built once per checkout) ----------------------------


def _fingerprint(short: bool) -> str:
    """Identity of the build: the program's sources and the benchmark
    files the build runs."""
    digest = hashlib.sha256(b"short" if short else b"full")
    source_root = os.path.join(common.SRC, "repro")
    for directory, _, files in sorted(os.walk(source_root)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    for name in ("workloads.py", "oracle.py", "batch_runner.py", "service_runner.py"):
        with open(os.path.join(common.HERE, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _build(workload, short: bool, directory: str) -> Dict[str, Any]:
    """Warm a library on every circuit a seed can request, then compile
    each circuit in-process against it and check the result."""
    from repro.batch import BatchCompiler
    from repro.circuits import QuantumCircuit
    from repro.config import HardwareConfig
    from repro.core import EPOCPipeline
    from repro.db import open_store
    from repro.qoc.library import PulseLibrary
    from repro.service.jobs import build_job_config

    import batch_runner
    import oracle

    circuits = (
        workloads.short_circuits(workload.name)
        if short
        else workloads.service_library_circuits()
    )
    db_path = os.path.join(directory, "warm.db")
    config = batch_runner._config(workload)
    BatchCompiler(config=config, store=open_store(db_path)).compile_suite(circuits)

    warm = PulseLibrary()
    open_store(db_path).pull(warm)
    job_config = build_job_config(_options(workload))
    reference = {}
    for name, circuit in circuits.items():
        # the daemon compiles a per-job clone of its warm library
        library = PulseLibrary(
            config=job_config.qoc,
            match_global_phase=job_config.cache_global_phase,
            resilience=job_config.resilience,
            racing=job_config.racing,
        )
        library.merge_entries(dict(warm.entries()))
        parsed = QuantumCircuit.from_qasm(circuit.to_qasm())
        report = EPOCPipeline(job_config, library=library).compile(parsed, name=name)
        reference[name] = {
            "latency_ns": report.latency_ns,
            "fidelity": report.fidelity,
            "pulse_count": report.pulse_count,
            "problems": oracle.check_report(
                circuit,
                report,
                library.entries(),
                job_config.qoc.fidelity_threshold,
                job_config.synthesis_threshold,
                workload.qubit_limit,
                HardwareConfig(),
            ),
        }
    return reference


def warm_library(workload, short: bool) -> str:
    """Directory holding ``warm.db`` and ``reference.json``, built on the
    first call in a checkout (outside every timed window)."""
    final = os.path.join(CACHE, f"service-{_fingerprint(short)}")
    if os.path.exists(os.path.join(final, "reference.json")):
        return final
    os.makedirs(CACHE, exist_ok=True)
    staging = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    reference = common.fork_call(lambda: _build(workload, short, staging))
    with open(os.path.join(staging, "reference.json"), "w") as handle:
        json.dump(reference, handle)
    try:
        os.replace(staging, final)
    except OSError:  # another run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    return final


def check_library(db_path: str, threshold: float) -> List[str]:
    """Re-check every pulse of the warm library with the oracle (child)."""
    from repro.config import HardwareConfig
    from repro.db import open_store
    from repro.qoc.library import PulseLibrary

    import oracle

    library = PulseLibrary()
    open_store(db_path).pull(library)
    return oracle.check_pulse_entries(library.entries(), threshold, HardwareConfig())


# -- daemons ---------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process and a client for it."""

    def __init__(self, run_dir: str, tag: str, warm_db: str, workers: int, traced: bool):
        from repro.service import ServiceClient

        self.spans_dir: Optional[str] = None
        start = time.perf_counter()
        library = os.path.join(run_dir, f"library-{tag}.db")
        shutil.copyfile(warm_db, library)
        port = _free_port()
        serve = ["serve", "--port", str(port), "--library", library, "-j", str(workers)]
        if traced:
            self.spans_dir = os.path.join(run_dir, f"spans-{tag}")
            os.makedirs(self.spans_dir)
            command = [sys.executable, os.path.join(common.HERE, "traced_serve.py"), self.spans_dir]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        env = dict(os.environ)
        env["PYTHONPATH"] = common.SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log = open(os.path.join(run_dir, f"daemon-{tag}.log"), "w")
        self.process = subprocess.Popen(
            command + serve, cwd=common.ROOT, env=env, stdout=self.log, stderr=self.log
        )
        self.client = ServiceClient(port=port, timeout=60.0)
        deadline = time.monotonic() + 120.0
        while True:
            try:
                self.client.ping()
                break
            except Exception:
                if self.process.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError(f"repro serve did not start (see daemon-{tag}.log)")
                time.sleep(0.01)
        self.startup_s = time.perf_counter() - start

    def tree_pids(self) -> List[int]:
        """The daemon and its children (the pool workers)."""
        pids = [self.process.pid]
        task_dir = f"/proc/{self.process.pid}/task"
        try:
            for task in os.listdir(task_dir):
                with open(os.path.join(task_dir, task, "children")) as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
        return pids

    def cpu_seconds(self) -> float:
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for pid in self.tree_pids():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += (int(fields[11]) + int(fields[12])) / ticks
        return total

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def request(self, name: str, qasm: str, options: Dict[str, Any]) -> Dict[str, Any]:
        """One closed-loop request: submit, follow the event stream to its
        end, then read the job's timestamps and result (untimed)."""
        start = time.perf_counter()
        job = self.client.submit(name, qasm, options=options)
        for _ in self.client.events(job, follow=True):
            pass
        elapsed = time.perf_counter() - start
        view = self.client.status(job)
        answer = self.client.result(job)
        created, started, finished = (
            view.get("created_at"),
            view.get("started_at"),
            view.get("finished_at"),
        )
        timed = None not in (created, started, finished)
        return {
            "name": name,
            "start": start,
            "request_s": elapsed,
            "state": view["state"],
            "queue_wait_s": started - created if timed else 0.0,
            "run_s": finished - started if timed else 0.0,
            "client_overhead_s": elapsed - (finished - created) if timed else 0.0,
            "result": answer.get("result"),
            "error": answer.get("error"),
        }

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:
                    self.process.terminate()
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.log.close()


# -- the run ---------------------------------------------------------------


def _problems(request: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    expected = reference.get(request["name"])
    if expected is None:
        return ["no in-process reference for this circuit"]
    if request["state"] != "done":
        return [f"job {request['state']}: {request['error']}"]
    problems = list(expected["problems"])
    for key in ("latency_ns", "fidelity", "pulse_count"):
        if request["result"][key] != expected[key]:
            problems.append(
                f"{key} {request['result'][key]!r} differs from the in-process "
                f"compile's {expected[key]!r}"
            )
    return problems


def run(workload, args, t0: float, run_dir: str) -> Dict[str, Any]:
    qasm = prepare(workload, args)
    client_setup = time.perf_counter() - t0
    cache = warm_library(workload, args.short)
    warm_db = os.path.join(cache, "warm.db")
    with open(os.path.join(cache, "reference.json")) as handle:
        reference = json.load(handle)
    options = _options(workload)
    names = sorted(qasm)

    daemons: List[Daemon] = []
    try:
        startups = []
        for sample in range(common.SETUP_SAMPLES):
            daemon = Daemon(run_dir, f"s{sample}", warm_db, workload.workers, False)
            startups.append(daemon.startup_s)
            if sample + 1 < common.SETUP_SAMPLES:
                daemon.stop()
            else:
                daemons.append(daemon)
        if args.trace:
            daemons.append(Daemon(run_dir, "traced", warm_db, workload.workers, True))
        for daemon in daemons:
            # one unmeasured round: the pool forks on the first parallel
            # stage, and a daemon's first compile of each circuit runs
            # slower than later ones; users of a resident daemon pay both
            # once, not per request
            for name in names:
                daemon.request(name, qasm[name], options)

        requests: List[Dict[str, Any]] = []
        cpu_before = daemons[0].cpu_seconds() + common.own_cpu_seconds()
        start = time.perf_counter()
        round_index = 0
        while True:
            traced = bool(args.trace) and round_index % 2 == 1
            daemon = daemons[1] if traced else daemons[0]
            for name in workloads.round_order(names, args.seed, round_index):
                request = daemon.request(name, qasm[name], options)
                request["traced"] = traced
                requests.append(request)
            round_index += 1
            if time.perf_counter() - start >= args.seconds and (
                not args.trace or round_index >= 2
            ):
                break
        wall = time.perf_counter() - start
        cpu = daemons[0].cpu_seconds() + common.own_cpu_seconds() - cpu_before
        peak_mb = daemons[0].peak_rss_mb()
    finally:
        for daemon in daemons:
            daemon.stop()

    library_problems = common.fork_call(
        lambda: check_library(warm_db, workloads.FIDELITY)
    )
    for problem in library_problems:
        print(f"FAILED warm library: {problem}", file=sys.stderr)
    failed = 0
    for request in requests:
        problems = _problems(request, reference)
        request["ok"] = not problems
        failed += bool(problems)
        for problem in problems:
            print(f"FAILED {request['name']}: {problem}", file=sys.stderr)
    correct = not library_problems

    if args.trace:
        metrics = _layer_metrics(requests, daemons[1], len(names))
        return common.result(correct, len(requests), failed, metrics)

    distinct = {}
    for request in requests:
        if request["ok"] and request["name"] not in distinct:
            distinct[request["name"]] = request["result"]
    for name, answer in sorted(distinct.items()):
        times = [r["request_s"] for r in requests if r["name"] == name]
        print(f"circuit {name:<10} request_s={common.median(times):.3f} {answer['summary']}")
    metrics = {
        "setup_s": common.metric(client_setup + common.median(startups), "s"),
        "circuits_per_min": common.metric(60.0 * len(requests) / wall, "1/min"),
        "cpu_s_per_circuit": common.metric(cpu / len(requests), "s"),
        "pulse_latency_ns": common.metric(
            sum(answer["latency_ns"] for answer in distinct.values()), "ns"
        ),
        "esp_fidelity_gmean": common.metric(
            common.gmean([answer["fidelity"] for answer in distinct.values()]), "1"
        ),
        "peak_rss_mb": common.metric(peak_mb, "MB"),
    }
    return common.result(correct, len(requests), failed, metrics)


def _layer_metrics(requests, traced_daemon: Daemon, per_round: int) -> Dict[str, Any]:
    import tracing

    traced = [r for r in requests if r["traced"]]
    untraced = [r for r in requests if not r["traced"]]
    states = []
    for name in sorted(os.listdir(traced_daemon.spans_dir)):
        with open(os.path.join(traced_daemon.spans_dir, name)) as handle:
            states.append(json.load(handle))
    rounds = len(traced) / per_round
    values = tracing.layer_metrics(
        tracing.merge_states(states), rounds, since=traced[0]["start"]
    )
    values["service.queue_wait_s_p50"] = common.median([r["queue_wait_s"] for r in traced])
    values["service.run_s_p50"] = common.median([r["run_s"] for r in traced])
    values["service.client_overhead_s_p50"] = common.median(
        [r["client_overhead_s"] for r in traced]
    )

    def busy(group):
        return sum(r["request_s"] for r in group) / len(group)

    values["trace.overhead_pct"] = 100.0 * (busy(traced) / busy(untraced) - 1.0)
    return {
        name: common.metric(values[name], unit)
        for name, unit in tracing.LAYER_METRICS.items()
    }
