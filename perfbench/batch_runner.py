"""Cold batch workloads: ``repro compile-batch`` passes from an empty library.

Each pass runs in a forked child of the set-up process, so it starts
from an empty on-disk SQLite library and inherits no state from an
earlier pass, as a fresh ``repro compile-batch --library X.db`` does.
The child times the pass, then checks every circuit with the oracle.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from typing import Any, Dict

import common
import workloads


def prepare(workload, args) -> Dict[str, Any]:
    """Set-up: import the program and build the inputs."""
    from repro.batch import BatchCompiler  # noqa: F401
    from repro.config import EPOCConfig  # noqa: F401
    from repro.db import open_store  # noqa: F401

    if args.short:
        return workloads.short_circuits(workload.name)
    return workloads.circuits(workload.name, args.seed)


def _config(workload):
    from repro.config import EPOCConfig, ParallelConfig, QOCConfig

    # what `repro compile-batch --qubit-limit L --fidelity F --dt D -j 0` builds
    return EPOCConfig(
        partition_qubit_limit=workload.qubit_limit,
        regroup_qubit_limit=workload.qubit_limit,
        qoc=QOCConfig(dt=workloads.DT, fidelity_threshold=workloads.FIDELITY),
        parallel=ParallelConfig(workers=workload.workers),
    )


def one_pass(workload, circuits, db_path: str, traced: bool) -> Dict[str, Any]:
    """Compile every circuit once through one BatchCompiler (in a child)."""
    from repro.batch import BatchCompiler
    from repro.config import HardwareConfig
    from repro.db import open_store

    recorder = None
    if traced:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    config = _config(workload)
    compiler = BatchCompiler(config=config, store=open_store(db_path))
    cpu_before = common.own_cpu_seconds()
    start = time.perf_counter()
    error = None
    try:
        report = compiler.compile_suite(circuits)
    except Exception as exc:  # a raising compile fails every circuit of the pass
        report = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = common.own_cpu_seconds() - cpu_before
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import oracle

    rows = []
    outcomes = {o.name: o for o in report.outcomes} if report is not None else {}
    for name, circuit in circuits.items():
        outcome = outcomes.get(name)
        if outcome is None:
            rows.append({"name": name, "problems": [error or "not compiled"]})
            continue
        compiled = outcome.report
        problems = oracle.check_report(
            circuit,
            compiled,
            compiler.library.entries(),
            config.qoc.fidelity_threshold,
            config.synthesis_threshold,
            workload.qubit_limit,
            HardwareConfig(),
        )
        rows.append(
            {
                "name": name,
                "problems": problems,
                "latency_ns": compiled.latency_ns,
                "fidelity": compiled.fidelity,
                "compile_s": outcome.compile_seconds,
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
                "stats_cache_hits": compiled.stats.get("cache_hits"),
                "stats_cache_misses": compiled.stats.get("cache_misses"),
            }
        )
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "rows": rows,
        "trace": recorder.state() if recorder is not None else None,
    }


def run(workload, args, t0: float, run_dir: str) -> Dict[str, Any]:
    circuits = prepare(workload, args)
    setup_samples = [time.perf_counter() - t0]
    setup_samples += common.setup_probes(args, common.SETUP_SAMPLES - 1)

    passes = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        # a traced run alternates untraced and traced passes; the pair
        # gives the tracing overhead
        traced = bool(args.trace) and index % 2 == 1
        db_path = os.path.join(run_dir, f"pass-{index}.db")
        outcome = common.fork_call(
            lambda: one_pass(workload, circuits, db_path, traced)
        )
        passes[traced].append(outcome)
        index += 1
        enough = time.perf_counter() - start >= args.seconds
        if enough and (not args.trace or passes[True]):
            break

    measured = passes[bool(args.trace)]
    rows = [row for outcome in passes[False] + passes[True] for row in outcome["rows"]]
    failed = sum(1 for row in rows if row["problems"])
    for row in rows:
        for problem in row["problems"]:
            print(f"FAILED {row['name']}: {problem}", file=sys.stderr)
    _print_rows(passes[False][0]["rows"])

    if args.trace:
        return common.result(
            True, len(rows), failed, _layer_metrics(passes, len(circuits))
        )
    first = {row["name"]: row for row in measured[0]["rows"]}
    circuits_done = sum(len(outcome["rows"]) for outcome in measured)
    wall = sum(outcome["wall_s"] for outcome in measured)
    cpu = sum(outcome["cpu_s"] for outcome in measured)
    good = [row for row in first.values() if not row["problems"]]
    metrics = {
        "setup_s": common.metric(common.median(setup_samples), "s"),
        "circuits_per_min": common.metric(60.0 * circuits_done / wall, "1/min"),
        "cpu_s_per_circuit": common.metric(cpu / circuits_done, "s"),
        "pulse_latency_ns": common.metric(
            sum(row["latency_ns"] for row in good), "ns"
        ),
        "esp_fidelity_gmean": common.metric(
            common.gmean([row["fidelity"] for row in good]), "1"
        ),
        "peak_rss_mb": common.metric(
            max(outcome["peak_rss_mb"] for outcome in measured), "MB"
        ),
    }
    return common.result(True, len(rows), failed, metrics)


def _layer_metrics(passes, circuits_per_pass: int) -> Dict[str, Any]:
    import tracing

    traced = passes[True]
    state = tracing.merge_states([outcome["trace"] for outcome in traced])
    values = tracing.layer_metrics(state, len(traced))
    # the batch workloads run no service; its metrics read 0 here
    for name in tracing.LAYER_METRICS:
        if name.startswith("service."):
            values[name] = 0.0

    def rate(group):
        wall = sum(outcome["wall_s"] for outcome in group)
        return 60.0 * circuits_per_pass * len(group) / wall

    values["trace.overhead_pct"] = 100.0 * (rate(passes[False]) / rate(traced) - 1.0)
    return {
        name: common.metric(values[name], unit)
        for name, unit in tracing.LAYER_METRICS.items()
    }


def _print_rows(rows) -> None:
    for row in rows:
        if "latency_ns" not in row:
            continue
        print(
            f"circuit {row['name']:<10} latency={row['latency_ns']:.1f}ns "
            f"esp={row['fidelity']:.4f} compile={row['compile_s']:.2f}s "
            f"cache delta={row['cache_hits']}/{row['cache_misses']} "
            f"report stats={row['stats_cache_hits']:.0f}/{row['stats_cache_misses']:.0f}"
        )
