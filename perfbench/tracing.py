"""Layer tracing for the traced benchmark run.

Wrappers are put around each layer's public functions at every site
that imports them (``repro.core.pipeline`` binds ``synthesize_block`` by
name; pool workers import it lazily from the package).  Each call
records a span (name, start, end, parent, pid) in memory; the hottest
kernel, the synthesis objective, only feeds counters.  A span's self
time is its duration minus what its child spans and counted kernel
calls on the same thread cover.

Nothing in ``src/`` is changed: :func:`install` rebinds module and class
attributes in this process, and forked children (pool workers) inherit
the wrappers.  A forked child starts an empty recorder of its own and
writes it out when the process exits (see :meth:`Recorder.dump_at_exit`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "zx.calls": "count",
    "zx.s": "s",
    "partition.calls": "count",
    "partition.s": "s",
    "partition.blocks": "count",
    "regroup.s": "s",
    "regroup.items": "count",
    "synthesis.blocks": "count",
    "synthesis.s": "s",
    "synthesis.self_s": "s",
    "synthesis.qsearch_calls": "count",
    "synthesis.leap_fallbacks": "count",
    "synthesis.instantiate_calls": "count",
    "synthesis.instantiate_s": "s",
    "synthesis.objective_evals": "count",
    "synthesis.objective_s": "s",
    "synthesis.objective_evals_per_s": "1/s",
    "qoc.lookups": "count",
    "qoc.library_hits": "count",
    "qoc.library_misses": "count",
    "qoc.searches": "count",
    "qoc.search_s": "s",
    "qoc.grape_probes": "count",
    "qoc.grape_probes_converged": "count",
    "qoc.grape_iterations": "count",
    "qoc.grape_s": "s",
    "db.pull_s": "s",
    "db.sync_calls": "count",
    "db.sync_s": "s",
    "db.rows_written": "count",
    "parallel.map_calls": "count",
    "parallel.tasks": "count",
    "parallel.map_s": "s",
    "parallel.worker_busy_s": "s",
    "service.queue_wait_s_p50": "s",
    "service.run_s_p50": "s",
    "service.client_overhead_s_p50": "s",
    "batch.suite_s": "s",
    "batch.self_s": "s",
    "batch.dedup_savings": "count",
    "trace.overhead_pct": "%",
}


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1.0, span=None) -> None:
        """Count ``value`` on ``span`` (default: the innermost open span),
        so counts are filtered by time together with their spans."""
        if span is None:
            stack = self._stack()
            if not stack:
                return  # every counted call happens inside a traced layer
            span = stack[-1]
        counters = span.setdefault("counters", {})
        counters[name] = counters.get(name, 0.0) + value

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "parent_name": stack[-1]["name"] if stack else None,
            "id": None,
            "pid": self.pid,
            "start": time.perf_counter(),
            "child_s": 0.0,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        duration = span["end"] - span["start"]
        span["self_s"] = duration - span.pop("child_s")
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += duration

    def cover(self, seconds: float) -> None:
        """Charge ``seconds`` of counted kernel work to the open span."""
        stack = self._stack()
        if stack:
            stack[-1]["child_s"] += seconds

    def state(self) -> Dict[str, Any]:
        with self._lock:
            spans = [dict(span) for span in self.spans if "end" in span]
            return {"pid": self.pid, "spans": spans}

    def reset_in_child(self) -> None:
        """After fork: forget the parent's spans and open stack."""
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def dump_at_exit(self, directory: str) -> None:
        """Write this process's record into ``directory`` when it exits.

        Pool workers leave through ``multiprocessing``'s own exit path,
        which runs registered finalizers but not ``atexit`` hooks.
        """
        from multiprocessing import util

        def dump() -> None:
            path = os.path.join(directory, f"spans-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(self.state(), handle)

        util.Finalize(None, dump, exitpriority=10)


def _span_wrapper(recorder: Recorder, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:

            def add(counter, value):
                recorder.add(counter, value, span)

            after(add, args, kwargs, result)
        return result

    wrapper.__wrapped_original__ = fn
    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    (each site that imported it by name) at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder, dump_dir: Optional[str] = None) -> None:
    """Wrap every layer function in this process (idempotent per process).

    With ``dump_dir``, forked children reset their recorder and write it
    to ``dump_dir`` at exit, which is how pool-worker spans come home.
    """
    import importlib

    def module(name):
        # ``import a.b as m`` can return a same-named function the package
        # re-exports (``repro.synthesis.instantiate``); take the module
        return importlib.import_module(name)

    for name in ("repro.cli", "repro.core.pipeline", "repro.service.server"):
        module(name)  # load every import site before rebinding
    batch_engine = module("repro.batch.engine")
    db_store = module("repro.db.store")
    executor_mod = module("repro.parallel.executor")
    worker_mod = module("repro.parallel.worker")
    greedy = module("repro.partition.greedy")
    regroup = module("repro.partition.regroup")
    grape = module("repro.qoc.grape")
    latency = module("repro.qoc.latency")
    library = module("repro.qoc.library")
    synthesis = module("repro.synthesis")
    instantiate_mod = module("repro.synthesis.instantiate")
    leap = module("repro.synthesis.leap")
    qsearch = module("repro.synthesis.qsearch")
    zx_optimize = module("repro.zx.optimize")
    BatchCompiler = batch_engine.BatchCompiler
    if hasattr(zx_optimize.optimize_circuit, "__wrapped_original__"):
        return  # already installed in this process

    def partition_blocks(add, args, kwargs, result):
        add("partition.blocks", len(result))

    def regroup_items(add, args, kwargs, result):
        add("regroup.items", len(result))

    def grape_result(add, args, kwargs, result):
        add("qoc.grape_iterations", result.iterations)
        add("qoc.grape_probes_converged", 1 if result.converged else 0)

    for original, name, after in (
        (zx_optimize.optimize_circuit, "zx", None),
        (greedy.greedy_partition, "partition", partition_blocks),
        (regroup.regroup_circuit, "regroup", regroup_items),
        (synthesis.synthesize_block, "synthesis", None),
        (qsearch.qsearch_synthesize, "synthesis.qsearch", None),
        (leap.leap_synthesize, "synthesis.leap", None),
        (instantiate_mod.instantiate, "synthesis.instantiate", None),
        (latency.minimal_latency_pulse, "qoc.search", None),
        (grape.grape_optimize, "qoc.grape", grape_result),
        # pickled by name for the pool: the wrapper keeps the module and
        # qualified name, and both import sites point at it
        (worker_mod.run_chunk, "parallel.worker", None),
    ):
        _rebind(original, _span_wrapper(recorder, name, original, after))

    original_objective = instantiate_mod._objective

    def objective(template, target_dag, dim):
        fun = original_objective(template, target_dag, dim)

        def timed(x):
            start = time.perf_counter()
            try:
                return fun(x)
            finally:
                elapsed = time.perf_counter() - start
                recorder.add("synthesis.objective_evals")
                recorder.add("synthesis.objective_s", elapsed)
                recorder.cover(elapsed)

        return timed

    instantiate_mod._objective = objective

    def library_lookup(method, count_requests):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            hits, misses = self.hits, self.misses
            span = recorder.open("qoc.lookup")
            try:
                return method(self, *args, **kwargs)
            finally:
                recorder.close(span)
                recorder.add("qoc.lookups", count_requests(args, kwargs), span)
                recorder.add("qoc.library_hits", self.hits - hits, span)
                recorder.add("qoc.library_misses", self.misses - misses, span)

        return wrapper

    library.PulseLibrary.get_pulse = library_lookup(
        library.PulseLibrary.get_pulse, lambda args, kwargs: 1
    )
    library.PulseLibrary.get_pulses = library_lookup(
        library.PulseLibrary.get_pulses,
        lambda args, kwargs: len(args[0] if args else kwargs["requests"]),
    )

    store = db_store.SqliteLibraryStore

    def rows_written(add, args, kwargs, result):
        # a sync publishes every local entry the disk lacked: the library
        # size after the merge minus the rows the disk held before it
        add("db.rows_written", result.total_entries - result.loaded_entries)

    store.pull = _span_wrapper(recorder, "db.pull", store.pull)
    store.sync = _span_wrapper(recorder, "db.sync", store.sync, rows_written)

    def map_tasks(add, args, kwargs, result):
        add("parallel.tasks", len(result))

    executor_cls = executor_mod.ParallelExecutor
    executor_cls.map = _span_wrapper(recorder, "parallel.map", executor_cls.map, map_tasks)

    def dedup(add, args, kwargs, result):
        add("batch.dedup_savings", result.dedup_savings)

    BatchCompiler.compile_suite = _span_wrapper(
        recorder, "batch.suite", BatchCompiler.compile_suite, dedup
    )

    if dump_dir is not None:
        from multiprocessing import util

        def in_child(rec: Recorder) -> None:
            rec.reset_in_child()
            rec.dump_at_exit(dump_dir)

        # runs in each multiprocessing child after it clears the
        # finalizers inherited from the parent, so the dump survives
        util.register_after_fork(recorder, in_child)


def merge_states(states: List[Dict[str, Any]]) -> Dict[str, Any]:
    spans: List[Dict[str, Any]] = []
    for state in states:
        spans.extend(state["spans"])
    return {"spans": spans}


def layer_metrics(
    state: Dict[str, Any], rounds: int, since: Optional[float] = None
) -> Dict[str, float]:
    """Per-round layer metrics from merged spans and their counters.

    ``since`` (a ``time.perf_counter`` reading; the clock is shared by
    every process on the machine) drops spans that started before the
    measured window, such as a warm-up round's.  ``db.pull_s`` is the
    exception: a daemon loads its library once, before any request, so
    it sums every pull.
    """
    totals: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    pull_s = 0.0
    for span in state["spans"]:
        name = span["name"]
        duration = span["end"] - span["start"]
        if name == "db.pull":
            pull_s += duration
        if since is not None and span["start"] < since:
            continue
        if name == "partition" and span["parent_name"] == "regroup":
            continue  # regrouping partitions internally; that is regroup time
        totals[name] = totals.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0.0) + 1.0
        self_s[name] = self_s.get(name, 0.0) + span["self_s"]
        for counter, value in span.get("counters", {}).items():
            counters[counter] = counters.get(counter, 0.0) + value

    def total(name):
        return totals.get(name, 0.0)

    def count(name):
        return calls.get(name, 0.0)

    def counter(name):
        return counters.get(name, 0.0)

    objective_s = counter("synthesis.objective_s")
    values = {
        "zx.calls": count("zx"),
        "zx.s": total("zx"),
        "partition.calls": count("partition"),
        "partition.s": total("partition"),
        "partition.blocks": counter("partition.blocks"),
        "regroup.s": total("regroup"),
        "regroup.items": counter("regroup.items"),
        "synthesis.blocks": count("synthesis"),
        "synthesis.s": total("synthesis"),
        "synthesis.self_s": total("synthesis") - objective_s,
        "synthesis.qsearch_calls": count("synthesis.qsearch"),
        "synthesis.leap_fallbacks": count("synthesis.leap"),
        "synthesis.instantiate_calls": count("synthesis.instantiate"),
        "synthesis.instantiate_s": total("synthesis.instantiate"),
        "synthesis.objective_evals": counter("synthesis.objective_evals"),
        "synthesis.objective_s": objective_s,
        "qoc.lookups": counter("qoc.lookups"),
        "qoc.library_hits": counter("qoc.library_hits"),
        "qoc.library_misses": counter("qoc.library_misses"),
        "qoc.searches": count("qoc.search"),
        "qoc.search_s": total("qoc.search"),
        "qoc.grape_probes": count("qoc.grape"),
        "qoc.grape_probes_converged": counter("qoc.grape_probes_converged"),
        "qoc.grape_iterations": counter("qoc.grape_iterations"),
        "qoc.grape_s": total("qoc.grape"),
        "db.sync_calls": count("db.sync"),
        "db.sync_s": total("db.sync"),
        "db.rows_written": counter("db.rows_written"),
        "parallel.map_calls": count("parallel.map"),
        "parallel.tasks": counter("parallel.tasks"),
        "parallel.map_s": total("parallel.map"),
        "parallel.worker_busy_s": total("parallel.worker"),
        "batch.suite_s": total("batch.suite"),
        "batch.self_s": self_s.get("batch.suite", 0.0),
        "batch.dedup_savings": counter("batch.dedup_savings"),
    }
    per_round = {name: value / rounds for name, value in values.items()}
    per_round["db.pull_s"] = pull_s
    evals = counter("synthesis.objective_evals")
    per_round["synthesis.objective_evals_per_s"] = (
        evals / objective_s if objective_s > 0 else 0.0
    )
    return per_round


