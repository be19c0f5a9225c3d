"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Short mode runs each workload on one small circuit and checks the
printed result against BENCHMARK.json; the mutation tests feed the
oracle a corrupted pulse and a circuit with a dropped gate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    completed = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--short",
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(outcome["metrics"]) == {m["name"] for m in expected}
    for spec in expected:
        printed = outcome["metrics"][spec["name"]]
        assert printed["unit"] == spec["unit"], spec["name"]
        assert isinstance(printed["value"], float)
    assert "env" in json.loads(lines[-2])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", ".runs", "__pycache__")
    )
    completed = _run(
        "--workload", "table1_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


@pytest.fixture(scope="module")
def compiled():
    """simon at 2-qubit blocks: a circuit, its report and the library."""
    from repro.batch import BatchCompiler
    from repro.config import EPOCConfig, ParallelConfig, QOCConfig

    config = EPOCConfig(
        partition_qubit_limit=2,
        regroup_qubit_limit=2,
        qoc=QOCConfig(dt=workloads.DT, fidelity_threshold=workloads.FIDELITY),
        parallel=ParallelConfig(workers=0),
    )
    circuit = workloads.short_circuits("table1_cold")["simon"]
    compiler = BatchCompiler(config=config)
    report = compiler.compile_suite({"simon": circuit}).outcomes[0].report
    return config, circuit, report, compiler.library


def _check(config, circuit, report, library):
    from repro.config import HardwareConfig

    return oracle.check_report(
        circuit,
        report,
        library.entries(),
        config.qoc.fidelity_threshold,
        config.synthesis_threshold,
        config.partition_qubit_limit,
        HardwareConfig(),
    )


def test_oracle_accepts_a_correct_compile(compiled):
    assert _check(*compiled) == []


def test_oracle_rejects_a_circuit_with_a_dropped_gate(compiled):
    from repro.circuits import QuantumCircuit

    config, circuit, report, library = compiled
    for dropped in range(len(circuit.gates)):
        mutant = QuantumCircuit(circuit.num_qubits)
        for index, gate in enumerate(circuit.gates):
            if index != dropped:
                mutant.append(gate)
        assert _check(config, mutant, report, library), f"gate {dropped} dropped"


def test_oracle_rejects_a_pulse_with_corrupted_controls(compiled):
    from repro.config import HardwareConfig

    config, circuit, report, library = compiled
    threshold = config.qoc.fidelity_threshold
    assert oracle.check_pulse_entries(library.entries(), threshold, HardwareConfig()) == []
    controls = report.schedule.items[-1].pulse.controls
    saved = controls.copy()
    try:
        # scheduled pulses share their waveform array with the library
        # entry, so the corruption is seen under the pulse's own key
        controls *= 1.5
        problems = _check(config, circuit, report, library)
        library_problems = oracle.check_pulse_entries(
            library.entries(), threshold, HardwareConfig()
        )
    finally:
        controls[...] = saved
    assert any("fidelity" in problem for problem in problems)
    assert library_problems


@pytest.mark.parametrize(
    "workload", ["table1_cold", "synth3_cold", "service_warm"]
)
def test_oracle_simulator_matches_the_program_up_to_phase(workload):
    for circuit in workloads.circuits(workload, 1).values():
        ours = oracle.circuit_unitary(circuit)
        theirs = circuit.unitary()
        assert oracle.phase_distance(ours, theirs) < 1e-9


def test_phase_distance_is_phase_invariant():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert oracle.phase_distance(q, np.exp(0.7j) * q) < 1e-12
    assert oracle.phase_distance(np.eye(2), np.diag([1, -1])) == pytest.approx(
        np.sqrt(2.0)
    )
