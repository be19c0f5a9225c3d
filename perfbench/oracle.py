"""Correctness oracle for compiled circuits, built apart from the compiler.

Nothing here imports ``repro.linalg`` or ``repro.qoc``: the input
circuit's unitary comes from a dense gate-matrix simulator written out
below, and each pulse's propagator is integrated from its raw control
samples with ``scipy.linalg.expm`` on a drift/control Hamiltonian built
from the ``HardwareConfig`` parameters.  The compiler computes the same
quantities with eigendecompositions and its own embedding helpers, so a
fault in either shows up as a disagreement.

:func:`check_report` asserts, for one compiled circuit:

* every pulse reaches the fidelity target against the unitary it was
  solved for (read from its pulse-library key), or its work item is
  listed in ``degraded_blocks``;
* the solved-for unitaries, composed in schedule order, reproduce the
  input circuit up to global phase within the synthesis tolerance;
* up to global phase, the composed pulse propagators differ from the
  circuit's unitary by no more than the sum of the per-pulse distances
  plus the synthesis tolerance;
* the reported latency and ESP fidelity (Eq. 3) follow from the pulses.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

_SQ2 = 1.0 / math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_MINUS = _SIGMA_PLUS.T.copy()

#: slack per unit of matrix dimension for each library key: keys hold the
#: solved-for unitary rounded to six decimals.
KEY_ROUNDING_SLACK = 1e-5


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def _phase(lam: float) -> np.ndarray:
    return np.diag([1.0, cmath.exp(1j * lam)])


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _controlled(op: np.ndarray) -> np.ndarray:
    """``op`` with one extra control qubit in front (most significant)."""
    dim = op.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = op
    return out


def _pauli_rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta/2 P⊗P)`` for a Pauli ``P``."""
    pp = np.kron(pauli, pauli)
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * pp


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

_FIXED = {
    "id": _I2,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "s": _phase(math.pi / 2),
    "sdg": _phase(-math.pi / 2),
    "t": _phase(math.pi / 4),
    "tdg": _phase(-math.pi / 4),
    "cx": _controlled(_X),
    "cy": _controlled(_Y),
    "cz": _controlled(_Z),
    "swap": _SWAP,
    "ccx": _controlled(_controlled(_X)),
    "ccz": _controlled(_controlled(_Z)),
    "cswap": _controlled(_SWAP),
}

_PARAMETRIC = {
    "rx": _rx,
    "ry": _ry,
    "rz": _rz,
    "p": _phase,
    "u1": _phase,
    "u3": _u3,
    "u": _u3,
    "crx": lambda t: _controlled(_rx(t)),
    "cry": lambda t: _controlled(_ry(t)),
    "crz": lambda t: _controlled(_rz(t)),
    "cp": lambda t: _controlled(_phase(t)),
    "rxx": lambda t: _pauli_rotation(_X, t),
    "ryy": lambda t: _pauli_rotation(_Y, t),
    "rzz": lambda t: _pauli_rotation(_Z, t),
}

#: gates with no action on the register's unitary.
_PSEUDO = {"barrier", "measure", "reset"}


def gate_matrix(name: str, params: Sequence[float]) -> np.ndarray:
    """The matrix of one named gate (big-endian: first qubit listed is the
    most significant bit)."""
    if name in _FIXED:
        return _FIXED[name]
    if name in _PARAMETRIC:
        return _PARAMETRIC[name](*params)
    raise ValueError(f"oracle has no matrix for gate {name!r}")


def apply_operator(
    unitary: np.ndarray, op: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """``(op on targets) @ unitary`` for a ``num_qubits`` register."""
    k = len(targets)
    tensor = unitary.reshape((2,) * (2 * num_qubits))
    local = np.asarray(op, dtype=complex).reshape((2,) * (2 * k))
    out = np.tensordot(local, tensor, axes=(list(range(k, 2 * k)), list(targets)))
    out = np.moveaxis(out, list(range(k)), list(targets))
    return out.reshape(2**num_qubits, 2**num_qubits)


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a circuit's gate list."""
    n = circuit.num_qubits
    unitary = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        if gate.name in _PSEUDO:
            continue
        unitary = apply_operator(
            unitary, gate_matrix(gate.name, gate.params), gate.qubits, n
        )
    return unitary


def _embed(op: np.ndarray, first: int, num_qubits: int) -> np.ndarray:
    """``op`` on the adjacent qubits starting at ``first``."""
    width = int(round(math.log2(op.shape[0])))
    before = np.eye(2**first)
    after = np.eye(2 ** (num_qubits - first - width))
    return np.kron(np.kron(before, op), after)


def chain_hamiltonians(
    num_qubits: int, coupling: float, zz_crosstalk: float = 0.0
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Drift and control Hamiltonians of the transmon chain: exchange
    coupling (plus optional ZZ) between neighbours, and X/2, Y/2 drives
    per qubit in the order X0, Y0, X1, Y1, ..."""
    dim = 2**num_qubits
    drift = np.zeros((dim, dim), dtype=complex)
    hop = np.kron(_SIGMA_PLUS, _SIGMA_MINUS) + np.kron(_SIGMA_MINUS, _SIGMA_PLUS)
    for j in range(num_qubits - 1):
        drift += coupling * _embed(hop, j, num_qubits)
        if zz_crosstalk:
            drift += zz_crosstalk * _embed(np.kron(_Z, _Z), j, num_qubits)
    controls = []
    for j in range(num_qubits):
        controls.append(0.5 * _embed(_X, j, num_qubits))
        controls.append(0.5 * _embed(_Y, j, num_qubits))
    return drift, controls


def pulse_propagator(
    controls: np.ndarray, dt: float, hardware
) -> np.ndarray:
    """The unitary piecewise-constant ``controls`` implement on a chain as
    wide as the pulse (``hardware`` is a ``HardwareConfig``)."""
    controls = np.asarray(controls, dtype=float)
    num_qubits = controls.shape[0] // 2
    drift, hams = chain_hamiltonians(
        num_qubits, hardware.coupling, hardware.zz_crosstalk
    )
    stack = np.stack(hams)
    slots = drift[None] + np.einsum("kt,kij->tij", controls, stack)
    steps = expm(-1j * dt * slots)
    total = np.eye(drift.shape[0], dtype=complex)
    for step in steps:
        total = step @ total
    return total


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``min_phi ||a - e^{i phi} b||_2`` for unitaries ``a`` and ``b``.

    The eigenphases of ``a^dag b`` lie on an arc; the best global phase
    centres it, leaving a largest deviation of half the arc's width.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(a.conj().T @ b)))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    width = 2 * math.pi - float(gaps.max())
    return 2.0 * math.sin(width / 4.0)


def trace_aligned_distance(target: np.ndarray, achieved: np.ndarray) -> float:
    """``||target - e^{i phi} achieved||_2`` with ``phi`` the phase of the
    trace overlap: the alignment Eq. 3's per-pulse distance uses."""
    overlap = np.trace(target.conj().T @ achieved)
    if abs(overlap) > 1e-14:
        achieved = achieved * (abs(overlap) / overlap)
    return float(np.linalg.norm(target - achieved, ord=2))


def process_fidelity(target: np.ndarray, achieved: np.ndarray) -> float:
    dim = target.shape[0]
    return float(abs(np.trace(target.conj().T @ achieved)) ** 2 / dim**2)


def decode_key(key: bytes) -> Tuple[int, np.ndarray]:
    """The ``(num_qubits, unitary)`` a pulse-library key stores: one width
    byte, then the canonical matrix as raw complex128."""
    num_qubits = key[0]
    dim = 2**num_qubits
    return num_qubits, np.frombuffer(key, dtype=complex, offset=1).reshape(dim, dim)


def _controls_id(controls: np.ndarray) -> Tuple:
    controls = np.ascontiguousarray(controls, dtype=float)
    return controls.shape, controls.tobytes()


def targets_by_controls(entries: Dict[bytes, object]) -> Dict[Tuple, List[np.ndarray]]:
    """Map each library pulse's waveform to the unitaries it was solved
    for, so a scheduled pulse can be checked against its own target."""
    index: Dict[Tuple, List[np.ndarray]] = {}
    for key, pulse in entries.items():
        index.setdefault(_controls_id(pulse.controls), []).append(decode_key(key)[1])
    return index


def synthesis_tolerance(blocks: int, block_qubits: int, threshold: float) -> float:
    """Spectral-norm budget for ``blocks`` synthesized blocks.

    Synthesis accepts a block at Hilbert-Schmidt distance
    ``1 - |tr(T^dag V)|/d <= threshold``; with the trace phase removed the
    eigenphases then satisfy ``sum(1 - cos) <= d * threshold``, so each
    deviates by at most ``sqrt(2 d threshold)`` in norm.
    """
    dim = 2**block_qubits
    return blocks * math.sqrt(2.0 * dim * max(threshold, 1e-9))


def asap_latency(num_qubits: int, pulses: Iterable) -> float:
    frontier = [0.0] * num_qubits
    for pulse in pulses:
        start = max(frontier[q] for q in pulse.qubits)
        end = start + pulse.controls.shape[1] * pulse.dt
        for q in pulse.qubits:
            frontier[q] = end
    return max(frontier)


def check_pulse_entries(
    entries: Dict[bytes, object], fidelity_threshold: float, hardware
) -> List[str]:
    """Problems with a pulse library: every entry must reach the target
    against the unitary its key stores, unless marked degraded."""
    problems = []
    for key, pulse in entries.items():
        _, target = decode_key(key)
        achieved = pulse_propagator(pulse.controls, pulse.dt, hardware)
        fidelity = process_fidelity(target, achieved)
        degraded = str(getattr(pulse, "source", "")).endswith("degraded")
        if fidelity < fidelity_threshold - _fidelity_slack(target) and not degraded:
            problems.append(
                f"library entry ({target.shape[0]}x{target.shape[0]}) reaches "
                f"fidelity {fidelity:.6f} < {fidelity_threshold}"
            )
    return problems


def _fidelity_slack(target: np.ndarray) -> float:
    return KEY_ROUNDING_SLACK * target.shape[0]


def check_report(
    circuit,
    report,
    entries: Dict[bytes, object],
    fidelity_threshold: float,
    synthesis_threshold: float,
    block_qubits: int,
    hardware,
) -> List[str]:
    """Problems with one compiled circuit (empty when it is correct)."""
    problems: List[str] = []
    n = circuit.num_qubits
    pulses = [item.pulse for item in report.schedule.items]
    if any(pulse is None for pulse in pulses):
        return ["schedule holds an item without a pulse"]
    degraded = {entry.index for entry in report.degraded_blocks}
    index = targets_by_controls(entries)

    expected = circuit_unitary(circuit)
    composed_targets = np.eye(2**n, dtype=complex)
    composed_pulses = np.eye(2**n, dtype=complex)
    distance_sum = 0.0
    slack = 0.0
    esp = 1.0
    for position, pulse in enumerate(pulses):
        achieved = pulse_propagator(pulse.controls, pulse.dt, hardware)
        candidates = index.get(_controls_id(pulse.controls), [])
        if not candidates:
            problems.append(f"pulse {position}: no library entry holds its waveform")
            continue
        target = max(candidates, key=lambda t: process_fidelity(t, achieved))
        fidelity = process_fidelity(target, achieved)
        if fidelity < fidelity_threshold - _fidelity_slack(target) and position not in degraded:
            problems.append(
                f"pulse {position} on {list(pulse.qubits)}: fidelity "
                f"{fidelity:.6f} < {fidelity_threshold} and not listed as degraded"
            )
        distance_sum += phase_distance(target, achieved)
        slack += _fidelity_slack(target)
        esp *= max(0.0, 1.0 - trace_aligned_distance(target, achieved))
        composed_targets = apply_operator(composed_targets, target, pulse.qubits, n)
        composed_pulses = apply_operator(composed_pulses, achieved, pulse.qubits, n)
    if problems:
        return problems

    blocks = int(report.stats.get("partition_blocks", len(pulses)))
    tolerance = synthesis_tolerance(blocks, block_qubits, synthesis_threshold)
    target_gap = phase_distance(expected, composed_targets)
    if target_gap > tolerance + slack:
        problems.append(
            f"solved-for unitaries compose to distance {target_gap:.3e} from "
            f"the circuit (> synthesis tolerance {tolerance + slack:.3e})"
        )
    pulse_gap = phase_distance(expected, composed_pulses)
    if pulse_gap > distance_sum + tolerance + slack:
        problems.append(
            f"pulses compose to distance {pulse_gap:.3e} from the circuit "
            f"(> {distance_sum:.3e} pulse + {tolerance:.3e} synthesis)"
        )
    latency = asap_latency(n, pulses)
    if not math.isclose(latency, report.latency_ns, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"latency {report.latency_ns} ns, schedule gives {latency} ns")
    if not math.isclose(esp, report.fidelity, rel_tol=1e-3, abs_tol=1e-6):
        problems.append(f"ESP fidelity {report.fidelity:.6f}, pulses give {esp:.6f}")
    return problems
