"""Engine-driven noise lowering: lazy dense forms equal the eager oracle.

Compiling a :class:`~repro.hardware.program.CompiledNoisyProgram` keeps only
channel descriptions; the superoperator (density-matrix engine) and the
mixed-unitary form (trajectory engine) are built on first demand.  The
oracle below is the eager construction compile used to run for every op;
the lazy forms must be bit-identical to it, and each engine must build only
the forms it consumes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.circuits import Gate
from repro.circuits.gates import rx_matrix, rz_matrix
from repro.dd import DDAssignment
from repro.hardware import Backend, BatchExecutor
from repro.hardware.program import (
    ResolvedOp,
    _resolve_noise_op_uncached,
    cached_gate_matrix,
    mixed_unitary_form,
    process_cache_stats,
)
from repro.noise.model import NoiseOp
from repro.simulators import channels
from repro.transpiler.transpile import transpile
from repro.workloads.suite import get_benchmark

# ---------------------------------------------------------------------------
# The oracle: eager lowering, exactly as compile used to do it
# ---------------------------------------------------------------------------


def _oracle_op_tensor(matrix: np.ndarray) -> np.ndarray:
    k = int(round(math.log2(matrix.shape[0])))
    return np.ascontiguousarray(matrix, dtype=complex).reshape((2,) * (2 * k))


def _oracle_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    dim = kraus[0].shape[0]
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for operator in kraus:
        operator = np.asarray(operator, dtype=complex)
        total += np.kron(operator, operator.conj())
    k = int(round(math.log2(dim)))
    return total.reshape((2,) * (4 * k))


def eager_noise_lowering(op: NoiseOp) -> Dict[str, object]:
    """Superoperator and mixed-unitary form of one noise op, built eagerly."""
    lowered: Dict[str, object] = {"mixed_cumulative": None, "mixed_unitaries": None}
    if op.kind in ("rz", "rx"):
        angle = float(op.payload)
        matrix = rz_matrix(angle) if op.kind == "rz" else rx_matrix(angle)
        lowered["superop"] = _oracle_superop([matrix])
        return lowered
    if op.kind == "gaussian_phase":
        lam = 1.0 - math.exp(-(float(op.payload) ** 2))
        lowered["superop"] = _oracle_superop(channels.phase_damping(min(1.0, lam)))
        return lowered
    kraus = [np.asarray(k, dtype=complex) for k in op.payload]
    lowered["superop"] = _oracle_superop(kraus)
    if len(kraus) > 1:
        mixed = mixed_unitary_form(kraus)
        if mixed is not None:
            probabilities, unitaries = mixed
            lowered["mixed_cumulative"] = np.cumsum(probabilities)
            lowered["mixed_unitaries"] = [
                None if u is None else _oracle_op_tensor(u) for u in unitaries
            ]
    return lowered


def eager_gate_lowering(gate: Gate) -> Dict[str, object]:
    matrix = cached_gate_matrix(gate.name, gate.params)
    return {
        "superop": _oracle_superop([matrix]),
        "mixed_cumulative": None,
        "mixed_unitaries": None,
    }


def assert_matches_oracle(op: ResolvedOp, oracle: Dict[str, object]) -> None:
    assert np.array_equal(op.superop, oracle["superop"])
    assert op.superop.tobytes() == oracle["superop"].tobytes()
    expected_cumulative = oracle["mixed_cumulative"]
    if expected_cumulative is None:
        assert op.mixed_cumulative is None
        assert op.mixed_unitaries is None
        return
    assert np.array_equal(op.mixed_cumulative, expected_cumulative)
    expected_unitaries: List[Optional[np.ndarray]] = oracle["mixed_unitaries"]
    assert len(op.mixed_unitaries) == len(expected_unitaries)
    for got, want in zip(op.mixed_unitaries, expected_unitaries):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Every channel family the noise model emits
# ---------------------------------------------------------------------------

CHANNEL_FAMILIES = {
    "depolarizing_1q": NoiseOp("kraus", (0,), channels.depolarizing(0.0123)),
    "depolarizing_2q": NoiseOp("kraus", (0, 1), channels.depolarizing_two_qubit(0.0217)),
    "t1_amplitude_damping": NoiseOp("kraus", (0,), channels.amplitude_damping(0.031)),
    "t2_phase_damping": NoiseOp("kraus", (0,), channels.phase_damping(0.047)),
    "gaussian_phase": NoiseOp("gaussian_phase", (0,), 0.173),
    "coherent_rz": NoiseOp("rz", (0,), 0.0131),
    "dd_coherent_rx": NoiseOp("rx", (0,), -0.0209),
    "single_kraus_unitary": NoiseOp("kraus", (0,), [np.diag([1.0, 1j])]),
}


class TestLazyLoweringMatchesOracle:
    @pytest.mark.parametrize("family", sorted(CHANNEL_FAMILIES))
    def test_channel_family(self, family):
        op = CHANNEL_FAMILIES[family]
        positions = tuple(range(len(op.qubits)))
        resolved = _resolve_noise_op_uncached(op, positions)
        assert_matches_oracle(resolved, eager_noise_lowering(op))

    def test_mixed_unitary_families_have_a_mixed_form(self):
        for family in ("depolarizing_1q", "depolarizing_2q"):
            op = CHANNEL_FAMILIES[family]
            resolved = _resolve_noise_op_uncached(op, tuple(range(len(op.qubits))))
            assert resolved.mixed_cumulative is not None
        for family in ("t1_amplitude_damping", "t2_phase_damping", "gaussian_phase"):
            op = CHANNEL_FAMILIES[family]
            assert _resolve_noise_op_uncached(op, (0,)).mixed_cumulative is None

    def test_compiled_program_ops_match_oracle(self, rome_backend):
        """Every gate, gate-noise and window op of a real program, DD on and off."""
        circuit = transpile(get_benchmark("BV-4").build(), rome_backend).physical_circuit
        executor = BatchExecutor(rome_backend)
        program = executor.compile(circuit)
        kinds = set()
        for op in _consumed_ops(program, _assignments(program)):
            if op.gate is not None:
                kinds.add(op.gate.name)
                assert_matches_oracle(op, eager_gate_lowering(op.gate))
            else:
                kinds.add(op.noise.kind)
                assert_matches_oracle(op, eager_noise_lowering(op.noise))
        assert {"cx", "sx", "x", "kraus", "gaussian_phase", "rz"} <= kinds

    def test_forms_are_memoized_on_the_op(self):
        op = CHANNEL_FAMILIES["depolarizing_1q"]
        resolved = _resolve_noise_op_uncached(op, (0,))
        assert resolved.superop is resolved.superop
        assert resolved.mixed_cumulative is resolved.mixed_cumulative
        assert resolved.mixed_unitaries is resolved.mixed_unitaries


# ---------------------------------------------------------------------------
# Each engine builds only what it consumes
# ---------------------------------------------------------------------------


def _assignments(program) -> List[DDAssignment]:
    qubits = sorted({w.qubit for w in program.windows})
    return [DDAssignment.none(), DDAssignment.all(qubits)]


def _consumed_ops(program, assignments) -> List[ResolvedOp]:
    """Template ops plus the window ops of every variant the jobs use."""
    ops = [payload for kind, payload in program.template if kind == "op"]
    variants = set()
    for assignment in assignments:
        variants.update(enumerate(program.assignment_variants(assignment, "xy4")))
    for widx, variant in sorted(variants, key=repr):
        ops.extend(program.window_ops(widx, variant))
    return ops


def _lowerings() -> Dict[str, int]:
    stats = process_cache_stats()
    return {name: stats[name] for name in ("superops_built", "mixed_forms_built")}


def _distinct(ops: Sequence[ResolvedOp]) -> Dict[int, ResolvedOp]:
    return {id(op): op for op in ops}


class TestEngineDrivenLowering:
    def test_counters_surface_through_cache_stats(self, rome_backend):
        stats = BatchExecutor(rome_backend).cache_stats()
        assert "process_superops_built" in stats
        assert "process_mixed_forms_built" in stats

    def test_stabilizer_frames_mirror_run_lowers_nothing(self):
        backend = Backend.from_name("ibmq_guadalupe", cycle=80417)
        circuit = transpile(get_benchmark("MIRROR:8@3").build(), backend).physical_circuit
        executor = BatchExecutor(backend, trajectories=32, base_seed=3)
        program = executor.compile(circuit)
        assert program.is_clifford
        before = _lowerings()
        results = executor.run_assignments(
            circuit, _assignments(program), seeds=[1, 2], engine="stabilizer_frames"
        )
        assert results[0].engine == "stabilizer_frames"
        assert _lowerings() == before

    def test_dense_engines_build_each_form_once(self):
        # A calibration cycle no other test uses: every noise op is new to
        # the process-level resolved-op memo, so nothing is pre-lowered.
        backend = Backend.from_name("ibmq_rome", cycle=90210)
        first = transpile(get_benchmark("BV-4").build(), backend).physical_circuit
        second = first.copy()
        executor = BatchExecutor(backend, trajectories=8, base_seed=5)
        program_a = executor.compile(first)
        assignments = _assignments(program_a)

        def run(circuit, engine):
            executor.run_assignments(circuit, assignments, seeds=[1, 2], engine=engine)

        start = _lowerings()
        run(first, "density_matrix")
        ops_a = _distinct(_consumed_ops(program_a, assignments))
        after_a = _lowerings()
        assert after_a["superops_built"] - start["superops_built"] == len(ops_a)
        assert after_a["mixed_forms_built"] == start["mixed_forms_built"]

        run(first, "density_matrix")
        assert _lowerings() == after_a

        run(second, "density_matrix")
        program_b = executor.compile(second)
        assert program_b is not program_a
        ops_b = _distinct(_consumed_ops(program_b, assignments))
        shared = set(ops_a) & set(ops_b)
        assert shared, "the resolved-op memo should share noise ops across programs"
        after_b = _lowerings()
        assert after_b["superops_built"] - after_a["superops_built"] == len(
            set(ops_b) - set(ops_a)
        )

        run(first, "trajectories")
        kraus_ops = [op for op in ops_a.values() if op.kind == "kraus"]
        after_traj = _lowerings()
        assert after_traj["superops_built"] == after_b["superops_built"]
        assert after_traj["mixed_forms_built"] - after_b["mixed_forms_built"] == len(kraus_ops)
