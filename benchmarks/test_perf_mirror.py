"""Performance gates for the device-scale mirror-workload path.

The hardware-scaling study's whole point is that a 127-qubit mirror point is
*cheap*: the workload is Clifford, so execution rides the stabilizer path —
the sparse ``stabilizer_frames`` engine propagates Pauli frames in O(n) bits
per event instead of materialising any 2^n state.  Before this path existed,
the only engines able to express a 63-qubit active space would have needed a
dense state of 2^63 amplitudes: hours (or rather: impossible), not seconds.

Gates (nightly, non-blocking — wall-clock measurements are noisy on shared
runners):

* one cold end-to-end 127-qubit mirror scaling point (build + transpile +
  execute + verify) must finish inside :data:`MAX_POINT_SECONDS`;
* compiling a cold-cycle 127-qubit ``MIRROR:63@7`` point (the
  :class:`~repro.hardware.program.CompiledNoisyProgram` build alone) must
  take at most :data:`MAX_COMPILE_SECONDS` — the frame engine consumes only
  Pauli twirls, so compile must not build dense superoperators;
* the point must actually run on the stabilizer path with a verified target;
* two independent computations of the point must agree bit-for-bit on every
  result field (the store's cold/warm contract), wall-clock fields excluded;
* a **scaling curve** of cold end-to-end mirror points on 63-, 255- and
  1023-qubit line devices, each verified and each inside its own per-width
  ceiling — the widths that exercise one, four and sixteen packed symplectic
  words per Pauli row;
* the packed kernels must beat the ``REPRO_PURE_KERNELS=1`` boolean-row
  oracle by ≥ :data:`MIN_KERNEL_SPEEDUP` on a warm 127-qubit engine run,
  with **bit-identical** distribution payloads — speed is only admissible
  if it costs nothing in reproducibility.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict

import numpy as np

from repro.analysis.scaling import hardware_scaling_point
from repro.hardware import Backend, NoisyExecutor, topologies
from repro.hardware.devices import synthetic_device
from repro.hardware.program import CompiledNoisyProgram
from repro.simulators.engines import EngineJob, get_engine
from repro.testing import print_section
from repro.transpiler.transpile import transpile
from repro.workloads.suite import get_benchmark

#: Generous ceiling for one cold 127-qubit mirror point, end to end (seconds).
#: Measured ~0.6s on a 2-vCPU shared VM (~1s while compile still built
#: dense superoperators); "seconds, not hours".
MAX_POINT_SECONDS = 60.0

#: Ceiling for the compile step of one cold-cycle 127-qubit ``MIRROR:63@7``
#: point (seconds).  Measured ~0.05-0.09s on a 2-vCPU shared VM (~0.4s while
#: compile still built every dense superoperator and mixed-unitary form).
MAX_COMPILE_SECONDS = 0.2

#: Per-width wall-clock ceilings (seconds) for the cold line-device scaling
#: curve, end to end (device build + transpile + execute + verify).  Measured
#: ~0.7s / ~8s at 63 / 255 qubits on a 2-vCPU shared VM (~1s / ~11s while
#: compile still built dense superoperators); 1023 was last measured at ~350s
#: on a laptop-class machine, before that change.  The ceilings leave headroom
#: for shared CI runners.  The growth along the curve is dominated by the
#: O(n²) transpiler routing and per-op Python compile work — the packed
#: symplectic kernels keep the *engine* leg near-linear (the frame state is
#: trajectories × ceil(n/64) uint64 words).
SCALING_CURVE_CEILINGS = {63: 30.0, 255: 120.0, 1023: 900.0}

#: Required warm engine-run advantage of the packed symplectic kernels over
#: the pure boolean-row oracle at 127 qubits (measured ~30x).
MIN_KERNEL_SPEEDUP = 20.0

#: Wall-clock fields excluded from the bit-identity comparison.
_WALL_CLOCK_FIELDS = ("transpile_s", "evaluate_s")


def _point():
    backend = Backend.from_name("heavy_hex:4")  # the 127-qubit lattice
    return hardware_scaling_point(
        backend, benchmark="MIRROR:half@7", shots=2048, trajectories=60, seed=7
    )


def test_127q_mirror_point_runs_in_seconds_on_the_stabilizer_path():
    start = time.perf_counter()
    record = _point()
    elapsed = time.perf_counter() - start

    print_section("127-qubit mirror scaling point")
    for label, value in (
        ("benchmark", record.benchmark),
        ("active qubits", record.num_active_qubits),
        ("engine", record.engine),
        ("verified", record.mirror_verified),
        ("success probability", record.success_probability),
        ("flip-free probability", record.flip_free_probability),
        ("wall time (s)", round(elapsed, 2)),
    ):
        print(f"{label:24s} {value}")

    assert elapsed < MAX_POINT_SECONDS, (
        f"127-qubit mirror point took {elapsed:.1f}s"
        f" (gate: {MAX_POINT_SECONDS}s) — the stabilizer path regressed"
    )
    assert record.benchmark == "MIRROR:63@7"
    assert record.num_active_qubits >= 48
    assert record.engine == "stabilizer_frames"
    assert record.mirror_verified, "compiled ideal output diverged from the target"
    assert record.flip_free_probability is not None
    assert 0.0 < record.flip_free_probability < 1.0
    assert 0.0 <= record.success_probability <= 1.0


def test_cold_cycle_127q_mirror_compile_within_budget():
    """The compile step alone, on calibration cycles no other point used.

    A fresh cycle brings fresh channel content, so the process-level
    resolved-op memo cannot absorb the work (as in a drift study).  The
    median of three cold cycles damps one-off host noise.
    """
    spec = get_benchmark("MIRROR:63@7")
    times = []
    for cycle in (7001, 7002, 7003):
        backend = Backend.from_name("ibm_washington", cycle=cycle)
        compiled = transpile(spec.build(), backend)
        circuit, gst = compiled.physical_circuit, compiled.gst
        start = time.perf_counter()
        program = CompiledNoisyProgram(backend, circuit, gst)
        times.append(time.perf_counter() - start)
        assert program.is_clifford
    elapsed = sorted(times)[1]

    print_section("cold-cycle 127-qubit MIRROR:63@7 compile")
    print(f"{'per cycle (s)':24s} {[round(t, 3) for t in times]}")
    print(f"{'median (s)':24s} {elapsed:.3f}")
    assert elapsed <= MAX_COMPILE_SECONDS, (
        f"cold 127-qubit compile took {elapsed:.3f}s (gate: {MAX_COMPILE_SECONDS}s)"
        " — compile is building forms the frame engine never consumes"
    )


def test_127q_mirror_point_is_bit_identical_across_runs():
    first = {
        k: v for k, v in asdict(_point()).items() if k not in _WALL_CLOCK_FIELDS
    }
    second = {
        k: v for k, v in asdict(_point()).items() if k not in _WALL_CLOCK_FIELDS
    }
    assert first == second


def test_mirror_scaling_curve_63_to_1023_qubits():
    """Cold end-to-end mirror points across the packed-word axis.

    63 qubits fits one 64-bit word per Pauli row, 255 takes four, 1023 takes
    sixteen — each point transpiles a full-width mirror circuit onto a line
    device, executes it on the frame engine and verifies the analytic target.
    Every width must stay under its ceiling *and* verify: a scaling curve of
    unverified points would only prove that wrong answers are fast.
    """
    print_section("mirror scaling curve (line devices)")
    header = f"{'qubits':>7s} {'words':>6s} {'transpile_s':>12s} {'evaluate_s':>11s} {'total_s':>8s} {'verified':>9s}"
    print(header)
    rows = []
    for width, ceiling in sorted(SCALING_CURVE_CEILINGS.items()):
        backend = Backend(
            synthetic_device(
                width, edges=topologies.line(width), name=f"line_{width}"
            )
        )
        start = time.perf_counter()
        record = hardware_scaling_point(
            backend,
            benchmark=f"MIRROR:{width}@7",
            shots=2048,
            trajectories=60,
            seed=7,
        )
        elapsed = time.perf_counter() - start
        words = -(-width // 64)
        print(
            f"{width:7d} {words:6d} {record.transpile_s:12.2f}"
            f" {record.evaluate_s:11.2f} {elapsed:8.2f} {str(record.mirror_verified):>9s}"
        )
        rows.append((width, elapsed, ceiling, record))

    for width, elapsed, ceiling, record in rows:
        assert record.engine == "stabilizer_frames", (width, record.engine)
        assert record.mirror_verified, f"{width}-qubit mirror target diverged"
        assert record.num_active_qubits == width
        assert elapsed < ceiling, (
            f"{width}-qubit mirror point took {elapsed:.1f}s"
            f" (ceiling: {ceiling}s) — device-scale compilation or the"
            f" packed engine path regressed"
        )


def _warm_engine_run_ms(pure: bool, repeats: int = 7):
    """Min wall-clock of a warm 127-qubit frame-engine run, one kernel mode.

    Transpiles and compiles once (through the executor's program cache), then
    times ``engine.run`` alone on fresh-but-identically-seeded per-trajectory
    streams: exactly the work the bit-packed kernels claim to accelerate,
    with compile cost excluded from both sides of the comparison.
    """
    if pure:
        os.environ["REPRO_PURE_KERNELS"] = "1"
    else:
        os.environ.pop("REPRO_PURE_KERNELS", None)
    try:
        backend = Backend.from_name("heavy_hex:4")
        spec = get_benchmark("MIRROR:63@7")
        compiled = transpile(spec.build(), backend)
        executor = NoisyExecutor(backend, seed=7, trajectories=60)
        executor.run(
            compiled.physical_circuit,
            shots=64,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            engine="stabilizer_frames",
            seed=7,
        )
        program = next(iter(executor._programs.values()))
        engine = get_engine("stabilizer_frames")
        trajectories = 60
        num_windows = sum(1 for kind, _ in program.template if kind == "window")

        def jobs():
            seeds = np.random.SeedSequence(42).spawn(trajectories)
            return [
                EngineJob(
                    variants=["skip"] * num_windows,
                    streams=[np.random.default_rng(s) for s in seeds],
                    outputs=tuple(range(program.num_active)),
                )
            ]

        result = engine.run(program, jobs(), trajectories)  # warm every memo
        times = []
        for _ in range(repeats):
            batch = jobs()
            start = time.perf_counter()
            result = engine.run(program, batch, trajectories)
            times.append(time.perf_counter() - start)
        return min(times) * 1000.0, result[0]
    finally:
        os.environ.pop("REPRO_PURE_KERNELS", None)


def test_packed_kernels_beat_pure_oracle_20x_at_127q_bit_identically():
    """The tentpole gate: ≥20x on the warm engine run, zero bits of drift."""
    packed_ms, packed_result = _warm_engine_run_ms(pure=False)
    pure_ms, pure_result = _warm_engine_run_ms(pure=True)
    speedup = pure_ms / packed_ms

    print_section("packed vs pure kernels, warm 127-qubit engine run")
    print(f"{'packed (ms)':24s} {packed_ms:.2f}")
    print(f"{'pure oracle (ms)':24s} {pure_ms:.2f}")
    print(f"{'speedup':24s} {speedup:.1f}x")

    # Bit-identity first: a fast kernel that drifts is a store-corrupting bug,
    # not an optimisation.  SparseDistribution equality covers the support,
    # every probability float, and the readout-applied flag; the metadata
    # carries the exact flip_free_probability product.
    assert packed_result.probabilities == pure_result.probabilities
    assert packed_result.metadata == pure_result.metadata
    assert list(packed_result.probabilities) == list(pure_result.probabilities)

    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"packed kernels only {speedup:.1f}x over the pure oracle"
        f" (gate: {MIN_KERNEL_SPEEDUP}x) — the bit-packed symplectic path"
        f" regressed"
    )
