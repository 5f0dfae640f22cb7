"""The four closed-loop workloads, their ops and their per-op output checks.

Each workload object is built from the generated inputs only (see
:mod:`generate`), opened once, warmed up with one discarded op, and then
driven round by round by the harness.  A round is a list of op records;
every op is timed here, because ``served_runs`` times its requests from
submission to receipt with eight of them outstanding at once.

An op *fails* when it raises, settles in any state other than done, or fails
its output check; the failure text is kept in the op record.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import generate


@dataclass
class OpRecord:
    latency_s: float
    error: Optional[str] = None
    #: served_runs only: server-side phases of the request, in milliseconds
    phases: Dict[str, float] = field(default_factory=dict)


class CheckFailed(Exception):
    """An op's output did not pass its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@contextmanager
def _op_span(recorder, op_id: int) -> Iterator[Optional[int]]:
    """The root span of one op on the caller's thread (a no-op untraced)."""
    if recorder is None:
        yield None
        return
    recorder.op = op_id
    index = recorder.start("op")
    try:
        yield index
    finally:
        recorder.end(index)


def _timed(fn, *args) -> OpRecord:
    start = time.perf_counter()
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return OpRecord(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    return OpRecord(time.perf_counter() - start)


class Workload:
    """Common shape: ``open`` -> ``warmup`` -> ``run_round``* -> ``close``."""

    name = ""
    #: latency percentile reported as ``latency_tail_ms``
    tail_pct = 50.0
    #: ops per round (the harness only stops at round boundaries)
    round_ops = 1
    #: samples that stand as one for the tail rule (served_runs: one window)
    tail_unit = 1
    #: ops every run (and the untraced half of a traced run) must reach
    min_ops = 0

    def __init__(self, inputs: Dict[str, object], workdir: str) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self._next = 0

    def open(self) -> None:
        pass

    def warmup(self) -> None:
        record = _timed(self.op, self.inputs["warmup"])
        if record.error:
            raise RuntimeError(f"{self.name} warm-up op failed: {record.error}")

    def _take(self, count: int) -> list:
        ops = self.inputs["ops"]
        if self._next + count > len(ops):
            raise RuntimeError(f"{self.name}: generated op sequence exhausted")
        taken = ops[self._next : self._next + count]
        self._next += count
        return taken

    def run_round(self, recorder=None) -> List[OpRecord]:
        first = self._next
        records = []
        for op_id, op in enumerate(self._take(self.round_ops), start=first):
            with _op_span(recorder, op_id):
                records.append(_timed(self.op, op))
        return records

    def op(self, op) -> None:
        raise NotImplementedError

    def stores(self) -> list:
        return []

    def service_stats(self) -> Dict[str, Dict[str, float]]:
        return {}

    def run_checks(self) -> List[str]:
        """Run-level checks after the timed loop; returns failure messages."""
        return []

    def extra_metrics(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class PaperAdapt(Workload):
    """One ``run_policy_comparison`` per op: No-DD, All-DD, ADAPT, Runtime-Best."""

    name = "paper_adapt"
    tail_pct = 70.0
    round_ops = len(generate.PAPER_ROUND)
    min_ops = generate.PAPER_GAIN_OPS
    policies = {"no_dd", "all_dd", "adapt", "runtime_best"}

    def open(self) -> None:
        from repro.analysis.evaluation_runs import EvaluationConfig, run_policy_comparison
        from repro.hardware.backend import Backend

        # Looked up per op, so that a traced run's wrapper is seen.
        self._Backend = Backend
        self._compare = run_policy_comparison
        self._config = EvaluationConfig(**self.inputs["budget"])
        self._gains: List[float] = []

    def op(self, op) -> None:
        backend = self._Backend.from_name(op["device"], cycle=op["cycle"])
        evaluation = self._compare(op["benchmark"], backend, self._config)
        outcomes = evaluation.outcomes
        _require(set(outcomes) == self.policies, f"policies {sorted(outcomes)}")
        for outcome in outcomes.values():
            _require(
                0.0 <= outcome.fidelity <= 1.0,
                f"{outcome.policy} fidelity {outcome.fidelity} outside [0, 1]",
            )
        _require(0.0 <= evaluation.baseline_fidelity <= 1.0, "baseline fidelity outside [0, 1]")
        adapt, all_dd = outcomes["adapt"].assignment, outcomes["all_dd"].assignment
        _require(
            adapt.qubits <= all_dd.qubits,
            f"ADAPT picked {sorted(adapt.qubits)}, not a subset of {sorted(all_dd.qubits)}",
        )
        if op is not self.inputs["warmup"] and len(self._gains) < self.min_ops:
            self._gains.append(outcomes["adapt"].fidelity / outcomes["no_dd"].fidelity)

    def extra_metrics(self) -> Dict[str, float]:
        if len(self._gains) < self.min_ops:
            return {}
        return {"adapt_gain_gmean": math.exp(statistics.fmean(math.log(g) for g in self._gains))}


class Mirror127q(Workload):
    """A fresh-cycle ``ibm_washington`` backend plus one 63q mirror point."""

    name = "mirror_127q"
    tail_pct = 60.0

    def open(self) -> None:
        from repro.analysis.scaling import hardware_scaling_point
        from repro.hardware.backend import Backend

        # Looked up per op, so that a traced run's wrapper is seen.
        self._Backend = Backend
        self._point = hardware_scaling_point

    def op(self, op) -> None:
        backend = self._Backend.from_name(op["device"], cycle=op["cycle"])
        record = self._point(backend, benchmark=op["benchmark"])
        _require(record.mirror_verified, "mirror target not verified")
        _require(record.engine == "stabilizer_frames", f"engine {record.engine}")
        flip_free = record.flip_free_probability
        _require(
            flip_free is not None and 0.0 < flip_free < 1.0,
            f"flip-free probability {flip_free} outside (0, 1)",
        )


class ServedRuns(Workload):
    """One client, eight ``benchmark_run`` requests outstanding per window."""

    name = "served_runs"
    tail_pct = 95.0
    round_ops = generate.SERVED_WINDOW
    tail_unit = generate.SERVED_WINDOW

    def open(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import SweepService

        # Client, listener, handler and scheduler threads hand the GIL to one
        # another for every request.  On one CPU each handoff is a local
        # switch; across two shared vCPUs it is a cross-CPU wake-up whose
        # latency follows the host's load, which made this workload's
        # run-to-run spread ~1.5x that of the others (threads started
        # below inherit the mask).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # A relative socket path keeps clear of the 108-byte AF_UNIX limit
        # however deep the checkout sits.
        socket_path = os.path.relpath(os.path.join(self.workdir, "serve.sock"))
        # The daemon's finest watch cadence: at the default 50 ms, whether a
        # window's first job settles before its first watch poll decides
        # whether its requests see one poll interval or none, and the median
        # latency flips between ~35 and ~57 ms from run to run.
        self.service = SweepService(
            os.path.join(self.workdir, "serve-store"), socket_path, poll_interval_s=0.01
        )
        self.service.start()
        self.client = ServiceClient(socket_path, timeout_s=60.0)
        self._headlines: Dict[str, object] = {}
        self._requests = {"fresh": 0, "resubmit": 0}
        self._stats0: Optional[Dict[str, Dict[str, float]]] = None

    def warmup(self) -> None:
        records = self._window(self.inputs["warmup"], None, None)
        errors = [r.error for r in records if r.error]
        if errors:
            raise RuntimeError(f"served_runs warm-up window failed: {errors[0]}")
        self._stats0 = self.service_stats()

    def run_round(self, recorder=None) -> List[OpRecord]:
        op_id = self._next
        (window,) = self._take(1)
        with _op_span(recorder, op_id) as span:
            records = self._window(window, recorder, span)
        for request in window:
            self._requests["resubmit" if request["resubmit"] else "fresh"] += 1
        return records

    def _window(self, window, recorder, span) -> List[OpRecord]:
        submitted = []
        for request in window:
            start = time.perf_counter()
            try:
                job_id = self.client.submit_run(request["params"])
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                submitted.append((None, start, request, f"{type(exc).__name__}: {exc}"))
                continue
            if recorder is not None:
                recorder.link(job_id, span)
            submitted.append((job_id, start, request, None))
        records = []
        for job_id, start, request, error in submitted:
            if error is None:
                try:
                    job = self.client.wait(job_id, timeout_s=60.0)
                    received = time.time()
                    error = self._check(job, request)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    error = f"{type(exc).__name__}: {exc}"
            record = OpRecord(time.perf_counter() - start, error)
            if error is None:
                record.phases = {
                    "queue_wait_ms": 1e3 * (job["started_at"] - job["submitted_at"]),
                    "execute_ms": 1e3 * (job["finished_at"] - job["started_at"]),
                    "notify_lag_ms": 1e3 * (received - job["finished_at"]),
                }
            records.append(record)
        return records

    def _check(self, job, request) -> Optional[str]:
        if job.get("status") != "done":
            return f"job settled as {job.get('status')}: {job.get('result')}"
        result = job["result"]
        key, headline = result["key"], result["headline"]
        if request["resubmit"]:
            if result["status"] != "cached":
                return f"resubmitted key {key} came back {result['status']}"
            if headline != self._headlines.get(key):
                return f"resubmitted key {key} changed headline"
        else:
            if result["status"] != "executed":
                return f"fresh key {key} came back {result['status']}"
            self._headlines[key] = headline
        return None

    def stores(self) -> list:
        return [self.service.store]

    def service_stats(self) -> Dict[str, Dict[str, float]]:
        stats = self.client.stats()
        return {part: dict(stats[part]) for part in ("packing", "contexts", "store")}

    def run_checks(self) -> List[str]:
        """The store's probe hit ratio must equal the generated resubmit share."""
        after = self.service_stats()["store"]
        before = self._stats0["store"]
        hits = after["probe_hits"] - before["probe_hits"]
        misses = after["probe_misses"] - before["probe_misses"]
        want = (self._requests["resubmit"], self._requests["fresh"])
        if (hits, misses) != want:
            return [f"store probes hit/miss {hits}/{misses}, generated resubmit/fresh {want}"]
        return []

    def close(self) -> None:
        self.service.close()


class SweepJoin(Workload):
    """Cold then warm ``SweepOrchestrator(store, join=True).run(spec)`` per op."""

    name = "sweep_join"
    tail_pct = 80.0

    def open(self) -> None:
        from repro.runtime.orchestrator import SweepOrchestrator
        from repro.runtime.spec import SweepSpec
        from repro.store.store import ExperimentStore

        self.store = ExperimentStore(os.path.join(self.workdir, "join-store"))
        self._orchestrator = SweepOrchestrator
        self._spec = SweepSpec.from_dict

    def op(self, op) -> None:
        spec = self._spec(op)
        cold = self._orchestrator(self.store, join=True).run(spec)
        total = len(cold.tasks)
        _require(
            len(cold.executed) == total,
            f"cold pass executed {len(cold.executed)} of {total} tasks",
        )
        warm = self._orchestrator(self.store, join=True).run(spec)
        _require(
            len(warm.cached) == total,
            f"warm pass found {len(warm.cached)} of {total} tasks cached",
        )

    def stores(self) -> list:
        return [self.store]


WORKLOADS = {cls.name: cls for cls in (PaperAdapt, Mirror127q, ServedRuns, SweepJoin)}
