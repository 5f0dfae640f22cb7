"""Closed-loop timing, metrics, set-up probes and result files.

A run of one workload, in one process:

1. set-up: ``import repro.cli``, input generation, the workload's store or
   daemon, and one discarded warm-up op, timed from the first line of
   ``run.py``;
2. the timed loop: whole rounds of ops, stopped at the round boundary
   nearest to ``--seconds`` once enough ops were done for the tail
   percentile;
3. run-level checks, peak RSS, tear-down;
4. two more set-ups in fresh child interpreters (``--setup-probe``), so that
   ``setup_s`` is the median of three.

A traced run (``--trace 1``) splits the loop into an untraced half and a
traced half and reports the per-layer metrics of the traced half, plus the
tracing overhead between the two halves.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import generate
import scenarios
import spans

ROOT = Path(__file__).resolve().parent.parent
#: Result files, spans and scratch stores, inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 2
#: Fewest samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_ENGINES = ("density_matrix", "trajectories", "stabilizer", "stabilizer_frames")

#: Per-layer metrics of a traced run: (name, unit).  Times are self time and
#: counts are per op (per request on served_runs).
PER_LAYER = (
    ("cli.import_s", "s"),
    ("hardware.backend_s", "s/op"),
    ("hardware.backends", "count/op"),
    ("workloads.build_s", "s/op"),
    ("transpiler.transpile_s", "s/op"),
    ("transpiler.calls", "count/op"),
    ("hardware.compile_s", "s/op"),
    ("hardware.compiles", "count/op"),
    ("hardware.program_cache_hit_ratio", "ratio"),
    *((f"engine.{e}.run_s", "s/op") for e in _ENGINES),
    *((f"engine.{e}.jobs", "count/op") for e in _ENGINES),
    ("core.adapt_select_s", "s/op"),
    ("core.decoy_s", "s/op"),
    ("core.decoy_evals", "count/op"),
    ("core.ideal_s", "s/op"),
    ("core.runtime_best_s", "s/op"),
    ("core.adapt_gain_gmean", "ratio"),
    ("store.get_s", "s/op"),
    ("store.put_s", "s/op"),
    ("store.contains_s", "s/op"),
    ("store.gets", "count/op"),
    ("store.puts", "count/op"),
    ("store.contains", "count/op"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_written", "B/op"),
    ("keys.resolve_s", "s/op"),
    ("keys.resolves", "count/op"),
    ("keys.calibration_s", "s/op"),
    ("orchestrator.self_s", "s/op"),
    ("orchestrator.tasks_executed", "count/op"),
    ("orchestrator.tasks_cached", "count/op"),
    ("leases.claim_s", "s/op"),
    ("leases.claims", "count/op"),
    ("leases.claim_won_ratio", "ratio"),
    ("leases.release_s", "s/op"),
    ("leases.heartbeats", "count/op"),
    ("service.queue_wait_ms", "ms"),
    ("service.execute_ms", "ms"),
    ("service.notify_lag_ms", "ms"),
    ("service.execute_s", "s/op"),
    ("service.requests_per_batch", "count"),
    ("service.rounds", "count/op"),
    ("service.context_hit_ratio", "ratio"),
    ("op.self_s", "s/op"),
    ("trace.overhead_pct", "%"),
)

#: Span name of each per-layer self-time metric.
SELF_TIME = {
    "hardware.backend_s": "hardware.backend",
    "workloads.build_s": "workloads.build",
    "transpiler.transpile_s": "transpiler.transpile",
    "hardware.compile_s": "hardware.compile",
    **{f"engine.{e}.run_s": f"engine.{e}.run" for e in _ENGINES},
    "core.adapt_select_s": "core.adapt_select",
    "core.decoy_s": "core.decoy",
    "core.ideal_s": "core.ideal",
    "core.runtime_best_s": "core.runtime_best",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "store.contains_s": "store.contains",
    "keys.resolve_s": "keys.resolve",
    "keys.calibration_s": "keys.calibration",
    "orchestrator.self_s": "orchestrator.run",
    "leases.claim_s": "leases.claim",
    "leases.release_s": "leases.release",
    "service.execute_s": "service.execute",
    "op.self_s": "op",
}

#: Per-layer counts that are recorder counts divided by ops.
PER_OP_COUNTS = (
    "hardware.backends",
    "transpiler.calls",
    "hardware.compiles",
    *(f"engine.{e}.jobs" for e in _ENGINES),
    "core.decoy_evals",
    "store.gets",
    "store.puts",
    "store.contains",
    "keys.resolves",
    "orchestrator.tasks_executed",
    "orchestrator.tasks_cached",
    "leases.claims",
    "leases.heartbeats",
)


@dataclass
class Segment:
    records: List[scenarios.OpRecord]
    elapsed_s: float

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / self.elapsed_s


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``inclusive`` method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_min_ops(workload: scenarios.Workload) -> int:
    """Ops needed so that ``TAIL_SAMPLES`` units lie beyond the tail."""
    beyond = 1.0 - workload.tail_pct / 100.0
    return int(-(-TAIL_SAMPLES * workload.tail_unit // beyond)) + 1


def measure(
    workload: scenarios.Workload, seconds: float, min_ops: int, recorder=None
) -> Segment:
    """Closed loop of whole rounds, stopped at the round boundary nearest to
    ``seconds`` once ``min_ops`` are done (a paper_adapt round takes ~6 s)."""
    records: List[scenarios.OpRecord] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        records.extend(workload.run_round(recorder))
        now = time.perf_counter()
        elapsed = now - start
        if len(records) >= min_ops and elapsed + (now - round_start) / 2 >= seconds:
            return Segment(records, elapsed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: str):
    """Import, generate, open and warm up; returns (workload, import_s)."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - start
    workload = scenarios.WORKLOADS[name](generate.GENERATORS[name](seed), workdir)
    workload.open()
    try:
        workload.warmup()
    except BaseException:
        workload.close()
        raise
    return workload, import_s


def probe_setups(name: str, seed: int) -> List[float]:
    """Time ``SETUP_PROBES`` set-ups, each in a fresh child interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-400:]}")
        samples.append(float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def workdir_for_run() -> str:
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT_DIR)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, segment: Segment, setup_samples: List[float], rss_mb: float):
    latencies_ms = [1e3 * r.latency_s for r in segment.records]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": segment.ops_per_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": percentile(latencies_ms, workload.tail_pct),
        "peak_rss_mb": rss_mb,
    }


def _delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return float(after.get(name, 0)) - float(before.get(name, 0))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def store_snapshot(workload) -> Dict[str, float]:
    totals = {"bytes": 0.0}
    for store in workload.stores():
        totals["bytes"] += store.disk_bytes()
        for name, value in store.stats.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def per_layer(
    workload,
    recorder: spans.Recorder,
    traced: Segment,
    untraced: Segment,
    import_s: float,
    stores: Dict[str, Dict[str, float]],
    service: Dict[str, Dict[str, Dict[str, float]]],
) -> Dict[str, float]:
    ops = len(traced.records)
    self_s = spans.layer_self_seconds(recorder.spans)
    counts = recorder.counts
    metrics: Dict[str, float] = {"cli.import_s": import_s}
    for name, span in SELF_TIME.items():
        metrics[name] = self_s.get(span, 0.0) / ops
    for name in PER_OP_COUNTS:
        metrics[name] = counts.get(name, 0.0) / ops
    metrics["hardware.program_cache_hit_ratio"] = _ratio(
        counts.get("hardware.program_cache_hits", 0.0),
        counts.get("hardware.program_cache_gets", 0.0),
    )
    metrics["leases.claim_won_ratio"] = _ratio(
        counts.get("leases.claims_won", 0.0), counts.get("leases.claims", 0.0)
    )
    metrics["core.adapt_gain_gmean"] = workload.extra_metrics().get("adapt_gain_gmean", 0.0)
    before, after = stores["before"], stores["after"]
    hits = _delta(after, before, "probe_hits")
    metrics["store.hit_ratio"] = _ratio(hits, hits + _delta(after, before, "probe_misses"))
    metrics["store.bytes_written"] = _delta(after, before, "bytes") / ops
    phases = [r.phases for r in traced.records if r.phases]
    for phase in ("queue_wait_ms", "execute_ms", "notify_lag_ms"):
        values = [p[phase] for p in phases]
        metrics[f"service.{phase}"] = statistics.median(values) if values else 0.0

    def served(part: str, name: str) -> float:
        return _delta(service["after"][part], service["before"][part], name) if service else 0.0

    rounds = served("packing", "rounds")
    context_hits = served("contexts", "hits")
    metrics["service.requests_per_batch"] = _ratio(served("packing", "requests"), rounds)
    metrics["service.rounds"] = rounds / ops
    metrics["service.context_hit_ratio"] = _ratio(
        context_hits, context_hits + served("contexts", "builds")
    )
    metrics["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0)
    return metrics


def layer_table(recorder: spans.Recorder, traced: Segment) -> List[Dict[str, object]]:
    """Per span name: self seconds per op, share of the traced wall time, count."""
    ops = len(traced.records)
    self_s = spans.layer_self_seconds(recorder.spans)
    calls: Dict[str, int] = {}
    for span in recorder.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    rows = [
        {
            "layer": name,
            "self_s_per_op": seconds / ops,
            "share": seconds / traced.elapsed_s,
            "calls_per_op": calls[name] / ops,
        }
        for name, seconds in self_s.items()
    ]
    return sorted(rows, key=lambda row: -row["share"])


# ---------------------------------------------------------------------------
# Environment and result files
# ---------------------------------------------------------------------------


def git_revision(root: Path = ROOT) -> str:
    """HEAD's commit id read from ``.git`` (no git binary needed)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def write_result(name: str, seed: int, trace: bool, result: Dict[str, object],
                 recorder: Optional[spans.Recorder] = None) -> Path:
    """Write the result JSON (and the spans, when traced) under ``OUT_DIR``."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps({"environment": environment(), **result}, indent=1, sort_keys=True))
    if recorder is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
    return path


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
