"""In-memory spans and counts for the traced benchmark run.

The benchmark's traced run wraps the public call of each layer (see
:data:`TARGETS`) in a span: a name, start and end (``perf_counter_ns``), the
enclosing span on the same thread, and the op id.  A span opened on another
thread (the service daemon's scheduler thread) finds its parent through the
job ids it serves, which the caller linked to its own op span.  Counts are
taken at the same boundaries.  Everything stays in memory until the run ends.

A layer's *self time* is the duration of its spans minus the part of each
span's interval that its child spans cover (children on another thread
included, clipped to the parent).  The timed runs install none of this.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    op: Optional[int]
    thread: int


class Recorder:
    """Collects spans and counts; safe to call from several threads."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._jobs: Dict[str, Tuple[int, Optional[int]]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, jobs: Sequence[str] = ()) -> int:
        stack = self._stack()
        parent, op = (stack[-1], self.spans[stack[-1]].op) if stack else (None, None)
        if parent is None:
            linked = [self._jobs[j] for j in jobs if j in self._jobs]
            parent, op = linked[0] if linked else (None, self.op)
        span = Span(name, self.clock(), 0, parent, op, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def link(self, job_id: str, span_index: int) -> None:
        """Make ``span_index`` the parent of spans that serve ``job_id``."""
        with self._lock:
            self._jobs[str(job_id)] = (span_index, self.spans[span_index].op)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        covered, reach = 0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own / 1e9
    return dict(totals)


# ---------------------------------------------------------------------------
# Wrapped calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One call to wrap: ``attr`` (``"name"`` or ``"Class.name"``) where it is
    looked up in ``module``; counts are derived from the call's result."""

    module: str
    attr: str
    span: str
    counts: Optional[Callable[[tuple, object], Dict[str, float]]] = None
    jobs: Optional[Callable[[tuple], Sequence[str]]] = None


def _one(name: str) -> Callable[[tuple, object], Dict[str, float]]:
    return lambda args, result: {name: 1}


def _engine(name: str) -> Target:
    cls = {
        "density_matrix": "DensityMatrixEngine",
        "trajectories": "TrajectoryEngine",
        "stabilizer": "StabilizerEngine",
        "stabilizer_frames": "StabilizerFrameEngine",
    }[name]
    return Target(
        "repro.simulators.engines",
        f"{cls}.run",
        f"engine.{name}.run",
        lambda args, result: {f"engine.{name}.jobs": len(args[2])},
    )


def _report_counts(args, report) -> Dict[str, float]:
    return {
        "orchestrator.tasks_executed": len(report.executed),
        "orchestrator.tasks_cached": len(report.cached),
    }


def _cache_counts(args, result) -> Dict[str, float]:
    return {"hardware.program_cache_gets": 1, "hardware.program_cache_hits": int(result[1])}


def _claim_counts(args, won) -> Dict[str, float]:
    return {"leases.claims": 1, "leases.claims_won": int(bool(won))}


_TRANSPILE = ("transpiler.transpile", _one("transpiler.calls"))
_LEASES = "repro.runtime.leases"

#: Every wrapped call.  Functions imported by name are wrapped in each module
#: that looks them up.
TARGETS: Tuple[Target, ...] = (
    Target(
        "repro.hardware.backend", "Backend.from_name", "hardware.backend", _one("hardware.backends")
    ),
    Target("repro.workloads.suite", "BenchmarkSpec.build", "workloads.build"),
    Target("repro.transpiler.transpile", "transpile", *_TRANSPILE),
    Target("repro.analysis.scaling", "transpile", *_TRANSPILE),
    Target("repro.analysis.evaluation_runs", "transpile", *_TRANSPILE),
    Target(
        "repro.hardware.program",
        "CompiledNoisyProgram.__init__",
        "hardware.compile",
        _one("hardware.compiles"),
    ),
    Target("repro.hardware.program", "ProgramCache.get", "hardware.program_cache", _cache_counts),
    _engine("density_matrix"),
    _engine("trajectories"),
    _engine("stabilizer"),
    _engine("stabilizer_frames"),
    Target(
        "repro.core.adapt",
        "Adapt.select",
        "core.adapt_select",
        lambda args, result: {"core.decoy_evals": result.num_decoy_evaluations},
    ),
    Target("repro.core.adapt", "make_decoy", "core.decoy"),
    Target("repro.core.evaluation", "compiled_ideal_distribution", "core.ideal"),
    Target("repro.analysis.scaling", "compiled_ideal_distribution", "core.ideal"),
    Target("repro.analysis.evaluation_runs", "compiled_ideal_distribution", "core.ideal"),
    Target("repro.core.policies", "RuntimeBestPolicy.decide", "core.runtime_best"),
    Target("repro.store.store", "ExperimentStore.get", "store.get", _one("store.gets")),
    Target("repro.store.store", "ExperimentStore.put", "store.put", _one("store.puts")),
    Target(
        "repro.store.store", "ExperimentStore.contains", "store.contains", _one("store.contains")
    ),
    Target("repro.runtime.tasks", "resolve_task_key", "keys.resolve", _one("keys.resolves")),
    Target("repro.runtime.tasks", "generate_calibration", "keys.calibration"),
    Target("repro.runtime.tasks", "calibration_fingerprint", "keys.calibration"),
    Target(
        "repro.runtime.orchestrator", "SweepOrchestrator.run", "orchestrator.run", _report_counts
    ),
    Target(_LEASES, "LeaseManager.try_claim", "leases.claim", _claim_counts),
    Target(_LEASES, "LeaseManager.release", "leases.release", _one("leases.releases")),
    Target(
        _LEASES, "LeaseManager.heartbeat_now", "leases.heartbeat", _one("leases.heartbeats")
    ),
    Target(
        "repro.service.server",
        "execute_run_requests",
        "service.execute",
        _one("service.executes"),
        jobs=lambda args: [r.request_id for r in args[0]],
    ),
)


def _owner(target: Target):
    module = importlib.import_module(target.module)
    owner_path, _, name = target.attr.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    return owner, name


def _wrap(fn, recorder: Recorder, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        jobs = target.jobs(args) if target.jobs is not None else ()
        index = recorder.start(target.span, jobs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if target.counts is not None:
            for name, n in target.counts(args, result).items():
                recorder.count(name, n)
        # Function attributes the caller reads back (e.g. a round's
        # ``last_pack_stats``) must stay visible through the wrapper.
        wrapper.__dict__.update(fn.__dict__)
        return result

    setattr(wrapper, _MARK, target.span)
    return wrapper


class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self, saved: List[Tuple[object, str, object]]) -> None:
        self._saved = saved

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(recorder: Recorder, targets: Iterable[Target] = TARGETS) -> Installed:
    saved: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            owner, name = _owner(target)
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, recorder, target))
            else:
                wrapped = _wrap(raw, recorder, target)
            saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
    except BaseException:
        Installed(saved).restore()
        raise
    return Installed(saved)


def installed_wrappers(targets: Iterable[Target] = TARGETS) -> List[str]:
    """Attributes among ``targets`` that currently hold a benchmark wrapper."""
    found = []
    for target in targets:
        owner, name = _owner(target)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, _MARK):
            found.append(f"{target.module}.{target.attr}")
    return found
