"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import threading
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generate  # noqa: E402
import harness  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

# -- generators ---------------------------------------------------------------


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for name, make in generate.GENERATORS.items():
        assert make(5) == make(5), name
        assert make(5)["ops"] != make(6)["ops"], name


def test_paper_rounds_are_stratified_and_cycles_fresh():
    inputs = generate.paper_adapt(3)
    ops = inputs["ops"]
    size = len(generate.PAPER_ROUND)
    for start in range(0, len(ops), size):
        assert sorted(op["benchmark"] for op in ops[start : start + size]) == sorted(
            generate.PAPER_ROUND
        )
    # Every three rounds put each program on each machine once per slot.
    pairs = Counter((op["benchmark"], op["device"]) for op in ops[: 3 * size])
    assert pairs == Counter(
        (p, m) for p in generate.PAPER_ROUND for m in generate.PAPER_MACHINES
    )
    cycles = [op["cycle"] for op in ops] + [inputs["warmup"]["cycle"]]
    assert len(set(cycles)) == len(cycles)


def test_mirror_and_join_ops_use_fresh_cycles():
    for make in (generate.mirror_127q, generate.sweep_join):
        inputs = make(4)
        points = [inputs["warmup"], *inputs["ops"]]
        cycles = [p["cycle"] if "cycle" in p else p["cycles"][0] for p in points]
        assert len(set(cycles)) == len(cycles)


def test_served_resubmits_only_keys_served_earlier():
    inputs = generate.served_runs(2, windows=50)
    served = [r["params"] for r in inputs["warmup"]]
    assert not any(r["resubmit"] for r in inputs["warmup"])
    contexts = {(p["device"], p["benchmark"], p["cycle"]) for p in served}
    assert len(contexts) == generate.SERVED_WINDOW
    for window in inputs["ops"]:
        assert sum(r["resubmit"] for r in window) == generate.SERVED_RESUBMITS
        for request in window:
            params = request["params"]
            assert (params["device"], params["benchmark"], params["cycle"]) in contexts
            if request["resubmit"]:
                assert params in served
            else:
                assert params not in served
        served.extend(r["params"] for r in window if not r["resubmit"])


# -- span arithmetic ----------------------------------------------------------


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0, 0)


def test_self_time_subtracts_nested_children():
    tree = [
        _span("op", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 20, 30, parent=1),
        _span("c", 50, 60, parent=0),
    ]
    assert spans.self_times(tree) == [60, 20, 10, 10]


def test_self_time_takes_the_union_of_overlapping_cross_thread_children():
    # Two children on other threads overlap each other and run past the
    # parent's end: the parent loses only the covered part of its interval.
    tree = [
        _span("window", 0, 100),
        _span("execute", 20, 60, parent=0),
        _span("execute", 40, 130, parent=0),
    ]
    assert spans.self_times(tree) == [20, 40, 90]


def test_recorder_links_spans_on_another_thread_by_job_id():
    ticks = iter(range(0, 1000, 10))
    recorder = spans.Recorder(clock=lambda: next(ticks))
    recorder.op = 7
    window = recorder.start("window")
    recorder.link("job-1", window)

    def serve():
        outer = recorder.start("execute", jobs=["job-1"])
        inner = recorder.start("engine")
        recorder.end(inner)
        recorder.end(outer)

    worker = threading.Thread(target=serve)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.end(window)
    window_span, execute, engine = recorder.spans
    assert (execute.parent, execute.op) == (0, 7)
    assert (engine.parent, engine.op) == (1, 7)
    assert execute.thread != window_span.thread
    assert spans.self_times(recorder.spans) == [50 - 30, 30 - 10, 10]
    assert spans.layer_self_seconds(recorder.spans)["execute"] == 20 / 1e9


# -- wrappers -----------------------------------------------------------------


class _Probe(scenarios.Workload):
    """An op that only reports which wrappers are in place while it runs."""

    name = "probe"

    def __init__(self):
        super().__init__({"warmup": None, "ops": [None] * 4}, workdir="")
        self.seen = []

    def op(self, op):
        self.seen.append(spans.installed_wrappers())


def _originals():
    found = {}
    for target in spans.TARGETS:
        owner, name = spans._owner(target)
        found[(target.module, target.attr)] = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
    return found


def test_untraced_run_installs_no_wrapper():
    probe = _Probe()
    segment = harness.measure(probe, 0.0, 1)
    assert [r.error for r in segment.records] == [None]
    assert probe.seen == [[]]


def test_traced_run_wraps_every_target_and_restores_all():
    before = _originals()
    probe = _Probe()
    recorder = spans.Recorder()
    with spans.install(recorder):
        harness.measure(probe, 0.0, 1, recorder)
        from repro.runtime import tasks

        params = {"device": "ibmq_rome", "benchmark": "GHZ:3", "seed": 1}
        tasks.resolve_task_key("benchmark_run", params)
    assert len(probe.seen[0]) == len(spans.TARGETS)
    assert spans.installed_wrappers() == []
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    names = [s.name for s in recorder.spans]
    assert names[0] == "op" and "keys.resolve" in names
    assert recorder.counts["keys.resolves"] == 1


def test_wrapper_forwards_function_attributes_read_after_the_call():
    from repro.service import requests, server

    recorder = spans.Recorder()
    with spans.install(recorder):
        request = requests.RunRequest(
            device="ibmq_rome", benchmark="GHZ:3", shots=16, trajectories=2
        )
        server.execute_run_requests([request])
        assert server.execute_run_requests.last_pack_stats == (
            requests.execute_run_requests.last_pack_stats
        )
        assert server.execute_run_requests.last_pack_stats["requests"] == 1
    assert recorder.counts["service.executes"] == 1


# -- metric arithmetic and the benchmark definition ---------------------------


def test_percentile_and_tail_sample_rule():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile(list(range(101)), 95) == 95
    for workload in scenarios.WORKLOADS.values():
        ops = harness.tail_min_ops(workload)
        beyond = ops * (1 - workload.tail_pct / 100)
        assert beyond >= harness.TAIL_SAMPLES * workload.tail_unit


def test_benchmark_json_matches_the_harness():
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(scenarios.WORKLOADS)
    end_to_end = [(m["name"], m["unit"]) for m in definition["end_to_end"]]
    assert end_to_end == list(harness.END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in definition["per_layer"]]
    assert per_layer == list(harness.PER_LAYER)
