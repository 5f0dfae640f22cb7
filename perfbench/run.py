"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload paper_adapt --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a human-readable table.  ``--workload all`` runs each
workload in its own fresh interpreter, one after the other, and exits
non-zero if any output check failed.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402 - after the clock starts
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Seed used unless one is given.  Seed 97 is held back for checking claims.
DEFAULT_SEED = 1


def _locate_source() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources at {SOURCE}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    import harness
    import spans

    workdir = harness.workdir_for_run()
    try:
        workload, import_s = harness.set_up(args.workload, args.seed, workdir)
        setup_main = time.perf_counter() - _T0
        if args.setup_probe:
            workload.close()
            print(json.dumps({"setup_s": setup_main}))
            return 0
        try:
            if args.trace:
                half = args.seconds / 2.0
                untraced = harness.measure(workload, half, workload.min_ops)
                recorder = spans.Recorder()
                store_before = harness.store_snapshot(workload)
                service_before = workload.service_stats()
                with spans.install(recorder):
                    segment = harness.measure(workload, half, 0, recorder)
                stores = {"before": store_before, "after": harness.store_snapshot(workload)}
                service = {}
                if service_before:
                    service = {"before": service_before, "after": workload.service_stats()}
                records = untraced.records + segment.records
            else:
                min_ops = max(workload.min_ops, harness.tail_min_ops(workload))
                segment = harness.measure(workload, args.seconds, min_ops)
                records = segment.records
            checks = workload.run_checks()
            rss_mb = harness.peak_rss_mb()
        finally:
            workload.close()
    finally:
        harness.remove_workdir(workdir)

    failed = sum(1 for r in records if r.error)
    errors = [r.error for r in records if r.error][:5] + checks
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "attempted": len(records),
        "failed": failed,
        "failed_ratio": failed / len(records),
        "errors": errors,
        "samples": len(segment.records),
        "latencies_ms": [1e3 * r.latency_s for r in segment.records],
        "tail_pct": workload.tail_pct,
        "import_s": import_s,
        **{f"extra.{k}": v for k, v in workload.extra_metrics().items()},
    }
    units = dict(harness.PER_LAYER if args.trace else harness.END_TO_END)
    if args.trace:
        values = harness.per_layer(workload, recorder, segment, untraced, import_s, stores, service)
        table = harness.layer_table(recorder, segment)
        result.update(layers=table, untraced_ops_per_s=untraced.ops_per_s,
                      traced_ops_per_s=segment.ops_per_s)
        print(f"{args.workload}: traced {len(segment.records)} ops in {segment.elapsed_s:.1f} s "
              f"({segment.ops_per_s:.4g} ops/s; untraced {untraced.ops_per_s:.4g} ops/s, "
              f"overhead {values['trace.overhead_pct']:.3g}%)")
        print(f"  {'layer':34} {'self s/op':>11} {'share':>7} {'calls/op':>9}")
        for row in table:
            print(f"  {row['layer']:34} {row['self_s_per_op']:11.5f} "
                  f"{100 * row['share']:6.1f}% {row['calls_per_op']:9.2f}")
    else:
        setup_samples = [setup_main] + harness.probe_setups(args.workload, args.seed)
        values = harness.end_to_end(workload, segment, setup_samples, rss_mb)
        result.update(setup_samples=setup_samples)
        print(f"{args.workload}: {len(records)} ops in {segment.elapsed_s:.1f} s, "
              f"failed_ratio {result['failed_ratio']:.4g}")
        counts = {"setup_s": len(setup_samples)}
        for name, unit in harness.END_TO_END:
            note = f" (p{workload.tail_pct:g})" if name == "latency_tail_ms" else ""
            print(f"  {name:18} {_fmt(values[name]):>12} {unit:4} "
                  f"n={counts.get(name, len(records))}{note}")
        for name, value in workload.extra_metrics().items():
            print(f"  {name:18} {_fmt(value):>12} ratio n={workload.min_ops} (leading ops)")
    for error in errors:
        print(f"  FAILED: {error}")
    result["metrics"] = values
    path = harness.write_result(args.workload, args.seed, bool(args.trace), result,
                                recorder if args.trace else None)
    print(f"  result: {path.relative_to(HERE.parent)}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined table and JSON line."""
    import scenarios

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in scenarios.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= bool(last["correct"]) and child.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    _locate_source()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        known = sorted(scenarios.WORKLOADS)
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {known}\n")
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
