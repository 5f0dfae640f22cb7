"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed gives
the same op sequence in any process (``random.Random`` with an integer seed
is stable across runs and platforms, unlike ``hash()`` of a string).  The
workloads in :mod:`scenarios` receive only what these functions return.

Op sequences are *stratified*: ``paper_adapt`` draws each round as a seeded
permutation of the round's programs, with the machines rotated so that every
three rounds put each slot of the round on each machine once.  A run therefore always
holds the same mix of cheap and expensive ops, whatever the seed, which is
what keeps its medians steady from seed to seed.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: Table-4 programs of ``paper_adapt`` (QAOA-8A/10x take 2-16 s per op and
#: are left out so that enough ops fit in one run).
PAPER_PROGRAMS = ("BV-7", "BV-8", "QFT-6A", "QFT-6B", "QPEA-5", "QAOA-5", "GHZ-5", "ADDER-4")
#: One round of ``paper_adapt``.  QPEA-5 runs twice: with eight equal slots
#: the median latency fell on the boundary between the BV-7 and QPEA-5
#: groups and swung 15% from seed to seed; with nine it falls inside the
#: QPEA-5 pair, and p70 inside BV-8.
PAPER_ROUND = PAPER_PROGRAMS + ("QPEA-5",)
PAPER_MACHINES = ("ibmq_guadalupe", "ibmq_toronto", "ibmq_paris")
#: Smoke-sweep budgets (``repro.runtime.spec.smoke_spec`` at scale 1).
PAPER_BUDGET = {
    "shots": 512,
    "decoy_shots": 256,
    "trajectories": 40,
    "runtime_best_max_evaluations": 8,
    "seed": 7,
}
#: Leading ops over which ``adapt_gain_gmean`` is taken (two full rounds).
PAPER_GAIN_OPS = 2 * len(PAPER_ROUND)

MIRROR_DEVICE = "ibm_washington"
MIRROR_WIDTH = 63

SERVED_DEVICES = ("ibmq_rome", "ibmq_guadalupe", "ibmq_toronto")
SERVED_PROGRAMS = ("GHZ:3", "GHZ:4", "BV:3", "BV:4", "QFT:3", "ADDER-4", "GHZ-5", "BV:5")
SERVED_WINDOW = 8
#: Requests per window that resubmit a key served in an earlier window.
SERVED_RESUBMITS = 2
SERVED_BUDGET = {"shots": 256, "trajectories": 10}

JOIN_DEVICES = ("ibmq_rome", "ibmq_guadalupe", "ibmq_toronto")
JOIN_PROGRAMS = ("GHZ:3", "BV:4", "ADDER-4")
JOIN_BUDGET = {"shots": 256, "trajectories": 10}

# Distinct per-workload salts, so two workloads run with one seed draw
# unrelated inputs.
_SALTS = {"paper_adapt": 1, "mirror_127q": 2, "served_runs": 3, "sweep_join": 4}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(int(seed) * 1_000_003 + _SALTS[workload])


def _cycles(rng: random.Random, count: int) -> List[int]:
    """``count`` distinct calibration cycles, none shared with another op."""
    base = rng.randrange(10_000, 1_000_000_000)
    return [base + i for i in range(count)]


def paper_adapt(seed: int, rounds: int = 60) -> Dict[str, object]:
    """Warm-up op plus ``rounds`` stratified rounds of policy comparisons."""
    rng = _rng("paper_adapt", seed)
    offsets = [rng.randrange(len(PAPER_MACHINES)) for _ in PAPER_ROUND]
    cycles = iter(_cycles(rng, 1 + rounds * len(PAPER_ROUND)))
    # A fixed warm-up program and machine keep set-up time independent of
    # the seed; only its cycle is drawn.
    warmup = {"benchmark": "ADDER-4", "device": PAPER_MACHINES[0], "cycle": next(cycles)}
    ops = []
    for r in range(rounds):
        slots = list(range(len(PAPER_ROUND)))
        rng.shuffle(slots)
        for slot in slots:
            machine = PAPER_MACHINES[(offsets[slot] + r) % len(PAPER_MACHINES)]
            ops.append({"benchmark": PAPER_ROUND[slot], "device": machine, "cycle": next(cycles)})
    return {"budget": dict(PAPER_BUDGET), "warmup": warmup, "ops": ops}


def mirror_127q(seed: int, count: int = 600) -> Dict[str, object]:
    """Warm-up plus ``count`` 127q mirror points, each on a fresh cycle."""
    rng = _rng("mirror_127q", seed)
    cycles = _cycles(rng, 1 + count)
    circuit_seeds = rng.sample(range(1, 1_000_000), 1 + count)
    points = [
        {
            "device": MIRROR_DEVICE,
            "cycle": cycle,
            "benchmark": f"MIRROR:{MIRROR_WIDTH}@{circuit_seed}",
        }
        for cycle, circuit_seed in zip(cycles, circuit_seeds)
    ]
    return {"warmup": points[0], "ops": points[1:]}


def served_runs(seed: int, windows: int = 2000) -> Dict[str, object]:
    """Warm-up window plus ``windows`` windows of eight ``benchmark_run`` requests.

    The eight contexts (device, program, cycle) are fixed for the run, so the
    daemon's eight warm execution contexts cover every request.  A fresh
    request gets a fresh ``seed`` (a new store key on a warm context); each
    window after the warm-up also resubmits ``SERVED_RESUBMITS`` keys served
    in an earlier window, verbatim.
    """
    rng = _rng("served_runs", seed)
    cycle = rng.randrange(10_000, 1_000_000_000)
    offset = rng.randrange(len(SERVED_DEVICES))
    contexts = [
        {
            "device": SERVED_DEVICES[(i + offset) % len(SERVED_DEVICES)],
            "benchmark": program,
            "cycle": cycle,
        }
        for i, program in enumerate(SERVED_PROGRAMS)
    ]
    next_seed = iter(range(rng.randrange(1, 1_000_000), 10**9))

    def fresh(context: Dict[str, object]) -> Dict[str, object]:
        return {**context, **SERVED_BUDGET, "seed": next(next_seed)}

    served: List[Dict[str, object]] = []
    all_windows = []
    for w in range(1 + windows):
        resubmits = SERVED_RESUBMITS if w else 0
        slots = list(range(SERVED_WINDOW))
        rng.shuffle(slots)
        repeat_slots = set(slots[:resubmits])
        window = []
        for slot in range(SERVED_WINDOW):
            if slot in repeat_slots:
                window.append({"params": dict(rng.choice(served)), "resubmit": True})
            else:
                window.append({"params": fresh(contexts[slot]), "resubmit": False})
        served.extend(r["params"] for r in window if not r["resubmit"])
        all_windows.append(window)
    return {"warmup": all_windows[0], "ops": all_windows[1:]}


def sweep_join(seed: int, count: int = 600) -> Dict[str, object]:
    """Warm-up plus ``count`` 18-task ``benchmark_run`` sweep specs."""
    rng = _rng("sweep_join", seed)
    cycles = _cycles(rng, 1 + count)
    specs = [
        {
            "name": f"perfbench-join-{cycle}",
            "kind": "benchmark_run",
            "devices": list(JOIN_DEVICES),
            "cycles": [cycle],
            "workloads": list(JOIN_PROGRAMS),
            "seeds": sorted(rng.sample(range(1, 1_000_000), 2)),
            "params": dict(JOIN_BUDGET),
        }
        for cycle in cycles
    ]
    return {"warmup": specs[0], "ops": specs[1:]}


GENERATORS = {
    "paper_adapt": paper_adapt,
    "mirror_127q": mirror_127q,
    "served_runs": served_runs,
    "sweep_join": sweep_join,
}
