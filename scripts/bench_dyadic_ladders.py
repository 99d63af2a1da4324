#!/usr/bin/env python3
"""Write the fixed-seed record of the carried dyadic ladder rungs (BENCH_10.json).

Compares two checkouts of this repository, a parent and a change (default:
the checkout that holds this script), on:

* call counts: the registry-phi-free suite (the 13 ids that never call
  Phi, count 100) at seed 20240601.  Per identity, the calls of log_gamma,
  digamma (harmonic's calls included) and stieltjes_gamma1, how many of
  them are distinct within a side, and how many within a point (both sides
  together).  Deterministic;
* side times: each of those identities' two sides over its 100 sampled
  points at seed 20240601 (ID-12's left side is its trend gate), summed
  per side.  Each pass runs in a fresh interpreter after one untimed
  warm-up pass; the two checkouts' passes alternate, and each side's
  fastest pass is kept;
* traced counters: `bench/run.py --trace 1` of both workloads at seed
  20240601;
* `lerchsum suite` at seeds 20240601, 7 and 1234: the JSON report (after
  `strip_volatile`) and the CSV report compared byte for byte, with the exit
  codes and the failing identities (`reports_record` of
  scripts/bench_compensated_sum.py);
* eval-mix: all 5,000 calls at the same three seeds compared bit for bit,
  with each kind's summed call time over seven passes (`calls_record` of
  scripts/bench_compensated_sum.py);
* the benchmark: `bench_record` of scripts/bench_phi_integral.py, ten
  alternating 50 s pairs per workload by default, at seeds from 1001 on.

Each checkout is imported only in a child process.

    python3 scripts/bench_dyadic_ladders.py --parent DIR [--pairs 10] \\
        [--seconds 50] [--passes 7] [--out BENCH_10.json]

--pairs 0 skips the benchmark; otherwise it needs at least 2 pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compensated_sum import calls_record, reports_record  # noqa: E402
from bench_phi_integral import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 20240601
COUNT = 100
PHI_FREE_IDS = ("ID-00", "ID-02", "ID-03", "ID-05", "ID-06", "ID-07", "ID-08",
                "ID-09", "ID-10", "ID-11", "ID-12", "ID-13", "ID-15")
COUNTED = ("log_gamma", "digamma", "stieltjes_gamma1")
FIRST_BENCH_SEED = 1001
TRACED = ("numerics.principal_log_calls", "functions.log_gamma.calls",
          "functions.digamma.calls", "functions.stieltjes_gamma1.calls",
          "functions.log_gamma.self_s", "functions.digamma.self_s",
          "functions.stieltjes_gamma1.self_s")
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


# ---------------------------------------------------------------- child side

def _counts(lerchsum) -> dict:
    """Calls per identity of the COUNTED functions, with distinct arguments
    per side and per point.  Every module's binding of a function is
    replaced, so harmonic's digamma calls count too."""
    from lerchsum import identities, verifier

    state = {"id": None, "point": None, "side": None}
    calls = []  # (id, point, side, function, argument)
    modules = [module for module in vars(lerchsum).values()
               if getattr(module, "__name__", "").startswith("lerchsum.")] + [lerchsum]

    def replace(owner_modules, name, wrapper, original):
        for module in owner_modules:
            if vars(module).get(name) is original:
                setattr(module, name, wrapper)

    for name in COUNTED:
        original = getattr(lerchsum.functions, name)

        def counted(*args, _name=name, _original=original):
            arg = complex(args[0])
            calls.append((state["id"], state["point"], state["side"], _name,
                          (arg.real.hex(), arg.imag.hex())))
            return _original(*args)

        replace(modules, name, counted, original)

    one_point = verifier._verify_one_point

    def point(spec, index, *rest):
        state.update(id=spec.id, point=index)
        return one_point(spec, index, *rest)

    side = identities.evaluate_side

    def sided(name, *rest):
        state["side"] = name
        return side(name, *rest)

    gate = identities.TrendGate.partial_products

    def trend(self, x):
        state["side"] = "lhs"
        return gate(self, x)

    verifier._verify_one_point = point
    replace(modules, "evaluate_side", sided, side)
    identities.TrendGate.partial_products = trend
    lerchsum.verifier.run_suite(count=COUNT, seed=SEED, ids=list(PHI_FREE_IDS))

    out = {}
    for oid in PHI_FREE_IDS:
        mine = [c for c in calls if c[0] == oid]
        row = {}
        for name in COUNTED:
            fn = [c for c in mine if c[3] == name]
            if fn:
                row[name] = {"calls": len(fn),
                             "distinct_per_side": len({c[1:] for c in fn}),
                             "distinct_per_point": len({(c[1], c[4]) for c in fn})}
        out[oid] = row
    return out


def _side_times(lerchsum) -> dict:
    from lerchsum.identities import evaluate_side, get_identity
    from lerchsum.numerics import CancellationMeter
    from lerchsum.verifier import default_strategy, sample_points

    policy = lerchsum.PrecisionPolicy()
    jobs = []
    for oid in PHI_FREE_IDS:
        spec = get_identity(oid)
        points = sample_points(spec, default_strategy(oid, count=COUNT, seed=SEED))
        if spec.trend is not None:
            lhs = [lambda x=pt.x, gate=spec.trend: gate.partial_products(x) for pt in points]
        else:
            lhs = [lambda pt=pt, spec=spec: evaluate_side(
                "lhs", spec.lhs, pt, policy, CancellationMeter()) for pt in points]
        rhs = [lambda pt=pt, spec=spec: evaluate_side(
            "rhs", spec.rhs, pt, policy, CancellationMeter()) for pt in points]
        jobs += [(f"{oid}.lhs", lhs), (f"{oid}.rhs", rhs)]
    clock = time.perf_counter
    for _ in range(2):  # a warm-up pass, then the timed one
        out = {}
        for key, thunks in jobs:
            t0 = clock()
            for thunk in thunks:
                thunk()
            out[key] = clock() - t0
    return out


def _child(root: Path, task: str) -> dict:
    """Run in a fresh interpreter with `root`'s package on the path."""
    sys.path.insert(0, str(root / "src"))
    import lerchsum

    if task == "counts":
        return _counts(lerchsum)
    if task == "sides":
        return _side_times(lerchsum)
    raise ValueError(task)


def _run_child(root: Path, task: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", task,
         "--root", str(root)],
        check=True, capture_output=True, text=True, env=CHILD_ENV)
    return json.loads(proc.stdout)


# --------------------------------------------------------------- parent side

def counts_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "counts"), "change": _run_child(change, "counts")}
    totals = {}
    for side, rows in sides.items():
        total = Counter()
        for row in rows.values():
            for name, counts in row.items():
                for key, value in counts.items():
                    total[f"{name}.{key}"] += value
        totals[side] = dict(sorted(total.items()))
    return {"seed": SEED, "count": COUNT, "per_identity": sides, "total": totals}


def side_times_record(parent: Path, change: Path, passes: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(passes):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_child(parent if side == "parent" else change, "sides"))
    fastest = {side: {key: min(run[key] for run in side_runs) for key in side_runs[0]}
               for side, side_runs in runs.items()}
    record = {"passes": passes, "seed": SEED, "count": COUNT,
              "fastest_s": {side: {key: round(t, 6) for key, t in times.items()}
                            for side, times in fastest.items()},
              "change_pct": {key: round(100.0 * (fastest["change"][key] / t - 1.0), 1)
                             for key, t in fastest["parent"].items()}}
    totals = {side: sum(times.values()) for side, times in fastest.items()}
    record["total_s"] = {side: round(t, 6) for side, t in totals.items()}
    record["total_change_pct"] = round(100.0 * (totals["change"] / totals["parent"] - 1.0), 1)
    return record


def _traced(root: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=root, check=True, capture_output=True, text=True, env=CHILD_ENV)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in TRACED}


def traced_record(parent: Path, change: Path) -> dict:
    return {workload: {"parent": _traced(parent, workload), "change": _traced(change, workload)}
            for workload in ("registry-phi-free", "eval-mix")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_10.json")
    parser.add_argument("--child", choices=("counts", "sides"), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(args.root, args.child)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs == 1 or args.pairs < 0:
        parser.error("--pairs must be 0 or at least 2")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    record = {
        "what": "the dyadic left sides of ID-07, ID-08, ID-09, ID-11 and ID-13 and "
                "ID-12's trend gate evaluate each ladder rung once per side and "
                "carry it to the next term; log_gamma's shift calls cmath.log "
                "off the real axis and sums math.log on the positive reals",
        "hardware": f"{os.cpu_count()}-core machine, Python {sys.version.split()[0]}",
        "command": "python3 scripts/bench_dyadic_ladders.py --parent DIR "
                   f"--pairs {args.pairs} --seconds {args.seconds:g} --passes {args.passes}",
        "call_counts": counts_record(parent, change),
        "side_times": side_times_record(parent, change, args.passes),
        "traced_seed_20240601": traced_record(parent, change),
        "suite_reports": reports_record(parent, change),
        "eval_mix_calls": calls_record(parent, change),
    }
    if args.pairs:
        record["bench_seeds"] = [FIRST_BENCH_SEED + i for i in range(args.pairs)]
        record["bench_pairs"] = bench_record(parent, change, args.pairs, args.seconds,
                                             FIRST_BENCH_SEED)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
