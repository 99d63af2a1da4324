#!/usr/bin/env python3
"""Write the fixed-seed record of the Phi integral route (BENCH_8.json).

Compares two checkouts of this repository, a parent and a change (default:
the checkout that holds this script), on three things:

* work: integrand nodes per `lerch_phi_integral` call over the eval-mix
  integral calls at seeds 20240601, 7 and 1234 (sum, median, max), and the
  time of those calls, fastest of five passes;
* accuracy: relative error against mpmath's `lerchphi` at 30 digits (every
  10th point also at 45 digits, to bound the reference's own error) over
  the eval-mix integral calls, 150 rim points and 750 wide points, and a
  second rim and wide set drawn from other seeds (`*_confirm`) to confirm
  choices made while looking at the first.  A point where a route raises
  ConvergenceError is listed with the other route's error, and so is every
  value off by more than the default rel_tol;
* the benchmark: `bench/run.py` pairs of eval-mix and registry-phi-free,
  one seed per pair (301, 302, ...), the side that runs first alternating
  from pair to pair, each run in a fresh interpreter that writes no
  bytecode; medians, quartiles and the pairs the change wins.

Each checkout is imported only in a child process.  mpmath is needed here
and nowhere else in the repository.

    python3 scripts/bench_phi_integral.py --parent DIR [--pairs 10] [--seconds 50] \\
        [--out BENCH_8.json]

--pairs 0 skips the benchmark; otherwise it needs at least 2 pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NODE_SEEDS = (20240601, 7, 1234)
WORKLOADS = ("eval-mix", "registry-phi-free")
FIRST_BENCH_SEED = 301
METRICS = ("setup_s", "wall_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb")
REF_DPS, CHECK_DPS = 30, 45
REL_TOL = 1e-10  # PrecisionPolicy's default


def _rect(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _cx(rng: random.Random, re: tuple, im: tuple) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


def rim_points(key: str = "BENCH_8:rim") -> list:
    """150 points, |z| in [0.99, 0.9995], Re s in [0.05, 4], |Im s| <= 2."""
    rng = random.Random(key)
    return [(_rect(rng, 0.99, 0.9995), _cx(rng, (0.05, 4.0), (-2.0, 2.0)),
             _cx(rng, (0.4, 5.0), (-1.0, 1.0))) for _ in range(150)]


def wide_points(key: str = "BENCH_8:wide") -> list:
    """750 points, |z| < 0.999, Re s in [0.05, 8], |Im s| <= 10,
    Re v in [0.05, 6], |Im v| <= 3."""
    rng = random.Random(key)
    return [(_rect(rng, 0.0, 0.999), _cx(rng, (0.05, 8.0), (-10.0, 10.0)),
             _cx(rng, (0.05, 6.0), (-3.0, 3.0))) for _ in range(750)]


# ---------------------------------------------------------------- child side

def _child(root: Path, task: str) -> dict:
    """Run in a fresh interpreter with `root`'s package and bench on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import evalmix
    import lerchsum

    def integral_calls(seed):
        return [c.args[0] for c in evalmix.make_calls(lerchsum, seed)
                if c.fn == "lerch_phi_integral"]

    if task == "nodes":
        out = {}
        for seed in NODE_SEEDS:
            params = integral_calls(seed)
            counts, current = [], [0]

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_name == "integrand":
                    current[0] += 1

            for p in params:
                current[0] = 0
                sys.setprofile(profile)
                lerchsum.lerch_phi_integral(p)
                sys.setprofile(None)
                counts.append(current[0])
            passes = []
            for _ in range(5):
                start = time.perf_counter()
                for p in params:
                    lerchsum.lerch_phi_integral(p)
                passes.append(time.perf_counter() - start)
            out[str(seed)] = {"calls": len(params), "nodes": counts,
                              "time_s": min(passes)}
            # how many calls take each count of closed-form kernel terms
            rule = getattr(lerchsum.functions, "closed_kernel_terms", None)
            if rule is not None:
                terms = [rule(complex(p.z)) for p in params]
                out[str(seed)]["calls_per_K"] = {str(k): terms.count(k)
                                                 for k in sorted(set(terms))}
        return out

    if task == "points":
        sets = {f"eval_mix_{seed}": [(complex(p.z), complex(p.s), complex(p.v))
                                     for p in integral_calls(seed)]
                for seed in NODE_SEEDS}
        sets["rim"] = rim_points()
        sets["wide"] = wide_points()
        sets["rim_confirm"] = rim_points("BENCH_8:rim-confirm")
        sets["wide_confirm"] = wide_points("BENCH_8:wide-confirm")
        out = {}
        for name, points in sets.items():
            rows = []
            for z, s, v in points:
                try:
                    value = lerchsum.lerch_phi_integral(lerchsum.LerchParams(z, s, v))
                    rows.append([_pair(z), _pair(s), _pair(v), _pair(value)])
                except lerchsum.ConvergenceError:
                    rows.append([_pair(z), _pair(s), _pair(v), "ConvergenceError"])
            out[name] = rows
        return out
    raise ValueError(task)


def _pair(c: complex) -> list:
    return [c.real, c.imag]


def _run_child(root: Path, task: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", task,
         "--root", str(root)],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(proc.stdout)


# --------------------------------------------------------------- parent side

def _summary(values: list) -> dict:
    return {"sum": sum(values), "median": statistics.median(values),
            "max": max(values)}


def node_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "nodes"), "change": _run_child(change, "nodes")}
    record = {}
    for seed in NODE_SEEDS:
        key = str(seed)
        record[key] = {side: {"calls": data[key]["calls"],
                              "nodes": _summary(data[key]["nodes"]),
                              "time_s_fastest_of_5": round(data[key]["time_s"], 5)}
                       for side, data in sides.items()}
        for side, data in sides.items():
            if "calls_per_K" in data[key]:
                record[key][side]["calls_per_K"] = data[key]["calls_per_K"]
    return record


def _references(points: list) -> list:
    import mpmath

    refs = []
    for i, (z, s, v) in enumerate(points):
        mpmath.mp.dps = REF_DPS
        ref = mpmath.lerchphi(mpmath.mpc(*z), mpmath.mpc(*s), mpmath.mpc(*v))
        gap = None
        if i % 10 == 0:
            mpmath.mp.dps = CHECK_DPS
            fine = mpmath.lerchphi(mpmath.mpc(*z), mpmath.mpc(*s), mpmath.mpc(*v))
            gap = float(abs(fine - ref) / abs(fine))
        refs.append((complex(ref), gap))
    mpmath.mp.dps = 15
    return refs


def _stats(errors: list) -> dict:
    finite = [e for e in errors if e is not None]
    if not finite:
        return {"max": None, "median": None}
    return {"max": max(finite), "median": statistics.median(finite)}


def accuracy_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "points"), "change": _run_child(change, "points")}
    record = {}
    for name, rows in sides["change"].items():
        points = [tuple(row[:3]) for row in rows]
        if [tuple(row[:3]) for row in sides["parent"][name]] != points:
            raise RuntimeError(f"{name}: the two checkouts drew different points")
        refs = _references(points)
        errors = {}
        for side, data in sides.items():
            errors[side] = []
            for row, (ref, _) in zip(data[name], refs):
                if row[3] == "ConvergenceError":
                    errors[side].append(None)
                else:
                    errors[side].append(abs(complex(*row[3]) - ref) / abs(ref))
        over, failures, off = [], [], []
        for i, (p_err, c_err) in enumerate(zip(errors["parent"], errors["change"])):
            z, s, v = (complex(*x) for x in points[i])
            row = {"z": str(z), "s": str(s), "v": str(v),
                   "parent_rel_err": p_err, "change_rel_err": c_err}
            if p_err is None or c_err is None:
                failures.append(row)
            elif c_err > max(10.0 * p_err, 1e-12):
                over.append(row)
            if any(e is not None and e > REL_TOL for e in (p_err, c_err)):
                off.append(row)
        new_errors = [row for row in failures
                      if row["change_rel_err"] is None and row["parent_rel_err"] is not None]
        gaps = [g for _, g in refs if g is not None]
        record[name] = {
            "points": len(points),
            "rel_err": {side: _stats(errs) for side, errs in errors.items()},
            "convergence_errors": {side: errs.count(None) for side, errs in errors.items()},
            "points_where_either_raises": failures,
            "points_over_max_10x_parent_1e-12": over,
            "points_either_returns_off_by_over_rel_tol": off,
            "new_convergence_errors": {
                "parent_within_rel_tol": sum(r["parent_rel_err"] <= REL_TOL for r in new_errors),
                "parent_off_by_over_rel_tol": sum(r["parent_rel_err"] > REL_TOL
                                                  for r in new_errors)},
            "reference_gap_max": max(gaps),
        }
    return record


def _bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: result["metrics"][m]["value"] for m in METRICS}}


def bench_record(parent: Path, change: Path, pairs: int, seconds: float,
                 first_seed: int = FIRST_BENCH_SEED) -> dict:
    """Alternating `bench/run.py` pairs of each workload at seeds first_seed,
    first_seed + 1, ...; the side that runs first alternates."""
    record = {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_bench_run(parent if side == "parent" else change,
                                             workload, first_seed + i, seconds))
        medians = {side: {m: statistics.median(r["metrics"][m] for r in rs)
                          for m in METRICS} for side, rs in runs.items()}
        quartiles = {side: {m: statistics.quantiles([r["metrics"][m] for r in rs], n=4,
                                                    method="inclusive")
                            for m in METRICS} for side, rs in runs.items()}
        wins = {m: sum(c["metrics"][m] < p["metrics"][m]
                       for p, c in zip(runs["parent"], runs["change"])) for m in METRICS}
        record[workload] = {
            "runs": runs,
            "median": medians,
            "quartiles": quartiles,
            "median_change_pct": {m: round(100.0 * (medians["change"][m] / medians["parent"][m]
                                                    - 1.0), 2) for m in METRICS},
            "change_lower_in_pairs": wins,
        }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_8.json")
    parser.add_argument("--child", choices=("nodes", "points"), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(args.root, args.child)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs == 1 or args.pairs < 0:
        parser.error("--pairs must be 0 or at least 2")
    parent, change = args.parent.resolve(), args.change.resolve()
    record = {
        "what": "lerch_phi_integral integrates the first K terms of "
                "1/(1 - z e^(-t)) in closed form and sums only the remainder "
                "by the trapezoid rule; the stopping test may pass one halving "
                "earlier, and a rounding floor turns deep cancellation into "
                "ConvergenceError",
        "hardware": f"{os.cpu_count()}-core machine, Python {sys.version.split()[0]}",
        "command": "python3 scripts/bench_phi_integral.py --parent DIR "
                   f"--pairs {args.pairs} --seconds {args.seconds:g}",
        "integrand_nodes": node_record(parent, change),
        "accuracy_mpmath": accuracy_record(parent, change),
    }
    if args.pairs:
        record["bench_seeds"] = [FIRST_BENCH_SEED + i for i in range(args.pairs)]
        record["bench_pairs"] = bench_record(parent, change, args.pairs, args.seconds)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
