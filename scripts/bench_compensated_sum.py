#!/usr/bin/env python3
"""Write the fixed-seed record of the peak-free compensated sum (BENCH_9.json).

Compares two checkouts of this repository, a parent and a change (default:
the checkout that holds this script), on:

* eval-mix calls: every one of the 5,000 calls at seeds 20240601, 7 and 1234
  timed on its own in seven passes, summed per kind.  Each pass of each
  seed runs in a fresh interpreter (after one untimed warm-up pass); a pass
  runs the seeds in a rotated order and the two sides of each seed back to
  back.  bench/speed.py's probe runs untimed every 20 calls, and each
  pass's times are scaled to the probe's reference speed; a call's time is
  its median scaled pass (the fastest raw pass is kept beside it).  Every
  result is compared bit for bit;
* micro-timings: `CancellationMeter.add` over 32 terms and `add_block` of
  one 32-term block (and `CompensatedSum.add_block` where it exists),
  fastest of 200 repeats, and `verifier.run_suite` for ID-01, ID-04 and
  ID-14 at count 100, in-process, fastest of five; each side measured in
  five interpreters, alternating, and the fastest kept;
* Hurwitz zeta and gamma_1 at 300 extra points each, compared bit for bit;
  a value that moved is listed with both sides' errors against mpmath;
* `lerchsum suite` at the three seeds: the JSON report (after
  `strip_volatile`) and the CSV report compared byte for byte, with the
  exit codes and the failing identities;
* traced counters: `bench/run.py --trace 1` of both workloads at seed
  20240601;
* the benchmark: `bench_record` of scripts/bench_phi_integral.py, ten
  alternating 50 s pairs per workload by default, at seeds from 901 on.

Each checkout is imported only in a child process.  mpmath is needed only
when a zeta or gamma_1 value moves.

    python3 scripts/bench_compensated_sum.py --parent DIR [--pairs 10] \\
        [--seconds 50] [--out BENCH_9.json]

--pairs 0 skips the benchmark; otherwise it needs at least 2 pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_phi_integral import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20240601, 7, 1234)
CALL_PASSES = 7
PROBE_EVERY = 20  # calls between two runs of bench/speed.py's probe
MICRO_RUNS = 5
FIRST_BENCH_SEED = 901
TRACE_SEED = 20240601
TRACED = ("numerics.meter_adds", "numerics.principal_log_calls",
          "numerics.principal_pow_calls", "functions.hurwitz_zeta.calls",
          "functions.stieltjes_gamma1.calls", "functions.polylog.calls")
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _hex(value) -> list:
    value = complex(value)
    return [value.real.hex(), value.imag.hex()]


def zeta_points() -> list:
    """300 (s, a): Re s in (-1, 3) away from s = 1, |Im s| <= 20,
    Re a in [0.1, 5], |Im a| <= 3 (ROADMAP's zeta accuracy band)."""
    rng = random.Random("BENCH_9:zeta")
    points = []
    while len(points) < 300:
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-20.0, 20.0))
        if abs(s - 1.0) >= 0.1:
            points.append((s, complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))))
    return points


def gamma1_points() -> list:
    """300 a: Re a in [-5, 10], |Im a| <= 5."""
    rng = random.Random("BENCH_9:gamma1")
    return [complex(rng.uniform(-5.0, 10.0), rng.uniform(-5.0, 5.0)) for _ in range(300)]


# ---------------------------------------------------------------- child side

def _child(root: Path, task: str, seed: Optional[int] = None) -> dict:
    """Run in a fresh interpreter with `root`'s package and bench on the path;
    the calls task times the eval-mix calls of one seed."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import evalmix
    import lerchsum

    if task == "calls":
        import speed

        clock = time.perf_counter
        calls = evalmix.make_calls(lerchsum, seed)
        fns = [getattr(lerchsum, call.fn) for call in calls]
        for _ in range(2):  # a warm-up pass, then the timed one
            times, results, probes = [], [], []
            for i, (fn, call) in enumerate(zip(fns, calls)):
                if i % PROBE_EVERY == 0:  # untimed, as bench/run.py does
                    probes.append(speed.probe_time())
                t0 = clock()
                try:
                    result = _hex(fn(*call.args))
                except (ArithmeticError, ValueError, RuntimeError) as exc:
                    result = type(exc).__name__
                times.append(clock() - t0)
                results.append(result)
        return {"kinds": [call.kind for call in calls], "times": times, "results": results,
                "scale": speed.PROBE_REF_S / statistics.fmean(probes)}

    if task == "micro":
        import timeit

        from lerchsum import numerics

        rng = random.Random("BENCH_9:micro")
        terms = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(32)]
        re, im = [t.real for t in terms], [t.imag for t in terms]

        def fastest(stmt, number):
            return min(timeit.repeat(stmt, number=number, repeat=200)) / number

        def add_loop():
            meter = numerics.CancellationMeter()
            for t in terms:
                meter.add(t)

        out = {"meter_add_us": 1e6 * fastest(add_loop, 20) / len(terms),
               "meter_add_block_us": 1e6 * fastest(
                   lambda: numerics.CancellationMeter().add_block(re, im), 20)}
        if hasattr(numerics, "CompensatedSum"):
            out["compensated_sum_add_block_us"] = 1e6 * fastest(
                lambda: numerics.CompensatedSum().add_block(re, im), 20)
        suite = {}
        for oid in ("ID-01", "ID-04", "ID-14"):
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                lerchsum.verifier.run_suite(count=100, ids=[oid])
                runs.append(time.perf_counter() - t0)
            suite[oid] = min(runs)
        out["run_suite_s"] = suite
        return out

    if task == "reports":
        from lerchsum.cli import main
        from lerchsum.report import strip_volatile

        out = {}
        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                paths = {fmt: Path(tmp) / f"{seed}.{fmt}" for fmt in ("json", "csv")}
                with contextlib.redirect_stdout(io.StringIO()):  # the suite table
                    codes = {fmt: main(["suite", "--seed", str(seed), "--format", fmt,
                                        "--out", str(path)]) for fmt, path in paths.items()}
                obj = json.loads(paths["json"].read_text())
                out[str(seed)] = {
                    "exit_codes": codes,
                    "failing_ids": [r["id"] for r in obj["identities"]
                                    if r["passed"] != r["count"]],
                    "json": json.dumps(strip_volatile(obj), sort_keys=True),
                    "csv": paths["csv"].read_text()}
        return out

    if task == "points":
        return {"zeta": [_hex(lerchsum.hurwitz_zeta(s, a)) for s, a in zeta_points()],
                "gamma1": [_hex(lerchsum.stieltjes_gamma1(a)) for a in gamma1_points()]}
    raise ValueError(task)


def _run_child(root: Path, task: str, seed: Optional[int] = None) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", task,
               "--root", str(root)]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, check=True, capture_output=True, text=True, env=CHILD_ENV)
    return json.loads(proc.stdout)


def _alternating(parent: Path, change: Path, task: str, runs: int) -> dict:
    out = {"parent": [], "change": []}
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out[side].append(_run_child(parent if side == "parent" else change, task))
    return out


# --------------------------------------------------------------- parent side

def calls_record(parent: Path, change: Path) -> dict:
    # One child times one seed.  Pass i runs the seeds in an order rotated by
    # i, and the two sides of a seed back to back, the side that goes first
    # alternating; so a slow stretch of the machine falls on both sides of
    # one seed rather than on one side of it.
    passes = {"parent": defaultdict(list), "change": defaultdict(list)}
    turn = 0
    for i in range(CALL_PASSES):
        for seed in SEEDS[i % len(SEEDS):] + SEEDS[:i % len(SEEDS)]:
            for side in ("parent", "change") if turn % 2 == 0 else ("change", "parent"):
                passes[side][str(seed)].append(
                    _run_child(parent if side == "parent" else change, "calls", seed))
            turn += 1
    record = {}
    for seed in map(str, SEEDS):
        first = {side: runs[seed][0] for side, runs in passes.items()}
        kinds = first["parent"]["kinds"]
        if first["change"]["kinds"] != kinds:
            raise RuntimeError(f"seed {seed}: the two checkouts drew different calls")
        for side, runs in passes.items():
            if any(run["results"] != first[side]["results"] for run in runs[seed]):
                raise RuntimeError(f"seed {seed}: {side} results differ between passes")
        per_kind, fastest_totals = {}, {}
        for side, runs in passes.items():
            fastest_totals[side] = sum(map(min, zip(*(run["times"] for run in runs[seed]))))
            # each pass in seconds at the probe's reference speed, then the
            # median pass per call: steadier than the fastest raw pass,
            # which a rare fast stretch of the host can set for one side
            scaled = [[t * run["scale"] for t in run["times"]] for run in runs[seed]]
            sums = defaultdict(float)
            for kind, t in zip(kinds, map(statistics.median, zip(*scaled))):
                sums[kind] += t
            per_kind[side] = {kind: round(t, 6) for kind, t in sorted(sums.items())}
        totals = {side: sum(sums.values()) for side, sums in per_kind.items()}
        moved = [i for i, (p, c) in enumerate(zip(first["parent"]["results"],
                                                  first["change"]["results"])) if p != c]
        record[seed] = {
            "calls": len(kinds),
            "sum_of_scaled_median_call_times_s": {side: round(t, 6)
                                                  for side, t in totals.items()},
            "change_pct": round(100.0 * (totals["change"] / totals["parent"] - 1.0), 2),
            "sum_of_fastest_call_times_s": {side: round(t, 6)
                                            for side, t in fastest_totals.items()},
            "fastest_change_pct": round(
                100.0 * (fastest_totals["change"] / fastest_totals["parent"] - 1.0), 2),
            "per_kind_s": per_kind,
            "per_kind_change_pct": {
                kind: round(100.0 * (per_kind["change"][kind] / t - 1.0), 2)
                for kind, t in per_kind["parent"].items()},
            "results_bit_identical": not moved,
            "moved_calls": [{"index": i, "kind": kinds[i],
                             "parent": first["parent"]["results"][i],
                             "change": first["change"]["results"][i]} for i in moved],
        }
    return record


def micro_record(parent: Path, change: Path) -> dict:
    runs = _alternating(parent, change, "micro", MICRO_RUNS)
    record = {}
    for side, side_runs in runs.items():
        flat = {key: min(run[key] for run in side_runs)
                for key in side_runs[0] if key != "run_suite_s"}
        flat = {key: round(value, 4) for key, value in flat.items()}
        flat["run_suite_s"] = {oid: round(min(run["run_suite_s"][oid] for run in side_runs), 4)
                               for oid in side_runs[0]["run_suite_s"]}
        record[side] = flat
    return record


def _complex(pair: list) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def points_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "points"), "change": _run_child(change, "points")}
    inputs = {"zeta": zeta_points(), "gamma1": gamma1_points()}
    record = {}
    for name, args in inputs.items():
        moved = []
        for arg, p, c in zip(args, sides["parent"][name], sides["change"][name]):
            if p == c:
                continue
            import mpmath

            mpmath.mp.dps = 30
            if name == "zeta":
                ref = complex(mpmath.zeta(mpmath.mpc(arg[0]), mpmath.mpc(arg[1])))
            else:
                ref = complex(mpmath.stieltjes(1, mpmath.mpc(arg)))
            scale = max(1.0, abs(ref))
            moved.append({"args": str(arg),
                          "parent_err": abs(_complex(p) - ref) / scale,
                          "change_err": abs(_complex(c) - ref) / scale})
        record[name] = {"points": len(args), "moved": moved,
                        "worse": sum(m["change_err"] > m["parent_err"] for m in moved)}
    return record


def reports_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "reports"), "change": _run_child(change, "reports")}
    record = {}
    for seed in map(str, SEEDS):
        row = {}
        for side, data in sides.items():
            row[f"{side}_exit_codes"] = data[seed]["exit_codes"]
            row[f"{side}_failing_ids"] = data[seed]["failing_ids"]
        for key in ("json", "csv"):
            same = sides["parent"][seed][key] == sides["change"][seed][key]
            row["json_identical_after_strip_volatile" if key == "json" else "csv_identical"] = same
        record[seed] = row
    return record


def _traced(root: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(TRACE_SEED), "--seconds", "1", "--trace", "1"],
        cwd=root, check=True, capture_output=True, text=True, env=CHILD_ENV)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in TRACED}


def traced_record(parent: Path, change: Path) -> dict:
    return {workload: {"parent": _traced(parent, workload), "change": _traced(change, workload)}
            for workload in ("eval-mix", "registry-phi-free")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_9.json")
    parser.add_argument("--child", choices=("calls", "micro", "points", "reports"), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(args.root, args.child, args.seed)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs == 1 or args.pairs < 0:
        parser.error("--pairs must be 0 or at least 2")
    parent, change = args.parent.resolve(), args.change.resolve()
    record = {
        "what": "lerch_phi and polylog sum into numerics.CompensatedSum, which "
                "keeps no peak, unless a CancellationMeter is passed; "
                "hurwitz_zeta, stieltjes_gamma1 and compensated_sum add their "
                "terms as one block",
        "hardware": f"{os.cpu_count()}-core machine, Python {sys.version.split()[0]}",
        "command": "python3 scripts/bench_compensated_sum.py --parent DIR "
                   f"--pairs {args.pairs} --seconds {args.seconds:g}",
        "eval_mix_calls": calls_record(parent, change),
        "micro": micro_record(parent, change),
        "zeta_gamma1_points": points_record(parent, change),
        "suite_reports": reports_record(parent, change),
        "traced_seed_20240601": traced_record(parent, change),
    }
    if args.pairs:
        record["bench_seeds"] = [FIRST_BENCH_SEED + i for i in range(args.pairs)]
        record["bench_pairs"] = bench_record(parent, change, args.pairs, args.seconds,
                                             FIRST_BENCH_SEED)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
