#!/usr/bin/env python3
"""Write the fixed-seed record of the suite's work outside point evaluation
(BENCH_11.json).

Compares two checkouts of this repository, a parent and a change (default:
the checkout that holds this script), on:

* the report writer: `dumps_json` and `write_report` (JSON) of the
  registry-phi-free suite report (the 13 ids that never call Phi, count 100,
  seed 20240601), fastest of 50 calls in each of five interpreters per side,
  the sides alternating;
* sampling: `sample_points` of every identity at count 100, seed 20240601,
  fastest of 30 calls in each of five interpreters per side, the sides
  alternating; and the sampled points at seeds 20240601, 7 and 1234,
  compared bit for bit;
* `lerchsum suite` at the same three seeds, for the whole registry and for
  the 13 Phi-free ids: the JSON reports (parsed, without the volatile meta
  entries) compared for equality, the CSV reports, stdout and exit codes
  compared byte for byte, the failing identities and the JSON bytes;
* the Phi integral: the outcome (value bit for bit, or the exception) at
  every point of the eval-mix, rim and wide sets of
  scripts/bench_phi_integral.py, and the time and node count at the wide
  point where the route cannot certify rel_tol;
* traced times: `bench/run.py --trace 1` of registry-phi-free at seed
  20240601, three runs per side alternating, the fastest of each metric;
* eval-mix calls: `calls_record` of scripts/bench_compensated_sum.py, change
  against parent, and twice parent against parent, to show how still it
  holds on unchanged code;
* the benchmark: `bench_record` of scripts/bench_phi_integral.py, ten
  alternating 50 s pairs per workload by default, at seeds from 921 on.

Each checkout is imported only in a child process.

    python3 scripts/bench_suite_overhead.py --parent DIR [--pairs 10] \\
        [--seconds 50] [--out BENCH_11.json]

--pairs 0 skips the benchmark; otherwise it needs at least 2 pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compensated_sum import _hex, calls_record  # noqa: E402
from bench_phi_integral import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 20240601
SEEDS = (20240601, 7, 1234)
COUNT = 100
PHI_FREE_IDS = ("ID-00", "ID-02", "ID-03", "ID-05", "ID-06", "ID-07", "ID-08",
                "ID-09", "ID-10", "ID-11", "ID-12", "ID-13", "ID-15")
RUNS = 5
FIRST_BENCH_SEED = 921
VOLATILE_META = ("timestamp", "wall_time_s")
SLOW_POINT = (0.9506 + 0.2528j, 3.121 + 8.678j, 0.596 - 0.865j)
TRACED = ("report.write_s", "verifier.sample_s", "verifier.judge_s",
          "identities.self_s", "cli.main_s", "report.bytes")
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _fastest(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# ---------------------------------------------------------------- child side

def _child(root: Path, task: str) -> dict:
    """Run in a fresh interpreter with `root`'s package on the path."""
    sys.path.insert(0, str(root / "src"))
    import lerchsum
    from lerchsum import report, verifier

    if task == "writer":
        suite = verifier.run_suite(count=COUNT, seed=SEED, ids=list(PHI_FREE_IDS))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "report.json")
            return {"dumps_json_s": _fastest(lambda: report.dumps_json(suite), 50),
                    "write_report_s": _fastest(
                        lambda: report.write_report(suite, path, "json"), 50)}

    if task == "sampling":
        out = {"time_s": {}, "points": {}}
        for spec in lerchsum.list_identities():
            strategy = verifier.default_strategy(spec.id, count=COUNT, seed=SEED)
            out["time_s"][spec.id] = _fastest(
                lambda: verifier.sample_points(spec, strategy), 30)
            for seed in SEEDS:
                strategy = verifier.default_strategy(spec.id, count=COUNT, seed=seed)
                out["points"][f"{spec.id}@{seed}"] = [
                    {name: value if name == "n" else _hex(value)
                     for name, value in vars(pt).items() if value is not None}
                    for pt in verifier.sample_points(spec, strategy)]
        return out

    if task == "reports":
        from lerchsum.cli import main

        out = {}
        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                for ids, extra in (("all", []), ("phi-free", ["--filter", ",".join(PHI_FREE_IDS)])):
                    row = {}
                    for fmt in ("json", "csv"):
                        path = Path(tmp) / f"report.{fmt}"
                        stdout = io.StringIO()
                        with contextlib.redirect_stdout(stdout):
                            code = main(["suite", "--seed", str(seed), "--format", fmt,
                                         "--out", str(path)] + extra)
                        row[fmt] = {"exit_code": code, "stdout": stdout.getvalue(),
                                    "text": path.read_text(encoding="utf-8"),
                                    "bytes": path.stat().st_size}
                    out[f"{ids}@{seed}"] = row
        return out

    if task == "slow_point":
        import math

        from lerchsum import functions

        class Counting:  # the integrand takes one math.exp per node
            nodes = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                Counting.nodes += 1
                return math.exp(x)

        params = lerchsum.LerchParams(*SLOW_POINT)
        t0 = time.perf_counter()
        try:
            lerchsum.lerch_phi_integral(params)
            outcome = "returned"
        except lerchsum.ConvergenceError as exc:
            outcome = f"ConvergenceError: {exc}"
        elapsed = time.perf_counter() - t0
        functions.math = Counting()
        try:
            lerchsum.lerch_phi_integral(params)
        except lerchsum.ConvergenceError:
            pass
        functions.math = math
        return {"outcome": outcome, "time_s": elapsed, "nodes": Counting.nodes}
    raise ValueError(task)


def _run(command: list, cwd: Path = ROOT) -> str:
    return subprocess.run(command, cwd=cwd, check=True, capture_output=True, text=True,
                          env=CHILD_ENV).stdout


def _run_child(root: Path, task: str) -> dict:
    return json.loads(_run([sys.executable, str(Path(__file__).resolve()), "--child", task,
                            "--root", str(root)]))


def _alternating(parent: Path, change: Path, task: str, runs: int) -> dict:
    out = {"parent": [], "change": []}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out[side].append(_run_child(parent if side == "parent" else change, task))
    return out


# --------------------------------------------------------------- parent side

def _pct(new: float, old: float) -> float:
    return round(100.0 * (new / old - 1.0), 1)


def writer_record(parent: Path, change: Path) -> dict:
    runs = _alternating(parent, change, "writer", RUNS)
    fastest = {side: {key: min(run[key] for run in side_runs) for key in side_runs[0]}
               for side, side_runs in runs.items()}
    return {"seed": SEED, "count": COUNT, "ids": "phi-free",
            "fastest_ms": {side: {key: round(1e3 * t, 3) for key, t in times.items()}
                           for side, times in fastest.items()},
            "change_pct": {key: _pct(fastest["change"][key], t)
                           for key, t in fastest["parent"].items()}}


def sampling_record(parent: Path, change: Path) -> dict:
    runs = _alternating(parent, change, "sampling", RUNS)
    fastest = {side: {oid: min(run["time_s"][oid] for run in side_runs)
                      for oid in side_runs[0]["time_s"]}
               for side, side_runs in runs.items()}
    points = {side: side_runs[0]["points"] for side, side_runs in runs.items()}
    for side, side_runs in runs.items():
        if any(run["points"] != points[side] for run in side_runs):
            raise RuntimeError(f"{side}: sampled points differ between runs")
    totals = {side: sum(times.values()) for side, times in fastest.items()}
    return {"seed": SEED, "count": COUNT,
            "fastest_ms": {side: {oid: round(1e3 * t, 3) for oid, t in times.items()}
                           for side, times in fastest.items()},
            "change_pct": {oid: _pct(fastest["change"][oid], t)
                           for oid, t in fastest["parent"].items()},
            "total_ms": {side: round(1e3 * t, 3) for side, t in totals.items()},
            "total_change_pct": _pct(totals["change"], totals["parent"]),
            "points_identical_at_seeds": list(SEEDS),
            "points_identical": {key: points["change"][key] == pts
                                 for key, pts in points["parent"].items()}}


def _stable(text: str) -> dict:
    obj = json.loads(text)
    obj["meta"] = {k: v for k, v in obj["meta"].items() if k not in VOLATILE_META}
    return obj


def reports_record(parent: Path, change: Path) -> dict:
    sides = {"parent": _run_child(parent, "reports"), "change": _run_child(change, "reports")}
    record = {}
    for key, old in sides["parent"].items():
        new = sides["change"][key]
        record[key] = {
            "exit_codes": {side: data[key]["json"]["exit_code"] for side, data in sides.items()},
            "failing_ids": sorted(row["id"] for row in json.loads(new["json"]["text"])["identities"]
                                  if row["passed"] != row["count"]),
            "json_equal_after_loads_and_strip_volatile":
                _stable(old["json"]["text"]) == _stable(new["json"]["text"]),
            "csv_identical": old["csv"]["text"] == new["csv"]["text"],
            "stdout_identical": all(old[fmt]["stdout"] == new[fmt]["stdout"]
                                    for fmt in ("json", "csv")),
            "exit_codes_identical": all(old[fmt]["exit_code"] == new[fmt]["exit_code"]
                                        for fmt in ("json", "csv")),
            "json_bytes": {side: data[key]["json"]["bytes"] for side, data in sides.items()},
        }
    return record


def integral_record(parent: Path, change: Path) -> dict:
    script = str(ROOT / "scripts" / "bench_phi_integral.py")
    sides = {side: json.loads(_run([sys.executable, script, "--child", "points",
                                    "--root", str(root)]))
             for side, root in (("parent", parent), ("change", change))}
    sets = {}
    for name, rows in sides["parent"].items():
        other = sides["change"][name]
        sets[name] = {"points": len(rows),
                      "convergence_errors": {side: sum(row[3] == "ConvergenceError"
                                                       for row in data[name])
                                             for side, data in sides.items()},
                      "outcomes_changed": sum(a != b for a, b in zip(rows, other))}
    return {"sets": sets,
            "slow_point": {"z, s, v": [str(c) for c in SLOW_POINT],
                           "parent": _run_child(parent, "slow_point"),
                           "change": _run_child(change, "slow_point")}}


def _traced(root: Path) -> dict:
    out = _run([sys.executable, "bench/run.py", "--workload", "registry-phi-free",
                "--seed", str(SEED), "--seconds", "10", "--trace", "1"], cwd=root)
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in metrics
            if name in TRACED or (name.startswith("identities.ID-") and metrics[name]["value"])}


def traced_record(parent: Path, change: Path) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(3):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(_traced(parent if side == "parent" else change))
    return {"seed": SEED, "runs": 3,
            "fastest": {side: {name: min(run[name] for run in side_runs)
                               for name in side_runs[0]}
                        for side, side_runs in runs.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_11.json")
    parser.add_argument("--child", choices=("writer", "sampling", "reports", "slow_point"),
                        help=argparse.SUPPRESS)
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
        "what": "report.dumps_json serialises through the standard library's C "
                "JSON encoder (shortest round-trip floats) instead of a recursive "
                "Python writer; the six trigonometric entries check one pole "
                "lattice, (pi/2)Z, instead of a ladder of rungs; the Phi integral "
                "raises once its rounding floor stays above the tolerance",
        "hardware": f"{os.cpu_count()}-core machine, Python {sys.version.split()[0]}",
        "command": "python3 scripts/bench_suite_overhead.py --parent DIR "
                   f"--pairs {args.pairs} --seconds {args.seconds:g}",
        "writer": writer_record(parent, change),
        "sampling": sampling_record(parent, change),
        "suite_reports": reports_record(parent, change),
        "phi_integral": integral_record(parent, change),
        "traced_registry_phi_free": traced_record(parent, change),
        "eval_mix_calls": calls_record(parent, change),
        "eval_mix_calls_parent_vs_parent": [calls_record(parent, parent) for _ in range(2)],
    }
    if args.pairs:
        record["bench_seeds"] = [FIRST_BENCH_SEED + i for i in range(args.pairs)]
        record["bench_pairs"] = bench_record(parent, change, args.pairs, args.seconds,
                                             FIRST_BENCH_SEED)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
