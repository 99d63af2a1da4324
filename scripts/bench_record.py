#!/usr/bin/env python3
"""Write the fixed-seed record that compares two checkouts (BENCH_*.json).

Compares a parent checkout of this repository with a change (default: the
checkout that holds this script), in eight sections:

1. bench_pairs: alternating `bench/run.py` pairs of both workloads, one
   seed per pair (FIRST_BENCH_SEED, FIRST_BENCH_SEED + 1, ...), with
   medians, quartiles and the pairs the change wins.  It runs first, while
   this process is small: Linux carries ru_maxrss across fork and exec, so
   a run's peak_rss_mb can read no less than this process's own peak,
   which the record gives beside the pairs;
2. eval_mix_calls: the 5,000 eval-mix calls at each of SEEDS, compared bit
   for bit, and their call times summed per kind;
3. suite: `lerchsum suite` at SEEDS, for all ids and for the 13 Phi-free
   ids: exit codes, failing ids, CSV and stdout byte for byte, and the
   JSON report's `identities` array and non-volatile `meta`, each compared
   on its own;
4. traced: the count and byte metrics of `bench/run.py --trace 1` of both
   workloads at TRACE_SEED;
5. side_times: the two sides of every identity over its 100 sampled points
   at TRACE_SEED, each through `evaluate_side`;
6. named_sets: the outcome, a value bit for bit or the exception raised,
   of `lerch_phi_integral` on the eval-mix integral calls at SEEDS and on
   the rim and wide sets (and their confirm sets), of `hurwitz_zeta`
   (Re s in (-1, 3) and in (-15, -1)) and `stieltjes_gamma1` on their sets,
   and of `log_gamma` and `digamma` on one set of the positive real axis
   (z = 10^u and z by the shift line Re z = 10, Im z = +0.0 and -0.0);
7. phi_work: the series terms and tail terms that the eval-mix
   `lerch_phi` and `polylog` calls sum at each of SEEDS, per call kind
   (the |z| bands and polylog), and how many calls add the large-shift
   tail.  Each call moved in section 2 is priced against mpmath, its
   error set against rel_tol * max(1, cond) with the change's cond;
8. phi_suite: `lerchsum suite --filter ID-01,ID-04,ID-14`, the three Phi
   identities, timed at each of SEEDS, and the Phi work of one untimed
   `run_suite` of them per seed under `bench/tracing.py`'s Tracer: its
   `lerch_phi` calls per |z| band, `polylog` calls and `principal_pow`
   calls.

mpmath, imported only to price moved points or calls, gives the references
at REF_DPS digits.

Each checkout is imported only in a child process, which writes no
bytecode.  Every timing is scaled by the checkout's `bench/speed.py` probe
(seconds at the probe's reference speed).  It is taken in PASSES fresh
interpreters per side, the two checkouts alternating, and each side keeps
the half of them whose probe ran fastest (see _fastest_half).

    python3 scripts/bench_record.py --parent DIR [--change DIR] [--pairs 10] \\
        [--seconds 50] [--out FILE]

--pairs 0 skips the bench pairs; otherwise it needs at least 2.  Without
--out the record goes to standard output.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = (20240601, 7, 1234)
TRACE_SEED = SEEDS[0]
COUNT = 100
PASSES = 8  # fresh interpreters per side for every timing; even, see alternating
PROBE_EVERY = 20  # eval-mix calls between two untimed runs of the speed probe
CALL_PASSES = 5  # timed passes over the eval-mix calls in each interpreter
SIDE_PASSES = 10  # timed passes over the identity sides in each interpreter
FIRST_BENCH_SEED = 1201
WORKLOADS = ("eval-mix", "registry-phi-free")
METRICS = ("setup_s", "wall_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb")
PHI_FREE_IDS = ("ID-00", "ID-02", "ID-03", "ID-05", "ID-06", "ID-07", "ID-08",
                "ID-09", "ID-10", "ID-11", "ID-12", "ID-13", "ID-15")
REF_DPS = 30
PHI_IDS = "ID-01,ID-04,ID-14"
SUITE_PASSES = 3  # timed passes over the Phi identities in each interpreter
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
MISSING = object()


# ------------------------------------------------------------- named sets

def _rect(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _cx(rng: random.Random, re: tuple, im: tuple) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


def rim_points(key: str = "BENCH_8:rim") -> list:
    """150 (z, s, v): |z| in [0.99, 0.9995], Re s in [0.05, 4], |Im s| <= 2,
    Re v in [0.4, 5], |Im v| <= 1."""
    rng = random.Random(key)
    return [(_rect(rng, 0.99, 0.9995), _cx(rng, (0.05, 4.0), (-2.0, 2.0)),
             _cx(rng, (0.4, 5.0), (-1.0, 1.0))) for _ in range(150)]


def wide_points(key: str = "BENCH_8:wide") -> list:
    """750 (z, s, v): |z| < 0.999, Re s in [0.05, 8], |Im s| <= 10,
    Re v in [0.05, 6], |Im v| <= 3."""
    rng = random.Random(key)
    return [(_rect(rng, 0.0, 0.999), _cx(rng, (0.05, 8.0), (-10.0, 10.0)),
             _cx(rng, (0.05, 6.0), (-3.0, 3.0))) for _ in range(750)]


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


def zeta_left_points() -> list:
    """300 (s, a): Re s in (-15, -1), with zeta_points' boxes for Im s and a."""
    rng = random.Random("BENCH_17:zeta-left")
    return [(complex(rng.uniform(-15.0, -1.0), rng.uniform(-20.0, 20.0)),
             complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))) for _ in range(300)]


def gamma1_points() -> list:
    """300 (a,): Re a in [-5, 10], |Im a| <= 5."""
    rng = random.Random("BENCH_9:gamma1")
    return [(complex(rng.uniform(-5.0, 10.0), rng.uniform(-5.0, 5.0)),) for _ in range(300)]


def real_axis_points() -> list:
    """400 (z,) on the positive real axis: 300 z = 10^u, u in [-11, 1.5], then
    100 z in [9, 10], by the shift line; Im z alternates +0.0 and -0.0."""
    rng = random.Random("BENCH_19:real-axis")
    xs = [10.0 ** rng.uniform(-11.0, 1.5) for _ in range(300)]
    xs += [rng.uniform(9.0, 10.0) for _ in range(100)]
    return [(complex(x, (0.0, -0.0)[i % 2]),) for i, x in enumerate(xs)]


def named_sets(lerchsum, evalmix) -> dict:
    """Set name -> (function name, argument tuples of complex numbers)."""
    sets = {}
    for seed in SEEDS:
        params = [call.args[0] for call in evalmix.make_calls(lerchsum, seed)
                  if call.fn == "lerch_phi_integral"]
        sets[f"eval_mix_{seed}"] = ("lerch_phi_integral",
                                    [(complex(p.z), complex(p.s), complex(p.v)) for p in params])
    sets["rim"] = ("lerch_phi_integral", rim_points())
    sets["wide"] = ("lerch_phi_integral", wide_points())
    sets["rim_confirm"] = ("lerch_phi_integral", rim_points("BENCH_8:rim-confirm"))
    sets["wide_confirm"] = ("lerch_phi_integral", wide_points("BENCH_8:wide-confirm"))
    sets["zeta"] = ("hurwitz_zeta", zeta_points())
    sets["zeta_left"] = ("hurwitz_zeta", zeta_left_points())
    sets["gamma1"] = ("stieltjes_gamma1", gamma1_points())
    sets["log_gamma_real"] = ("log_gamma", real_axis_points())
    sets["digamma_real"] = ("digamma", real_axis_points())
    return sets


def hex_args(args: tuple) -> list:
    """float.hex of the real and imaginary part of each complex argument."""
    return [x.hex() for c in args for x in (c.real, c.imag)]


def _outcome(fn, args) -> object:
    """fn(*args) as a hex pair, or the name of the exception it raised."""
    try:
        return hex_args((complex(fn(*args)),))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__


# ------------------------------------------------------------- child tasks

def _timed(units: list, passes: int, probe_every: int) -> tuple:
    """(results, times, scale) of `passes` timed passes over the thunks in
    `units`, after one warm-up pass.  A unit's time is its fastest over the
    passes.  bench/speed.py's probe runs, untimed, before every
    probe_every-th unit; scale is the probe's reference time over the mean
    of each probe position's fastest time, as bench/run.py scales eval-mix.
    The garbage collector is off, as in timeit, so that no unit pays for a
    collection that earlier units' garbage triggered."""
    import speed

    clock = time.perf_counter
    times = probes = None
    gc.disable()
    try:
        for k in range(passes + 1):
            pass_times, pass_probes, results = [], [], []
            for i, unit in enumerate(units):
                if i % probe_every == 0:
                    pass_probes.append(speed.probe_time())
                t0 = clock()
                results.append(unit())
                pass_times.append(clock() - t0)
            if k == 1:
                times, probes = pass_times, pass_probes
            elif k > 1:
                times = list(map(min, times, pass_times))
                probes = list(map(min, probes, pass_probes))
    finally:
        gc.enable()
    return results, times, speed.PROBE_REF_S / statistics.fmean(probes)


def _task_calls(seed: int) -> dict:
    """The eval-mix calls of one seed, CALL_PASSES timed passes."""
    import evalmix
    import lerchsum

    calls = evalmix.make_calls(lerchsum, seed)
    units = [lambda fn=getattr(lerchsum, call.fn), args=call.args: _outcome(fn, args)
             for call in calls]
    results, times, scale = _timed(units, CALL_PASSES, PROBE_EVERY)
    seconds = defaultdict(float)
    for call, t in zip(calls, times):
        seconds[call.kind] += scale * t
    seconds = dict(sorted(seconds.items()), total=scale * sum(times))
    return {"kinds": [call.kind for call in calls], "results": results, "scale": scale,
            "seconds": seconds}


def _run_each(thunks: list) -> None:
    for thunk in thunks:
        thunk()


def _task_sides(seed: int) -> dict:
    """Every identity's two sides over its sampled points, SIDE_PASSES timed passes."""
    import lerchsum
    from lerchsum.identities import evaluate_side
    from lerchsum.numerics import CancellationMeter

    policy = lerchsum.PrecisionPolicy()
    keys, units = [], []
    for spec in lerchsum.list_identities():
        points = lerchsum.sample_points(
            spec, lerchsum.default_strategy(spec.id, count=COUNT, seed=seed))
        for side in ("lhs", "rhs"):
            thunks = [lambda pt=pt, side=side, expr=getattr(spec, side): evaluate_side(
                side, expr, pt, policy, CancellationMeter()) for pt in points]
            keys.append(f"{spec.id}.{side}")
            units.append(partial(_run_each, thunks))
    _, times, scale = _timed(units, SIDE_PASSES, 1)
    return {"scale": scale,
            "seconds": dict(zip(keys, (scale * t for t in times)), total=scale * sum(times))}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _task_suite(seed: int) -> dict:
    """`lerchsum suite` at every seed, all ids and the Phi-free ids, both formats."""
    from lerchsum.cli import main
    from lerchsum.report import strip_volatile

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite_seed in SEEDS:
            for ids, extra in (("all", []), ("phi-free", ["--filter", ",".join(PHI_FREE_IDS)])):
                row = {"exit_codes": {}, "stdout": {}}
                for fmt in ("json", "csv"):
                    path = Path(tmp) / f"report.{fmt}"
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout):
                        row["exit_codes"][fmt] = main(["suite", "--seed", str(suite_seed),
                                                       "--format", fmt, "--out", str(path)]
                                                      + extra)
                    row["stdout"][fmt] = _digest(stdout.getvalue())
                    text = path.read_text(encoding="utf-8")
                    if fmt == "csv":
                        row["csv"] = _digest(text)
                        continue
                    obj = json.loads(text)
                    row["json_bytes"] = len(text.encode("utf-8"))
                    row["identities"] = _digest(json.dumps(obj["identities"], sort_keys=True))
                    row["meta"] = strip_volatile(obj)["meta"]
                    row["failing_ids"] = [r["id"] for r in obj["identities"]
                                          if r["passed"] != r["count"]]
                out[f"{ids}@{suite_seed}"] = row
    return out


def _task_sets(seed: int) -> dict:
    """Every named set's arguments (hex) and outcomes."""
    import evalmix
    import lerchsum

    evaluate = {"lerch_phi_integral":
                lambda z, s, v: lerchsum.lerch_phi_integral(lerchsum.LerchParams(z, s, v)),
                "hurwitz_zeta": lerchsum.hurwitz_zeta,
                "stieltjes_gamma1": lerchsum.stieltjes_gamma1,
                "log_gamma": lerchsum.log_gamma, "digamma": lerchsum.digamma}
    return {name: {"fn": fn, "args": [hex_args(a) for a in points],
                   "outcomes": [_outcome(evaluate[fn], a) for a in points]}
            for name, (fn, points) in named_sets(lerchsum, evalmix).items()}


def phi_work(lerchsum, calls: list) -> list:
    """For each `lerch_phi` or `polylog` call: its kind, arguments (hex),
    result (hex), cond = meter peak / |Phi| (polylog's Phi is Li_s(z)/z), the
    budget rel_tol * max(1, cond) of the default policy, under which the
    calls run, the series and tail terms it sums, whether it adds a tail and
    how many tails gave up (a tail that gives up adds no term).

    The terms are counted by swapping `functions.CancellationMeter` for a
    subclass that counts what its blocks add, and by wrapping
    `functions._add_tail`; both names are looked up at call time."""
    from lerchsum import functions

    count = Counter()
    meter_cls, add_tail = functions.CancellationMeter, functions._add_tail

    class Counted(meter_cls):
        __slots__ = ()

        def add_block(self, re, im):
            count["terms"] += len(re)
            super().add_block(re, im)

    def counted_tail(*args):
        before = count["terms"]
        added = add_tail(*args)
        count["tail"] += count["terms"] - before
        count["added" if added else "given_up"] += 1
        return added

    rows, rel_tol = [], lerchsum.PrecisionPolicy().rel_tol
    functions.CancellationMeter, functions._add_tail = Counted, counted_tail
    try:
        for call in calls:
            if call.fn not in ("lerch_phi", "polylog"):
                continue
            count.clear()
            meter = meter_cls()
            value = getattr(lerchsum, call.fn)(*call.args, meter=meter)
            if call.fn == "lerch_phi":
                params = call.args[0]
                args, phi = (params.z, params.s, params.v), value
            else:
                args, phi = call.args, value / call.args[1]
            cond = meter.peak / abs(phi)
            rows.append({"kind": call.kind, "fn": call.fn,
                         "args": hex_args(tuple(map(complex, args))),
                         "result": hex_args((value,)), "cond": cond,
                         "budget": rel_tol * max(1.0, cond),
                         "tail_terms": count["tail"],
                         "series_terms": count["terms"] - count["tail"],
                         "tail_added": count["added"] > 0, "tails_given_up": count["given_up"]})
    finally:
        functions.CancellationMeter, functions._add_tail = meter_cls, add_tail
    return rows


def _task_phi_work(seed: int) -> list:
    """phi_work over the eval-mix calls of one seed."""
    import evalmix
    import lerchsum

    return phi_work(lerchsum, evalmix.make_calls(lerchsum, seed))


def _is_phi_counter(name: str) -> bool:
    return (name in ("functions.polylog.calls", "numerics.principal_pow_calls")
            or name.startswith("functions.lerch_phi.") and name.endswith(".calls"))


def phi_suite_work(lerchsum, ids: list, seed: int, count: int = COUNT) -> dict:
    """The `lerch_phi` calls per |z| band, `polylog` calls and `principal_pow`
    calls of one untimed `run_suite` of ids, counted by bench/tracing.py's
    Tracer (a lerch_phi call inside polylog counts too)."""
    import lerchsum.cli  # noqa: F401 - the Tracer wraps the cli and report modules
    from tracing import Tracer

    with Tracer(lerchsum) as tracer:
        lerchsum.run_suite(lerchsum.PrecisionPolicy(), count=count, seed=seed, ids=ids)
    return {name: value for name, (value, _) in tracer.metrics().items()
            if _is_phi_counter(name)}


def _task_phi_suite(seed: int) -> dict:
    """`lerchsum suite --filter PHI_IDS` at every seed, SUITE_PASSES timed passes,
    then phi_suite_work at every seed."""
    import lerchsum
    from lerchsum.cli import main

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        def run(suite_seed):
            with contextlib.redirect_stdout(io.StringIO()):
                codes[str(suite_seed)] = main(["suite", "--seed", str(suite_seed), "--filter",
                                               PHI_IDS, "--out", str(Path(tmp) / "r.json")])

        _, times, scale = _timed([partial(run, s) for s in SEEDS], SUITE_PASSES, 1)
    seconds = {str(s): scale * t for s, t in zip(SEEDS, times)}
    work = {str(s): phi_suite_work(lerchsum, PHI_IDS.split(","), s) for s in SEEDS}
    return {"scale": scale, "seconds": dict(seconds, total=scale * sum(times)),
            "exit_codes": codes, "work": work}


TASKS = {"calls": _task_calls, "sides": _task_sides, "suite": _task_suite, "sets": _task_sets,
         "phi_work": _task_phi_work, "phi_suite": _task_phi_suite}


def _child(task: str, root: Path, seed: int) -> dict:
    """Run in a fresh interpreter with `root`'s package and bench on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    return TASKS[task](seed)


# -------------------------------------------------------------- launcher

def _run(command: list, cwd: Path = ROOT) -> str:
    return subprocess.run(command, cwd=cwd, check=True, capture_output=True, text=True,
                          env=CHILD_ENV).stdout


def _run_child(root: Path, task: str, seed: int = TRACE_SEED) -> dict:
    return json.loads(_run([sys.executable, str(Path(__file__).resolve()), "--child", task,
                            "--root", str(root), "--seed", str(seed)]))


def _bench_line(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = _run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", f"{seconds:g}", "--trace", str(trace)], cwd=root)
    return json.loads(out.strip().splitlines()[-1])


def alternating(run, jobs: tuple, passes: int) -> dict:
    """{side: {job: [run(side, job, i) for each pass i]}}.  Pass i runs the
    jobs in an order rotated by i and both sides of a job back to back; the
    side that goes first alternates from pass to pass and from one job to
    the next.  So a slow stretch of the machine falls on both sides of a job
    rather than on one, and with an even number of passes each side of a
    job goes first equally often."""
    out = {side: defaultdict(list) for side in SIDES}
    for i in range(passes):
        k = i % len(jobs)
        for job in jobs[k:] + jobs[:k]:
            for side in SIDES if (i + jobs.index(job)) % 2 == 0 else SIDES[::-1]:
                out[side][job].append(run(side, job, i))
    return out


def _pct(new: float, old: float) -> float:
    return round(100.0 * (new / old - 1.0), 2)


def bench_pairs(roots: dict, pairs: int, seconds: float) -> dict:
    def run(side, workload, i):
        result = _bench_line(roots[side], workload, FIRST_BENCH_SEED + i, seconds, 0)
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m: result["metrics"][m]["value"] for m in METRICS}}

    runs = alternating(run, WORKLOADS, pairs)
    launcher_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"seeds": [FIRST_BENCH_SEED + i for i in range(pairs)],
              "launcher_ru_maxrss_mb": round(launcher_mb, 2)}
    for workload in WORKLOADS:
        values = {side: {m: [r["metrics"][m] for r in runs[side][workload]] for m in METRICS}
                  for side in SIDES}
        medians = {side: {m: statistics.median(v) for m, v in per.items()}
                   for side, per in values.items()}
        record[workload] = {
            "runs": {side: runs[side][workload] for side in SIDES},
            "median": medians,
            "quartiles": {side: {m: statistics.quantiles(v, n=4, method="inclusive")
                                 for m, v in per.items()} for side, per in values.items()},
            "median_change_pct": {m: _pct(medians["change"][m], medians["parent"][m])
                                  for m in METRICS},
            "change_lower_in_pairs": {m: sum(c < p for c, p in zip(values["change"][m],
                                                                   values["parent"][m]))
                                      for m in METRICS},
            "peak_rss_above_launcher": all(v > launcher_mb for side in SIDES
                                           for v in values[side]["peak_rss_mb"]),
        }
    return record


def _fastest_half(per_pass: dict) -> dict:
    """per_pass[side] lists one child's {"scale", "seconds"} per pass.  Each
    side keeps the half of its passes whose speed probe ran fastest (highest
    scale), and each key's median over them.  The probe corrects a loaded
    host only in part: a pass that ran the probe at scale 0.55 read the
    eval-mix sum about 12% low, so only passes near the host's full speed
    compare; the median evens out the spread between interpreters."""
    medians = {}
    for side, runs in per_pass.items():
        fast = sorted(runs, key=lambda run: run["scale"], reverse=True)[:max(1, len(runs) // 2)]
        medians[side] = {key: statistics.median(run["seconds"][key] for run in fast)
                         for key in fast[0]["seconds"]}
    return {"probe_scales": {side: [round(run["scale"], 3) for run in runs]
                             for side, runs in per_pass.items()},
            "seconds": {side: {key: round(t, 6) for key, t in times.items()}
                        for side, times in medians.items()},
            "change_pct": {key: _pct(medians["change"][key], t)
                           for key, t in medians["parent"].items()}}


def eval_mix_calls(roots: dict) -> dict:
    first = {}  # (side, seed) -> kinds and results of its first pass

    def run(side, seed, i):
        out = _run_child(roots[side], "calls", seed)
        kinds, results = out["kinds"], out["results"]
        if first.setdefault((side, seed), (kinds, results)) != (kinds, results):
            raise RuntimeError(f"seed {seed}: {side} results differ between passes")
        return {"scale": out["scale"], "seconds": out["seconds"]}

    passes = alternating(run, SEEDS, PASSES)
    record = {}
    for seed in SEEDS:
        kinds, results = first["parent", seed]
        if first["change", seed][0] != kinds:
            raise RuntimeError(f"seed {seed}: the two checkouts drew different calls")
        changed = first["change", seed][1]
        moved = [i for i, (p, c) in enumerate(zip(results, changed)) if p != c]
        record[str(seed)] = {
            "calls": len(kinds),
            **_fastest_half({side: passes[side][seed] for side in SIDES}),
            "results_bit_identical": not moved,
            "moved_per_kind": dict(sorted(Counter(kinds[i] for i in moved).items())),
            # moved lerch_phi and polylog calls are priced in phi_work
            "moved_calls": [{"index": i, "kind": kinds[i], "parent": results[i],
                             "change": changed[i]} for i in moved
                            if not kinds[i].startswith(("phi.", "polylog"))],
        }
    return record


def _flat(obj: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def suite(roots: dict) -> dict:
    sides = {side: _run_child(roots[side], "suite") for side in SIDES}
    record = {}
    for key, old in sides["parent"].items():
        new = sides["change"][key]
        old_meta, new_meta = _flat(old["meta"]), _flat(new["meta"])
        record[key] = {
            "exit_codes": {side: data[key]["exit_codes"] for side, data in sides.items()},
            "failing_ids": {side: data[key]["failing_ids"] for side, data in sides.items()},
            "csv_identical": old["csv"] == new["csv"],
            "stdout_identical": old["stdout"] == new["stdout"],
            "json_identities_identical": old["identities"] == new["identities"],
            "json_meta_keys_differing": sorted(
                k for k in old_meta.keys() | new_meta.keys()
                if old_meta.get(k, MISSING) != new_meta.get(k, MISSING)),
            "json_bytes": {side: data[key]["json_bytes"] for side, data in sides.items()},
        }
    return record


def traced(roots: dict) -> dict:
    record = {}
    for workload in WORKLOADS:
        sides = {}
        for side in SIDES:
            metrics = _bench_line(roots[side], workload, TRACE_SEED, 1, 1)["metrics"]
            sides[side] = {name: m["value"] for name, m in metrics.items()
                           if m["unit"] in ("count", "B")}
        sides["differing"] = sorted(name for name, value in sides["parent"].items()
                                    if sides["change"].get(name) != value)
        record[workload] = sides
    return record


def side_times(roots: dict) -> dict:
    passes = alternating(lambda side, job, i: _run_child(roots[side], "sides"),
                         ("sides",), PASSES)
    return {"seed": TRACE_SEED, "count": COUNT,
            **_fastest_half({side: passes[side]["sides"] for side in SIDES})}


def _reference(fn: str, args: tuple) -> complex:
    import mpmath

    mpmath.mp.dps = REF_DPS
    args = [mpmath.mpc(c.real, c.imag) for c in args]
    if fn in ("lerch_phi_integral", "lerch_phi"):
        return complex(mpmath.lerchphi(*args))
    if fn == "polylog":
        s, z = args
        return complex(z * mpmath.lerchphi(z, s, 1))
    if fn == "hurwitz_zeta":
        return complex(mpmath.zeta(*args))
    if fn == "log_gamma":
        return complex(mpmath.loggamma(*args))
    if fn == "digamma":
        return complex(mpmath.digamma(*args))
    # gamma_1(a) = -lim_{s->1} [d/ds zeta(s, a) + 1/(s-1)^2], here at s - 1 = h, which
    # is off by O(h); mpmath.stieltjes takes minutes at a complex a
    with mpmath.workdps(4 * REF_DPS):
        h = mpmath.mpf(10) ** -REF_DPS
        return complex(-(mpmath.zeta(1 + h, args[0], 1) + 1 / h ** 2))


def _unhex(pairs: list) -> tuple:
    """The complex numbers whose parts hex_args wrote."""
    return tuple(complex(float.fromhex(re), float.fromhex(im))
                 for re, im in zip(pairs[::2], pairs[1::2]))


def _abs_err(outcome, ref: complex):
    if isinstance(outcome, str):
        return None
    return abs(_unhex(outcome)[0] - ref)


def named_set_outcomes(roots: dict) -> dict:
    sides = {side: _run_child(roots[side], "sets") for side in SIDES}
    record = {}
    for name, old in sides["parent"].items():
        new = sides["change"][name]
        if old["args"] != new["args"]:
            raise RuntimeError(f"{name}: the two checkouts drew different points")
        moved = []
        for args, p, c in zip(old["args"], old["outcomes"], new["outcomes"]):
            if p == c:
                continue
            point = _unhex(args)
            ref = _reference(old["fn"], point)
            moved.append({"args": [str(x) for x in point], "parent": p, "change": c,
                          "reference_abs": abs(ref),
                          "abs_err": {"parent": _abs_err(p, ref), "change": _abs_err(c, ref)}})
        record[name] = {
            "fn": old["fn"], "points": len(old["args"]),
            "outcomes": {side: dict(Counter("value" if isinstance(o, list) else o
                                            for o in data[name]["outcomes"]))
                         for side, data in sides.items()},
            "moved": len(moved), "moved_points": moved}
    return record


def phi_work_record(roots: dict) -> dict:
    """Terms per call kind at each of SEEDS, and the moved calls priced."""
    record = {}
    for seed in SEEDS:
        sides = {side: _run_child(roots[side], "phi_work", seed) for side in SIDES}
        kinds = {}
        for side, rows in sides.items():
            for row in rows:
                tally = kinds.setdefault(row["kind"], {s: Counter() for s in SIDES})[side]
                tally.update(calls=1, series_terms=row["series_terms"],
                             tail_terms=row["tail_terms"], tail_added=row["tail_added"],
                             tails_given_up=row["tails_given_up"])
        moved, over = defaultdict(list), []
        for old, new in zip(sides["parent"], sides["change"]):
            if old["args"] != new["args"]:
                raise RuntimeError(f"seed {seed}: the two checkouts drew different calls")
            if old["result"] == new["result"]:
                continue
            ref = _reference(old["fn"], _unhex(old["args"]))
            rel = {side: abs(_unhex(row["result"])[0] - ref) / abs(ref)
                   for side, row in (("parent", old), ("change", new))}
            ratio = rel["change"] / new["budget"]
            moved[old["kind"]].append((rel, ratio))
            if ratio > 1.0:
                over.append({"kind": old["kind"], "args": [str(x) for x in _unhex(old["args"])],
                             "rel_err": rel, "cond": new["cond"]})
        record[str(seed)] = {
            "per_kind": {kind: {side: dict(t) for side, t in tallies.items()}
                         for kind, tallies in sorted(kinds.items())},
            "moved": {kind: {"calls": len(rows),
                             "worst_rel_err": {side: max(rel[side] for rel, _ in rows)
                                               for side in SIDES},
                             "worst_err_over_budget": max(ratio for _, ratio in rows)}
                      for kind, rows in sorted(moved.items())},
            "moved_over_budget": over,
        }
    return record


def phi_suite(roots: dict) -> dict:
    codes, work = {}, {}

    def run(side, job, i):
        out = _run_child(roots[side], "phi_suite")
        codes.setdefault(side, out.pop("exit_codes"))
        if work.setdefault(side, out["work"]) != out.pop("work"):
            raise RuntimeError(f"{side}: Phi work counters differ between passes")
        return out

    passes = alternating(run, ("phi_suite",), PASSES)
    counters = {}
    for seed in map(str, SEEDS):
        per_side = {side: work[side][seed] for side in SIDES}
        counters[seed] = {
            **per_side,
            "lerch_phi_calls": {side: sum(v for name, v in c.items()
                                          if name.startswith("functions.lerch_phi."))
                                for side, c in per_side.items()},
            "differing": sorted(name for name, v in per_side["parent"].items()
                                if per_side["change"].get(name) != v)}
    return {"ids": PHI_IDS, "exit_codes": codes, "work": counters,
            **_fastest_half({side: passes[side]["phi_suite"] for side in SIDES})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", choices=sorted(TASKS), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=TRACE_SEED, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.root, args.seed)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    if args.pairs == 1 or args.pairs < 0:
        parser.error("--pairs must be 0 or at least 2")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    roots = {"parent": args.parent.resolve(), "change": (args.change or ROOT).resolve()}
    change = " --change DIR" if args.change else ""
    record = {
        "hardware": f"{os.cpu_count()}-core machine, Python {sys.version.split()[0]}",
        "command": f"python3 scripts/bench_record.py --parent DIR{change} "
                   f"--pairs {args.pairs} --seconds {args.seconds:g}",
    }
    if args.pairs:  # first: see the module docstring
        record["bench_pairs"] = bench_pairs(roots, args.pairs, args.seconds)
    record["eval_mix_calls"] = eval_mix_calls(roots)
    record["suite"] = suite(roots)
    record[f"traced_seed_{TRACE_SEED}"] = traced(roots)
    record[f"side_times_seed_{TRACE_SEED}"] = side_times(roots)
    record["named_sets"] = named_set_outcomes(roots)
    record["phi_work"] = phi_work_record(roots)
    record["phi_suite"] = phi_suite(roots)
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
