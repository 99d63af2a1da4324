"""lerchsum benchmark: two seeded workloads, end-to-end metrics, traced run.

Run from the repository root:

    python3 bench/run.py --workload registry-phi-free --seed 20240601 --seconds 50 --trace 0

The package is imported from ./src of the checkout, never from an installed
copy.  Everything runs in this one process with no threads; only the
set-up measurement starts fresh interpreters.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a traced run.  DESIGN.md describes both.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Identities that never call Phi: every id except ID-01 (main theorem),
# ID-04 (functional equation) and ID-14 (polylog sum).
PHI_FREE_IDS = ("ID-00", "ID-02", "ID-03", "ID-05", "ID-06", "ID-07", "ID-08",
                "ID-09", "ID-10", "ID-11", "ID-12", "ID-13", "ID-15")
# Expected verdicts: every point passes except ID-12's, whose trend gate is
# red by design (its tail is ~1e-4 at n = 12 against a 1e-6 bound).
EXPECTED_FAIL_IDS = frozenset({"ID-12"})
EXPECTED_EXIT = 1

# The work of this suite varies by only ~2% from seed to seed, so a run
# repeats --seed and takes each point's fastest time.  count=100 keeps a pass
# near 1 s, so each point gets ~40 tries at a moment the host runs fast.
REGISTRY = {"ids": PHI_FREE_IDS, "count": 100}
WORKLOADS = ("registry-phi-free", "eval-mix")
MIN_PASSES = 3  # timed passes of the same inputs, at least
SETUP_REPS = 24  # taken two at a time between passes
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import lerchsum.cli, lerchsum; "
              "lerchsum.list_identities(); print(time.perf_counter() - t)")

# eval-mix runs its speed probe after every PROBE_EVERY calls, untimed.
PROBE_EVERY = 20

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "latency_p95_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_lerchsum():
    """Import lerchsum (and its cli/report modules) from this checkout's src."""
    if not (SRC / "lerchsum" / "__init__.py").is_file():
        raise BenchError(f"no lerchsum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lerchsum
    import lerchsum.cli  # noqa: F401 - binds lerchsum.cli and lerchsum.report
    if Path(lerchsum.__file__).resolve().parent != SRC / "lerchsum":
        raise BenchError(f"imported lerchsum from {lerchsum.__file__}, not {SRC}")
    return lerchsum


class SetupTimer:
    """Times a fresh interpreter importing lerchsum and its registry.

    `sample()` is called between timed passes, so the samples span the run
    rather than one moment of it, and their median is reported.  The first
    child only fills the bytecode cache and is not counted.
    """

    def __init__(self):
        self.times = []
        self._child()

    def _child(self) -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    def sample(self) -> None:
        for _ in range(2):
            if len(self.times) < SETUP_REPS:
                self.times.append(self._child())

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample()
        return statistics.median(self.times)


def keep_going(done: int, minimum: int, start: float, seconds: float) -> bool:
    """Another pass, unless `minimum` are done and it would end past `seconds`."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed * (done + 1) / done <= seconds


class FastestPass:
    """Each unit's fastest time over repeated passes of the same units, and
    the pass time those add up to (plus the fastest time spent between them).

    On a shared 2-core VM, CPU speed drifted by up to 1.7x over seconds; the
    minimum of a short unit over passes spread across the run varied far
    less from run to run than any mean or median (see DESIGN.md).  Only the
    running minima are kept, so memory does not grow with the pass count.
    """

    def __init__(self):
        self.per_unit = None
        self.between = math.inf

    def add(self, times: list, wall: float) -> None:
        """Fold in one pass: times[i] is unit i's time, wall the whole pass."""
        self.between = min(self.between, wall - sum(times))
        if self.per_unit is None:
            self.per_unit = list(times)
        else:
            self.per_unit = list(map(min, self.per_unit, times))

    def wall(self) -> float:
        return sum(self.per_unit) + self.between


class SpeedProbe:
    """The host's speed during an eval-mix run, from a fixed loop that is not
    lerchsum's.

    The loop (`speed.probe_loop`) is sampled after every PROBE_EVERY calls
    of every pass, and each sample position is kept at its fastest over the
    passes, exactly as the calls are.  `scale()` is speed.PROBE_REF_S over
    the mean of those minima: about 1 when the host ran the loop at the
    reference speed, and below 1 when contention slowed the run as a whole.
    Times multiplied by it are seconds at the reference speed (DESIGN.md).
    """

    def __init__(self):
        self.fastest = FastestPass()
        self.pass_times = []

    def sample(self) -> float:
        """Run the loop once; returns the seconds it took, timing included."""
        start = time.perf_counter()
        self.pass_times.append(speed.probe_time())
        return time.perf_counter() - start

    def end_pass(self) -> None:
        if not self.pass_times:  # a pass shorter than PROBE_EVERY calls
            self.sample()
        self.fastest.add(self.pass_times, sum(self.pass_times))
        self.pass_times = []

    def scale(self) -> float:
        return speed.PROBE_REF_S / statistics.fmean(self.fastest.per_unit)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p95(values) -> float:
    return statistics.quantiles(values, n=100)[94]


@contextlib.contextmanager
def point_timer(verifier, sink: list):
    """Time each sample point's verification (both sides and the verdict)."""
    original = verifier._verify_one_point
    clock = time.perf_counter

    def timed(*args):
        start = clock()
        try:
            return original(*args)
        finally:
            sink.append(clock() - start)

    verifier._verify_one_point = timed
    try:
        yield
    finally:
        verifier._verify_one_point = original


def timed_metrics(fastest: FastestPass, setup: SetupTimer, rss: float,
                  scale: float = 1.0) -> dict:
    """The end-to-end metrics of a timed run; the pass and per-unit times
    are multiplied by `scale`."""
    per_unit = fastest.per_unit
    return {
        "setup_s": setup.median(),
        "wall_s": scale * fastest.wall(),
        "latency_p50_ms": scale * 1e3 * statistics.median(per_unit),
        "latency_p95_ms": scale * 1e3 * p95(per_unit),
        "peak_rss_mb": rss,
    }


def result_obj(attempted: int, failed: int, metrics: dict) -> dict:
    """The result line; metrics maps a name to a value or (value, unit)."""
    out = {}
    for name, value in metrics.items():
        value, unit = value if isinstance(value, tuple) else (value, E2E_UNITS[name])
        out[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


# --------------------------------------------------------------------------
# registry-phi-free: `lerchsum suite` in-process
# --------------------------------------------------------------------------

def run_suite_once(lib, config: dict, seed: int, out: Path) -> tuple:
    """One CLI suite run writing its JSON report to `out`: (exit code, seconds)."""
    argv = ["suite", "--count", str(config["count"]), "--seed", str(seed),
            "--filter", ",".join(config["ids"]), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = lib.cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall


def _headroom(point: dict, abs_tol: float) -> float:
    """error / budget of one point, measured as the verifier's judge does."""
    budget = point["tol"] * max(1.0, point["cond"])
    lhs = complex(point["lhs"]["re"], point["lhs"]["im"])
    rhs = complex(point["rhs"]["re"], point["rhs"]["im"])
    mode = point["mode"]
    if mode == "relative":
        err = point["rel_err"]
    elif mode == "absolute":
        err = point["abs_err"]
    elif mode == "mod_2pi_i":
        err = (abs(lhs - rhs - complex(0.0, 2.0 * math.pi * point["branch_integer"]))
               / max(abs(lhs), abs(rhs), abs_tol))
    else:  # exp_equality
        err = abs(cmath.exp(lhs - rhs) - 1.0)
    return err / budget


def check_report(path: Path, code: int, config: dict) -> dict:
    """Compare every point's verdict in a written report with the expected table.

    Points that are missing, error-tagged, or whose verdict differs from the
    table count as failed, and every point fails if the exit code is wrong.
    Also collects conditioning, budget and error/budget of the points
    expected to pass.
    """
    obj = json.loads(path.read_text(encoding="utf-8"))
    rows = {row["id"]: row for row in obj["identities"]}
    abs_tol = obj["meta"]["policy"]["abs_tol"]
    out = {"obj": obj, "attempted": config["count"] * len(config["ids"]), "failed": 0,
           "points": 0, "errors": 0, "headroom": [], "budgets": [], "conds": []}
    for identity_id in config["ids"]:
        points = rows.get(identity_id, {}).get("points", [])
        out["points"] += len(points)
        out["failed"] += max(0, config["count"] - len(points))
        expect_pass = identity_id not in EXPECTED_FAIL_IDS
        for point in points:
            if point["error"] is not None:
                out["errors"] += 1
                out["failed"] += 1
            elif point["pass"] != expect_pass:
                out["failed"] += 1
            elif point["mode"] != "trend":
                out["headroom"].append(_headroom(point, abs_tol))
                out["budgets"].append(point["tol"] * max(1.0, point["cond"]))
                out["conds"].append(point["cond"])
    if code != EXPECTED_EXIT:
        out["failed"] = out["attempted"]
    return out


def registry_workload(lib, seed: int, seconds: float, trace: bool,
                      config: dict = REGISTRY) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        if trace:
            return registry_traced(lib, seed, seconds, config, out_dir)
        return registry_timed(lib, seed, seconds, config, out_dir)
    finally:
        for path in out_dir.iterdir():
            path.unlink()
        out_dir.rmdir()


def registry_timed(lib, seed: int, seconds: float, config: dict, out_dir: Path) -> dict:
    """Suite runs of the same seed while they fit; each point at its fastest."""
    start = time.perf_counter()
    setup = SetupTimer()
    fastest, runs = FastestPass(), []
    while keep_going(len(runs), MIN_PASSES, start, seconds):
        out = out_dir / f"report-{len(runs)}.json"
        latencies = []
        with point_timer(lib.verifier, latencies):
            code, wall = run_suite_once(lib, config, seed, out)
        fastest.add(latencies, wall)
        runs.append((code, out))
        setup.sample()
    rss = peak_rss_mb()  # before the reports are read back
    attempted = failed = 0
    for code, out in runs:
        result = check_report(out, code, config)
        attempted += result["attempted"]
        failed += result["failed"]
    print(f"registry-phi-free: {len(runs)} suite runs of {len(fastest.per_unit)} points",
          file=sys.stderr)
    return result_obj(attempted, failed, timed_metrics(fastest, setup, rss))


def report_bytes(path: Path) -> int:
    """Size of a JSON report from its identities array on.  The meta block
    before it holds the timestamp and wall time, whose printed length varies."""
    data = path.read_bytes()
    return len(data) - data.index(b'"identities"')


def counted_sampling(lib, count: int, seed: int, ids: tuple) -> tuple:
    """(draws, accepts) of the seeded rejection sampler over the workload's ids,
    from the public sample_points with a counting constraints callable."""
    draws = accepts = 0
    for identity_id in ids:
        spec = lib.get_identity(identity_id)

        def counted(point, margin, original=spec.constraints):
            nonlocal draws, accepts
            draws += 1
            ok = original(point, margin)
            accepts += bool(ok)
            return ok

        strategy = lib.default_strategy(identity_id, count=count, seed=seed)
        lib.sample_points(replace(spec, constraints=counted), strategy)
    return draws, accepts


def registry_traced(lib, seed: int, seconds: float, config: dict, out_dir: Path) -> dict:
    """One untraced suite run, then traced runs of the same seed: per-layer
    metrics, with the traced reports required to equal the untraced one."""
    from tracing import Tracer, median_metrics

    start = time.perf_counter()
    plain_out = out_dir / "plain.json"
    plain_code, plain_wall = run_suite_once(lib, config, seed, plain_out)
    plain = check_report(plain_out, plain_code, config)
    reference = lib.report.strip_volatile(plain["obj"])
    attempted, failed = plain["attempted"], plain["failed"]
    rep_metrics, traced_walls = [], []
    out = out_dir / "traced.json"
    while keep_going(len(rep_metrics), 1, start, seconds):
        with Tracer(lib) as tracer:
            code, wall = run_suite_once(lib, config, seed, out)
        traced_walls.append(wall)
        rep_metrics.append(tracer.metrics())
        result = check_report(out, code, config)
        attempted += result["attempted"]
        same = code == plain_code and lib.report.strip_volatile(result["obj"]) == reference
        failed += result["failed"] if same else result["attempted"]
    draws, accepts = counted_sampling(lib, config["count"], seed, config["ids"])
    metrics = median_metrics(rep_metrics)
    metrics.update({
        "verifier.points": (result["points"], "count"),
        "verifier.errors": (result["errors"], "count"),
        "verifier.draws": (draws, "count"),
        "verifier.accepts": (accepts, "count"),
        "verifier.accept_ratio": (accepts / draws, "ratio"),
        "verifier.cond_max": (max(result["conds"]), "ratio"),
        "verifier.budget_p50": (statistics.median(result["budgets"]), "ratio"),
        "check.err_budget_max": (max(result["headroom"]), "ratio"),
        "report.bytes": (report_bytes(out), "B"),
        "trace.overhead_ratio": (statistics.median(traced_walls) / plain_wall, "ratio"),
    })
    return result_obj(attempted, failed, metrics)


# --------------------------------------------------------------------------
# eval-mix: direct library calls
# --------------------------------------------------------------------------

def run_calls(lib, calls: list, probe: SpeedProbe | None = None) -> tuple:
    """One pass over the call list: (results, per-call seconds, wall seconds).

    Functions are looked up on the package at the start of the pass, so a
    tracer installed around the pass sees every call.  A call that raises
    gets the result None.  With a `probe`, it is sampled after every
    PROBE_EVERY calls, and its time is left out of the wall time.
    """
    results, times = [], []
    clock = time.perf_counter
    functions = {name: getattr(lib, name) for name in {call.fn for call in calls}}
    probe_spent = 0.0
    start = clock()
    for i, call in enumerate(calls, 1):
        fn = functions[call.fn]
        t0 = clock()
        try:
            result = fn(*call.args)
        except (ArithmeticError, ValueError, RuntimeError):
            result = None
        times.append(clock() - t0)
        results.append(result)
        if probe is not None and i % PROBE_EVERY == 0:
            probe_spent += probe.sample()
    wall = clock() - start - probe_spent
    if probe is not None:
        probe.end_pass()
    return results, times, wall


def check_calls(lib, calls: list, results: list) -> tuple:
    """(indices of wrong calls, worst disagreement over tolerance)."""
    import evalmix

    wrong, worst = set(), 0.0
    for i, (call, result) in enumerate(zip(calls, results)):
        try:
            ratio = evalmix.check_call(lib, call, result) if result is not None else math.inf
        except (ArithmeticError, ValueError, RuntimeError):
            ratio = math.inf  # no independent value: unverified, so not correct
        if not ratio <= 1.0:
            wrong.add(i)
        else:
            worst = max(worst, ratio)
    return wrong, worst


def evalmix_workload(lib, seed: int, seconds: float, trace: bool,
                     total: int | None = None) -> dict:
    """Passes over the seeded call list; the first (warm-up) pass's results
    are checked, and every later pass must repeat them exactly."""
    import evalmix

    calls = evalmix.make_calls(lib, seed, total or evalmix.MIX_CALLS)
    start = time.perf_counter()
    setup, probe = (None, None) if trace else (SetupTimer(), SpeedProbe())
    reference, _, _ = run_calls(lib, calls)
    if trace:
        from tracing import Tracer, median_metrics

        _, _, plain_wall = run_calls(lib, calls)  # warm, untraced
    fastest, walls, rep_metrics = FastestPass(), [], []
    passes, changed = 0, Counter()  # call index -> passes whose result differed
    while keep_going(passes, 1 if trace else MIN_PASSES, start, seconds):
        if trace:
            with Tracer(lib) as tracer:
                results, times, wall = run_calls(lib, calls)
            rep_metrics.append(tracer.metrics())
        else:
            results, times, wall = run_calls(lib, calls, probe)
            setup.sample()
        passes += 1
        changed.update(i for i, (got, want) in enumerate(zip(results, reference))
                       if got != want)
        fastest.add(times, wall)
        walls.append(wall)
    rss = peak_rss_mb()  # before the checks
    wrong, worst = check_calls(lib, calls, reference)
    attempted = len(calls) * passes
    failed = passes * len(wrong) + sum(n for i, n in changed.items() if i not in wrong)
    if trace:
        metrics = median_metrics(rep_metrics)
        metrics.update(empty_registry_metrics())
        metrics["check.err_budget_max"] = (worst, "ratio")
        metrics["trace.overhead_ratio"] = (statistics.median(walls) / plain_wall, "ratio")
        return result_obj(attempted, failed, metrics)
    scale = probe.scale()
    print(f"eval-mix: {passes} passes of {len(calls)} calls; speed probe scale "
          f"{scale:.3f}, unscaled wall_s {fastest.wall():.4f}", file=sys.stderr)
    return result_obj(attempted, failed, timed_metrics(fastest, setup, rss, scale))


def empty_registry_metrics() -> dict:
    """Registry-only per-layer metrics, zero on a workload without a verifier."""
    return {name: (0, unit) for name, unit in (
        ("verifier.points", "count"), ("verifier.errors", "count"),
        ("verifier.draws", "count"), ("verifier.accepts", "count"),
        ("verifier.accept_ratio", "ratio"), ("verifier.cond_max", "ratio"),
        ("verifier.budget_p50", "ratio"), ("report.bytes", "B"))}


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: lerchsum's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = import_lerchsum()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    seed = lib.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "eval-mix":
        result = evalmix_workload(lib, seed, args.seconds, bool(args.trace))
    else:
        result = registry_workload(lib, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
