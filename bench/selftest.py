"""Self-test of the benchmark at a tiny size (about 30 s).

    python3 bench/selftest.py

Checks that every workload runs and reports every metric of BENCHMARK.json
by name and unit, that traced counters repeat exactly, that the traced
report equals the untraced one, that injected wrong results (a wrong
verdict, a perturbed function, perturbed series constants) are counted as
failed, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_REGISTRY = {"ids": ("ID-02", "ID-04", "ID-12", "ID-13"), "count": 3}
TINY_CALLS = 60
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(lib, workload: str, trace: bool) -> dict:
    if workload == "eval-mix":
        return run.evalmix_workload(lib, SEED, 0, trace, TINY_CALLS)
    return run.registry_workload(lib, SEED, 0, trace, TINY_REGISTRY)


def check_metrics(result: dict, declared: list, where: str) -> None:
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        expect(NAME.fullmatch(m["name"]) is not None, f"bad metric name {m['name']!r}")
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r}")
        expect(isinstance(got["value"], (int, float)), f"{where}: {m['name']} not a number")


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"
            and k != "trace.overhead_ratio"}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workload names differ from BENCHMARK.json")
    lib = run.import_lerchsum()

    for workload in run.WORKLOADS:
        plain = tiny(lib, workload, trace=False)
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
               f"{workload}: not correct at tiny size: {plain}")
        check_metrics(plain, spec["end_to_end"], workload)
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               f"{workload}: an end-to-end metric is 0")
        # registry traced runs also compare the traced report with an untraced one
        first, second = tiny(lib, workload, True), tiny(lib, workload, True)
        expect(first["correct"] and second["correct"], f"{workload}: traced run not correct")
        check_metrics(first, spec["per_layer"], f"{workload} traced")
        differ = {k: (v, counts(second).get(k)) for k, v in counts(first).items()
                  if counts(second).get(k) != v}
        expect(not differ, f"{workload}: traced counters differ: {differ}")
        print(f"{workload}: ok", file=sys.stderr)

    # a wrong verdict: ID-02 with the sign of its largest right-side term flipped
    real = lib.verifier.get_identity

    def corrupted(identity_id):
        found = real(identity_id)
        return replace(lib.mutated_spec(found), id=found.id) if identity_id == "ID-02" else found

    lib.verifier.get_identity = corrupted
    try:
        broken = tiny(lib, "registry-phi-free", trace=False)
    finally:
        lib.verifier.get_identity = real
    expect(not broken["correct"] and broken["failed"] > 0,
           f"mutated ID-02 not counted as failed: {broken}")

    # wrong results: hurwitz_zeta off by one part in a million, and errors
    # in the constants of the asymptotic series, which a shift recurrence
    # of the same function would repeat on both sides and miss
    functions = lib.functions
    zeta = lib.hurwitz_zeta
    perturbations = (
        (lib, "hurwitz_zeta", lambda *args: zeta(*args) * (1.0 + 1e-6)),
        (functions, "_HALF_LN_2PI", functions._HALF_LN_2PI + 1e-9),
        (functions, "_DIGAMMA_BERNOULLI", (functions._DIGAMMA_BERNOULLI[0] * (1.0 + 1e-6),
                                           *functions._DIGAMMA_BERNOULLI[1:])),
        (functions, "_ZETA_BERNOULLI", (functions._ZETA_BERNOULLI[0] * (1.0 + 1e-4),
                                        *functions._ZETA_BERNOULLI[1:])),
    )
    for owner, name, wrong in perturbations:
        right = getattr(owner, name)
        setattr(owner, name, wrong)
        try:
            broken = tiny(lib, "eval-mix", trace=False)
        finally:
            setattr(owner, name, right)
        expect(not broken["correct"] and broken["failed"] > 0,
               f"perturbed {name} not counted as failed: {broken}")

    # without ./src the benchmark must fail and print no result
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
