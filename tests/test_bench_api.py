"""The package as the benchmark sees it: every name that bench/ wraps or
calls exists, a traced suite run counts its calls, and the sampler count
runs.  An edit to the package's API that would break a bench run fails
here instead."""

import importlib.util
import re
from pathlib import Path

import pytest

import lerchsum
import lerchsum.cli  # noqa: F401 - binds lerchsum.cli and lerchsum.report

BENCH = Path(__file__).resolve().parents[1] / "bench"
LADDER_IDS = ("ID-07", "ID-08")  # both sides of each call log_gamma only


@pytest.fixture
def bench_path(monkeypatch):
    """bench/ on the path: its modules import one another by name."""
    monkeypatch.syspath_prepend(str(BENCH))


def test_traced_names_exist(bench_path):
    import tracing

    for layer, names in tracing.SPAN_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(getattr(lerchsum, layer), name)), f"{layer}.{name}"
    for name in tracing.COUNTED_FUNCTIONS:
        assert callable(getattr(lerchsum.numerics, name)), name
    assert callable(lerchsum.numerics.CancellationMeter.add)


def test_tracer_counts_log_gamma_in_a_suite_run(bench_path):
    import tracing

    original = lerchsum.identities.log_gamma
    with tracing.Tracer(lerchsum) as tracer:
        report = lerchsum.run_suite(count=2, ids=LADDER_IDS)
    assert lerchsum.identities.log_gamma is original
    assert report.all_passed
    # per point: the two rung ladders of the left side, 2 (n + 2) calls,
    # and two calls on the right side
    expected = sum(2 * result.point.n + 6 for row in report.rows for result in row.results)
    metrics = tracer.metrics()
    assert metrics["functions.log_gamma.calls"] == (expected, "count")
    for identity_id in LADDER_IDS:
        assert metrics[f"identities.{identity_id}.side_s"][0] > 0.0


def _bench_run():
    """bench/run.py as a module (bench_path must be on sys.path)."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run


def test_counted_sampling_runs(bench_path):
    bench_run = _bench_run()
    ids = bench_run.PHI_FREE_IDS
    draws, accepts = bench_run.counted_sampling(lerchsum, 5, lerchsum.DEFAULT_SEED, ids)
    assert accepts == 5 * len(ids)
    assert draws >= accepts


def test_selftest_perturbs_live_constants(monkeypatch):
    # bench/selftest.py perturbs these functions constants by name: each must
    # exist, and a perturbed Euler-Maclaurin table must reach both zeta and
    # gamma_1, or its perturbation would be a silent no-op
    source = (BENCH / "selftest.py").read_text(encoding="utf-8")
    names = set(re.findall(r'\(functions, "(\w+)"', source))
    assert names == {"_HALF_LN_2PI", "_DIGAMMA_BERNOULLI", "_ZETA_BERNOULLI"}
    functions = lerchsum.functions
    for name in names:
        assert hasattr(functions, name), name
    calls = ((lerchsum.hurwitz_zeta, (2.5 + 1.0j, 0.7 - 0.2j)),
             (lerchsum.stieltjes_gamma1, (1.3 - 0.4j,)))
    before = [f(*args) for f, args in calls]
    table = functions._ZETA_BERNOULLI
    monkeypatch.setattr(functions, "_ZETA_BERNOULLI", (table[0] * (1.0 + 1e-4), *table[1:]))
    after = [f(*args) for f, args in calls]
    assert all(x != y for x, y in zip(before, after))


# The benchmark's own result checks, on small slices of its workloads: a change
# that the benchmark would count as incorrect fails here first.

def test_bench_call_checks_pass_on_an_eval_mix_slice(bench_path):
    import evalmix

    bench_run = _bench_run()
    calls = evalmix.make_calls(lerchsum, lerchsum.DEFAULT_SEED)[:250]
    assert {call.fn for call in calls} == set(evalmix.CHECK_TOL)  # all seven kinds
    results, _, _ = bench_run.run_calls(lerchsum, calls)
    wrong, worst = bench_run.check_calls(lerchsum, calls, results)
    assert wrong == set()
    assert worst <= 1.0


def test_bench_report_check_passes_on_a_small_suite(bench_path, tmp_path):
    bench_run = _bench_run()
    config = {"ids": bench_run.PHI_FREE_IDS, "count": 3}
    out = tmp_path / "report.json"
    code, _ = bench_run.run_suite_once(lerchsum, config, lerchsum.DEFAULT_SEED, out)
    assert code == bench_run.EXPECTED_EXIT
    result = bench_run.check_report(out, code, config)
    assert (result["attempted"], result["points"]) == (3 * len(config["ids"]),) * 2
    assert (result["failed"], result["errors"]) == (0, 0)
