"""scripts/bench_record.py: imports without mpmath, draws the same named
point sets from one release to the next, and refuses a single bench pair."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import lerchsum

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_record.py"

# name: (function, points, float.hex of the first point, of the last point)
NAMED_SETS = {
    "eval_mix_20240601": ("lerch_phi_integral", 200, [
        "-0x1.3bf95a669a042p-3", "0x1.5e0e86a279713p-1", "0x1.832fd3a09e40cp-1",
        "0x1.dd2352a3755eap+0", "0x1.132fc92cef19bp-1", "0x1.a60ee5310e674p-1"], [
        "0x1.117826ad625a9p-1", "0x1.465a636d2a7f2p-5", "0x1.b6d9b31d782c8p-1",
        "0x1.533b85273e860p-4", "0x1.75cf45f561ba4p-1", "-0x1.81c5eb4cffbbep-1"]),
    "eval_mix_7": ("lerch_phi_integral", 200, [
        "0x1.a444621bbf476p-3", "-0x1.23521142cebe0p-3", "0x1.7d3ca71d91d0fp+1",
        "0x1.db1d91e1e9100p-2", "0x1.12cee20b56bbep+0", "0x1.3a998e98805e0p-2"], [
        "-0x1.aa8355c97d135p-1", "0x1.d47a832914cacp-4", "0x1.f5abcd77a1acbp+1",
        "0x1.cea5631e0b85ap+0", "0x1.fec7c24b6cbc9p+0", "-0x1.d9f40601a1540p-3"]),
    "eval_mix_1234": ("lerch_phi_integral", 200, [
        "-0x1.c5c8a4fd35596p-4", "0x1.1fda6ef64eaa7p-6", "0x1.fd670a0cbbe54p+0",
        "0x1.e2daba09d87a2p+0", "0x1.597f67323a230p-1", "-0x1.8fcbff8beec82p-1"], [
        "-0x1.39eb6bff365abp-5", "-0x1.0f2156f215a17p-2", "0x1.7f61cbbd6c074p+1",
        "0x1.c697a1933d3ccp-1", "0x1.a3a8195d59772p-1", "0x1.2c805931e91a0p-2"]),
    "rim": ("lerch_phi_integral", 150, [
        "-0x1.198a35a6f12c0p-3", "0x1.f8b38a34fa463p-1", "0x1.70915833e4b3cp+1",
        "0x1.86964db866d5cp+0", "0x1.3e1cc7850d8f3p+1", "0x1.efbcaa5eae4dap-1"], [
        "-0x1.1dcdb76682c0ep-3", "-0x1.f7cc02adfd8d0p-1", "0x1.69039dad61c32p-2",
        "0x1.c1ec07f88d166p+0", "0x1.d8a35c0dbdf9ap+1", "-0x1.a0057c6bd2d8ep-1"]),
    "wide": ("lerch_phi_integral", 750, [
        "-0x1.54c2a0751a7b3p-1", "-0x1.71cf38c764c99p-3", "0x1.2baea0b1f3e3cp+2",
        "0x1.12128e2e687acp+3", "0x1.e151dec13202cp+0", "0x1.fcff3814929c8p+0"], [
        "-0x1.be1130903db15p-5", "0x1.1af7954b5b7b6p-1", "0x1.2f9667e71143ap+2",
        "-0x1.d228ddd801600p-1", "0x1.2fa0b0deed4d2p+2", "0x1.19a416657662cp+1"]),
    "rim_confirm": ("lerch_phi_integral", 150, [
        "-0x1.af02b0fc3f10bp-2", "-0x1.cb42f72f04b22p-1", "0x1.b2396dc8206e1p-4",
        "0x1.b82d8bd0a78f4p+0", "0x1.22801d81c42dcp+2", "0x1.6a857767a7ac0p-1"], [
        "0x1.56487ccd5a58ap-2", "0x1.de3cfc3671a7bp-1", "0x1.c7ec73034fe06p+0",
        "0x1.cdd5cc6179d2ap+0", "0x1.3af6e7e126555p+1", "0x1.909f015d89d20p-3"]),
    "wide_confirm": ("lerch_phi_integral", 750, [
        "-0x1.716087cdb2683p-4", "0x1.f00196b8ffadbp-2", "0x1.04888c2618551p+2",
        "0x1.74983abdef0ccp+2", "0x1.90b7aa296202fp+0", "-0x1.db1b360755fffp+0"], [
        "-0x1.540b14d6717cbp-4", "-0x1.e409a75188fe3p-2", "0x1.3af9266aa4b5bp+0",
        "0x1.3340ca03f507ap+2", "0x1.5d2ecc572de83p+1", "0x1.36f2e385b5212p+1"]),
    "cut_plane": ("lerch_phi_integral", 300, [
        "-0x1.09b280f434785p+0", "-0x1.5c1b0d40aa843p-6", "0x1.0d9e558741699p+1",
        "0x1.0ccf5b3fecc90p-3", "0x1.67ec3a0956f27p+1", "-0x1.6a51cd2011818p-1"], [
        "-0x1.24452cf8dc35ep-1", "-0x1.4cfb71a2b636ep+0", "0x1.9b20d97aba7c1p+1",
        "-0x1.f4f45a409257cp-1", "0x1.593eac78e1251p+1", "0x1.4a717e6d87e08p-1"]),
    "zeta": ("hurwitz_zeta", 300, [
        "0x1.f6ce4e9e99900p-4", "-0x1.8901bf15159eap+2", "0x1.34172c9aa70cap+0",
        "-0x1.d89039e4b6bd0p-2"], [
        "0x1.706fed4af60a6p+0", "0x1.28f7caf040270p+4", "0x1.ae6926773e679p+1",
        "-0x1.62091156f40a0p-1"]),
    "zeta_left": ("hurwitz_zeta", 300, [
        "-0x1.4a37d805632b7p+3", "-0x1.30119deef65c2p+4", "0x1.bfc25965a5207p+1",
        "-0x1.1106f7935723fp+1"], [
        "-0x1.1f1673d0c6160p+1", "-0x1.6dd2d28495a50p+2", "0x1.7af0bef80cfa4p+0",
        "-0x1.e192405f5d260p-3"]),
    "gamma1": ("stieltjes_gamma1", 300, [
        "0x1.1172aab9910a4p+0", "0x1.2cc4cb887e448p+1"], [
        "0x1.a0361bd5d72b0p+0", "-0x1.3bc956383755ap+2"]),
    "log_gamma_real": ("log_gamma", 400, ["0x1.73596f4285282p-37", "0x0.0p+0"],
                       ["0x1.3e1a5350a7cf7p+3", "-0x0.0p+0"]),
    "digamma_real": ("digamma", 400, ["0x1.73596f4285282p-37", "0x0.0p+0"],
                     ["0x1.3e1a5350a7cf7p+3", "-0x0.0p+0"]),
}


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_leaves_mpmath_unloaded():
    code = ("import sys; assert 'mpmath' not in sys.modules; "
            "sys.path.insert(0, sys.argv[1]); import bench_record; "
            "print('mpmath' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_named_sets_are_pinned(bench_record, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import evalmix

    sets = bench_record.named_sets(lerchsum, evalmix)
    assert list(sets) == list(NAMED_SETS)
    for name, (fn, points) in sets.items():
        want_fn, length, first, last = NAMED_SETS[name]
        assert (fn, len(points)) == (want_fn, length), name
        assert bench_record.hex_args(points[0]) == first, name
        assert bench_record.hex_args(points[-1]) == last, name


def test_single_bench_pair_is_rejected(bench_record, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(tmp_path), "--pairs", "1"])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_phi_work_counts_series_and_tail_terms(bench_record, monkeypatch):
    # a series-only call, a call that adds the tail and a polylog; counting
    # leaves the values as they are and restores the counted names
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import evalmix
    from lerchsum import functions

    calls = [evalmix.Call("phi.inner", "lerch_phi", (lerchsum.LerchParams(0.3 + 0.2j, 1.5, 1.2),)),
             evalmix.Call("phi.rim", "lerch_phi",
                          (lerchsum.LerchParams(0.995j, 1.5 - 0.5j, 1.2 + 0.3j),)),
             evalmix.Call("polylog", "polylog", (2.0 + 0j, 0.8 + 0j)),
             evalmix.Call("hurwitz_zeta", "hurwitz_zeta", (2.0 + 0j, 1.0 + 0j))]
    names = (functions.CancellationMeter, functions._add_tail)
    rows = bench_record.phi_work(lerchsum, calls)
    assert (functions.CancellationMeter, functions._add_tail) == names
    assert [row["kind"] for row in rows] == ["phi.inner", "phi.rim", "polylog"]
    for row, call in zip(rows, calls):
        value = getattr(lerchsum, call.fn)(*call.args)
        assert row["result"] == bench_record.hex_args((value,))
        assert row["series_terms"] > 0 and row["cond"] > 0.0
    assert (rows[0]["tail_terms"], rows[0]["tail_added"]) == (0, False)
    assert rows[1]["tail_terms"] > 0 and rows[1]["tail_added"]
    assert rows[1]["args"] == bench_record.hex_args((0.995j, 1.5 - 0.5j, 1.2 + 0.3j))


def test_phi_suite_work_counts_each_rung_once(bench_record, monkeypatch):
    # ID-14's left side makes n + 2 polylog calls and its right side none;
    # tracing leaves the traced names as they were
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    from lerchsum import functions

    traced = (lerchsum.polylog, functions.lerch_phi)
    work = bench_record.phi_suite_work(lerchsum, ["ID-14"], seed=5, count=3)
    assert (lerchsum.polylog, functions.lerch_phi) == traced
    points = lerchsum.sample_points(lerchsum.get_identity("ID-14"),
                                    lerchsum.default_strategy("ID-14", count=3, seed=5))
    assert work["functions.polylog.calls"] == sum(pt.n + 2 for pt in points)
    phi_calls = sum(v for name, v in work.items() if name.startswith("functions.lerch_phi."))
    assert phi_calls == work["functions.polylog.calls"] + 2 * len(points)
    assert set(work) == {"numerics.principal_pow_calls", "functions.polylog.calls",
                         *(f"functions.lerch_phi.{band}.calls"
                           for band in ("inner", "mid", "outer", "rim"))}


def test_budget_stats_agree_with_the_verdicts(bench_record):
    # a row passes every point exactly when its worst error / budget is at
    # most 1; ID-12's trend keeps cond 1, so its budget is its tol
    stats = bench_record.budget_stats(lerchsum, seed=5, count=3)
    report = lerchsum.run_suite(count=3, seed=5)
    assert list(stats) == [row.identity_id for row in report.rows]
    for row in report.rows:
        row_stats = stats[row.identity_id]
        cond = max(r.cond for r in row.results)
        assert row_stats["cond"]["max"] == cond
        assert row_stats["budget"]["max"] == row.tol * max(1.0, cond)
        assert row_stats["errors"] == 0
        assert (row_stats["worst_err_over_budget"] <= 1.0) == row.all_passed, row.identity_id
    assert stats["ID-12"]["budget"] == dict.fromkeys(("p50", "p90", "max"), 1e-6)
