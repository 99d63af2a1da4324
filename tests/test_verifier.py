import math

import pytest

from lerchsum import (
    ConvergenceError,
    DomainError,
    EvalPoint,
    PrecisionPolicy,
    SampleStrategy,
    default_strategy,
    get_identity,
    mutated_spec,
    prudnikov_original,
    run_suite,
    sample_points,
    verify_identity,
)
from lerchsum.identities import IdentitySpec, SideExpr
from lerchsum.report import dumps_csv, dumps_json, report_to_obj, strip_volatile
from lerchsum.verifier import IdentityReport, SuiteReport, VerificationResult

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------- sampling

def test_sampling_is_deterministic():
    spec = get_identity("ID-02")
    strategy = default_strategy("ID-02", count=5, seed=7)
    first = sample_points(spec, strategy)
    second = sample_points(spec, strategy)
    assert first == second


def test_sampling_respects_pole_margins():
    spec = get_identity("ID-02")
    strategy = default_strategy("ID-02", count=25, seed=7)
    for pt in sample_points(spec, strategy):
        m, n = complex(pt.m), pt.n
        # margin in m-units translates to a sine-magnitude floor at each scale
        assert abs(math.sin(2.0 * m.real)) >= 2.0 * strategy.pole_margin * 0.63
        scale = 2.0 ** -n
        assert abs(math.sin(scale * m.real)) >= scale * strategy.pole_margin * 0.63


def test_sampling_count_zero_gives_empty():
    spec = get_identity("ID-02")
    strategy = SampleStrategy(seed=1, count=0,
                              region=default_strategy("ID-02").region)
    assert sample_points(spec, strategy) == []


def test_sampling_exhaustion_error():
    spec = get_identity("ID-02")
    strategy = SampleStrategy(seed=1, count=1, pole_margin=50.0,
                              region=default_strategy("ID-02").region)
    with pytest.raises(ConvergenceError):
        sample_points(spec, strategy)


def test_sampling_region_must_cover_schema():
    spec = get_identity("ID-03")
    strategy = SampleStrategy(seed=1, count=1,
                              region={"m": ((0.2, 2.5), (0.0, 0.0))})
    with pytest.raises(DomainError):
        sample_points(spec, strategy)


def test_main_theorem_sampler_honors_log_guard():
    import cmath
    spec = get_identity("ID-01")
    for pt in sample_points(spec, default_strategy("ID-01", count=20, seed=3)):
        assert pt.m.imag >= 0.5
        assert abs(cmath.log(pt.a)) <= 2.0 ** -pt.n + 1e-15


# ----------------------------------------------------------------- verifying

def test_verify_degenerate_all_pass(policy):
    spec = get_identity("ID-02")
    results = verify_identity(spec, default_strategy("ID-02", count=20, seed=7), policy)
    assert len(results) == 20
    assert all(r.passed for r in results)
    assert all(r.cond >= 1.0 for r in results)


def test_verify_prudnikov_variant_fails_everywhere(policy):
    sidecar = prudnikov_original()
    strategy = default_strategy("ID-02", count=20, seed=7)
    results = verify_identity(sidecar, strategy, policy, tol=1e-10)
    assert all(not r.passed for r in results)
    assert all(r.rel_err > 0.5 for r in results)


def test_monotone_tolerance(policy):
    spec = get_identity("ID-13")
    strategy = default_strategy("ID-13", count=10, seed=5)
    tight = verify_identity(spec, strategy, policy, tol=1e-7)
    loose = verify_identity(spec, strategy, policy, tol=1e-6)
    for a, b in zip(tight, loose):
        if a.passed:
            assert b.passed


def test_cond_growth_trend_for_exp_product(policy):
    # the exp-product identity loses digits as x -> 0 (its cosine combination
    # collapses to O(x^2) before csc blows it back up); cond must grow as x
    # shrinks.  The trend is asserted, not a specific rate: inflating cond to
    # the naive cancellation ratio would defeat the mutation gate.
    spec = get_identity("ID-06")
    conds = []
    for x in (0.8, 0.4, 0.2, 0.1):
        from lerchsum.identities import evaluate_side
        from lerchsum.numerics import CancellationMeter
        pt = EvalPoint(x=x, n=3)
        meter = CancellationMeter()
        lhs = evaluate_side("lhs", spec.lhs, pt, policy, meter)
        evaluate_side("rhs", spec.rhs, pt, policy, meter)
        conds.append(max(1.0, meter.peak / abs(lhs)))
    assert conds == sorted(conds)
    assert conds[-1] / conds[0] > 3.0


def test_mod_2pi_i_mode_accepts_2pi_shifts(policy):
    def lhs_terms(pt, policy_, meter):
        yield complex(0.4, 0.3)

    def rhs_terms(pt, policy_, meter):
        yield complex(0.4, 0.3 + TWO_PI)

    synthetic = IdentitySpec(
        id="SYN-LOG", title="synthetic", description="2 pi i shifted sides",
        schema=("x",), compare_mode="mod_2pi_i",
        lhs=SideExpr("sum", lhs_terms), rhs=SideExpr("sum", rhs_terms),
        constraints=lambda pt, margin: True,
        tol=1e-12, region={"x": ((0.0, 1.0), (0.0, 0.0))},
    )
    strategy = SampleStrategy(seed=1, count=3, region=synthetic.region)
    results = verify_identity(synthetic, strategy, policy, tol=1e-12)
    assert all(r.passed and r.branch_integer == -1 for r in results)
    relative = IdentitySpec(
        id="SYN-REL", title="synthetic", description="same pair, strict compare",
        schema=("x",), compare_mode="relative",
        lhs=SideExpr("sum", lhs_terms), rhs=SideExpr("sum", rhs_terms),
        constraints=lambda pt, margin: True,
        tol=1e-12, region=synthetic.region,
    )
    results = verify_identity(relative, strategy, policy, tol=1e-12)
    assert not any(r.passed for r in results)


def test_mod_2pi_i_reports_branch_integer(policy):
    spec = get_identity("ID-07")
    results = verify_identity(spec, default_strategy("ID-07", count=10, seed=2), policy)
    assert all(r.passed for r in results)
    assert all(r.branch_integer is not None for r in results)


@pytest.mark.parametrize("identity_id", ["ID-02", "ID-11", "ID-15"])
def test_mutation_detected(policy, identity_id):
    spec = get_identity(identity_id)
    strategy = default_strategy(identity_id, count=15, seed=21)
    corrupted = mutated_spec(spec)
    results = verify_identity(corrupted, strategy, policy, tol=spec.tol)
    assert sum(r.passed for r in results) == 0


def test_mutated_main_theorem_keeps_its_log_unit_draw():
    # the mutated spec carries ID-01's lift, so it samples the whole n range
    # under the guard |log a| <= 2^-n, as ID-01 itself does
    import cmath
    spec = mutated_spec(get_identity("ID-01"))
    points = sample_points(spec, default_strategy("ID-01", count=20, seed=20240603))
    assert len({pt.n for pt in points}) >= 5
    assert all(abs(cmath.log(pt.a)) <= 2.0 ** -pt.n for pt in points)


def test_derived_specs_are_judged_at_their_identity_tolerance(policy):
    mutated = mutated_spec(get_identity("ID-13"))
    results = verify_identity(mutated, default_strategy("ID-13", count=3, seed=5), policy)
    assert {r.tol for r in results} == {1e-10}
    sidecar = prudnikov_original()
    results = verify_identity(sidecar, default_strategy("ID-02", count=3, seed=7), policy)
    assert {r.tol for r in results} == {1e-10}


# ---------------------------------------------------------------------- suite

def test_suite_filter_and_rows(policy):
    report = run_suite(policy, count=5, seed=11, ids=["ID-00", "ID-02"])
    assert [row.identity_id for row in report.rows] == ["ID-00", "ID-02"]
    assert report.all_passed


def test_suite_rejects_unknown_override(policy):
    from lerchsum.identities import UnknownIdentityError
    with pytest.raises(UnknownIdentityError):
        run_suite(policy, tols={"ID-99": 1.0}, count=1)


def test_suite_override_is_reflected(policy):
    report = run_suite(policy, tols={"ID-13": 1e-5}, count=4, seed=11, ids=["ID-13"])
    assert report.rows[0].tol == 1e-5
    assert report.rows[0].mode == "absolute"


def test_suite_determinism_excluding_volatile_meta(policy):
    import re
    ids = ["ID-00", "ID-02", "ID-13"]
    one = run_suite(policy, count=6, seed=555, ids=ids)
    two = run_suite(policy, count=6, seed=555, ids=ids)
    assert strip_volatile(report_to_obj(one)) == strip_volatile(report_to_obj(two))
    assert dumps_csv(one) == dumps_csv(two)
    scrub = lambda s: re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": 0', s)
    assert scrub(dumps_json(one, timestamp="T")) == scrub(dumps_json(two, timestamp="T"))


def test_suite_with_empty_selection_succeeds(policy):
    report = run_suite(policy, count=5, ids=[])
    assert report.rows == ()
    assert report.all_passed


def test_suite_report_json_is_valid_json(policy):
    import json
    report = run_suite(policy, count=3, seed=2, ids=["ID-02"])
    obj = json.loads(dumps_json(report))
    assert obj["meta"]["seed"] == 2
    assert obj["identities"][0]["id"] == "ID-02"
    assert len(obj["identities"][0]["points"]) == 3


def _non_finite_report():
    # fresh nan objects on every build, so a raw nan left in the report
    # object would make two builds compare unequal
    nan, inf = float("nan"), float("inf")
    result = VerificationResult(
        identity_id="ID-02", index=0, point=EvalPoint(m=1.0, n=0),
        lhs=complex(nan, inf), rhs=complex(-inf, nan), abs_err=nan, rel_err=inf,
        cond=-inf, passed=False, mode="relative", tol=1e-10)
    row = IdentityReport(identity_id="ID-02", title="degenerate", mode="relative",
                         tol=1e-10, points=1, passed=0, worst_rel_err=inf,
                         worst_abs_err=nan, results=(result,))
    return SuiteReport(rows=(row,), seed=1, count=1, policy=PrecisionPolicy(),
                       wall_time_s=0.5)


def test_report_writes_non_finite_values_as_strings():
    import json
    text = dumps_json(_non_finite_report(), timestamp="T")
    for fragment in ('"lhs": {"re": "nan", "im": "inf"}',
                     '"rhs": {"re": "-inf", "im": "nan"}',
                     '"abs_err": "nan"', '"rel_err": "inf"', '"cond": "-inf"',
                     '"worst_rel_err": "inf"', '"worst_abs_err": "nan"'):
        assert fragment in text
    point = json.loads(text)["identities"][0]["points"][0]
    assert (point["abs_err"], point["rel_err"], point["cond"]) == ("nan", "inf", "-inf")
    one, two = _non_finite_report(), _non_finite_report()
    assert strip_volatile(report_to_obj(one)) == strip_volatile(report_to_obj(two))
