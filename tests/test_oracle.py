import cmath
import math

import pytest

from lerchsum import (
    DomainError,
    EvalPoint,
    LerchParams,
    lerch_phi,
    nielsen_limit,
    nielsen_partial_product,
)
from lerchsum.identities import evaluate_side, list_identities
from lerchsum.numerics import CancellationMeter
from lerchsum.oracle import (
    OracleReport,
    finite_sum_direct,
    limit_probe,
    phi_series_bruteforce,
)
from lerchsum.verifier import default_strategy, sample_points
from helpers import (
    HALF_LN_2PI,
    dyadic_tail_interval,
    random_complex,
    seeded,
    stirling_half_gap,
)

PI = math.pi


# ---------------------------------------------------------- phi_series_bruteforce

def test_bruteforce_z_zero_trivial():
    report = phi_series_bruteforce(LerchParams(0.0, 1.7 - 0.3j, 2.0), 10)
    expected = cmath.exp(-(1.7 - 0.3j) * cmath.log(2.0))
    assert report.value == pytest.approx(expected, rel=1e-15)
    assert report.error_bound <= 1e-250  # all tail terms vanish
    assert report.work == 10
    assert report.method == "series-bruteforce"


def test_bruteforce_dilog_point_tail_bound():
    report = phi_series_bruteforce(LerchParams(0.5, 2.0, 1.0), 200)
    closed = PI * PI / 6.0 - math.log(2.0) ** 2
    assert report.error_bound < 1e-60
    assert abs(report.value - closed) <= 1e-14


def test_bruteforce_geometric_log_point():
    report = phi_series_bruteforce(LerchParams(0.9, 1.0, 1.0), 10**5)
    closed = -math.log(0.1) / 0.9
    # truncation bound plus double-rounding allowance for ~1e5 additions
    assert abs(report.value - closed) <= report.error_bound + 1e-11


def test_bruteforce_domain():
    with pytest.raises(DomainError):
        phi_series_bruteforce(LerchParams(0.995, 1.0, 1.0), 100)
    with pytest.raises(DomainError):
        phi_series_bruteforce(LerchParams(0.5, 1.0, -2.0), 100)
    with pytest.raises(DomainError):
        phi_series_bruteforce(LerchParams(0.5, 1.0, 1.0), 0)


def test_oracle_report_invariants():
    with pytest.raises(DomainError):
        OracleReport(value=1.0, error_bound=0.0, method="x", work=1)
    with pytest.raises(DomainError):
        OracleReport(value=1.0, error_bound=1e-10, method="x", work=0)


def test_bruteforce_agrees_with_fast_path_500_points(policy):
    rng = seeded(20240601)
    for _ in range(500):
        radius = rng.uniform(0.0, 0.9)
        angle = rng.uniform(0.0, 2.0 * PI)
        z = radius * cmath.exp(1j * angle)
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        params = LerchParams(z, s, v)
        fast = lerch_phi(params, policy)
        slow = phi_series_bruteforce(params, 600)
        budget = (slow.error_bound
                  + 10.0 * (policy.rel_tol * abs(fast) + policy.abs_tol))
        assert abs(fast - slow.value) <= budget


# --------------------------------------------------------------- finite_sum_direct

def test_direct_degenerate_at_pi_third():
    lhs, rhs = finite_sum_direct("ID-02", EvalPoint(m=PI / 3.0, n=0))
    hand = 0.5 * math.tan(PI / 6.0) / math.cos(PI / 3.0)
    assert lhs == pytest.approx(hand, rel=1e-14)
    assert rhs == pytest.approx(1.0 / math.sin(2 * PI / 3) - 0.5 / math.sin(PI / 3),
                                rel=1e-13)
    assert abs(lhs - rhs) <= 1e-14


def test_direct_degenerate_at_one_three():
    lhs, rhs = finite_sum_direct("ID-02", EvalPoint(m=1.0, n=3))
    hand = 1.0 / math.sin(2.0) - 2.0 ** -4 / math.sin(2.0 ** -3)
    assert rhs == pytest.approx(hand, rel=1e-14)
    assert abs(lhs - rhs) <= 1e-15


def test_direct_cos_ratio_point():
    lhs, rhs = finite_sum_direct("ID-05", EvalPoint(x=1.0, n=2))
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_direct_main_theorem_single_term(policy):
    point = EvalPoint(a=cmath.exp(0.3 + 0.2j), m=1.0 + 1.0j, k=0.5 - 0.4j, n=0)
    lhs, rhs = finite_sum_direct("ID-01", point, policy)
    assert cmath.isfinite(lhs) and cmath.isfinite(rhs)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_direct_unknown_id():
    from lerchsum.identities import UnknownIdentityError
    with pytest.raises(UnknownIdentityError):
        finite_sum_direct("ID-99", EvalPoint(m=1.0, n=1))


def test_direct_agrees_with_registry_lhs_all_identities(policy):
    # dual-transcription guard: both implementations of every identity's
    # left side must coincide far below the verification tolerances
    for spec in list_identities():
        points = sample_points(spec, default_strategy(spec.id, count=10, seed=99))
        for pt in points:
            meter = CancellationMeter()
            fast = evaluate_side("lhs", spec.lhs, pt, policy, meter)
            slow, _ = finite_sum_direct(spec.id, pt, policy)
            assert abs(fast - slow) <= 1e-12 * max(abs(fast), abs(slow), 1e-12), spec.id


def test_direct_agrees_with_registry_rhs_all_identities(policy):
    for spec in list_identities():
        points = sample_points(spec, default_strategy(spec.id, count=5, seed=31))
        for pt in points:
            meter = CancellationMeter()
            fast = evaluate_side("rhs", spec.rhs, pt, policy, meter)
            _, slow = finite_sum_direct(spec.id, pt, policy)
            assert abs(fast - slow) <= 1e-12 * max(abs(fast), abs(slow), 1e-12), spec.id


# --------------------------------------------------------------------- limit_probe

def test_probe_constant():
    probe = limit_probe(lambda n: 3.25, 5)
    assert probe.values == (3.25,) * 5
    assert probe.diffs == (0.0,) * 4


def test_probe_geometric_halving():
    probe = limit_probe(lambda n: 2.0 ** -n, 10)
    for i in range(len(probe.diffs) - 1):
        assert probe.diffs[i + 1] == pytest.approx(probe.diffs[i] / 2.0, rel=1e-12)


def test_probe_requires_four_points():
    with pytest.raises(DomainError):
        limit_probe(lambda n: 1.0, 3)


def test_probe_nielsen_product_approaches_limit():
    x = 0.3
    target = nielsen_limit(x)
    probe = limit_probe(lambda n: nielsen_partial_product(x, n), 12)
    errors = [abs(v - target) for v in probe.values[3:]]
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    # tail shrinks roughly geometrically (factor ~ 1/2 per step)
    for i in range(len(errors) - 1):
        assert errors[i + 1] <= 0.6 * errors[i]


def test_stirling_half_gap_bound_on_trend_gate_grid():
    # the tail bound criterion 08 relies on, checked by math.lgamma alone:
    # -1/(24a) <= ln Gamma(a+1/2) - (a ln a - a + ln(2pi)/2) <= 0 at every
    # a = 2^(n-1) x of the gate's grid, up to rounding of the terms involved;
    # 2^-n times that bound is the helper's interval for rho_n
    eps = 2.0 ** -52
    violations = []
    for n in range(4, 13):
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = 2.0 ** (n - 1) * x
            assert dyadic_tail_interval(x, n) == pytest.approx(
                (-(2.0 ** -n) / (24.0 * a), 0.0), rel=1e-15)
            gap = stirling_half_gap(a)
            slack = 64.0 * eps * (abs(math.lgamma(a + 0.5)) + abs(a * math.log(a))
                                  + a + HALF_LN_2PI)
            if not -1.0 / (24.0 * a) - slack <= gap <= slack:
                violations.append((n, x, gap))
    assert violations == []
