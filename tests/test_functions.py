import cmath
import math
from collections import Counter
from fractions import Fraction

import pytest

from lerchsum import (
    ConvergenceError,
    DomainError,
    EULER_GAMMA,
    LerchParams,
    PoleError,
    PrecisionPolicy,
    digamma,
    harmonic,
    hurwitz_zeta,
    lerch_phi,
    lerch_phi_integral,
    log_gamma,
    polylog,
    principal_log,
    principal_pow,
    stieltjes_gamma1,
)
from lerchsum import functions
from lerchsum.functions import _eulerian, closed_kernel_terms
from lerchsum.numerics import CancellationMeter
from lerchsum.oracle import phi_series_bruteforce
from helpers import (
    alternating_series_limit,
    digamma_by_steps,
    gamma_product_oracle,
    log_gamma_by_steps,
    random_complex,
    richardson_derivative,
    seeded,
    stieltjes1_fd_oracle,
    zeta2_direct_oracle,
    zeta_at_zero_by_limit,
)

PI = math.pi
LN2 = math.log(2.0)

# frozen by the brute-force series oracle (10^6 terms; closed form
# pi^2/6 - ln^2 2 agrees to the last digit)
PHI_HALF_2_1 = 1.1644810529300249


# ------------------------------------------------------------------ lerch_phi

def test_phi_z_zero_single_term(policy):
    value = lerch_phi(LerchParams(0.0, 2.5 + 1j, 3.0), policy)
    assert value == pytest.approx(principal_pow(3.0, -(2.5 + 1j)), rel=1e-14)


def test_phi_geometric_at_s_zero(policy):
    value = lerch_phi(LerchParams(0.5, 0.0, 7.0), policy)
    assert value == pytest.approx(2.0, rel=2.0 * policy.rel_tol)


def test_phi_dilogarithm_point(policy):
    value = lerch_phi(LerchParams(0.5, 2.0, 1.0), policy)
    assert abs(value - PHI_HALF_2_1) <= 2.0 * policy.rel_tol * PHI_HALF_2_1


def test_phi_domain_errors(policy):
    with pytest.raises(DomainError):
        lerch_phi(LerchParams(1.0, 2.0, 1.0), policy)
    with pytest.raises(DomainError):
        lerch_phi(LerchParams(1.5, 2.0, 1.0), policy)
    with pytest.raises(PoleError):
        lerch_phi(LerchParams(0.5, 2.0, 0.0), policy)
    with pytest.raises(PoleError):
        lerch_phi(LerchParams(0.5, 2.0, -3.0), policy)
    for z in (0.5, 0.99j):  # a series point and a point that hands over
        with pytest.raises(DomainError):
            lerch_phi(LerchParams(z, 2.0, complex(1.0, math.inf)), policy)


def test_phi_on_circle_needs_large_s(policy):
    # on |z| = 1 the series' absolute tail decays like n^(1-Re s), so it would
    # need ~1e10 terms for 1e-10; handed over to the tail after a block, it
    # meets the default policy in a few dozen
    value = lerch_phi(LerchParams(-1.0, 2.0, 1.0), policy)
    assert abs(value - PI * PI / 12.0) <= 2.0 * policy.rel_tol * PI * PI / 12.0
    loose = PrecisionPolicy(rel_tol=1e-5)
    value = lerch_phi(LerchParams(-1.0, 2.0, 1.0), loose)
    assert value == pytest.approx(PI * PI / 12.0, rel=1e-4)
    with pytest.raises(DomainError):
        lerch_phi(LerchParams(-1.0, 0.5, 1.0), policy)
    # near z = 1 the tail's terms shrink fast enough only from w of about
    # x/|1-z|: over 1000 here, so the series exhausts the budget
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(cmath.exp(0.01j), 2.0, 1.0), PrecisionPolicy(max_terms=1000))


def _bernoulli_poly(n, x):
    """B_n(x) in exact rational arithmetic, from B_m = -sum_{k<m} C(m+1, k) B_k/(m+1)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return sum(math.comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


@pytest.fixture
def tail_outcomes(monkeypatch):
    """What every _add_tail call returned: True where it added the tail,
    False where its terms stopped shrinking and it added nothing."""
    outcomes, add_tail = [], functions._add_tail

    def spy(*args):
        outcomes.append(add_tail(*args))
        return outcomes[-1]

    monkeypatch.setattr(functions, "_add_tail", spy)
    return outcomes


def _hands_over(outcomes, phi, *args):
    """(phi(*args), whether it added the large-shift tail)."""
    before = len(outcomes)
    value = phi(*args)
    return value, True in outcomes[before:]


def test_phi_series_priced_on_unit_circle(policy, tail_outcomes):
    # on |z| = 1 the series converges through (v+k)^(-s) alone; at large Re s
    # that takes a few blocks, and the tail's first ratio |s|/(|w||1-z|)
    # stays over _TAIL_RATIO until w reaches 2|s|/|1-z| = 1200 and 2400
    theta = 0.01
    z = cmath.exp(1j * theta)
    x = Fraction(theta / (2.0 * PI))
    for n in (3, 6):
        s = complex(2 * n)
        # Re Li_2n(e^(i theta)) = sum cos(k theta)/k^2n (DLMF 24.8.1)
        exact = ((-1) ** (n + 1) * (2.0 * PI) ** (2 * n)
                 * float(_bernoulli_poly(2 * n, x)) / (2.0 * math.factorial(2 * n)))
        value = (z * lerch_phi(LerchParams(z, s, 1.0), policy)).real
        assert abs(value - exact) <= 1e-10 * abs(exact)
    assert tail_outcomes == []
    # the series' tail test carries a factor e^(|Im s| pi/2), so at s = 4+3i
    # the series' predicted remainder is dearer than the tail's terms
    s = 4.0 + 3.0j
    value, handed = _hands_over(tail_outcomes, lerch_phi, LerchParams(z, s, 1.0), policy)
    assert handed
    series = phi_series_alone(LerchParams(z, s, 1.0), policy)
    assert abs(value - series) <= 1e-10 * abs(series)


def phi_series_alone(params, policy):
    """lerch_phi with the large-shift tail switched off: the series alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(functions, "_add_tail", lambda *args: False)
        return lerch_phi(params, policy)


def test_phi_max_terms_exhaustion():
    tight = PrecisionPolicy(max_terms=50)
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(0.999, 1.0, 1.0), tight)


def test_phi_series_keeps_principal_branch_at_negative_zero_imaginary_v(policy):
    # (v+n)^(-s) on the negative real axis takes arg(v+n) = +pi, also when the
    # imaginary part of v is -0.0 (cmath.log alone would take -pi there)
    s = 1.5 + 0.5j
    for z in (0.5, 0.3 - 0.4j, cmath.rect(0.98, 1.0)):  # the last hands over
        minus = lerch_phi(LerchParams(z, s, complex(-2.5, -0.0)), policy)
        plus = lerch_phi(LerchParams(z, s, complex(-2.5, 0.0)), policy)
        assert minus == plus
        ref = phi_series_bruteforce(LerchParams(z, s, complex(-2.5, -0.0)), 5000)
        assert abs(minus - ref.value) <= 1e-11 * abs(ref.value)


def test_phi_series_head_sums_exactly_head_terms(policy, monkeypatch):
    # the series hands over at a block end: the head is whole blocks, and the
    # tail starts from z^N at w = v + N
    z, s, v = 0.9 * cmath.exp(0.7j), -1.2 + 2.0j, complex(-2.5, -0.0)
    heads, add_tail = [], functions._add_tail

    def spy(acc, zpow, z, s, w, terms, policy):
        heads.append((acc.value, acc.peak, zpow, w))
        return add_tail(acc, zpow, z, s, w, terms, policy)

    monkeypatch.setattr(functions, "_add_tail", spy)
    lerch_phi(LerchParams(z, s, v), policy, CancellationMeter())
    assert len(heads) == 1
    head, peak, zpow, w = heads[0]
    n = round((w - v).real)
    assert w == v + n and n > 0 and n % functions._BLOCK == 0
    ref = phi_series_bruteforce(LerchParams(z, s, v), n).value
    assert abs(head - ref) <= 1e-14 * peak
    assert abs(zpow - z ** n) <= 1e-14 * abs(z ** n)


def test_phi_series_stops_at_max_terms_between_block_ends(tail_outcomes):
    # max_terms = 1000 is not a multiple of the block length
    budget = PrecisionPolicy(max_terms=1000)
    s, v = 1.5 + 0.5j, 1.3
    # at 0.999 the tail's terms do not shrink fast enough within 1000 terms
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(0.999, s, v), budget)
    assert tail_outcomes == []
    # the series alone meets rel_tol at term 999 here, inside the last,
    # short block (lerch_phi hands over before)
    params = LerchParams(0.9829, s, v)
    value = phi_series_alone(params, budget)
    ref = phi_series_bruteforce(params, 1000).value
    assert abs(value - ref) <= 1e-13 * abs(ref)
    with pytest.raises(ConvergenceError):
        phi_series_alone(params, PrecisionPolicy(max_terms=998))


def test_phi_recurrence_200_points(policy):
    rng = seeded(20240601)
    for _ in range(200):
        z = random_complex(rng, (-0.66, 0.66), (-0.66, 0.66))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.3, 4.0), (-1.0, 1.0))
        lhs = lerch_phi(LerchParams(z, s, v), policy)
        rhs = z * lerch_phi(LerchParams(z, s, v + 1.0), policy) + principal_pow(v, -s)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)


# ------------------------------------------- lerch_phi hand-over to the tail

def _bruteforce_reference(params):
    terms = 1024
    while True:
        ref = phi_series_bruteforce(params, terms)
        if ref.error_bound <= 1e-13 * abs(ref.value):
            return ref
        terms *= 2


def test_tail_route_agrees_with_bruteforce_300_points(policy, tail_outcomes):
    # the ranges and budget of test_bruteforce_agrees_with_fast_path_500_points,
    # moved out to 0.9 <= |z| <= 0.99, where the series hands over unless z
    # is close to 1
    rng = seeded(20240602)
    routed = 0
    for _ in range(300):
        z = cmath.rect(rng.uniform(0.9, 0.99), rng.uniform(-PI, PI))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        params = LerchParams(z, s, v)
        fast, handed = _hands_over(tail_outcomes, lerch_phi, params, policy)
        routed += handed
        slow = _bruteforce_reference(params)
        budget = (slow.error_bound
                  + 10.0 * (policy.rel_tol * abs(fast) + policy.abs_tol))
        assert abs(fast - slow.value) <= budget
    assert routed == 300


def test_tail_route_agrees_with_integral_near_rim(policy, tail_outcomes):
    rng = seeded(20240603)
    routed = 0
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.99, 0.9995), rng.uniform(-PI, PI))
        s = random_complex(rng, (0.05, 4.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        params = LerchParams(z, s, v)
        value, handed = _hands_over(tail_outcomes, lerch_phi, params, policy)
        routed += handed
        quad = lerch_phi_integral(params, policy)
        assert abs(value - quad) <= 1e-9 * abs(quad)
    assert routed == 100


def test_hand_over_agrees_with_references_from_0_7_to_the_rim(policy, tail_outcomes):
    # from |z| = 0.7, just past rel_tol^(1/64), to |z| = 0.99 against the
    # brute-force series, Re s < 0 included; on to the rim against the
    # integral, which needs Re s >= 0.05.  Each value is held to the
    # verifier's budget rel_tol * max(1, cond) beside the oracle's own bound
    # (measured: at most 0.05 of it)
    rng = seeded(20240606)
    handed = Counter()
    for lo, hi, re_s, count in ((0.7, 0.9, (-2.0, 4.0), 60), (0.9, 0.99, (-2.0, 4.0), 60),
                                (0.99, 0.9995, (0.05, 4.0), 30)):
        for _ in range(count):
            z = cmath.rect(rng.uniform(lo, hi), rng.uniform(-PI, PI))
            s = random_complex(rng, re_s, (-2.0, 2.0))
            v = random_complex(rng, (0.2, 3.0), (-1.0, 1.0))
            params = LerchParams(z, s, v)
            meter = CancellationMeter()
            value, tail = _hands_over(tail_outcomes, lerch_phi, params, policy, meter)
            handed[lo] += tail
            budget = policy.rel_tol * max(abs(value), meter.peak)
            if hi <= 0.99:
                ref = _bruteforce_reference(params)
                assert abs(value - ref.value) <= ref.error_bound + budget
            else:
                assert abs(value - lerch_phi_integral(params, policy)) <= budget
    assert handed == {0.7: 53, 0.9: 60, 0.99: 30}
    # where |z|^64 <= rel_tol the series runs alone, bit for bit, also at
    # s = 0, -1, ..., -5, where the expansion terminates
    calls = len(tail_outcomes)
    points = []
    for i in range(60):
        z = cmath.rect(rng.uniform(0.3, 0.69), rng.uniform(-PI, PI))
        s = complex(-(i // 10)) if i % 10 == 0 else random_complex(rng, (-2.0, 4.0), (-2.0, 2.0))
        points.append(LerchParams(z, s, random_complex(rng, (0.2, 3.0), (-1.0, 1.0))))
    values = [lerch_phi(params, policy) for params in points]
    assert len(tail_outcomes) == calls
    assert values == [phi_series_alone(params, policy) for params in points]


def test_tail_route_closed_forms_at_nonpositive_integer_s(policy, tail_outcomes):
    # the expansion stops at k = -s: sum (v+n) z^n and sum (v+n)^2 z^n, added
    # from w = v with no series term
    rng = seeded(20240604)
    for _ in range(20):
        z = cmath.rect(0.995, rng.uniform(-PI, PI))
        v = random_complex(rng, (0.2, 5.0), (-2.0, 2.0))
        q = 1.0 - z
        first = v / q + z / q ** 2
        second = v * v / q + 2.0 * v * z / q ** 2 + z * (1.0 + z) / q ** 3
        assert abs(lerch_phi(LerchParams(z, -1.0, v), policy) - first) <= 1e-12 * abs(first)
        assert abs(lerch_phi(LerchParams(z, -2.0, v), policy) - second) <= 1e-12 * abs(second)
    assert tail_outcomes == [True] * 40


def _neg_polylog(k, z):
    """Li_{-k}(z) = sum_{m>=0} m^k z^m from the route's Eulerian rows."""
    return z * math.factorial(k) * _eulerian(k, z) / (1.0 - z) ** (k + 1)


def test_eulerian_rows_give_negative_order_polylogs():
    for z in (0.3 + 0.4j, -0.9, cmath.rect(0.995, 2.0), cmath.exp(1j)):
        q = 1.0 - z
        assert _neg_polylog(1, z) == pytest.approx(z / q ** 2, rel=1e-14)
        assert _neg_polylog(2, z) == pytest.approx(z * (1.0 + z) / q ** 3, rel=1e-14)
    # sum_{m<200} m^k z^m in exact rational arithmetic at |z| = 1/2 (the
    # float sum loses up to 6 digits to cancellation); the omitted tail is < 1e-36
    half = Fraction(1, 2)
    for zr, zi in ((half, 0), (-half, 0), (0, half), (Fraction(3, 10), Fraction(2, 5))):
        z = complex(zr, zi)
        for k in range(1, 11):
            wr, wi, sr, si = 1, 0, 0, 0  # z^m and the partial sum
            for m in range(1, 200):
                wr, wi = wr * zr - wi * zi, wr * zi + wi * zr
                sr += m ** k * wr
                si += m ** k * wi
            direct = complex(sr, si)
            assert abs(_neg_polylog(k, z) - direct) <= 1e-13 * abs(direct)


# Phi(Z_ZERO, S_ZERO, 1) = 0 at |z| = 0.99, arg z = pi/3 (an mpmath root;
# |Phi| = 4.3e-17 there at 40 digits)
Z_ZERO = cmath.rect(0.99, PI / 3.0)
S_ZERO = -1.3385341220297973 - 1.1756443341029417j


def test_tail_route_falls_back_to_series_at_a_zero(policy, tail_outcomes):
    # Phi(Z_ZERO, S_ZERO, 1) vanishes: at the first block end the running sum
    # is about |z^N Phi(z, s, w)|, so the predicted tail is too short, no
    # term gets under rel_tol * |Phi| before they stop shrinking, and the
    # tail gives up, adding nothing; the series goes on and hands over one
    # block later, where the terms shrink faster
    meter = CancellationMeter()
    value = lerch_phi(LerchParams(Z_ZERO, S_ZERO, 1.0), policy, meter)
    assert tail_outcomes == [False, True]
    assert abs(value) <= 1e-12 * meter.peak


def test_phi_and_polylog_values_do_not_depend_on_the_meter(policy, tail_outcomes):
    # without a meter they sum into a CompensatedSum, with one into a
    # CancellationMeter; the two give the same value bit for bit at series
    # points, points that hand over and the point where the tail gives up
    rng = seeded(20240605)
    series, routed = [], []
    while len(series) < 10 or len(routed) < 10:
        z = cmath.rect(rng.uniform(0.3, 0.99), rng.uniform(-PI, PI))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        _, handed = _hands_over(tail_outcomes, lerch_phi, LerchParams(z, s, v), policy)
        (routed if handed else series).append((z, s, v))
    for z, s, v in series[:10] + routed[:10] + [(Z_ZERO, S_ZERO, 1.0)]:
        params = LerchParams(z, s, v)
        assert lerch_phi(params, policy) == lerch_phi(params, policy, CancellationMeter())
        assert polylog(s, z, policy) == polylog(s, z, policy, CancellationMeter())


def test_meterless_functions_build_no_cancellation_meter(policy, monkeypatch, tail_outcomes):
    built = []

    class Counted(CancellationMeter):
        __slots__ = ()

        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(functions, "CancellationMeter", Counted)
    hurwitz_zeta(2.5 + 1.0j, 0.7 - 0.2j, policy)
    hurwitz_zeta(-1.5 + 0.5j, -2.3 + 0.1j, policy)
    stieltjes_gamma1(3.7 - 1.2j, policy)
    stieltjes_gamma1(-2.5 + 0.5j, policy)
    # a series point, a point that hands over and the point where the tail
    # gives up once
    points = [(0.4 + 0.3j, 1.5 - 0.5j), (cmath.rect(0.98, 2.0), 1.5 - 0.5j), (Z_ZERO, S_ZERO)]
    for z, s in points:
        lerch_phi(LerchParams(z, s, 1.0), policy)
        polylog(s, z, policy)
    assert tail_outcomes == [True, True, False, True, False, True]
    assert built == []
    lerch_phi(LerchParams(0.4 + 0.3j, 1.5, 1.3), policy, CancellationMeter())
    assert len(built) == 1  # the patch is live: a meter's caller gets one


# --------------------------------------------------------- lerch_phi_integral

def test_integral_exponential_case(policy):
    value = lerch_phi_integral(LerchParams(0.0, 1.0, 1.0), policy)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_integral_matches_series(policy):
    value = lerch_phi_integral(LerchParams(0.5, 2.0, 1.0), policy)
    assert abs(value - PHI_HALF_2_1) <= 1e-10


def test_integral_alternating_log2(policy):
    oracle = alternating_series_limit(lambda n: (-1.0) ** n / (n + 1.0))
    value = lerch_phi_integral(LerchParams(-1.0, 1.0, 1.0), policy)
    assert abs(value - LN2) <= 1e-10
    assert abs(oracle - LN2) <= 1e-6  # the averaging oracle itself
    assert abs(value - oracle) <= 2e-6


def test_integral_domain_errors(policy):
    with pytest.raises(DomainError):
        lerch_phi_integral(LerchParams(0.5, -1.0, 1.0), policy)
    with pytest.raises(DomainError):
        lerch_phi_integral(LerchParams(0.5, 1.0, -1.0), policy)
    with pytest.raises(DomainError):
        lerch_phi_integral(LerchParams(1.5, 1.0, 1.0), policy)


def test_integral_re_s_range(policy):
    # below Re(s) = 0.05 the route refuses: it has no accuracy table there,
    # and near z = 1 (no closed-form terms) its left cut grows like 1/Re(s)
    with pytest.raises(DomainError):
        lerch_phi_integral(LerchParams(0.5, 0.01, 1.0), policy)
    for z, s, v in ((0.5 + 0.3j, 0.05 + 0.4j, 1.3), (-0.8 + 0.3j, 0.05, 0.7),
                    (0.95j, 0.05 - 1.0j, 2.0 + 0.5j)):
        params = LerchParams(z, s, v)
        series = lerch_phi(params, policy)
        assert abs(lerch_phi_integral(params, policy) - series) <= 1e-9 * abs(series)


def test_series_integral_agreement_100_points(policy):
    rng = seeded(11)
    budget = lambda v: 10.0 * (policy.rel_tol * abs(v) + policy.abs_tol)
    for _ in range(100):
        s = random_complex(rng, (0.5, 3.0), (-1.5, 1.5))
        v = random_complex(rng, (0.5, 5.0), (-1.0, 1.0))
        radius = rng.uniform(0.0, 0.9)
        angle = rng.uniform(0.0, 2.0 * PI)
        z = radius * cmath.exp(1j * angle)
        if z.imag == 0.0 and z.real >= 1.0:
            continue
        series = lerch_phi(LerchParams(z, s, v), policy)
        integral = lerch_phi_integral(LerchParams(z, s, v), policy)
        assert abs(series - integral) <= budget(series)


def test_integral_at_z_zero_is_the_closed_part(policy):
    # at z = 0 the remainder integrand vanishes and only v^(-s) is left
    for s, v in ((0.3 + 2.0j, 1.7 - 0.4j), (2.5 - 1.0j, 0.2 + 0.9j), (6.0 + 5.0j, 4.0 + 2.5j)):
        value = lerch_phi_integral(LerchParams(0.0, s, v), policy)
        expected = principal_pow(v, -s)
        assert abs(value - expected) <= 1e-13 * abs(expected)


def _assert_integral_matches_series(params, policy):
    meter = CancellationMeter()
    series = lerch_phi(params, policy, meter)
    cond = max(1.0, meter.peak / abs(series))
    quad = lerch_phi_integral(params, policy)
    assert abs(series - quad) <= 1e-9 * cond * abs(series)


def test_integral_agrees_with_series_at_small_re_s(policy):
    # 30 points for each count of closed-form terms; z on the positive real
    # axis close to 1 is the case where the closed part would cancel
    rng = seeded(20240605)
    wanted = {0: 30, 2: 30}
    real_near_one = draws = 0
    while any(wanted.values()):
        draws += 1
        assert draws <= 1000, f"the draw never met the quotas left: {wanted}"
        if real_near_one < 6:
            z = complex(rng.uniform(0.9, 0.99))
            real_near_one += 1
        else:
            z = 1.0 - cmath.rect(math.exp(rng.uniform(math.log(0.01), math.log(2.0))),
                                 rng.uniform(-PI, PI))
            if abs(z) > 0.99:
                continue
        k = closed_kernel_terms(z)
        if not wanted[k]:
            continue
        wanted[k] -= 1
        s = random_complex(rng, (0.05, 0.3), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        _assert_integral_matches_series(LerchParams(z, s, v), policy)


def test_integral_takes_no_closed_terms_past_r_two(policy):
    # at 2 < |z/(1-z)| <= 6 two closed-form terms would leave 1.1e-12 to
    # 2.8e-12 here, against <= 7.3e-14 with none (30-digit lerchphi); the
    # series route is good to ~1e-15 at these points (cond ~ 1)
    for z, s, v in ((0.7326871933514697 - 0.14153226778319383j,
                     5.697892415268593 + 5.702387593637198j,
                     0.3039904766174303 + 2.383834550196564j),
                    (0.830217852984482 + 0.0394990979169091j,
                     6.889303742418369 - 3.213886463243825j,
                     2.666103983300658 + 2.714804329609617j),
                    (0.844064594170269 - 0.07167111839109652j,
                     6.800160703402529 - 1.7426064365448584j,
                     1.9038869563927558 + 2.465027607152396j),
                    (0.8497463913854586 - 0.015763163259372406j,
                     3.763465894811565 - 5.455343281851369j,
                     2.64934842939246 + 1.4684859927283025j),
                    (0.884158700121889 + 0.12186924215597948j,
                     6.579651786213643 - 4.089217942687572j,
                     2.955788248396365 + 2.2523500614207617j)):
        params = LerchParams(z, s, v)
        assert closed_kernel_terms(z) == 0
        meter = CancellationMeter()
        series = lerch_phi(params, policy, meter)
        cond = max(1.0, meter.peak / abs(series))
        assert abs(lerch_phi_integral(params, policy) - series) <= 4e-13 * cond * abs(series)


def test_integral_keeps_full_accuracy_next_to_z_one():
    # Phi(z, 1, 1) = -log(1-z)/z and Phi(z, 1, 2) = (Phi(z, 1, 1) - 1)/z.  Two
    # closed-form terms at z = 0.999 would cancel to ~2e-11 here (|r| = 999)
    tight = PrecisionPolicy(rel_tol=1e-13)
    for z in (0.999, cmath.rect(0.999, -0.01), 0.99, 0.9, -0.9, 0.3 + 0.4j):
        first = -cmath.log(1.0 - z) / z
        for v, exact in ((1.0, first), (2.0, (first - 1.0) / z)):
            value = lerch_phi_integral(LerchParams(z, 1.0, v), tight)
            assert abs(value - exact) <= 1e-13 * abs(exact)


class _NodeCounter:
    """Stands in for lerchsum.functions.cmath.  The integral takes one
    cmath.exp per node and one per call, for Gamma(s)'s phase, so `nodes`
    counts the integral's nodes once `reset` has set it to -1."""

    def __init__(self):
        self.nodes = -1

    def reset(self):
        self.nodes = -1

    def __getattr__(self, name):
        return getattr(cmath, name)

    def exp(self, x):
        self.nodes += 1
        return cmath.exp(x)


def test_integral_stops_by_an_eighth_step(policy, monkeypatch):
    # these points need 57-113 nodes on the double-exponential map (129-293
    # with t = e^u, 355-1523 with the plain kernel, its left cut at Re(s) and
    # a stop no earlier than h = 1/16)
    counter = _NodeCounter()
    monkeypatch.setattr("lerchsum.functions.cmath", counter)
    for z, s, v in ((0.5 + 0.3j, 1.5 + 0.5j, 1.2), (-0.7 + 0.2j, 2.5 - 1.0j, 0.6 + 0.3j),
                    (0.6 - 0.2j, 0.8 + 2.0j, 3.0), (0.95, 1.5, 0.7), (0.1j, 0.5 + 1.0j, 2.0),
                    (0.2, 3.0, 0.5)):
        counter.reset()
        lerch_phi_integral(LerchParams(z, s, v), policy)
        assert counter.nodes <= 128


def test_integral_needs_few_nodes_at_small_re_s_next_to_z_one(policy, monkeypatch):
    # no closed-form terms (K = 0) and Re s near its 0.05 floor: with t = e^u
    # the left cut grew like 1/Re(s), and these points took 7,269 and 6,029
    # nodes; the double-exponential map's left cut grows like ln(1/Re(s))
    points = ((0.99, 0.05 + 0.3j, 1.0, 800), (0.95, 0.06, 2.0, 100))
    tight = PrecisionPolicy(rel_tol=1e-15)
    series = [lerch_phi(LerchParams(z, s, v), tight) for z, s, v, _ in points]
    counter = _NodeCounter()
    monkeypatch.setattr("lerchsum.functions.cmath", counter)
    for (z, s, v, bound), want in zip(points, series):
        assert closed_kernel_terms(z) == 0
        counter.reset()
        value = lerch_phi_integral(LerchParams(z, s, v), policy)
        assert counter.nodes <= bound
        assert abs(value - want) <= 1e-12 * abs(want)


def test_integral_on_the_cut_plane_meets_the_recurrence(policy):
    # past the unit circle, off [1, inf), where no series route reaches:
    # Phi(z, s, v) = v^(-s) + z Phi(z, s, v + 1), each side from the integral
    rng = seeded(20240624)
    for _ in range(40):
        z = cmath.rect(3.0 - 2.0 * rng.random(), rng.choice((-1.0, 1.0)) * rng.uniform(0.05, PI))
        s = random_complex(rng, (0.05, 4.0), (-2.0, 2.0))
        v = random_complex(rng, (0.2, 3.0), (-1.0, 1.0))
        value = lerch_phi_integral(LerchParams(z, s, v), policy)
        shifted = principal_pow(v, -s) + z * lerch_phi_integral(LerchParams(z, s, v + 1.0), policy)
        assert abs(value - shifted) <= 1e-10 * max(abs(value), abs(shifted))


def test_integral_refuses_below_its_rounding_floor(policy):
    # |Gamma(s)| ~ e^(-pi |Im s|/2) is tiny at |Im s| = 9.2, so the trapezoid
    # sum cancels by ~3e7 (h sum |f| against |Gamma(s) Phi|) and rounding
    # alone leaves ~7e-9; two noisy sums that happen to agree certify nothing
    params = LerchParams(-0.33951517531886893 - 0.2740987094885808j,
                         4.4031711155306805 + 9.242429370866382j,
                         1.0285683455778425 - 2.18331497791406j)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        lerch_phi_integral(params, policy)
    # a looser tolerance sits above the floor, and the value is then good to it
    loose = PrecisionPolicy(rel_tol=1e-6)
    series = lerch_phi(params, policy)
    assert abs(lerch_phi_integral(params, loose) - series) <= 1e-6 * abs(series)


def test_integral_gives_up_while_its_rounding_floor_stays_high(policy, monkeypatch):
    # at |Im s| = 8.7 the sums never certify rel_tol; raising only after all
    # 14 halvings took 704,513 nodes (about 1 s).  The floor is above the
    # tolerance at the first two levels, so the route raises by h = 1/8
    counter = _NodeCounter()
    monkeypatch.setattr("lerchsum.functions.cmath", counter)
    params = LerchParams(0.9506 + 0.2528j, 3.121 + 8.678j, 0.596 - 0.865j)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        lerch_phi_integral(params, policy)
    assert counter.nodes <= 128


def test_integral_at_huge_v_returns_the_series_value(policy):
    # the right cut at Re v t = 45-odd fell below the left cut (an empty first
    # mesh and an IndexError); the map's scale 1/Re v keeps both cuts apart.
    # |Phi| is far below abs_tol, so the series is asked for rel_tol itself
    params = LerchParams(0.5, 2.0, 1e10)
    series = lerch_phi(params, PrecisionPolicy(rel_tol=1e-15, abs_tol=1e-300))
    assert abs(lerch_phi_integral(params, policy) - series) <= 1e-12 * abs(series)
    assert abs(series - 2e-20) <= 1e-9 * 2e-20


def test_integral_divides_by_gamma_s_in_its_exponent(policy):
    # Gamma(171) and Gamma(171) * closed part overflowed to nan, Gamma(172)
    # raised OverflowError; Phi(0.5, s, 1) = 1 + 2^-s + ... is 1 in double
    for s in (171.0, 172.0, 400.0):
        value = lerch_phi_integral(LerchParams(0.5, s, 1.0), policy)
        assert abs(value - 1.0) <= 1e-12
    # 1/|Gamma(1 + 500i)| is out of range: a library error, not a traceback
    with pytest.raises(ConvergenceError):
        lerch_phi_integral(LerchParams(0.5, 1.0 + 500j, 1.0), policy)


def test_series_bound_survives_large_re_s(policy):
    # (1 + d*/|v+N|)^|Re s| overflowed from Re s ~ 275 at |z| = 0.5; the bound
    # is taken in logs.  Phi(0.5, s, 1) = 1 + 2^-s + ... and
    # Phi(-0.9 + 0.1i, s, 1.5) = 1.5^-s (1 + O((3/5)^s)) in double
    for s in (275.0, 300.0, 700.0, 300.0 + 3.0j):
        assert lerch_phi(LerchParams(0.5, s, 1.0), policy) == pytest.approx(1.0, abs=1e-15)
        assert polylog(s, 0.5, policy) == pytest.approx(0.5, abs=1e-15)
        value = lerch_phi(LerchParams(-0.9 + 0.1j, s, 1.5), policy)
        assert abs(value - principal_pow(1.5, -s)) <= 1e-12 * abs(value)


def test_series_bound_survives_large_im_s(policy):
    # C_s = exp(|Im s| pi/2 + ...) overflowed from |Im s| ~ 451; the stop test
    # is taken in logs
    for params in (LerchParams(0.5, 2.0 + 460j, 1.0),
                   LerchParams(-0.6 + 0.2j, -1.5 - 480j, 0.7 + 0.3j)):
        ref = phi_series_bruteforce(params, 400).value
        assert abs(lerch_phi(params, policy) - ref) <= 1e-13 * abs(ref)
    assert cmath.isfinite(polylog(2.0 + 500j, 0.5, policy))


def test_polylog_checks_s_before_its_z_zero_shortcut(policy):
    with pytest.raises(DomainError):
        polylog(math.nan, 0.0, policy)
    assert polylog(2.0, 0.0, policy) == 0j


def test_integral_agrees_with_series_at_large_im_s(policy):
    rng = seeded(20240606)
    for _ in range(30):
        z = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-PI, PI))
        s = random_complex(rng, (0.05, 4.0), (-6.0, 6.0))
        v = random_complex(rng, (0.2, 5.0), (-1.0, 1.0))
        _assert_integral_matches_series(LerchParams(z, s, v), policy)


# --------------------------------------------------------------- hurwitz_zeta

def test_zeta_basel(policy):
    oracle = zeta2_direct_oracle()
    assert abs(oracle - PI * PI / 6.0) <= 1e-12
    assert abs(hurwitz_zeta(2.0, 1.0, policy) - oracle) <= 1e-11


def test_zeta_forward_recurrence(policy):
    z1 = hurwitz_zeta(2.0, 1.0, policy)
    z2 = hurwitz_zeta(2.0, 2.0, policy)
    assert z2 == pytest.approx(z1 - 1.0, rel=1e-12)


def test_zeta_at_zero(policy):
    oracle = zeta_at_zero_by_limit(0.25, policy)
    value = hurwitz_zeta(0.0, 0.25, policy)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert abs(oracle - 0.25) <= 1e-8


def test_zeta_pole_and_domain(policy):
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 2.0, policy)
    with pytest.raises(PoleError):
        hurwitz_zeta(2.0, 0.0, policy)
    with pytest.raises(PoleError):
        hurwitz_zeta(2.0, -4.0, policy)


def test_zeta_left_halfplane_shift(policy):
    # forward recurrence lifts Re(a) <= 0: zeta(s,a) = a^-s + zeta(s,a+1)
    a = complex(-1.5, 0.2)
    direct = hurwitz_zeta(5.0, a, policy)
    lifted = principal_pow(a, -5.0) + principal_pow(a + 1.0, -5.0) + hurwitz_zeta(5.0, a + 2.0, policy)
    assert direct == pytest.approx(lifted, rel=1e-12)


def test_zeta_is_phi_limit_trend(policy):
    # zeta(s,a) should be approached by Phi(1-eps, s, a) as eps shrinks
    rng = seeded(5)
    for _ in range(20):
        s = complex(rng.uniform(1.6, 3.5), rng.uniform(-1.0, 1.0))
        a = complex(rng.uniform(0.5, 3.0), 0.0)
        target = hurwitz_zeta(s, a, policy)
        errs = [abs(lerch_phi(LerchParams(1.0 - eps, s, a), policy) - target)
                for eps in (1e-2, 1e-3)]
        assert errs[1] < errs[0]


def _returned(call):
    """call(), or None where it raises ConvergenceError."""
    try:
        return call()
    except ConvergenceError:
        return None


def test_zeta_at_negative_integers_is_a_bernoulli_polynomial(policy):
    # zeta(-n, a) = -B_(n+1)(a)/(n+1), exact at the rational value of each
    # float a; a value is returned within rel_tol * max(1, |zeta|) or raises
    outcomes = Counter()
    for n in range(15):
        for a in (1 / 3, 0.5, 1.75, 2.5, 4.6, -7 / 3, -0.25 + 0j):
            exact = float(-_bernoulli_poly(n + 1, Fraction(a.real)) / (n + 1))
            value = _returned(lambda: hurwitz_zeta(-n, a, policy))
            outcomes[value is None] += 1
            if value is not None:
                assert abs(value - exact) <= policy.rel_tol * max(1.0, abs(exact)), (n, a)
    # all 105 return: at s = -n the sum with M > n/2 corrections is exact
    assert outcomes[False] >= 100
    # far left the corrections grow before they vanish and cancel among
    # themselves: each must count in the rounding check, or raise
    for n in (20, 31, 40, 50):
        exact = float(-_bernoulli_poly(n + 1, Fraction(2)) / (n + 1))
        value = _returned(lambda: hurwitz_zeta(-n, 2.0, policy))
        assert value is None or abs(value - exact) <= policy.rel_tol * max(1.0, abs(exact)), n


def test_zeta_left_halfplane_recurrence_and_duplication(policy):
    # zeta(s, a) = a^-s + zeta(s, a+1) and zeta(s, a) + zeta(s, a+1/2) =
    # 2^s zeta(s, 2a) at Re s in (-15, -1): each returned value is within
    # rel_tol * max(1, |zeta|), so each identity holds to the sum of those
    rng = seeded(43)
    checked = 0
    for _ in range(100):
        s = random_complex(rng, (-15.0, -1.0), (-20.0, 20.0))
        a = random_complex(rng, (0.1, 5.0), (-3.0, 3.0))
        values = [_returned(lambda: hurwitz_zeta(s, x, policy))
                  for x in (a, a + 1.0, a + 0.5, 2.0 * a)]
        if None in values:
            continue
        checked += 1
        z_a, z_a1, z_half, z_2a = values
        two_s = principal_pow(2.0, s)
        budget = [policy.rel_tol * max(1.0, abs(z)) for z in values]
        assert abs(z_a - principal_pow(a, -s) - z_a1) <= budget[0] + budget[1]
        assert abs(z_a + z_half - two_s * z_2a) <= budget[0] + budget[2] + abs(two_s) * budget[3]
    assert checked >= 30  # 52 of the 100 return all four; 143 of the 400 calls raise


def test_zeta_below_the_bernoulli_table_names_its_reach(policy):
    # below Re s = -59 no M of _ZETA_BERNOULLI has Re s + 2M > 1: no max_terms helps
    with pytest.raises(ConvergenceError, match=r"Re s > -59"):
        hurwitz_zeta(-80.0, 2.0, policy)
    try:  # just inside the reach the cut is found; the sum may still cancel
        hurwitz_zeta(-58.0 + 0.5j, 2.0, policy)
    except ConvergenceError as exc:
        assert "reach" not in str(exc)


def test_zeta_and_gamma1_at_huge_a(policy):
    # past |a| ~ 1.3e154, a * a overflows and (1e308+0j)**-2 is nan+nanj;
    # at s = 3 and a = 1e110, a**3 overflows and a**-3 turns 0.  The leading
    # Euler-Maclaurin terms carry the value: a^(1-s)/(s-1) + a^(-s)/2 for
    # zeta, -L^2/2 + L/(2a) with L = log a for gamma_1
    for s, a in ((2.0, 1e200), (2.0, 1e308), (3.0, 1e110)):
        expected = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
        assert abs(hurwitz_zeta(s, a, policy) - expected) <= 1e-12 * expected, (s, a)
    a = complex(1e300, 1e300)
    log_a = cmath.log(a)
    expected = -0.5 * log_a * log_a + log_a / (2.0 * a)
    assert abs(stieltjes_gamma1(a, policy) - expected) <= 1e-12 * abs(expected)


def test_zeta_kernel_order_one_is_minus_the_s_derivative(policy):
    # -d/ds zeta(s, a) off s = 1, against a central difference of hurwitz_zeta
    rng = seeded(47)
    for _ in range(20):
        s = random_complex(rng, (-3.0, 4.0), (-5.0, 5.0))
        a = random_complex(rng, (0.2, 4.0), (-2.0, 2.0))
        h = 1e-5
        slope = (hurwitz_zeta(s + h, a, policy) - hurwitz_zeta(s - h, a, policy)) / (2.0 * h)
        value = functions._zeta_kernel(s, a, 1, functions._zeta_rows(s, 1, "test"), policy,
                                       "test")
        assert abs(value + slope) <= 1e-7 * max(1.0, abs(slope))


# -------------------------------------------------------------------- polylog

def test_polylog_zero():
    assert polylog(3.7, 0.0) == 0


def test_polylog_closed_forms(policy):
    # Li_{-1}(z) = z/(1-z)^2, via direct summation oracle
    direct = sum((n + 1) * 0.5 ** (n + 1) for n in range(200))
    assert abs(direct - 2.0) < 1e-12
    assert polylog(-1.0, 0.5, policy) == pytest.approx(2.0, rel=2.0 * policy.rel_tol)
    assert polylog(1.0, 0.5, policy) == pytest.approx(LN2, rel=2.0 * policy.rel_tol)


def test_polylog_is_z_times_phi(policy):
    for z, s in ((0.3 + 0.4j, 2.0), (-0.7, -1.5 + 1j), (0.5j, 0.0)):
        assert polylog(s, z, policy) == z * lerch_phi(LerchParams(z, s, 1.0), policy)


def test_polylog_domain(policy):
    with pytest.raises(DomainError):
        polylog(2.0, 1.2, policy)


# ------------------------------------------------------------------ log_gamma

def test_log_gamma_basics():
    assert log_gamma(1.0) == 0
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(PI)), rel=1e-14)


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_raises_past_the_double_range():
    # overflow is an error, never an inf result, on both the real and complex paths
    for z in (3e305, 1e308, 1e306 - 1e306j):
        with pytest.raises(OverflowError):
            log_gamma(z)
    assert log_gamma(2e305) == complex(1.4039632010874876e+308, 0.0)


def test_log_gamma_matches_product_oracle():
    z = 4 + 3j
    oracle = gamma_product_oracle(z)
    assert abs(cmath.exp(log_gamma(z)) - oracle) <= 1e-13 * abs(oracle)
    # the continuous branch can leave the principal strip
    assert log_gamma(z).imag > PI


def test_log_gamma_recurrence_200_points():
    rng = seeded(77)
    for _ in range(200):
        z = random_complex(rng, (0.05, 20.0), (-10.0, 10.0))
        delta = log_gamma(z + 1.0) - log_gamma(z) - principal_log(z)
        scale = max(abs(log_gamma(z)), 1.0)
        assert abs(delta) <= 1e-12 * scale


def _log_gamma_bit_points():
    """About 12,000 seeded points over every branch of log_gamma's shift."""
    rng = seeded(20240610)
    below_10 = math.nextafter(10.0, 0.0)
    points = [complex(rng.uniform(-30.0, 15.0), rng.uniform(-20.0, 20.0)) for _ in range(3000)]
    points += [complex(rng.uniform(-30.0, 15.0),
                       rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 0))
               for _ in range(1000)]  # tiny imaginary parts
    points += [complex(rng.uniform(0.0, 15.0), 0.0) for _ in range(2000)]
    points += [complex(10.0 ** rng.uniform(-300, 1), 0.0) for _ in range(500)]
    points += [complex(rng.uniform(-30.0, 0.0), 0.0) for _ in range(2000)]
    for _ in range(1500):  # signed zero imaginary parts on both half-axes
        x = rng.uniform(-30.0, 15.0)
        points += [complex(x, 0.0), complex(x, -0.0)]
    for im in (0.0, -0.0, 1e-300, -2.5, 3.0):  # Re z at and just below 10
        points += [complex(re, im) for re in (10.0, below_10, 10.0 - 1e-9, 9.0, -below_10)]
        points += [complex(rng.uniform(9.0, 10.0), im) for _ in range(100)]
    return points


NON_FINITE = (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
              complex(0.0, math.nan), complex(-2.5, math.inf))


def test_log_gamma_shift_bit_identical_to_principal_log_steps():
    points = _log_gamma_bit_points()
    assert len(points) >= 10_000
    for z in points:
        try:
            expected = log_gamma_by_steps(z)
        except PoleError:  # negative-integer draws
            with pytest.raises(PoleError):
                log_gamma(z)
            continue
        value = log_gamma(z)
        assert (repr(value.real), repr(value.imag)) == \
            (repr(expected.real), repr(expected.imag)), z
    for z in NON_FINITE:
        with pytest.raises(DomainError):
            log_gamma_by_steps(z)
        with pytest.raises(DomainError):
            log_gamma(z)


def test_digamma_bit_identical_to_complex_steps():
    # the float kernel on the positive real axis must give the complex steps' value
    for z in _log_gamma_bit_points():
        try:
            expected = digamma_by_steps(z)
        except PoleError:  # negative-integer draws
            with pytest.raises(PoleError):
                digamma(z)
            continue
        value = digamma(z)
        assert (repr(value.real), repr(value.imag)) == \
            (repr(expected.real), repr(expected.imag)), z
    for z in NON_FINITE:
        with pytest.raises(DomainError):
            digamma_by_steps(z)
        with pytest.raises(DomainError):
            digamma(z)


def test_real_kernels_read_the_live_bernoulli_tables(monkeypatch):
    # bench/selftest.py perturbs these tables; the real-axis path must see it
    before = (log_gamma(3.5), digamma(3.5))
    for name in ("_LOGGAMMA_BERNOULLI", "_DIGAMMA_BERNOULLI"):
        table = getattr(functions, name)
        monkeypatch.setattr(functions, name, (table[0] * (1.0 + 1e-6), *table[1:]))
    assert log_gamma(3.5) != before[0]
    assert digamma(3.5) != before[1]

@pytest.mark.parametrize("call", [
    lambda w, policy: log_gamma(w),
    lambda w, policy: digamma(w),
    lambda w, policy: harmonic(w),
    lambda w, policy: stieltjes_gamma1(w, policy),
    lambda w, policy: hurwitz_zeta(w, 1.5, policy),
    lambda w, policy: hurwitz_zeta(2.0, w, policy),
    lambda w, policy: polylog(w, 0.5, policy),
    lambda w, policy: polylog(2.0, w, policy),
    lambda w, policy: lerch_phi(LerchParams(w, 2.0, 1.0), policy),
    lambda w, policy: lerch_phi(LerchParams(0.5, w, 1.0), policy),
    lambda w, policy: lerch_phi(LerchParams(0.5, 2.0, w), policy),
    lambda w, policy: lerch_phi_integral(LerchParams(w, 2.0, 1.0), policy),
    lambda w, policy: lerch_phi_integral(LerchParams(0.5, w, 1.0), policy),
    lambda w, policy: lerch_phi_integral(LerchParams(0.5, 2.0, w), policy),
], ids=["log_gamma", "digamma", "harmonic", "stieltjes_gamma1", "zeta_s", "zeta_a",
        "polylog_s", "polylog_z", "phi_z", "phi_s", "phi_v", "integral_z", "integral_s",
        "integral_v"])
@pytest.mark.parametrize("w", NON_FINITE, ids=repr)
def test_non_finite_arguments_raise_domain_error(call, w, policy):
    with pytest.raises(DomainError):
        call(w, policy)


# -------------------------------------------------------------------- digamma

def test_digamma_at_one_matches_derivative_oracle(policy):
    oracle = richardson_derivative(log_gamma, 1.0)
    value = digamma(1.0)
    assert abs(value - oracle.value) <= max(1e-9, oracle.error)
    assert value == pytest.approx(-EULER_GAMMA, abs=1e-13)


def test_digamma_recurrence_shift():
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)


def test_digamma_duplication_oracle():
    # psi(2z) = psi(z)/2 + psi(z + 1/2)/2 + ln 2, solved at z = 1/2
    value = digamma(0.5)
    dup = 2.0 * (digamma(1.0) - LN2) - digamma(1.0)
    assert value == pytest.approx(dup, abs=1e-12)
    assert value == pytest.approx(-EULER_GAMMA - 2.0 * LN2, abs=1e-12)


def test_digamma_poles():
    with pytest.raises(PoleError):
        digamma(0.0)
    with pytest.raises(PoleError):
        digamma(-2.0)


def test_recurrence_lift_guard():
    # far-left non-integer arguments would need ~1e15 recurrence steps;
    # refuse instead of hanging
    for fn in (log_gamma, digamma):
        with pytest.raises(DomainError):
            fn(-1e15 + 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -1e15 + 0.5)


def test_digamma_is_loggamma_derivative_100_points(policy):
    rng = seeded(13)
    for _ in range(100):
        z = random_complex(rng, (0.5, 12.0), (-4.0, 4.0))
        est = richardson_derivative(log_gamma, z)
        assert abs(digamma(z) - est.value) <= 1e-8


# ------------------------------------------------------------------- harmonic

def test_harmonic_small_integers():
    assert abs(harmonic(0.0)) <= 1e-14
    assert harmonic(1.0) == pytest.approx(1.0, abs=1e-13)
    assert harmonic(4.0) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25, abs=1e-13)


def test_harmonic_half_integer_oracle():
    oracle = (2.0 - 2.0 * LN2) + 1.0 / 1.5 + 1.0 / 2.5 + 1.0 / 3.5
    assert harmonic(3.5) == pytest.approx(oracle, abs=1e-12)


def test_harmonic_pole():
    with pytest.raises(PoleError):
        harmonic(-1.0)


# ------------------------------------------------------------ stieltjes gamma1

GAMMA1_AT_ONE = -0.07281584548367672486


def test_gamma1_at_one(policy):
    oracle = stieltjes1_fd_oracle(1.0, policy)
    value = stieltjes_gamma1(1.0, policy)
    assert abs(value - oracle) <= 1e-9
    assert abs(value - GAMMA1_AT_ONE) <= 1e-13


def test_gamma1_recurrence_at_two(policy):
    # gamma_1(a+1) = gamma_1(a) - ln(a)/a, and ln(1) = 0
    assert abs(stieltjes_gamma1(2.0, policy) - GAMMA1_AT_ONE) <= 1e-13


def test_gamma1_half_cross_check(policy):
    value = stieltjes_gamma1(0.5, policy)
    cross = GAMMA1_AT_ONE - 2.0 * EULER_GAMMA * LN2 - LN2 * LN2
    assert abs(value - cross) <= 1e-13
    assert abs(value - stieltjes1_fd_oracle(0.5, policy)) <= 1e-9


def test_gamma1_pole(policy):
    with pytest.raises(PoleError):
        stieltjes_gamma1(0.0, policy)


def test_gamma1_recurrence_200_points(policy):
    # gamma_1(a) - gamma_1(a+1) = log(a)/a with the principal log, also for
    # Re a < 0, where the Euler-Maclaurin head runs through a itself
    rng = seeded(29)
    left = 0
    for _ in range(200):
        a = random_complex(rng, (-6.0, 8.0), (-3.0, 3.0))
        left += a.real < 0
        value = stieltjes_gamma1(a, policy)
        delta = value - stieltjes_gamma1(a + 1.0, policy) - principal_log(a) / a
        assert abs(delta) <= 1e-13 * max(1.0, abs(value))
    assert left >= 50


def test_gamma1_duplication_100_points(policy):
    # the (s-1) coefficient of zeta(s, a) + zeta(s, a+1/2) = 2^s zeta(s, 2a):
    # gamma_1(a) + gamma_1(a+1/2) = 2 gamma_1(2a) + 2 ln 2 psi(2a) - ln^2 2;
    # a, a+1/2 and 2a end their heads at different w
    rng = seeded(31)
    for _ in range(100):
        a = random_complex(rng, (0.3, 8.0), (-3.0, 3.0))
        lhs = stieltjes_gamma1(a, policy) + stieltjes_gamma1(a + 0.5, policy)
        rhs = (2.0 * stieltjes_gamma1(2.0 * a, policy) + 2.0 * LN2 * digamma(2.0 * a)
               - LN2 * LN2)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_gamma1_matches_difference_oracle_at_complex_a(policy):
    rng = seeded(37)
    for _ in range(30):
        a = random_complex(rng, (0.5, 6.0), (-2.0, 2.0))
        assert abs(stieltjes_gamma1(a, policy) - stieltjes1_fd_oracle(a, policy)) <= 1e-9


def _bernoulli(count):
    """B_0..B_count as exact rationals (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_gamma1_constants_are_exact_rationals():
    # B_2k/(2k)! (all of _ZETA_BERNOULLI), B_2j/(2j) (digamma) and
    # B_2j/(2j(2j-1)) (log-gamma), j = 1..7, each rounded once from exact
    # rationals
    b = _bernoulli(2 * len(functions._ZETA_BERNOULLI))
    for k, coeff in enumerate(functions._ZETA_BERNOULLI, start=1):
        assert coeff == float(b[2 * k] / math.factorial(2 * k))
    assert len(functions._DIGAMMA_BERNOULLI) == len(functions._LOGGAMMA_BERNOULLI) == 7
    for j in range(1, 8):
        assert functions._DIGAMMA_BERNOULLI[j - 1] == float(b[2 * j] / (2 * j))
        assert functions._LOGGAMMA_BERNOULLI[j - 1] == float(b[2 * j] / (2 * j * (2 * j - 1)))


def _euler_maclaurin(s, a, order, n, m):
    """The Euler-Maclaurin sum of zeta(s, a) (order 0) or gamma_1(a) (order 1,
    s = 1) cut at w = a + n after m corrections, transcribed with exact
    Bernoulli numbers and harmonic numbers."""
    b = _bernoulli(2 * m)
    w = a + n
    log_w = principal_log(w)
    if order == 0:
        total = sum(principal_pow(a + k, -s) for k in range(n))
        total += principal_pow(w, 1.0 - s) / (s - 1.0) + 0.5 * principal_pow(w, -s)
        for k in range(1, m + 1):
            rise = math.prod(s + i for i in range(2 * k - 1))
            total += float(b[2 * k] / math.factorial(2 * k)) * rise * principal_pow(w, 1.0 - s - 2 * k)
        return total
    total = sum(principal_log(a + k) / (a + k) for k in range(n))
    total += -0.5 * log_w * log_w + 0.5 * log_w / w
    for k in range(1, m + 1):
        harmonic_odd = float(sum(Fraction(1, i) for i in range(1, 2 * k)))
        total += float(b[2 * k] / (2 * k)) * (log_w - harmonic_odd) / w ** (2 * k)
    return total


def test_gamma1_remainder_bound_holds(policy):
    # _zeta_remainder_bound, shared by zeta and gamma_1, bounds the remainder
    # of the transcribed sum at small cuts, where it is far above rounding
    rng = seeded(41)
    for _ in range(40):
        a = random_complex(rng, (0.5, 3.0), (-2.0, 2.0))
        n, m = rng.randrange(3), rng.randrange(1, 5)
        for order, s in ((0, random_complex(rng, (-3.0, 3.0), (-5.0, 5.0))), (1, 1.0 + 0j)):
            if order == 0 and abs(s - 1.0) < 0.1:
                continue
            exact = stieltjes_gamma1(a, policy) if order else hurwitz_zeta(s, a, policy)
            rise = math.prod(s + i for i in range(2 * m))
            slope = rise * sum(1.0 / (s + i) for i in range(2 * m)) if order else 0.0
            scale = 4.0 / (2.0 * math.pi) ** (2 * m)
            edge = (scale * abs(rise), scale * abs(slope))
            bound, decay = functions._zeta_remainder_bound(s, order, m, a + n, edge)
            gap = abs(_euler_maclaurin(s, a, order, n, m) - exact)
            assert gap <= bound + 1e-12 * max(1.0, abs(exact)), (s, a, order, n, m)
            # the cut's one step: right of w, the bound falls at least like Re w^-decay
            for k in (1, 2, 5, 20):
                later = functions._zeta_remainder_bound(s, order, m, a + n + k, edge)[0]
                assert later <= bound * ((a.real + n + k) / (a.real + n)) ** -decay * (1 + 1e-12)
    # the same fall off the real axis and at order 1 off s = 1, where e^(Im s arg w) moves
    for _ in range(40):
        s = random_complex(rng, (-3.0, 4.0), (-8.0, 8.0))
        a = random_complex(rng, (2.0, 5.0), (-4.0, 4.0))
        m = rng.randrange(2, 10)
        rise = math.prod(s + i for i in range(2 * m))
        scale = 4.0 / (2.0 * math.pi) ** (2 * m)
        for order in (0, 1):
            slope = rise * sum(1.0 / (s + i) for i in range(2 * m)) if order else 0.0
            edge = (scale * abs(rise), scale * abs(slope))
            bound, decay = functions._zeta_remainder_bound(s, order, m, a, edge)
            for k in (1, 3, 10):
                later = functions._zeta_remainder_bound(s, order, m, a + k, edge)[0]
                assert later <= bound * ((a.real + k) / a.real) ** -decay * (1 + 1e-12)
    # a loose rel_tol ends the head at a small |w|; the result must still be
    # within the bound's target of the default-policy value, also far off the
    # real axis, where e^(Im s arg w) and cos(arg w / 2) in the bound set N
    for rel_tol in (1e-2, 1e-4, 1e-6):
        loose = PrecisionPolicy(rel_tol=rel_tol)
        for _ in range(20):
            sign = rng.choice((-1.0, 1.0))
            near = (random_complex(rng, (0.2, 4.0), (-2.0, 2.0)),
                    random_complex(rng, (-3.0, 3.0), (-5.0, 5.0)))
            far = (complex(rng.uniform(0.05, 1.0), sign * rng.uniform(3.0, 8.0)),
                   complex(rng.uniform(-1.0, 3.0), sign * rng.uniform(5.0, 15.0)))
            for a, s in (near, far):
                for f, args in ((stieltjes_gamma1, (a,)), (hurwitz_zeta, (s, a))):
                    exact = f(*args)
                    gap = abs(f(*args, loose) - exact)
                    assert gap <= 1e-2 * rel_tol


def test_zeta_cut_meets_the_bound(policy, monkeypatch):
    # the one-step cut N leaves the bound at a + N under _ZETA_MARGIN * rel_tol
    heads = []
    real = functions.compensated_sum
    monkeypatch.setattr(functions, "compensated_sum",
                        lambda terms: heads.append(len(terms) - 2) or real(terms))
    target = functions._ZETA_MARGIN * policy.rel_tol
    rng = seeded(53)
    for _ in range(40):
        s = random_complex(rng, (-3.0, 4.0), (-8.0, 8.0))
        a = random_complex(rng, (0.1, 4.0), (-3.0, 3.0))
        for order, t, call in ((0, s, lambda: hurwitz_zeta(s, a, policy)),
                               (1, 1.0, lambda: stieltjes_gamma1(a, policy))):
            call()
            rises, _, edge = functions._zeta_rows(t, order, "test")
            bound = functions._zeta_remainder_bound(t, order, len(rises), a + heads[-1], edge)[0]
            assert bound <= target


def test_gamma1_term_budget():
    with pytest.raises(ConvergenceError):
        stieltjes_gamma1(1.0, PrecisionPolicy(max_terms=3))
    with pytest.raises(ConvergenceError):
        stieltjes_gamma1(-50.5 + 0.25j, PrecisionPolicy(max_terms=40))
    assert stieltjes_gamma1(100.0, PrecisionPolicy(max_terms=1)) != 0


def test_gamma1_makes_no_zeta_call(policy, monkeypatch):
    calls = []
    real = functions.hurwitz_zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(functions, "hurwitz_zeta", counted)
    for a in (1.0, 0.5, 3.7 - 1.2j, -2.5 + 0.5j, 400.25):
        stieltjes_gamma1(a, policy)
    assert calls == []
