import cmath
import math
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
from lerchsum.functions import _eulerian, _tail_plan, closed_kernel_terms
from lerchsum.numerics import CancellationMeter
from lerchsum.oracle import phi_series_bruteforce
from helpers import (
    alternating_series_limit,
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
    for z in (0.5, 0.99j):  # the series route and the head-plus-tail route
        with pytest.raises(DomainError):
            lerch_phi(LerchParams(z, 2.0, complex(1.0, math.inf)), policy)


def test_phi_on_circle_needs_large_s(policy):
    # on |z| = 1 the series' absolute tail decays like n^(1-Re s), so it would
    # need ~1e10 terms for 1e-10; the head-plus-tail route meets the default
    # policy in a few dozen
    value = lerch_phi(LerchParams(-1.0, 2.0, 1.0), policy)
    assert abs(value - PI * PI / 12.0) <= 2.0 * policy.rel_tol * PI * PI / 12.0
    loose = PrecisionPolicy(rel_tol=1e-5)
    value = lerch_phi(LerchParams(-1.0, 2.0, 1.0), loose)
    assert value == pytest.approx(PI * PI / 12.0, rel=1e-4)
    with pytest.raises(DomainError):
        lerch_phi(LerchParams(-1.0, 0.5, 1.0), policy)
    # near z = 1 the route needs a head of ~x/|1-z| terms: over 1000 here,
    # so the series runs and exhausts the budget
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(cmath.exp(0.01j), 2.0, 1.0), PrecisionPolicy(max_terms=1000))


def _bernoulli_poly(n, x):
    """B_n(x) in exact rational arithmetic, from B_m = -sum_{k<m} C(m+1, k) B_k/(m+1)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return sum(math.comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


def test_phi_series_priced_on_unit_circle(policy):
    # on |z| = 1 the series converges through (v+k)^(-s) alone; at large Re s
    # that takes a few dozen terms, so it beats a head of thousands
    theta = 0.01
    z = cmath.exp(1j * theta)
    x = Fraction(theta / (2.0 * PI))
    for n in (3, 6):
        s = complex(2 * n)
        assert _tail_plan(z, abs(z), s, 1.0 + 0j, policy) is None
        # Re Li_2n(e^(i theta)) = sum cos(k theta)/k^2n (DLMF 24.8.1)
        exact = ((-1) ** (n + 1) * (2.0 * PI) ** (2 * n)
                 * float(_bernoulli_poly(2 * n, x)) / (2.0 * math.factorial(2 * n)))
        value = (z * lerch_phi(LerchParams(z, s, 1.0), policy)).real
        assert abs(value - exact) <= 1e-10 * abs(exact)
    # the series' tail test carries a factor e^(|Im s| pi/2), so at s = 4+3i
    # the series costs more than the head-plus-tail route
    assert _tail_plan(z, abs(z), 4.0 + 3.0j, 1.0 + 0j, policy) is not None


def test_phi_max_terms_exhaustion():
    tight = PrecisionPolicy(max_terms=50)
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(0.999, 1.0, 1.0), tight)


def test_phi_series_keeps_principal_branch_at_negative_zero_imaginary_v(policy):
    # (v+n)^(-s) on the negative real axis takes arg(v+n) = +pi, also when the
    # imaginary part of v is -0.0 (cmath.log alone would take -pi there)
    s = 1.5 + 0.5j
    for z in (0.5, 0.3 - 0.4j, cmath.rect(0.98, 1.0)):  # the last is routed
        minus = lerch_phi(LerchParams(z, s, complex(-2.5, -0.0)), policy)
        plus = lerch_phi(LerchParams(z, s, complex(-2.5, 0.0)), policy)
        assert minus == plus
        ref = phi_series_bruteforce(LerchParams(z, s, complex(-2.5, -0.0)), 5000)
        assert abs(minus - ref.value) <= 1e-11 * abs(ref.value)


def test_phi_series_head_sums_exactly_head_terms(policy):
    # 77 is not a multiple of the block length
    z, s, v = 0.9 * cmath.exp(0.7j), -1.2 + 2.0j, complex(-2.5, -0.0)
    acc = CancellationMeter()
    zpow = functions._sum_series(acc, z, abs(z), s, v, policy, 77)
    ref = phi_series_bruteforce(LerchParams(z, s, v), 77).value
    assert abs(acc.value - ref) <= 1e-14 * acc.peak
    assert abs(zpow - z ** 77) <= 1e-14 * abs(z ** 77)


def test_phi_series_stops_at_max_terms_between_block_ends():
    # max_terms = 1000 is not a multiple of the block length; neither point
    # takes the head-plus-tail route
    budget = PrecisionPolicy(max_terms=1000)
    s, v = 1.5 + 0.5j, 1.3
    assert _tail_plan(0.999 + 0j, 0.999, s, complex(v), budget) is None
    with pytest.raises(ConvergenceError):
        lerch_phi(LerchParams(0.999, s, v), budget)
    # the series meets rel_tol at term 999 here, inside the last, short block
    assert _tail_plan(0.9829 + 0j, 0.9829, s, complex(v), budget) is None
    value = lerch_phi(LerchParams(0.9829, s, v), budget)
    ref = phi_series_bruteforce(LerchParams(0.9829, s, v), 1000).value
    assert abs(value - ref) <= 1e-13 * abs(ref)


def test_phi_recurrence_200_points(policy):
    rng = seeded(20240601)
    for _ in range(200):
        z = random_complex(rng, (-0.66, 0.66), (-0.66, 0.66))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.3, 4.0), (-1.0, 1.0))
        lhs = lerch_phi(LerchParams(z, s, v), policy)
        rhs = z * lerch_phi(LerchParams(z, s, v + 1.0), policy) + principal_pow(v, -s)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)


# ------------------------------------------- lerch_phi head-plus-tail route

def _bruteforce_reference(params):
    terms = 1024
    while True:
        ref = phi_series_bruteforce(params, terms)
        if ref.error_bound <= 1e-13 * abs(ref.value):
            return ref
        terms *= 2


def test_tail_route_agrees_with_bruteforce_300_points(policy):
    # the ranges and budget of test_bruteforce_agrees_with_fast_path_500_points,
    # moved out to 0.9 <= |z| <= 0.99, where the route is cheaper unless z is
    # close to 1
    rng = seeded(20240602)
    routed = 0
    for _ in range(300):
        z = cmath.rect(rng.uniform(0.9, 0.99), rng.uniform(-PI, PI))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        params = LerchParams(z, s, v)
        routed += _tail_plan(z, abs(z), s, v, policy) is not None
        fast = lerch_phi(params, policy)
        slow = _bruteforce_reference(params)
        budget = (slow.error_bound
                  + 10.0 * (policy.rel_tol * abs(fast) + policy.abs_tol))
        assert abs(fast - slow.value) <= budget
    assert routed >= 280


def test_tail_route_agrees_with_integral_near_rim(policy):
    rng = seeded(20240603)
    routed = 0
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.99, 0.9995), rng.uniform(-PI, PI))
        s = random_complex(rng, (0.05, 4.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        params = LerchParams(z, s, v)
        routed += _tail_plan(z, abs(z), s, v, policy) is not None
        value = lerch_phi(params, policy)
        quad = lerch_phi_integral(params, policy)
        assert abs(value - quad) <= 1e-9 * abs(quad)
    assert routed >= 95


def test_tail_route_closed_forms_at_nonpositive_integer_s(policy):
    # the expansion stops at k = -s: sum (v+n) z^n and sum (v+n)^2 z^n
    rng = seeded(20240604)
    for _ in range(20):
        z = cmath.rect(0.995, rng.uniform(-PI, PI))
        v = random_complex(rng, (0.2, 5.0), (-2.0, 2.0))
        q = 1.0 - z
        first = v / q + z / q ** 2
        second = v * v / q + 2.0 * v * z / q ** 2 + z * (1.0 + z) / q ** 3
        assert abs(lerch_phi(LerchParams(z, -1.0, v), policy) - first) <= 1e-12 * abs(first)
        assert abs(lerch_phi(LerchParams(z, -2.0, v), policy) - second) <= 1e-12 * abs(second)


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


# Phi(-0.99, S_ZERO, 1) = 0 (an mpmath root)
S_ZERO = -2.005907497338372


def test_tail_route_falls_back_to_series_at_a_zero(policy, monkeypatch):
    # Phi(-0.99, S_ZERO, 1) vanishes: no tail term gets under rel_tol * |Phi|,
    # so the route gives up and the series runs
    outcomes, add_tail = [], functions._add_tail

    def spy(*args):
        outcomes.append(add_tail(*args))
        return outcomes[-1]

    monkeypatch.setattr("lerchsum.functions._add_tail", spy)
    meter = CancellationMeter()
    value = lerch_phi(LerchParams(-0.99, S_ZERO, 1.0), policy, meter)
    assert outcomes == [False]
    assert abs(value) <= 1e-12 * meter.peak


def test_phi_and_polylog_values_do_not_depend_on_the_meter(policy):
    # without a meter they sum into a CompensatedSum, with one into a
    # CancellationMeter; the two give the same value bit for bit at series
    # points, routed points and the tail-fallback point
    rng = seeded(20240605)
    series, routed = [], []
    while len(series) < 10 or len(routed) < 10:
        z = cmath.rect(rng.uniform(0.3, 0.99), rng.uniform(-PI, PI))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.4, 5.0), (-1.0, 1.0))
        (series if _tail_plan(z, abs(z), s, v, policy) is None else routed).append((z, s, v))
    for z, s, v in series[:10] + routed[:10] + [(-0.99, S_ZERO, 1.0)]:
        params = LerchParams(z, s, v)
        assert lerch_phi(params, policy) == lerch_phi(params, policy, CancellationMeter())
        assert polylog(s, z, policy) == polylog(s, z, policy, CancellationMeter())


def test_meterless_functions_build_no_cancellation_meter(policy, monkeypatch):
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
    # a series point, a routed point and the tail-fallback point
    points = [(0.4 + 0.3j, 1.5 - 0.5j), (cmath.rect(0.98, 2.0), 1.5 - 0.5j), (-0.99, S_ZERO)]
    assert _tail_plan(points[1][0], 0.98, points[1][1], 1.0, policy) is not None
    for z, s in points:
        lerch_phi(LerchParams(z, s, 1.0), policy)
        polylog(s, z, policy)
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
    """Stands in for lerchsum.functions.math.  The integrand takes one
    math.exp per node, so `nodes` counts the integral's nodes."""

    def __init__(self):
        self.nodes = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.nodes += 1
        return math.exp(x)


def test_integral_stops_by_an_eighth_step(policy, monkeypatch):
    # these points need 129-293 nodes (the plain kernel with its left cut at
    # Re(s) and a stop no earlier than h = 1/16 needed 355-1523)
    counter = _NodeCounter()
    monkeypatch.setattr("lerchsum.functions.math", counter)
    for z, s, v in ((0.5 + 0.3j, 1.5 + 0.5j, 1.2), (-0.7 + 0.2j, 2.5 - 1.0j, 0.6 + 0.3j),
                    (0.6 - 0.2j, 0.8 + 2.0j, 3.0), (0.95, 1.5, 0.7), (0.1j, 0.5 + 1.0j, 2.0),
                    (0.2, 3.0, 0.5)):
        counter.nodes = 0
        lerch_phi_integral(LerchParams(z, s, v), policy)
        assert counter.nodes <= 300


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
    monkeypatch.setattr("lerchsum.functions.math", counter)
    params = LerchParams(0.9506 + 0.2528j, 3.121 + 8.678j, 0.596 - 0.865j)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        lerch_phi_integral(params, policy)
    assert counter.nodes <= 400


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
    # B_{2j}/(2j) and H_{2j-1}, j = 1..7, rounded once from exact rationals
    b = _bernoulli(14)
    for j in range(1, 8):
        assert functions._DIGAMMA_BERNOULLI[j - 1] == float(b[2 * j] / (2 * j))
        harmonic_odd = sum(Fraction(1, i) for i in range(1, 2 * j))
        assert functions._ODD_HARMONIC[j - 1] == float(harmonic_odd)


def test_gamma1_remainder_bound_holds():
    # a loose rel_tol ends the head at a small |w|; the result must still be
    # within the bound's target of the default-policy value
    rng = seeded(41)
    for rel_tol in (1e-2, 1e-4, 1e-6):
        loose = PrecisionPolicy(rel_tol=rel_tol)
        for _ in range(20):
            a = random_complex(rng, (0.2, 4.0), (-2.0, 2.0))
            gap = abs(stieltjes_gamma1(a, loose) - stieltjes_gamma1(a))
            assert gap <= 1e-2 * rel_tol


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
