import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerchsum import (
    DomainError,
    PrecisionPolicy,
    compensated_sum,
    principal_log,
    principal_pow,
)
from lerchsum.numerics import CancellationMeter, CompensatedSum, SumOverflowError
from helpers import EvaluationError, richardson_derivative

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------- principal_log

def test_log_of_unity_is_zero():
    assert principal_log(1.0) == 0


def test_log_branch_on_negative_axis_is_plus_pi():
    assert principal_log(-1.0) == complex(0.0, math.pi)
    assert principal_log(complex(-1.0, -0.0)) == complex(0.0, math.pi)


def test_log_of_2i():
    expected = complex(math.log(2.0), math.pi / 2.0)
    assert principal_log(2j) == pytest.approx(expected, rel=1e-15)


def test_log_rejects_zero_and_nonfinite():
    with pytest.raises(DomainError):
        principal_log(0)
    with pytest.raises(DomainError):
        principal_log(complex(math.inf, 0))


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-20, 20), v=st.floats(-math.pi + 1e-9, math.pi - 1e-9))
def test_log_inverts_exp_on_open_strip(u, v):
    w = complex(u, v)
    back = principal_log(cmath.exp(w))
    assert abs(back - w) <= 1e-12 * max(1.0, abs(w))


# ---------------------------------------------------------------- principal_pow

def test_pow_real_square_root():
    assert principal_pow(4.0, 0.5) == pytest.approx(2.0, rel=1e-15)


def test_pow_zero_exponent_is_one():
    for z in (1.0, -3.5, 2j, complex(-1, -1)):
        assert principal_pow(z, 0) == 1


def test_pow_i_to_the_i():
    assert principal_pow(1j, 1j) == pytest.approx(math.exp(-math.pi / 2), rel=1e-15)


def test_pow_at_zero_base():
    assert principal_pow(0, 2.5) == 0
    with pytest.raises(DomainError):
        principal_pow(0, 0)
    with pytest.raises(DomainError):
        principal_pow(0, complex(-1, 3))


@settings(max_examples=200, deadline=None)
@given(
    zr=st.floats(-5, 5), zi=st.floats(-5, 5),
    ar=st.floats(-3, 3), ai=st.floats(-3, 3),
    br=st.floats(-3, 3), bi=st.floats(-3, 3),
)
def test_pow_exponent_additivity_on_fixed_base(zr, zi, ar, ai, br, bi):
    z = complex(zr, zi)
    if abs(z) < 1e-3:
        return
    s1, s2 = complex(ar, ai), complex(br, bi)
    combined = principal_pow(z, s1 + s2)
    split = principal_pow(z, s1) * principal_pow(z, s2)
    assert abs(combined - split) <= 1e-10 * max(abs(combined), abs(split), 1e-12)


def test_pow_identity_exponent():
    for z in (2.0, -1.5 + 0.5j, 1e-8j):
        assert principal_pow(z, 1) == pytest.approx(z, rel=1e-15)


# ------------------------------------------------------------- compensated sum

def test_empty_sum_is_zero():
    assert compensated_sum([]) == 0


def test_cancellation_case():
    assert compensated_sum([1.0, -1.0, 1e-20]) == pytest.approx(1e-20, rel=1e-12)


def test_ten_thousand_tenths():
    exact = float(Fraction(1, 10) * 10**4)
    assert abs(compensated_sum([0.1] * 10**4) - exact) < 1e-9


def test_compensated_sum_takes_real_and_int_terms():
    total = compensated_sum([1, 2.5, -3, True])
    assert type(total) is complex and total == 1.5


def test_sum_overflow_raises():
    with pytest.raises(SumOverflowError):
        compensated_sum([1e308, 1e308, 1e308])


def test_permutation_insensitivity():
    rng = __import__("random").Random(42)
    terms = [complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
             for _ in range(1000)]
    reference = compensated_sum(terms)
    bound = 10.0 * 2.0 * EPS * sum(abs(t) for t in terms)
    for seed in (1, 2, 3, 4, 5):
        shuffled = terms[:]
        __import__("random").Random(seed).shuffle(shuffled)
        assert abs(compensated_sum(shuffled) - reference) <= bound


def test_meter_peak_tracks_partials():
    meter = CancellationMeter()
    meter.sum([1e6, -1e6, 1.0])
    assert meter.peak == 1e6
    assert meter.value == 1.0


def _block_sequences():
    """Seeded complex sequences with their block lengths; half cancel heavily."""
    rng = random.Random(20240601)
    for case in range(40):
        n = rng.randint(1, 300)
        terms = [complex(rng.uniform(-1, 1) * 10.0 ** rng.uniform(-8, 8),
                         rng.uniform(-1, 1) * 10.0 ** rng.uniform(-8, 8))
                 for _ in range(n)]
        if case % 2:
            # each large term comes back negated, so the sum is many orders
            # of magnitude below the peak
            terms += [-t * (1.0 + rng.uniform(-1e-12, 1e-12)) for t in terms]
            rng.shuffle(terms)
        yield terms, rng.randint(1, 64)


def _exact(parts):
    return sum(map(Fraction, parts), Fraction(0))


# Each add_block test runs over both accumulators: they keep the same running
# sums and compensation, so the same value bit for bit; only the meter keeps a
# peak.  (A loop rather than parametrize keeps the tests' names.)
ACCUMULATORS = (CancellationMeter, CompensatedSum)


def _state(acc):
    return (acc._sr, acc._si, acc._cr, acc._ci)


def test_add_block_matches_add_loop_exactly():
    for cls in ACCUMULATORS:
        for terms, size in _block_sequences():
            loop, block, meter = CancellationMeter(), cls(), CancellationMeter()
            for start in range(0, len(terms), size):
                chunk = terms[start:start + size]
                for t in chunk:
                    loop.add(t)
                re, im = [t.real for t in chunk], [t.imag for t in chunk]
                block.add_block(re, im)
                meter.add_block(re, im)
                assert (block._sr, block._si) == (loop._sr, loop._si)
                assert _state(block) == _state(meter)
                if cls is CancellationMeter:
                    assert block.peak == loop.peak
            assert block.value == meter.value


def test_add_block_is_no_less_accurate_than_add_loop():
    for cls in ACCUMULATORS:
        for terms, size in _block_sequences():
            loop, block = CancellationMeter(), cls()
            loop.sum(terms)
            for start in range(0, len(terms), size):
                chunk = terms[start:start + size]
                block.add_block([t.real for t in chunk], [t.imag for t in chunk])
            exact_re = _exact(t.real for t in terms)
            exact_im = _exact(t.imag for t in terms)
            assert abs(Fraction(block.value.real) - exact_re) <= abs(
                Fraction(loop.value.real) - exact_re)
            assert abs(Fraction(block.value.imag) - exact_im) <= abs(
                Fraction(loop.value.imag) - exact_im)


@pytest.mark.parametrize("re, im", [
    ([1.0, math.inf, -math.inf], [0.0, 0.0, 0.0]),
    ([1.0, 2.0], [math.nan, 0.0]),
    ([1e308, 1e308, -1e308], [0.0, 0.0, 0.0]),
])
def test_add_block_raises_on_non_finite_sums(re, im):
    for cls in ACCUMULATORS:
        acc = cls()
        acc.add_block([3.0], [-4.0])
        before = _state(acc)
        with pytest.raises(SumOverflowError):
            acc.add_block(re, im)
        assert _state(acc) == before
        if cls is CancellationMeter:
            assert acc.peak == 4.0
    # the same terms one add at a time: the failing add changes nothing
    meter = CancellationMeter()
    meter.add_block([3.0], [-4.0])
    with pytest.raises(SumOverflowError):
        for term in map(complex, re, im):
            before = _state(meter), meter.peak
            meter.add(term)
    assert (_state(meter), meter.peak) == before
    assert cmath.isfinite(meter.value)


def test_add_block_of_nothing_changes_nothing():
    for cls in ACCUMULATORS:
        acc = cls()
        acc.add_block([3.0], [-4.0])
        before = _state(acc)
        acc.add_block([], [])
        assert _state(acc) == before
        if cls is CancellationMeter:
            assert acc.peak == 4.0


def test_add_block_needs_matching_parts():
    for cls in ACCUMULATORS:
        with pytest.raises(DomainError):
            cls().add_block([1.0, 2.0], [0.0])


# ------------------------------------------------------- richardson derivative

def test_derivative_of_square():
    est = richardson_derivative(lambda z: z * z, 3.0)
    assert abs(est.value - 6.0) < 1e-9


def test_derivative_of_exp_at_zero():
    est = richardson_derivative(cmath.exp, 0.0)
    assert abs(est.value - 1.0) < 1e-9


def test_derivative_of_log_at_two():
    est = richardson_derivative(principal_log, 2.0)
    assert abs(est.value - 0.5) < 1e-9


def test_derivative_error_estimate_bounds_truth():
    rng = __import__("random").Random(7)
    cases = [
        (cmath.exp, cmath.exp),
        (cmath.sin, cmath.cos),
        (lambda z: 1.0 / (1.0 + z * z),
         lambda z: -2.0 * z / (1.0 + z * z) ** 2),
    ]
    for _ in range(100):
        f, fprime = cases[rng.randrange(3)]
        x0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(1.0 + x0 * x0) < 0.3:
            continue  # keep the rational case away from its poles
        est = richardson_derivative(f, x0)
        assert abs(est.value - fprime(x0)) <= est.error


def test_derivative_reports_evaluation_failure():
    def bad(z):
        raise ValueError("boom")

    with pytest.raises(EvaluationError):
        richardson_derivative(bad, 1.0)


# ------------------------------------------------------------------- policy

def test_policy_defaults():
    p = PrecisionPolicy()
    assert p.rel_tol == 1e-10 and p.abs_tol == 1e-12
    assert p.max_terms == 10**6


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0}, {"abs_tol": -1e-3}, {"max_terms": 0},
])
def test_policy_validation(kwargs):
    with pytest.raises(DomainError):
        PrecisionPolicy(**kwargs)
