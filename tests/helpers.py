"""Shared independent oracles used by both the unit tests and the acceptance
gate.  These deliberately avoid the code paths they certify."""

import cmath
import math
import random
from dataclasses import dataclass

from lerchsum import DomainError, PrecisionPolicy, hurwitz_zeta
from lerchsum.numerics import SumOverflowError

EULER_GAMMA_REF = 0.57721566490153286
LN2 = math.log(2.0)
HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Criterion 10 draws ID-14 at integer k in -2..3: k is declared as an
# inclusive integer range, the way every region declares n.
INTEGER_K_REGION = {"m": ((0.2, 2.5), (0.5, 2.0)), "k": (-2, 3), "n": (0, 8)}


def alternating_series_limit(term, count=200, rounds=40):
    """Limit of sum_n term(n) for alternating slowly-varying terms, by
    repeated pairwise averaging of the partial sums."""
    partials = []
    total = 0.0 + 0j
    for n in range(count):
        total += term(n)
        partials.append(total)
    for _ in range(rounds):
        if len(partials) < 2:
            break
        partials = [(partials[i] + partials[i + 1]) / 2.0
                    for i in range(len(partials) - 1)]
    return partials[0]


def zeta_at_zero_by_limit(a, policy=PrecisionPolicy()):
    """zeta(0, a) from symmetric evaluations at s = +-h, Richardson in h^2."""
    def symmetric(h):
        return (hurwitz_zeta(h, a, policy) + hurwitz_zeta(-h, a, policy)) / 2.0
    coarse = symmetric(0.01)
    fine = symmetric(0.005)
    return (4.0 * fine - coarse) / 3.0


def stieltjes1_fd_oracle(a, policy=PrecisionPolicy()):
    """gamma_1(a) by central differences of the regularized zeta map,
    steps 1e-2 / 5e-3 / 2.5e-3, two Richardson levels (independent
    transcription of the published schedule)."""
    def reg(s):
        return hurwitz_zeta(s, a, policy) - 1.0 / (s - 1.0)
    d = [(reg(1.0 + h) - reg(1.0 - h)) / (2.0 * h) for h in (1e-2, 5e-3, 2.5e-3)]
    first_a = (4.0 * d[1] - d[0]) / 3.0
    first_b = (4.0 * d[2] - d[1]) / 3.0
    return -(16.0 * first_b - first_a) / 15.0


class EvaluationError(RuntimeError):
    """A function failed at a point that richardson_derivative needs."""


@dataclass(frozen=True)
class DerivativeEstimate:
    value: complex
    error: float


def richardson_derivative(f, x0, step=1e-3):
    """Central-difference derivative with two Richardson levels.

    Uses steps h, h/2, h/4 (h = step), eliminating the h^2 and h^4
    truncation terms.  The reported error combines the last extrapolation
    update with a roundoff term eps*|f|/h and is calibrated to bound the true
    error for functions analytic in a disk of radius ~4h around x0.
    """
    x0 = complex(x0)
    if not cmath.isfinite(x0):
        raise DomainError(f"expansion point must be finite, got {x0!r}")
    h = step
    fmax = 0.0

    def stencil(offset):
        nonlocal fmax
        try:
            fp = complex(f(x0 + offset))
            fm = complex(f(x0 - offset))
        except Exception as exc:  # noqa: BLE001 - report which point failed
            raise EvaluationError(f"function failed near {x0!r} at step {offset}") from exc
        fmax = max(fmax, abs(fp), abs(fm))
        return (fp - fm) / (2.0 * offset)

    d0 = stencil(h)
    d1 = stencil(h / 2.0)
    d2 = stencil(h / 4.0)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    r2 = (16.0 * r1b - r1a) / 15.0
    truncation = abs(r2 - r1b) + abs(r1b - r1a) / 15.0
    roundoff = 8.0 * 2.220446049250313e-16 * fmax / (h / 4.0)
    error = 2.0 * truncation + roundoff + 1e-300
    if not (math.isfinite(r2.real) and math.isfinite(r2.imag)):
        raise EvaluationError("derivative stencil produced a non-finite value")
    return DerivativeEstimate(value=r2, error=error)


def zeta2_direct_oracle(terms=10**6):
    """zeta(2, 1) by direct descending summation plus the integral-tail
    midpoint, which brackets the true tail between 1/(N+1) and 1/N."""
    total = 0.0
    for n in range(terms, 0, -1):
        total += 1.0 / (n * n)
    return total + 1.0 / terms - 1.0 / (2.0 * terms * terms)


def gamma_product_oracle(z, shift=8):
    """Gamma(z) from the asymptotic regime divided down by the recurrence
    product; independent of the log-space assembly being checked."""
    from lerchsum import log_gamma
    prod = 1.0 + 0j
    for j in range(shift):
        prod *= (z + j)
    return cmath.exp(log_gamma(z + shift)) / prod


def stirling_half_gap(a):
    """ln Gamma(a + 1/2) - (a ln a - a + ln(2 pi)/2) for real a > 0, by
    `math.lgamma`.  Stirling's series with h = 1/2 (DLMF 5.11.8) writes it as
    -int_0^inf t^-1 (1/t - 1/(2 sinh(t/2))) e^(-a t) dt; the integrand lies in
    [0, 1/24], so the gap lies in [-1/(24 a), 0]."""
    return math.lgamma(a + 0.5) - (a * math.log(a) - a + HALF_LN_2PI)


def dyadic_tail_interval(x, n):
    """Interval [lo, hi] holding rho_n = log(P_n / L) - ln(2 pi)/2 * 2^-n for
    the dyadic gamma-ratio product P_n (ID-11) and its limit L (ID-12) at
    real 0 < x < 1.  ID-11 gives log(P_n / L) = 2^-n [ln Gamma(a + 1/2)
    - a ln a + a] with a = 2^(n-1) x, so rho_n = 2^-n * stirling_half_gap(a),
    and the gap's bound [-1/(24 a), 0] becomes [-1/(12 x 4^n), 0]."""
    return -1.0 / (12.0 * x * 4.0 ** n), 0.0


def random_complex(rng, re_range, im_range):
    return complex(rng.uniform(*re_range), rng.uniform(*im_range))


def seeded(seed):
    return random.Random(seed)


# ------------------------------------------------ compensated-sum oracle

class NeumaierSum:
    """One Neumaier step per term (Neumaier, ZAMM 54, 1974), with the peak
    of every term and running sum: the per-term compensated sum that
    numerics.CancellationMeter and the identities' inner sums used before
    they took math.fsum's exact error.  Each step adds the exact rounding
    error of one addition to the compensation, so a meter fed the same
    terms one at a time must hold the same state bit for bit.
    Attribute names follow CancellationMeter's, so both read alike."""

    def __init__(self):
        self._sr = self._si = self._cr = self._ci = self.peak = 0.0

    @property
    def value(self):
        return complex(self._sr + self._cr, self._si + self._ci)

    def add(self, term):
        """Raises SumOverflowError, leaving the sum as it was, when the term
        or the running sum is not finite."""
        term = complex(term)
        tr, ti = term.real, term.imag
        if not (math.isfinite(tr) and math.isfinite(ti)):
            raise SumOverflowError("non-finite term")
        sr, si = self._sr, self._si
        nr, ni = sr + tr, si + ti
        if not (math.isfinite(nr) and math.isfinite(ni)):
            raise SumOverflowError("running sum overflowed")
        self._cr += (sr - nr) + tr if abs(sr) >= abs(tr) else (tr - nr) + sr
        self._ci += (si - ni) + ti if abs(si) >= abs(ti) else (ti - ni) + si
        self._sr, self._si = nr, ni
        self.peak = max(self.peak, abs(tr), abs(ti), abs(nr), abs(ni))

    def sum(self, terms):
        for t in terms:
            self.add(t)
        return self.value


def extreme_sequences(seed, count, length=40):
    """Seeded complex sequences whose parts reach magnitudes near 1e-300 and
    1e+300 (up to 1.78e308) and whose running sums now and then overflow the
    double range: in half of them nine parts in ten are positive.  One part
    in a hundred is inf, -inf or nan."""
    rng = random.Random(seed)

    def part(positive):
        if rng.random() < 0.01:
            return rng.choice((math.inf, -math.inf, math.nan))
        band = rng.choice(((-308.0, -290.0), (-3.0, 3.0), (290.0, 306.0), (306.0, 307.25)))
        sign = 1.0 if rng.random() < positive else -1.0
        return sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.uniform(*band)

    for _ in range(count):
        positive = rng.choice((0.5, 0.9))
        yield [complex(part(positive), part(positive)) for _ in range(rng.randint(1, length))]


# ------------------------------------------------ per-term references
# The registry's dyadic sides carry each ladder rung from term p to term
# p + 1 (identities._rungs).  These are the per-term transcriptions they
# replaced: every term evaluates all of its own rungs.  The carried sides
# must equal them bit for bit.

def log_gamma_by_steps(z):
    """functions.log_gamma with principal_log at every shift step."""
    from lerchsum.functions import (_ASYMPTOTIC_REAL, _HALF_LN_2PI, _LOGGAMMA_BERNOULLI,
                                    _check_liftable, _near_nonpositive_integer)
    from lerchsum.numerics import PoleError, _require_finite, principal_log

    z = _require_finite(z, "log_gamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at nonpositive integer {z!r}")
    _check_liftable(z, _ASYMPTOTIC_REAL, "log_gamma")
    shift = 0j
    while z.real < _ASYMPTOTIC_REAL:
        shift += principal_log(z)
        z += 1
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0j
    term = inv
    for coeff in _LOGGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return (z - 0.5) * principal_log(z) - z + _HALF_LN_2PI + series - shift


def digamma_by_steps(z):
    """functions.digamma with every shift step and series term in complex arithmetic."""
    from lerchsum.functions import (_ASYMPTOTIC_REAL, _DIGAMMA_BERNOULLI, _check_liftable,
                                    _near_nonpositive_integer)
    from lerchsum.numerics import PoleError, _require_finite, principal_log

    z = _require_finite(z, "digamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at nonpositive integer {z!r}")
    _check_liftable(z, _ASYMPTOTIC_REAL, "digamma")
    shift = 0j
    while z.real < _ASYMPTOTIC_REAL:
        shift += 1.0 / z
        z += 1
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0j
    term = inv2
    for coeff in _DIGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return principal_log(z) - 0.5 * inv - series - shift


def id07_lhs_per_term(pt, policy, meter):
    from lerchsum import log_gamma, principal_log
    from lerchsum.identities import _I
    from lerchsum.numerics import compensated_sum

    la = principal_log(complex(pt.a))
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        sp = 2.0 ** p
        yield tp * compensated_sum([
            2.0 * log_gamma(-_I * 0.25 * sp * la),
            -2.0 * log_gamma(-_I * 0.5 * sp * la),
            -2.0 * log_gamma(0.25 * (-_I * sp * la - 2.0)),
            2.0 * log_gamma(0.5 * (-_I * sp * la - 1.0)),
            principal_log(2.0 * (sp * la - _I) ** 2 / (sp * la - 2.0 * _I) ** 2),
        ], meter, tp)


def id08_lhs_per_term(pt, policy, meter):
    from lerchsum import log_gamma, principal_log
    from lerchsum.numerics import compensated_sum

    a = complex(pt.a)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        sp = 2.0 ** p
        yield tp * compensated_sum([
            2.0 * log_gamma(0.25 * sp * a),
            -2.0 * log_gamma(0.5 * sp * a),
            -2.0 * log_gamma(0.25 * (sp * a - 2.0)),
            2.0 * log_gamma(0.5 * (sp * a - 1.0)),
            principal_log(2.0 * (a * sp - 1.0) ** 2 / (a * sp - 2.0) ** 2),
        ], meter, tp)


def id09_lhs_per_term(pt, policy, meter):
    from lerchsum import digamma
    from lerchsum.numerics import compensated_sum

    a = complex(pt.a)
    for p in range(pt.n + 1):
        sp = 2.0 ** p
        yield compensated_sum([
            4.0 / (a * sp * (a * sp - 3.0) + 2.0),
            -digamma(0.25 * sp * a),
            2.0 * digamma(0.5 * sp * a),
            digamma(0.25 * (sp * a - 2.0)),
            -2.0 * digamma(0.5 * (sp * a - 1.0)),
        ], meter)


def nielsen_factor_exponent_per_term(x, p):
    from lerchsum import log_gamma

    sp = 2.0 ** p
    return (2.0 ** -p) * (-(0.5 * sp * x) * LN2
                          + log_gamma(0.5 * (sp * x + 1.0))
                          - 2.0 * log_gamma(0.25 * (sp * x + 2.0)))


def id11_lhs_per_term(pt, policy, meter):
    x = complex(pt.x)
    for p in range(1, pt.n + 1):
        e = nielsen_factor_exponent_per_term(x, p)
        meter.note(abs(e))
        yield cmath.exp(e)


def nielsen_prefixes_per_term(x, n):
    value = 1 + 0j
    for p in range(1, n + 1):
        value *= cmath.exp(nielsen_factor_exponent_per_term(x, p))
        yield value


def id13_lhs_per_term(pt, policy, meter):
    from lerchsum import harmonic, principal_log, stieltjes_gamma1
    from lerchsum.identities import _I
    from lerchsum.numerics import compensated_sum

    a = complex(pt.a)
    for p in range(pt.n + 1):
        sp = 2.0 ** p
        yield compensated_sum([
            principal_log(_I * 2.0 ** (1 - p))
            * (harmonic(0.25 * sp * a) - harmonic(0.25 * (sp * a - 2.0))),
            2.0 * principal_log(_I * 2.0 ** -p)
            * (harmonic(0.5 * (sp * a - 1.0)) - harmonic(0.5 * sp * a)),
            -stieltjes_gamma1(0.25 * sp * a + 1.0, policy),
            2.0 * stieltjes_gamma1(0.5 * sp * a + 1.0, policy),
            -2.0 * stieltjes_gamma1(0.5 * (sp * a + 1.0), policy),
            stieltjes_gamma1(0.25 * (sp * a + 2.0), policy),
        ], meter)


def id01_lhs_per_term(pt, policy, meter):
    from lerchsum import LerchParams, lerch_phi, principal_log, principal_pow
    from lerchsum.identities import _I
    from lerchsum.numerics import CancellationMeter

    a, m, k = complex(pt.a), complex(pt.m), complex(pt.k)
    la = principal_log(a)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        e1 = cmath.exp(_I * m * tp)
        c1 = tp * e1 * principal_pow(_I * tp, k) * e1
        c2 = tp * e1 * principal_pow(_I * tp * 0.5, k)
        local = CancellationMeter()
        phi1 = lerch_phi(LerchParams(-cmath.exp(_I * 2.0 * tp * m), -k,
                                     1.0 - _I * 2.0 ** (p - 1) * la), policy, local)
        phi2 = lerch_phi(LerchParams(-cmath.exp(_I * tp * m), -k,
                                     1.0 - _I * 2.0 ** p * la), policy, local)
        meter.note(local.peak * max(abs(c1), abs(c2)))
        yield c1 * phi1
        yield -c2 * phi2


def id14_lhs_per_term(pt, policy, meter):
    from lerchsum import polylog, principal_pow
    from lerchsum.identities import _I
    from lerchsum.numerics import CancellationMeter

    m, k = complex(pt.m), complex(pt.k)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        c1 = tp * principal_pow(0.5 * tp, k)
        c2 = tp * principal_pow(tp, k)
        local = CancellationMeter()
        li1 = polylog(-k, -cmath.exp(_I * tp * m), policy, local)
        li2 = polylog(-k, -cmath.exp(_I * 2.0 * tp * m), policy, local)
        meter.note(local.peak * max(abs(c1), abs(c2)))
        yield c1 * li1
        yield -c2 * li2


PER_TERM_LHS = {"ID-01": id01_lhs_per_term, "ID-07": id07_lhs_per_term,
                "ID-08": id08_lhs_per_term, "ID-09": id09_lhs_per_term,
                "ID-11": id11_lhs_per_term, "ID-13": id13_lhs_per_term,
                "ID-14": id14_lhs_per_term}


# ------------------------------------------------ rung-by-rung pole ladders
# Poles read off each trigonometric entry's sides: for each field w, the zeros
# of cos(2^-q w) for q = 0..n+depth and of sin(c w) for c in sin_scales(n).
# The registry checks the one lattice (pi/2)Z that holds them all; this is the
# check it replaced, every rung on its own.

POLE_LADDERS = {
    "ID-00": (("m",), 1, lambda n: (2.0 ** -n, 2.0)),
    "ID-02": (("m",), 1, lambda n: (2.0 ** -n, 2.0)),
    "ID-03": (("m", "r"), 1, lambda n: (1.0, 2.0 ** -(n + 1))),
    "ID-05": (("x",), 2, lambda n: (1.0, 0.5, 2.0 ** -(n + 1), 2.0 ** -(n + 2))),
    "ID-06": (("x",), 2, lambda n: [2.0 ** -q for q in range(-1, n + 3)]),
    "ID-15": (("x",), 2, lambda n: (2.0, 1.0, 2.0 ** -(n + 1), 2.0 ** -(n + 2))),
}


def _dist_to_zeros(w, scale, offset):
    """Distance from w to {(offset + pi j)/scale : j in Z}, in w units."""
    y = scale * w
    dx = (y.real - offset) % math.pi
    dx = min(dx, math.pi - dx)
    return math.hypot(dx, y.imag) / scale


def pole_ladder_check(identity_id, pt, margin):
    """True when every field of pt keeps margin from every rung's zeros."""
    names, depth, sin_scales = POLE_LADDERS[identity_id]
    if pt.n is None or any(getattr(pt, name) is None for name in names):
        return False
    rungs = ([(2.0 ** -q, math.pi / 2.0) for q in range(pt.n + depth + 1)]
             + [(c, 0.0) for c in sin_scales(pt.n)])
    return all(_dist_to_zeros(complex(getattr(pt, name)), scale, offset) >= margin
               for name in names for scale, offset in rungs)


# ------------------------------------------- ID-01's shift-by-shift domain check
# The registry's ID-01 predicate leaves out the left side's shifts
# 1 - i 2^q log a, q = -1..n, which its guard |log a| <= 2^-n keeps off the
# poles; this is the check it replaced, every shift on its own.

def _dist_nonpositive_integers(v):
    return math.hypot(v.real - min(0.0, round(v.real)), v.imag)


def id01_constraints_by_shifts(pt, margin):
    """True when pt is in ID-01's domain, each Phi shift checked on its own."""
    from lerchsum import principal_log

    if pt.a is None or pt.m is None or pt.k is None or pt.n is None:
        return False
    if complex(pt.m).imag < max(margin, 1e-6):
        return False
    la = principal_log(complex(pt.a))
    if abs(la) > 2.0 ** -pt.n:
        return False
    shifts = ([1.0 - 1j * 2.0 ** q * la for q in range(-1, pt.n + 1)]
              + [0.5 * (1.0 - 1j * 2.0 ** pt.n * la), 0.5 - 0.25j * la])
    return all(_dist_nonpositive_integers(v) >= margin for v in shifts)
