"""Special functions on the complex plane at double precision.

Provides the Hurwitz-Lerch transcendent Phi(z, s, v) (series and integral
routes), Hurwitz zeta, polylogarithm, the continuous-branch log-gamma,
digamma, generalized harmonic numbers, and the first generalized Stieltjes
constant.  Branch convention everywhere: principal, arg in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Optional

from .numerics import (
    CancellationMeter,
    CompensatedSum,
    ConvergenceError,
    DomainError,
    PoleError,
    PrecisionPolicy,
    _EPS,
    _require_finite,
    compensated_sum,
    principal_log,
    principal_pow,
)

__all__ = [
    "EULER_GAMMA",
    "LerchParams",
    "lerch_phi",
    "lerch_phi_integral",
    "hurwitz_zeta",
    "polylog",
    "log_gamma",
    "digamma",
    "harmonic",
    "stieltjes_gamma1",
]

EULER_GAMMA = 0.57721566490153286
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _bernoulli_over_factorial(count: int, times=lambda k: 1) -> tuple:
    """B_2k/(2k)! times the integer times(k), k = 1..count, rounded once: as
    (x/2) coth(x/2) sinh(x/2)/(x/2) = cosh(x/2), c_k = B_2k/(2k)! solve
    sum_{i<=k} 4^i c_i/(2k-2i+1)! = 1/(2k)!, in integers S 4^i c_i."""
    scale = math.factorial(2 * count + 1) ** 2
    d = [scale]
    for k in range(1, count + 1):
        d.append((scale * (2 * k + 1) - sum(d[i] * math.perm(2 * k + 1, 2 * i) for i in range(k)))
                 // math.factorial(2 * k + 1))
    return tuple(d[k] * times(k) / (4 ** k * scale) for k in range(1, count + 1))


# B_{2k}/((2k)(2k-1)) for k = 1..7 (Stirling series through B14)
_LOGGAMMA_BERNOULLI = _bernoulli_over_factorial(7, lambda k: math.factorial(2 * k - 2))
# B_{2k}/(2k) for k = 1..7 (digamma asymptotic series through B14)
_DIGAMMA_BERNOULLI = _bernoulli_over_factorial(7, lambda k: math.factorial(2 * k - 1))

# lerch_phi_integral refuses Re(s) below this.  Its subtracted form converges
# for Re(s) > -K, but has no accuracy table there yet; its left cut now grows
# only like ln(1/(Re(s) + K)), so the nodes do not bar lowering it.
_INTEGRAL_MIN_RE_S = 0.05
_INTEGRAL_TAIL = math.log(1e16) + 8.0  # each cut leaves about e^(-_INTEGRAL_TAIL)
# Where the rounding floor is within this factor of the tolerance, the
# integral's sums must agree at two levels in a row: two meshes share half
# their nodes, so they share rounding noise that one agreement cannot see.
_INTEGRAL_NOISE = 8.0
_ASYMPTOTIC_REAL = 10.0  # shift recurrences until Re(z) reaches this line
_MAX_RECURRENCE_LIFT = 10**5  # recurrence steps, not accuracy: refuse absurd shifts


def _near_nonpositive_integer(z: complex, eps: float = 1e-12) -> bool:
    if abs(z.imag) > eps:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= eps


def _check_liftable(z: complex, target: float, what: str) -> None:
    if target - z.real > _MAX_RECURRENCE_LIFT:
        raise DomainError(
            f"{what}: Re(z)={z.real:.3g} is too far left of the recurrence "
            f"target {target:g} (over {_MAX_RECURRENCE_LIFT} lift steps)"
        )


@dataclass(frozen=True)
class LerchParams:
    """Arguments of Phi(z, s, v) = sum_{n>=0} (v+n)^(-s) z^n.

    The series route needs |z| < 1 (or |z| = 1 with z != 1 and Re(s) > 1)
    and v off the nonpositive integers, where the terms have poles.
    """

    z: complex
    s: complex
    v: complex

    def finite(self) -> tuple:
        """(z, s, v) as complex numbers; DomainError unless all are finite."""
        return (_require_finite(self.z, "Phi argument z"),
                _require_finite(self.s, "Phi argument s"),
                _require_finite(self.v, "Phi argument v"))

    def validate_series(self) -> tuple:
        """finite(), after checking that the series route covers the point."""
        z, s, v = self.finite()
        if _near_nonpositive_integer(v):
            raise PoleError(f"Phi series: v={v!r} is a nonpositive integer")
        az = abs(z)
        if az < 1.0 or (az == 1.0 and z != 1 and s.real > 1):
            return z, s, v
        raise DomainError(
            f"Phi series needs |z| < 1, or |z| = 1 with z != 1 and Re(s) > 1; "
            f"got z={z!r}, s={s!r}"
        )


# Eulerian polynomials A_k(z) = sum_i A(k, i) z^i for k < _TAIL_ROWS, each row
# divided by k! so its (nonnegative, palindromic) coefficients sum to 1.  They
# give Li_{-k}(z) = sum_{m>=0} m^k z^m = z A_k(z) / (1-z)^(k+1) for k >= 1.
_TAIL_ROWS = 64


def _eulerian_rows(count: int) -> tuple:
    # A(k, i) = (i+1) A(k-1, i) + (k-i) A(k-1, i-1), divided through by k;
    # the appended 0.0 serves as both A(k-1, k-1) and A(k-1, -1)
    rows = [(), (1.0,)]
    for k in range(2, count):
        prev = rows[-1] + (0.0,)
        rows.append(tuple(((i + 1) * prev[i] + (k - i) * prev[i - 1]) / k
                          for i in range(k)))
    return tuple(rows)


_EULERIAN = _eulerian_rows(_TAIL_ROWS)


def _eulerian(k: int, z: complex) -> complex:
    """A_k(z)/k! for 1 <= k < _TAIL_ROWS, by Horner (the rows are palindromic)."""
    e = 0j
    for c in _EULERIAN[k]:
        e = e * z + c
    return e


# The tail's terms must shrink at least this fast.  Its remainder is about the
# bound on the first omitted term (measured against mpmath: up to 0.8 of it),
# so the tail aims under that bound by _TAIL_MARGIN, which keeps the route's
# error below the series' (whose tail bound overestimates by 10^2 or more).
_TAIL_RATIO = 0.5
_TAIL_MARGIN = 1e-2
# What a tail term costs, in series terms.  Timed on a 2-core x86 VM under
# CPython 3.11: 2-4 us per tail term, its Horner row and its share of
# _add_tail's setup included, against 1.0-1.4 us per block-summed series
# term.  The eval-mix Phi and polylog calls took 11-12% less time than with
# the plan made before summing for any price from 1 to 5.
_TAIL_TERM_PRICE = 2.5


def _add_tail(acc: CompensatedSum, zpow: complex, z: complex, s: complex,
              w: complex, terms: int, policy: PrecisionPolicy) -> bool:
    """Add z^N Phi(z, s, w) = z^N sum_k C(-s, k) w^(-s-k) Li_{-k}(z) to acc.

    Term k >= 1 is lead * rho_k * E_k(z) with lead = z^(N+1) w^(-s)/(1-z),
    rho_k = (-1)^k (s)_k / (w(1-z))^k and E_k = A_k/k!, so |lead * rho_k|
    bounds it (|E_k(z)| <= 1 on the closed disk).  Stops once that bound on
    the next term falls under rel_tol * _TAIL_MARGIN times the running sum
    (it is 0 past a terminating expansion), and adds the terms as one block.
    Returns False, adding nothing, if past the expected `terms` the terms
    stop shrinking first.
    """
    one_minus = 1.0 - z
    y = 1.0 / (w * one_minus)
    ay = abs(y)
    lead = zpow * cmath.exp(-s * principal_log(w)) / one_minus
    block = [lead]
    total = acc.value + lead
    lead *= z
    rho = 1.0 + 0j
    target = _TAIL_MARGIN * policy.rel_tol
    for k in range(1, _TAIL_ROWS):
        ratio = abs(s + (k - 1)) * ay  # |rho_k / rho_(k-1)|
        if abs(lead * rho) * ratio <= target * max(abs(total), policy.abs_tol):
            acc.add_block([t.real for t in block], [t.imag for t in block])
            return True
        if k > terms and ratio > _TAIL_RATIO:
            return False
        rho *= -(s + (k - 1)) * y
        term = lead * rho * _eulerian(k, z)
        block.append(term)
        total += term
    return False


def _hand_over(acc: CompensatedSum, zpow: complex, z: complex, s: complex,
               w: complex, rest: float, scale: float, policy: PrecisionPolicy) -> bool:
    """Add the tail z^N Phi(z, s, w) to acc with _add_tail if its terms cost
    less than `rest` series terms; False, adding nothing, if they do not or
    the tail gives up.

    The number K of tail terms is predicted on magnitudes alone, from the
    bound of _add_tail's docstring against `scale`, the running sum: the
    least K at which that bound meets its stop test, with each term at most
    _TAIL_RATIO times the one before until then.  K costs K *
    _TAIL_TERM_PRICE series terms.
    """
    x = abs(w) * abs(1.0 - z)
    bound = abs(zpow * z * cmath.exp(-s * cmath.log(w)) / (1.0 - z))
    target = _TAIL_MARGIN * policy.rel_tol * scale
    for k in range(1, int(min(_TAIL_ROWS, rest / _TAIL_TERM_PRICE))):
        ratio = abs(s + (k - 1)) / x
        bound *= ratio
        if bound <= target:
            return _add_tail(acc, zpow, z, s, w, k, policy)
        if ratio > _TAIL_RATIO:
            return False
    return False


_BLOCK = 32  # series terms summed per add_block call


def _sum_series(acc: CompensatedSum, z: complex, s: complex, v: complex,
                policy: PrecisionPolicy) -> None:
    """Feed Phi into acc as lerch_phi's docstring says: the series in blocks
    of up to _BLOCK until its tail bound is met or _hand_over adds the rest
    as the large-shift tail, or, at nonpositive integer s, the tail alone."""
    az = abs(z)
    if v.imag == 0.0:
        # cmath.log gives arg = -pi at Im = -0.0, principal_log's branch +pi;
        # from Python 3.14 on, v + k keeps the sign of a zero imaginary part
        v = complex(v.real, 0.0)
    on_circle = az >= 1.0
    rs, is_ = s.real, s.imag
    cs_arg = abs(is_) * math.pi / 2.0
    ln_az = math.log(az)
    # modulus-growth lookahead: later terms exceed |t_N| by at most
    # (1 + d*/|v+N|)^{|Re s|} at the geometric horizon d* ~ |Re s| / -ln|z|
    d_star = 1.0 if on_circle else max(1.0, abs(rs) / max(1e-300, -ln_az))
    # with at most _TAIL_ROWS series terms to go, the tail cannot pay off
    hand_over = az ** _TAIL_ROWS > policy.rel_tol
    ln_tol = math.log(policy.rel_tol)
    if hand_over:
        k = -rs
        if (is_ == 0.0 and 0.0 <= k < _TAIL_ROWS and k == round(k)
                and k * _TAIL_TERM_PRICE < ln_tol / ln_az
                and _add_tail(acc, 1.0 + 0j, z, s, v, int(k), policy)):
            return  # the expansion stops at k = -s, exact at any w: no head
        # the tail's first ratio |s|/(|w||1-z|) is within _TAIL_RATIO from
        # Re w = reach on
        reach = abs(s) / (_TAIL_RATIO * abs(1.0 - z))

    exp, log, minus_s = cmath.exp, cmath.log, -s
    # the tail factor's fixed part: 1/(Re s - 1) on the circle, 1/(1 - |z|) inside
    ln_factor = -math.log(rs - 1.0) if on_circle else -math.log1p(-az)
    zpow = 1.0 + 0j
    n = 0
    while n < policy.max_terms:
        m = min(_BLOCK, policy.max_terms - n)
        zpows = list(accumulate(repeat(z, m - 1), mul, initial=zpow))
        powfacs = [exp(minus_s * log(v + k)) for k in range(n, n + m)]
        terms = list(map(mul, powfacs, zpows))
        acc.add_block([t.real for t in terms], [t.imag for t in terms])
        n += m
        zpow = zpows[-1] * z
        if n > 4:
            w = v + (n - 1)
            aw = abs(w)
            ln_aw = math.log(aw)
            scale = max(abs(acc.value), policy.abs_tol)
            # ln q: ln |w^(-s)| + ln C_s + ln(tail factor) - ln(rel_tol * scale)
            ln_q = (is_ * math.atan2(w.imag, w.real) - rs * ln_aw
                    + cs_arg + abs(rs) * max(0.0, -ln_aw) + ln_factor - ln_tol - math.log(scale))
            if on_circle:
                ln_q += ln_aw  # integral-test tail |w^(-s)| |w| / (Re s - 1)
            else:
                ln_q += n * ln_az + abs(rs) * math.log1p(d_star / aw)
            if ln_q <= 0.0:
                return
            if hand_over and v.real + n >= reach:
                # the series' predicted remainder, in terms
                if on_circle:
                    rest = aw * math.expm1(min(700.0, ln_q / (rs - 1.0)))
                else:
                    rest = ln_q / -ln_az
                if _hand_over(acc, zpow, z, s, v + n, rest, scale, policy):
                    return
    raise ConvergenceError(
        f"Phi series did not converge within {policy.max_terms} terms "
        f"(|z|={az:.6g})"
    )


def lerch_phi(
    params: LerchParams,
    policy: PrecisionPolicy = PrecisionPolicy(),
    meter: Optional[CancellationMeter] = None,
) -> complex:
    """Phi by compensated summation: the direct series, handed over to the
    large-shift tail at a block end when that is cheaper.

    The series is summed in blocks of up to 32 terms.  At each block end,
    term N, it stops if its geometric tail bound
    |z|^(N+1)/(1-|z|) * |(v+N)^(-s)| * C_s * G falls below
    rel_tol * |partial sum|, where C_s = exp(|Im s| pi/2 + |Re s| max(0, -ln|v+N|))
    guards the arg/modulus swing of the power factor and G bounds the modulus
    growth of later terms when Re(s) < 0.  The test is taken in logs, as
    ln q <= 0 for q the bound over rel_tol * |partial sum|, with
    ln|(v+N)^(-s)| = -Re s ln|v+N| + Im s arg(v+N), so that neither C_s nor
    G need be in the double range (C_s leaves it from |Im s| ~ 451).  It
    needs ~ln(1/rel_tol)/(1-|z|) terms, too many near |z| = 1.

    If it does not stop, the rest z^N Phi(z, s, w) at w = v+N may be added
    from its large-shift expansion sum_k C(-s,k) w^(-s-k) Li_{-k}(z), with
    Li_0 read as 1/(1-z) and Li_{-k}(z) = z A_k(z)/(1-z)^(k+1) for the
    Eulerian polynomial A_k (Watson's lemma on the integral of
    lerch_phi_integral; Ferreira & Lopez, J. Math. Anal. Appl. 298 (2004)).
    Since |Li_{-k}(z)| <= k!/|1-z|^(k+1), each term is at most
    (|s|+k)/(|w||1-z|) times the one before.  The series hands over where
    that ratio is at most 1/2 for k = 0 (with Re w in place of |w|), and
    where the K tail terms that meet the tail's stop test against the
    running sum, predicted from these magnitudes, cost less than the series'
    predicted remainder: ln q / -ln|z| terms for |z| < 1, with the stop
    test's ln q, and on |z| = 1 (Re s > 1), where that test's bound is the
    integral-test bound |v+N|^(1-Re s)/(Re s - 1) times C_s, the terms that
    shrink it by q.  A tail term costs _TAIL_TERM_PRICE series terms.  No
    check runs where |z|^64 <= rel_tol, where the series needs at most 64
    terms.

    The tail stops once the bound on its next term falls below
    rel_tol/100 * |partial sum| (its remainder is about that bound, so the
    margin keeps it at least as accurate as the series).  If its terms stop
    shrinking first, which happens where the partial sum cancels against
    the tail, as near a zero of Phi, it adds nothing and the series goes on
    to the next block end.  At a nonpositive integer s the expansion stops
    at k = -s and is exact, so it is taken from w = v with no series term,
    when its -s terms cost less than the series' predicted length.

    Series and tail share one accumulator: a CancellationMeter, whose peak
    is noted into `meter`, when a meter is given, and otherwise a
    CompensatedSum, which gives the same value bit for bit without tracking
    the peak.  `meter` is anything whose note(m) takes that peak: a
    CancellationMeter, or a registry side's ErrorScale.  Raises
    ConvergenceError if policy.max_terms series terms are summed first.
    """
    z, s, v = params.validate_series()
    if z == 0:
        return principal_pow(v, -s)

    acc = CompensatedSum() if meter is None else CancellationMeter()
    _sum_series(acc, z, s, v, policy)
    if meter is not None:
        meter.note(acc.peak)
    return acc.value


def closed_kernel_terms(z: complex) -> int:
    """How many terms K of 1/(1 - z e^(-t)) lerch_phi_integral integrates in
    closed form: 2 where |r| = |z/(1-z)| <= 2, otherwise 0.

    Past |r| = 2 the closed part grows like |r|^2 against Phi, so near z = 1
    it would cancel against the remainder; there the plain kernel is summed.
    """
    return 2 if abs(z) <= 2.0 * abs(1.0 - z) else 0


def lerch_phi_integral(
    params: LerchParams,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> complex:
    """Phi via (1/Gamma(s)) * integral_0^inf t^(s-1) e^(-vt) / (1 - z e^(-t)) dt.

    Valid for Re(v) > 0, Re(s) >= 0.05 and z off the cut [1, inf).  With
    w = 1 - e^(-t) and r = -z/(1-z) the kernel splits exactly as
        1/(1 - z e^(-t)) = (1/(1-z)) sum_{k<K} (r w)^k + (r w)^K / ((1-z) + z w).
    The first K terms integrate in closed form against t^(s-1) e^(-vt) to
    Gamma(s) (v^(-s) + r (v^(-s) - (v+1)^(-s)))/(1-z) for K = 2.  K is 2
    where |r| <= 2 and 0 otherwise (closed_kernel_terms): near z = 1 the
    closed part and the remainder would cancel.

    The double-exponential map t = c exp(u - e^(-u)), dt = t (1 + e^(-u)) du,
    with c = 1/max(1, Re v) (Takahasi & Mori, Publ. RIMS 9 (1974)), turns
    the remainder over Gamma(s) into a trapezoid sum over u whose integrand
    decays doubly exponentially at both ends: like exp(-(Re s + K) e^(-u))
    on the left and like e^(-Re(v) t) on the right.  The left cut
    (Re s + K) e^(-u) = ln 1e16 + 8 drops a tail of about e^(-45), as t = e^u
    did, but grows like ln(1/(Re s + K)) rather than 1/(Re s + K); it lies on
    a multiple of 2^-16, so every node is exact.  The right cut is where
    x = Re(v) t has passed the envelope x^Re(s) e^(-x) by the same e^(-45)
    beyond its peak at x = Re s.  With c the cuts never cross, however large
    Re v.  Each node divides by |Gamma(s)| inside its exponent and the sum is
    turned by Gamma(s)'s phase once, so neither Gamma(s) nor t^s need be in
    range.  The mesh starts at h = 1/2 and is halved until two successive
    sums agree to policy.rel_tol times |Phi| (the remainder plus the closed
    part).  That test may pass from h = 1/8 on, since the trapezoid
    converges geometrically for an analytic integrand (Trefethen & Weideman,
    SIAM Rev. 56 (2014)); within _INTEGRAL_NOISE of the rounding floor it
    must pass at two levels in a row.

    Raises ConvergenceError after 14 halvings, and as soon as the rounding
    floor, eps times the integral of |f| (read off the first mesh), exceeds
    the same tolerance where the sums agree or at two levels in a row: the
    integrand then cancels too deeply (as at large |Im s|, where |Gamma(s)|
    is tiny) for any agreement to certify rel_tol, and halving further only
    spends nodes.  The floor also covers cancellation against the closed
    part, whose size is at most |remainder| + |Phi|.  Also raises
    ConvergenceError where a node leaves the double range (1/|Gamma(s)|
    overflows from |Im s| ~ 450).
    """
    z, s, v = params.finite()
    if v.real <= 0:
        raise DomainError(f"integral route needs Re(v) > 0, got v={v!r}")
    if s.real < _INTEGRAL_MIN_RE_S:
        raise DomainError(
            f"integral route needs Re(s) >= {_INTEGRAL_MIN_RE_S}, got s={s!r}")
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"integral route excludes z on [1, inf), got z={z!r}")

    one_minus = 1.0 - z
    r = -z / one_minus
    k_closed = closed_kernel_terms(z)
    closed = 0j
    if k_closed:
        v_pow = principal_pow(v, -s)
        closed = (v_pow + r * (v_pow - principal_pow(v + 1.0, -s))) / one_minus
    if z == 0:
        return closed  # the remainder's integrand vanishes

    sigma, a = s.real, v.real
    c = min(1.0, 1.0 / a)
    ln_c = math.log(c)
    # each node divides by |Gamma(s) c^-s| in its exponent, so neither Gamma(s)
    # nor t^s need be in range; the phase is divided out of the sum once,
    # which keeps the exponents, and so their rounding, as small as they were
    log_scale = log_gamma(s) - s * ln_c
    ln_modulus, phase = log_scale.real, cmath.exp(complex(0.0, -log_scale.imag))
    r_k = r ** k_closed
    den0, den1 = one_minus / r_k, z / r_k
    # on a multiple of 2^-16, so that left + i h is exact down to h = 2^-15
    left = math.floor(-65536.0 * math.log(_INTEGRAL_TAIL / (sigma + k_closed))) / 65536.0
    # x = a t past the envelope x^sigma e^(-x)'s peak at x = sigma by e^(-_INTEGRAL_TAIL):
    # x - sigma ln x = goal, by Newton from the right (the left side is convex)
    goal = _INTEGRAL_TAIL + sigma - sigma * math.log(sigma)
    x = sigma + _INTEGRAL_TAIL + math.sqrt(2.0 * sigma * _INTEGRAL_TAIL)
    for _ in range(4):
        x -= (x - sigma * math.log(x) - goal) / (1.0 - sigma / x)
    ln_right = math.log(x / a) - ln_c
    right = ln_right + math.exp(-ln_right)  # u - e^(-u) >= ln_right there

    exp, cexp, expm1 = math.exp, cmath.exp, math.expm1

    def nodes(start: float, step: float, count: int) -> list:
        """The integrand at start + i step, i < count, in one loop."""
        values = []
        try:
            for i in range(count):
                u = start + i * step
                e = exp(-u)
                ln_tau = u - e
                t = c * exp(ln_tau)
                # put back ln_tau's rounding (exact where u >= e), which v t magnifies
                t += t * ((u - ln_tau) - e)
                w = -expm1(-t)
                values.append(cexp(s * ln_tau - v * t - ln_modulus) * ((1.0 + e) * w ** k_closed)
                              / (den0 + den1 * w))
        except OverflowError:
            raise ConvergenceError("Phi integral: the integrand leaves the double range "
                                   "(1/|Gamma(s)| overflows at large |Im s|)") from None
        return values

    h = 0.5
    count = int(math.ceil((right - left) / h))
    values = nodes(left, h, count + 1)
    total = sum(values) - 0.5 * (values[0] + values[-1])
    span = count * h
    previous = total * h * phase
    # |f| is smooth and positive, so the first mesh already gives its integral
    floor = _EPS * h * sum(map(abs, values))
    was_under_floor = agreed = False
    for level in range(14):
        h *= 0.5
        total += sum(nodes(left + h, 2.0 * h, int(round(span / (2.0 * h)))))
        current = total * h * phase
        target = policy.rel_tol * max(abs(current + closed), policy.abs_tol)
        under_floor = floor > target
        agree = level >= 1 and abs(current - previous) <= target
        if under_floor and (agree or was_under_floor):
            raise ConvergenceError(
                "Phi integral cancels below rel_tol: its rounding floor exceeds the tolerance")
        if agree and (agreed or floor * _INTEGRAL_NOISE <= target):
            return closed + current
        previous, was_under_floor, agreed = current, under_floor, agree
    raise ConvergenceError("Phi integral quadrature did not converge in 14 refinements")


_ZETA_BERNOULLI = _bernoulli_over_factorial(30)  # Re s + 2M > 1 down to Re s = -58
_ZETA_MARGIN = 1e-2  # the cut aims 100 times under rel_tol: ID-13 sums up to 30 gamma_1
_ZETA_DEGREE = 15  # Re s + 2M that sets M, the number of corrections


def _zeta_rows(s: complex, order: int, name: str) -> tuple:
    """_zeta_kernel's rows at s: (s)_(2k-1) and order * d/ds (s)_(2k-1), k = 1..M, and the
    bound's edge 4/(2 pi)^(2M) (|(s)_2M|, order * |d/ds (s)_2M|).  M is the fewest
    corrections with Re s + 2M >= _ZETA_DEGREE - 3 min(0, Re s), at most the table's: left
    of 0 the terms grow like |w|^(1 - Re s), so M grows faster to keep w, and the rounding
    floor, small.  The bound needs Re s + 2M > 1."""
    m = min(len(_ZETA_BERNOULLI),
            max(1, math.ceil(0.5 * (_ZETA_DEGREE - s.real - 3.0 * min(0.0, s.real)))))
    if s.real + 2 * m <= 1.0:
        raise ConvergenceError(f"{name} needs Re s > {1 - 2 * m}, "
                               f"the reach of its {m} Bernoulli corrections")
    rises, slopes, rise, slope, h = [], [], 1.0, 0.0, s
    for _ in range(m):  # (P h)' = P' h + P
        if order:
            slope = slope * h + rise
        rise *= h
        rises.append(rise)
        if order:
            slopes.append(slope)
            slope = slope * (h + 1.0) + rise
        rise *= h + 1.0
        h += 2.0
    scale = 4.0 / (2.0 * math.pi) ** (2 * m)
    return rises, slopes if order else repeat(0.0), (scale * abs(rise), scale * abs(slope))


def _zeta_remainder_bound(s: complex, order: int, m: int, w: complex, edge: tuple) -> tuple:
    """Johansson's bound (Numer. Algorithms 69, 2015, Theorem 1) on the remainder after m
    corrections at w, x = Re w > 0: 4/(2 pi)^(2m) int_0^inf |(w+t)^(-s-2m) (P log^j - j dP/ds)|,
    P = (s)_2m, edge = 4/(2 pi)^(2m) (|P|, |dP/ds|).  As |w+t| >= x+t, |arg(w+t)| <=
    |arg w| = theta and, for x >= 2, y^(-p) (ln y + theta) falls in y, it is at most
        B = 4 e^max(0, Im s arg w) Q / ((2 pi)^(2m) (p-1) x^(p-1)),  p = Re s + 2m > 1,
    Q = |P| for j = 0, else |P| (ln x + theta + 1/(p-1)) + |dP/ds|.  Returns (B, d): along
    Im w fixed, theta and e^max(0, Im s arg w) fall and Q grows at most like x^c,
    c = j |P| / Q, so B falls at least like x^-d, d = p - 1 - c."""
    (rise, slope), x, phase = edge, w.real, math.atan2(w.imag, w.real)
    p1, lift = s.real + (2 * m - 1), s.imag * phase
    if p1 <= 0.0 or order and x < 2.0:
        return math.inf, p1
    q = rise * (math.log(x) + abs(phase) + 1.0 / p1) + slope if order else rise
    decay = p1 - (order and q and rise / q)
    if lift > 0.0:
        q *= math.exp(min(lift, 700.0))
    return q and q * x ** -p1 / p1, decay


def _zeta_kernel(s: complex, a: complex, order: int, rows: tuple, policy: PrecisionPolicy,
                 name: str) -> complex:
    """sum_{k>=0} f(a+k), f(x) = x^(-s) log^j x, j = order in {0, 1} (zeta(s, a) or -d/ds
    zeta(s, a) less its pole at s = 1) by Euler-Maclaurin at w = a + N, with L = log w:
        sum_{k<N} f(a+k) + int_w^inf f + f(w)/2
            + sum_{k=1..M} B_2k/(2k)! w^(1-s-2k) ((s)_(2k-1) L^j - j d/ds (s)_(2k-1)),
    rows = _zeta_rows(s, order, name), logs principal, the N + 2 terms one compensated_sum.
    With (B, d) = _zeta_remainder_bound at x0 + i Im a, x0 = max(Re(a + N0), 1 + j), N0 the
    least with Re(a + N0) > 0, N is the least with Re(a + N) >= x0 max(1, B/target)^(1/d),
    target = _ZETA_MARGIN * rel_tol.  ConvergenceError past max_terms, or where
    eps (1 + |s L|) sum |terms| exceeds rel_tol * max(1, |value|): a rounding estimate, not
    a bound, at least twice the error measured on Re s in (-15, -1)."""
    if _near_nonpositive_integer(a):
        raise PoleError(f"{name}: a={a!r} is a nonpositive integer")
    _check_liftable(a, 1.0, name)
    a += 0j  # Im a = -0.0 turns +0.0: arg(a + k) = +pi on the negative axis
    rises, slopes, edge = rows
    m = len(rises)
    target = _ZETA_MARGIN * policy.rel_tol
    n = 0 if a.real > 0.0 else math.floor(-a.real) + 1
    x = a.real + n if a.real + n > 1.0 + order else 1.0 + order
    bound, decay = _zeta_remainder_bound(s, order, m, complex(x, a.imag), edge)
    if bound > target:
        x *= (bound / target) ** (1.0 / decay) if decay > 0.0 else math.inf
    if x - a.real > n:
        n = math.ceil(min(x - a.real, 1e18))
    if n > policy.max_terms:
        raise ConvergenceError(f"{name} needs over max_terms={policy.max_terms} terms")

    log, minus_s, w = cmath.log, -s, a + n
    heads = map(a.__add__, range(n))
    terms = [v ** minus_s * log(v) for v in heads] if order else [v ** minus_s for v in heads]
    w_s, log_w = w ** minus_s, log(w)
    w_1s, inv2 = w * w_s, 1.0 / (w * w)
    if not (0.0 < abs(w_1s) < math.inf and abs(inv2) < math.inf):  # the plain powers overflowed
        w_s, w_1s, inv2 = cmath.exp(minus_s * log_w), cmath.exp((1 - s) * log_w), (1 / w) ** 2
    log_w_j = log_w if order else 1.0
    terms.append(log_w * log_w * -0.5 if s == 1
                 else w_1s * (log_w_j + order / (s - 1.0)) / (s - 1.0))
    u, tail = w_s / w, w_s * log_w_j * 0.5
    mass = sum(map(abs, terms)) + abs(tail)
    for coeff, rise, slope in zip(_ZETA_BERNOULLI, rises, slopes):
        term = (log_w_j * rise - slope if order else rise) * coeff * u
        tail += term
        mass += abs(term)
        u *= inv2
    terms.append(tail)
    value = compensated_sum(terms)
    scale = abs(value)
    if _EPS * (1.0 + abs(log_w * s)) * mass > policy.rel_tol * (scale if scale > 1.0 else 1.0):
        raise ConvergenceError(f"{name}: the terms cancel below rel_tol")
    return value


def hurwitz_zeta(s: complex, a: complex, policy: PrecisionPolicy = PrecisionPolicy()) -> complex:
    """Hurwitz zeta(s, a) = sum_{k>=0} (a+k)^(-s), principal powers: _zeta_kernel at
    order 0, cut where Johansson's remainder bound is under rel_tol/100.  Against
    mpmath on two draws of 60 points per band (|Im s| <= 20, Re a in [0.1, 5], |Im a| <= 3),
    the worst error of a returned value over max(1, |zeta|), and the share raised, are
    4.3e-14, 0% for Re s in (-1, 3); 1.4e-11, 0% in (-4, -1); 1.1e-11, 27% in (-8, -4);
    and 1.6e-11, 69% in (-15, -8), where the terms cancel below rel_tol."""
    s = _require_finite(s, "hurwitz_zeta argument s")
    if abs(s - 1.0) < 1e-14:
        raise PoleError("hurwitz_zeta has a pole at s = 1")
    rows = _zeta_rows(s, 0, "hurwitz_zeta")
    return _zeta_kernel(s, _require_finite(a, "hurwitz_zeta argument a"), 0, rows, policy,
                        "hurwitz_zeta")


def polylog(
    s: complex,
    z: complex,
    policy: PrecisionPolicy = PrecisionPolicy(),
    meter: Optional[CancellationMeter] = None,
) -> complex:
    """Li_s(z) = z * Phi(z, s, 1) on the open unit disk."""
    s = _require_finite(s, "polylog argument s")
    z = _require_finite(z, "polylog argument z")
    if z == 0:
        return 0j
    if abs(z) >= 1.0:
        raise DomainError(f"polylog needs |z| < 1, got |z|={abs(z):.6g}")
    return z * lerch_phi(LerchParams(z=z, s=s, v=1.0), policy, meter)


def _log_gamma_steps(z, log):
    """log_gamma's shift and Stirling series in z's own arithmetic, float or
    complex, with every logarithm taken by log."""
    shift = series = z - z  # 0.0 or 0j
    while z.real < _ASYMPTOTIC_REAL:
        shift += log(z)
        z += 1
    inv = 1.0 / z
    inv2 = inv * inv
    term = inv
    for coeff in _LOGGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return (z - 0.5) * log(z) - z + _HALF_LN_2PI + series - shift


def log_gamma(z: complex) -> complex:
    """The continuous-branch log-gamma (not the principal log of Gamma).

    Shifts with logGamma(z) = logGamma(z+1) - log(z) until Re(z) >= 10, then
    applies Stirling's series through the B14 term.  Real and conventional on
    (0, inf); off the real axis it agrees with the branch that is analytic on
    the plane cut along the nonpositive reals.  Raises DomainError for a
    non-finite z, and OverflowError where the value leaves the double range
    (on the positive real axis from x = 2.5563e305 on), as math.lgamma does.

    _log_gamma_steps runs in floats with math.log on the positive real axis
    (Im z = +-0.0, Re z > 0), and the imaginary part is +0.0: there every
    complex step's real part is the float step, since principal_log(x) is
    complex(math.log(x), 0.0) and the imaginary parts that enter it are
    zeros.  Off the real axis (Im z != 0, which z + 1 keeps) it runs in
    complex with cmath.log, which is principal_log without its checks: z was
    checked finite on entry and a step keeps it finite and away from 0.  On
    the rest of the real axis it takes principal_log, which puts arg = +pi on
    the negative axis where cmath.log gives -pi for Im z = -0.0.
    """
    z = _require_finite(z, "log_gamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at nonpositive integer {z!r}")
    if z.imag == 0.0 and z.real > 0.0:
        value = complex(_log_gamma_steps(z.real, math.log), 0.0)
    else:
        _check_liftable(z, _ASYMPTOTIC_REAL, "log_gamma")
        value = _log_gamma_steps(z, cmath.log if z.imag != 0.0 else principal_log)
    if not cmath.isfinite(value):
        raise OverflowError("log_gamma leaves the double range")
    return value


def _digamma_steps(z, log):
    """digamma's shift and asymptotic series in z's own arithmetic, float or
    complex, with the logarithm taken by log."""
    shift = series = z - z  # 0.0 or 0j
    while z.real < _ASYMPTOTIC_REAL:
        shift += 1.0 / z
        z += 1
    inv = 1.0 / z
    inv2 = inv * inv
    term = inv2
    for coeff in _DIGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return log(z) - 0.5 * inv - series - shift


def digamma(z: complex) -> complex:
    """psi(z) via the recurrence psi(z) = psi(z+1) - 1/z and the asymptotic
    series through the B14 term, after shifting until Re(z) >= 10.
    _digamma_steps runs in floats with math.log on the positive real axis
    (Im z = +-0.0, Re z > 0), bit for bit the complex steps' real part, and
    the imaginary part is +0.0; elsewhere in complex with principal_log."""
    z = _require_finite(z, "digamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at nonpositive integer {z!r}")
    if z.imag == 0.0 and z.real > 0.0:
        return complex(_digamma_steps(z.real, math.log), 0.0)
    _check_liftable(z, _ASYMPTOTIC_REAL, "digamma")
    return _digamma_steps(z, principal_log)


def harmonic(z: complex) -> complex:
    """Generalized harmonic number H_z = psi(z + 1) + gamma."""
    z = _require_finite(z, "harmonic argument")
    if _near_nonpositive_integer(z + 1):
        raise PoleError(f"harmonic pole at negative integer {z!r}")
    return digamma(z + 1) + EULER_GAMMA


_GAMMA1_ROWS = _zeta_rows(1.0, 1, "stieltjes_gamma1")  # gamma_1's s = 1 is fixed


def stieltjes_gamma1(a: complex, policy: PrecisionPolicy = PrecisionPolicy()) -> complex:
    """First generalized Stieltjes constant gamma_1(a) = -d/ds [zeta(s, a) - 1/(s-1)] at
    s = 1 (the -gamma_1(a)(s-1) sign convention): _zeta_kernel at order 1, s = 1, where
    (s)_(2k-1) = (2k-1)! has s-derivative (2k-1)! H_(2k-1), so with w = a + N, L = log w,
        gamma_1(a) = sum_{k<N} log(a+k)/(a+k) - L^2/2 + L/(2w)
                     + sum_{k=1..M} B_2k/(2k) (L - H_(2k-1)) / w^(2k)."""
    a = _require_finite(a, "stieltjes_gamma1 argument")
    return _zeta_kernel(1.0, a, 1, _GAMMA1_ROWS, policy, "stieltjes_gamma1")
