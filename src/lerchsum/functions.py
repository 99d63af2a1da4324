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
# for Re(s) > -K, but has no accuracy table there yet; with K = 0 (z near 1)
# the left cut still grows like 1/Re(s).
_INTEGRAL_MIN_RE_S = 0.05
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
    if hand_over:
        k = -rs
        if (is_ == 0.0 and 0.0 <= k < _TAIL_ROWS and k == round(k)
                and k * _TAIL_TERM_PRICE < math.log(policy.rel_tol) / ln_az
                and _add_tail(acc, 1.0 + 0j, z, s, v, int(k), policy)):
            return  # the expansion stops at k = -s, exact at any w: no head
        # the tail's first ratio |s|/(|w||1-z|) is within _TAIL_RATIO from
        # Re w = reach on
        reach = abs(s) / (_TAIL_RATIO * abs(1.0 - z))

    exp, log, minus_s = cmath.exp, cmath.log, -s
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
            aw = abs(v + (n - 1))
            c_s = math.exp(cs_arg + abs(rs) * max(0.0, -math.log(aw)))
            scale = max(abs(acc.value), policy.abs_tol)
            if on_circle:
                # integral-test tail for |z| = 1, Re(s) > 1
                tail = abs(powfacs[-1]) * aw / (rs - 1.0)
            else:
                growth = (1.0 + d_star / aw) ** abs(rs)
                tail = az ** n / (1.0 - az) * abs(powfacs[-1]) * growth
            if tail * c_s <= policy.rel_tol * scale:
                return
            if hand_over and v.real + n >= reach:
                # the series' predicted remainder, in terms
                ln_q = math.log(tail * c_s / (policy.rel_tol * scale))
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
    growth of later terms when Re(s) < 0.  It needs ~ln(1/rel_tol)/(1-|z|)
    terms, too many near |z| = 1.

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
    predicted remainder: ln q / -ln|z| terms for |z| < 1, where q is the
    tail bound over rel_tol * |partial sum|, and on |z| = 1 (Re s > 1) the
    terms that shrink the integral-test bound |v+N|^(1-Re s)/(Re s - 1) by
    q.  A tail term costs _TAIL_TERM_PRICE series terms.  No check runs
    where |z|^64 <= rel_tol, where the series needs at most 64 terms.

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
    the peak.  Raises ConvergenceError if policy.max_terms series terms are
    summed first.
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

    The substitution t = e^u turns the remainder into a trapezoid sum over u
    whose integrand decays like e^((Re s + K) u) on the left and doubly
    exponentially on the right.  The left cut u = -(ln 1e16 + 8)/(Re s + K)
    drops a tail of about e^(-45).  The mesh starts at h = 1/2 and is halved
    until two successive sums agree to policy.rel_tol times |Gamma(s) Phi|
    (the remainder plus Gamma(s) times the closed part).  That test may pass
    from h = 1/8 on, since the trapezoid converges geometrically for an
    analytic integrand (Trefethen & Weideman, SIAM Rev. 56 (2014)).

    Raises ConvergenceError after 14 halvings, and as soon as the rounding
    floor, eps times the integral of |f| (read off the first mesh), exceeds
    the same tolerance where the sums agree or at two levels in a row: the
    integrand then cancels too deeply (as at large |Im s|, where |Gamma(s)|
    is tiny) for any agreement to certify rel_tol, and halving further only
    spends nodes.  The floor also covers cancellation against Gamma(s) times
    the closed part, whose size is at most |remainder| + |Gamma(s) Phi|.
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
    cexp, expm1 = cmath.exp, math.expm1

    def integrand(u: float) -> complex:
        t = math.exp(u)
        if t > 700.0:
            return 0j
        w = -expm1(-t)
        return cexp(s * u - v * t) * (r * w) ** k_closed / (one_minus + z * w)

    left = (math.log(1e16) + 8.0) / (s.real + k_closed)
    right = math.log((40.0 + 5.0 * abs(s)) / v.real) + 2.0
    h = 0.5
    count = int(math.ceil((left + right) / h))
    values = [integrand(-left + i * h) for i in range(count + 1)]
    total = sum(values) - 0.5 * (values[0] + values[-1])
    span = count * h
    previous = total * h
    gamma_s = cmath.exp(log_gamma(s))
    whole = gamma_s * closed
    # |f| is smooth and positive, so the first mesh already gives its integral
    floor = _EPS * h * sum(map(abs, values))
    was_under_floor = False
    for level in range(14):
        h *= 0.5
        mids = int(round(span / (2.0 * h)))
        total += sum(integrand(-left + (2 * i + 1) * h) for i in range(mids))
        current = total * h
        target = policy.rel_tol * max(abs(current + whole), policy.abs_tol)
        under_floor = floor > target
        agree = level >= 1 and abs(current - previous) <= target
        if under_floor and (agree or was_under_floor):
            raise ConvergenceError(
                "Phi integral cancels below rel_tol: its rounding floor exceeds the tolerance")
        if agree:
            return closed + current / gamma_s
        previous, was_under_floor = current, under_floor
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
    log_w_j = log_w if order else 1.0
    terms.append(log_w * log_w * -0.5 if s == 1
                 else w * w_s * (log_w_j + order / (s - 1.0)) / (s - 1.0))
    u, inv2, tail = w_s / w, 1.0 / (w * w), w_s * log_w_j * 0.5  # complex first: faster
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
    s, z = complex(s), complex(z)
    if z == 0:
        return 0j
    if abs(z) >= 1.0:
        raise DomainError(f"polylog needs |z| < 1, got |z|={abs(z):.6g}")
    return z * lerch_phi(LerchParams(z=z, s=s, v=1.0), policy, meter)


def _log_gamma_real(x: float) -> float:
    """log_gamma's shift and Stirling series for real x > 0, in floats."""
    shift = 0.0
    while x < _ASYMPTOTIC_REAL:
        shift += math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    term = inv
    for coeff in _LOGGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return (x - 0.5) * math.log(x) - x + _HALF_LN_2PI + series - shift


def log_gamma(z: complex) -> complex:
    """The continuous-branch log-gamma (not the principal log of Gamma).

    Shifts with logGamma(z) = logGamma(z+1) - log(z) until Re(z) >= 10, then
    applies Stirling's series through the B14 term.  Real and conventional on
    (0, inf); off the real axis it agrees with the branch that is analytic on
    the plane cut along the nonpositive reals.  Raises DomainError for a
    non-finite z, and OverflowError where the value leaves the double range
    (on the positive real axis from x = 2.5563e305 on), as math.lgamma does.

    On the positive real axis (Im z = +-0.0, Re z > 0) _log_gamma_real runs
    the same steps in floats and the imaginary part is +0.0: there every
    complex step's real part is the float step, since principal_log(x) is
    complex(math.log(x), 0.0) and the imaginary parts that enter it are
    zeros.  Off the real axis (Im z != 0, which z + 1 keeps) each shift step
    adds cmath.log(z), which is principal_log(z) without its checks: z was
    checked finite on entry and a step keeps it finite and away from 0.  On
    the rest of the real axis the loop calls principal_log, which puts
    arg = +pi on the negative axis where cmath.log gives -pi for Im z = -0.0.
    """
    z = _require_finite(z, "log_gamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at nonpositive integer {z!r}")
    if z.imag == 0.0 and z.real > 0.0:
        value = complex(_log_gamma_real(z.real), 0.0)
    else:
        _check_liftable(z, _ASYMPTOTIC_REAL, "log_gamma")
        log = cmath.log if z.imag != 0.0 else principal_log
        shift = 0j
        while z.real < _ASYMPTOTIC_REAL:
            shift += log(z)
            z += 1
        inv = 1.0 / z
        inv2 = inv * inv
        series = 0j
        term = inv
        for coeff in _LOGGAMMA_BERNOULLI:
            series += coeff * term
            term *= inv2
        value = (z - 0.5) * principal_log(z) - z + _HALF_LN_2PI + series - shift
    if not cmath.isfinite(value):
        raise OverflowError("log_gamma leaves the double range")
    return value


def _digamma_real(x: float) -> float:
    """digamma's shift and asymptotic series for real x > 0, in floats."""
    shift = 0.0
    while x < _ASYMPTOTIC_REAL:
        shift += 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    term = inv2
    for coeff in _DIGAMMA_BERNOULLI:
        series += coeff * term
        term *= inv2
    return math.log(x) - 0.5 * inv - series - shift


def digamma(z: complex) -> complex:
    """psi(z) via the recurrence psi(z) = psi(z+1) - 1/z and the asymptotic
    series through the B14 term, after shifting until Re(z) >= 10.  On the
    positive real axis (Im z = +-0.0, Re z > 0) _digamma_real runs the same
    steps in floats, bit for bit the complex steps' real part, and the
    imaginary part is +0.0."""
    z = _require_finite(z, "digamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at nonpositive integer {z!r}")
    if z.imag == 0.0 and z.real > 0.0:
        return complex(_digamma_real(z.real), 0.0)
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
