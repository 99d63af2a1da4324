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
from functools import lru_cache
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

# B_{2k}/(2k)! for k = 1..5 (Euler-Maclaurin corrections through B10)
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
# B_{2k}/((2k)(2k-1)) for k = 1..7 (Stirling series through B14)
_LOGGAMMA_BERNOULLI = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                       -691 / 360360, 1 / 156)
# B_{2k}/(2k) for k = 1..7 (digamma asymptotic series through B14)
_DIGAMMA_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                      -691 / 32760, 1 / 12)

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


# Route costs in series terms: a tail term costs about one head term plus one
# Horner step per Eulerian coefficient.  That was measured before the head was
# summed in blocks; timed since (the CHANGES.md FOUND line on _tail_plan), a
# tail term costs 3-4 us against about 1.6 us per head term.  The values stay:
# re-pricing moves calls between routes, which belongs to one planner for all
# routes (ROADMAP).
_TAIL_TERM_COST = 1.0
_HORNER_STEP_COST = 0.04
# The tail's terms must shrink at least this fast.  Its remainder is about the
# bound on the first omitted term (measured against mpmath: up to 0.8 of it),
# so the tail aims under that bound by _TAIL_MARGIN, which keeps the route's
# error below the series' (whose tail bound overestimates by 10^2 or more).
_TAIL_RATIO = 0.5
_TAIL_MARGIN = 1e-2


def _tail_plan(z: complex, az: float, s: complex, v: complex,
               policy: PrecisionPolicy):
    """(N, K) for the head-plus-tail route, or None when the series is cheaper.

    The series needs about ln(1/rel_tol) / -ln|z| terms for |z| < 1.  On
    |z| = 1 (Re s > 1) its terms shrink only through (v+k)^(-s): the
    integral-test tail N^(1-Re s)/(Re s - 1), times the factor
    e^(|Im s| pi/2) of _sum_series's tail test, meets rel_tol near
    N = exp((ln(1/rel_tol) + |Im s| pi/2 - ln(Re s - 1)) / (Re s - 1)).
    The route sums N head terms and then K terms of the large-shift
    expansion of the tail at w = v + N; its k-th term is at most
    prod_{j<k} (|s|+j) / (|w| |1-z|)^k times the leading one, because the
    Eulerian coefficients are nonnegative and sum to k!.  For each K the
    smallest x = |w||1-z| that brings that product under
    rel_tol * _TAIL_MARGIN (and keeps the next ratio under _TAIL_RATIO)
    fixes N ~ x/|1-z|; K grows while the cost falls.
    Only |z|, |1-z|, |s| and rel_tol enter the choice, and on |z| = 1 also
    Re s and Im s; Re v only places N.
    """
    if az ** _TAIL_ROWS <= policy.rel_tol:
        return None  # at most _TAIL_ROWS series terms: the tail cannot pay off
    ln_tol = -math.log(policy.rel_tol)
    if az < 1.0:
        series = ln_tol / -math.log(az)
    elif s.real > 1.0:
        p = s.real - 1.0
        series = math.exp(min(700.0, (ln_tol + abs(s.imag) * math.pi / 2.0
                                      - math.log(p)) / p))
    else:
        series = math.inf
    d = abs(1.0 - z)
    ln_tol -= math.log(_TAIL_MARGIN)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        # nonpositive integer s: the expansion stops at k = -s and is exact
        # for any w, so no head is needed (and s = 0 would take log 0 below)
        k = int(-s.real)
        if k >= _TAIL_ROWS or k + 1 > policy.max_terms:
            return None
        cost = k * (_TAIL_TERM_COST + 0.5 * k * _HORNER_STEP_COST)
        return (0, k) if cost < series else None
    a = abs(s)
    best, plan, log_prod = math.inf, None, 0.0
    for k in range(1, _TAIL_ROWS):
        log_prod += math.log(a + k - 1)
        x = max(math.exp((log_prod + ln_tol) / k), (a + k) / _TAIL_RATIO)
        cost = x / d + k * (_TAIL_TERM_COST + 0.5 * k * _HORNER_STEP_COST)
        if cost >= best:
            break
        best, plan = cost, (x, k)
    if plan is None or best >= series:
        return None
    x, k = plan
    head = max(0, math.ceil(x / d - v.real))
    if head + k + 1 > policy.max_terms:
        return None
    return head, k


def _add_tail(acc: CompensatedSum, zpow: complex, z: complex, s: complex,
              w: complex, terms: int, policy: PrecisionPolicy) -> bool:
    """Add z^N Phi(z, s, w) = z^N sum_k C(-s, k) w^(-s-k) Li_{-k}(z) to acc.

    Term k >= 1 is lead * rho_k * E_k(z) with lead = z^(N+1) w^(-s)/(1-z),
    rho_k = (-1)^k (s)_k / (w(1-z))^k and E_k = A_k/k!, so |lead * rho_k|
    bounds it (|E_k(z)| <= 1 on the closed disk).  Stops once that bound on
    the next term falls under rel_tol * _TAIL_MARGIN times the running sum
    (it is 0 past a terminating expansion), and adds the terms as one block.
    Returns False, adding nothing, if past the planned `terms` the terms stop
    shrinking first.
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


_BLOCK = 32  # series terms summed per add_block call


def _sum_series(acc: CompensatedSum, z: complex, az: float, s: complex,
                v: complex, policy: PrecisionPolicy, head: Optional[int]) -> complex:
    """Feed the series terms into acc in blocks of up to _BLOCK: the first
    `head` terms, or (head None) until the tail bound of lerch_phi's docstring
    is met at a block end.  Returns z^N for the N terms summed."""
    if v.imag == 0.0:
        # cmath.log gives arg = -pi at Im = -0.0, principal_log's branch +pi;
        # from Python 3.14 on, v + k keeps the sign of a zero imaginary part
        v = complex(v.real, 0.0)
    on_circle = az >= 1.0
    rs, is_ = s.real, s.imag
    cs_arg = abs(is_) * math.pi / 2.0
    # modulus-growth lookahead: later terms exceed |t_N| by at most
    # (1 + d*/|v+N|)^{|Re s|} at the geometric horizon d* ~ |Re s| / -ln|z|
    d_star = 1.0 if on_circle else max(1.0, abs(rs) / max(1e-300, -math.log(az)))
    stop, first_check = (policy.max_terms, 4) if head is None else (head, head)

    exp, log, minus_s = cmath.exp, cmath.log, -s
    zpow = 1.0 + 0j
    n = 0
    while n < stop:
        m = min(_BLOCK, stop - n)
        zpows = list(accumulate(repeat(z, m - 1), mul, initial=zpow))
        powfacs = [exp(minus_s * log(v + k)) for k in range(n, n + m)]
        terms = list(map(mul, powfacs, zpows))
        acc.add_block([t.real for t in terms], [t.imag for t in terms])
        n += m
        zpow = zpows[-1] * z
        if n > first_check:
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
                return zpow
    if head is None:
        raise ConvergenceError(
            f"Phi series did not converge within {policy.max_terms} terms "
            f"(|z|={az:.6g})"
        )
    return zpow


def lerch_phi(
    params: LerchParams,
    policy: PrecisionPolicy = PrecisionPolicy(),
    meter: Optional[CancellationMeter] = None,
) -> complex:
    """Phi by compensated summation: the direct series, or a head plus tail.

    Series route: sums the defining series in blocks of up to 32 terms and
    truncates at the first block end, term N, whose geometric tail bound
    |z|^(N+1)/(1-|z|) * |(v+N)^(-s)| * C_s * G falls below
    rel_tol * |partial sum|, where C_s = exp(|Im s| pi/2 + |Re s| max(0, -ln|v+N|))
    guards the arg/modulus swing of the power factor and G bounds the modulus
    growth of later terms when Re(s) < 0.  It needs ~ln(1/rel_tol)/(1-|z|)
    terms, too many near |z| = 1.

    Head-plus-tail route: the same loop stops after a fixed N terms, and
    z^N Phi(z, s, w) at w = v+N is added from its large-shift expansion
    sum_k C(-s,k) w^(-s-k) Li_{-k}(z), with Li_0 read as 1/(1-z) and
    Li_{-k}(z) = z A_k(z)/(1-z)^(k+1) for the Eulerian polynomial A_k
    (Watson's lemma on the integral of lerch_phi_integral; Ferreira & Lopez,
    J. Math. Anal. Appl. 298 (2004)).  Since |Li_{-k}(z)| <= k!/|1-z|^(k+1),
    each term is at most (|s|+k)/(|w||1-z|) times the one before; the sum
    terminates at k = -s for nonpositive integer s.  _tail_plan picks N and
    the term count K from |z|, |1-z|, s and rel_tol before any term is
    summed, and takes the route only when N + K costs less than the series'
    predicted length and fits policy.max_terms.  The tail stops once the
    bound on its next term falls below rel_tol/100 * |partial sum| (the
    remainder is about that bound, so the margin keeps the route at least as
    accurate as the series).  If its terms stop shrinking first, which
    happens only near a zero of Phi, the series runs instead.

    Head and tail share one accumulator: a CancellationMeter, whose peak is
    noted into `meter`, when a meter is given, and otherwise a
    CompensatedSum, which gives the same value bit for bit without tracking
    the peak.  Raises ConvergenceError if policy.max_terms is exhausted.
    """
    z, s, v = params.validate_series()
    if z == 0:
        return principal_pow(v, -s)

    az = abs(z)
    accumulator = CompensatedSum if meter is None else CancellationMeter
    plan = _tail_plan(z, az, s, v, policy)
    if plan is not None:
        acc = accumulator()
        zpow = _sum_series(acc, z, az, s, v, policy, plan[0])
        if _add_tail(acc, zpow, z, s, v + plan[0], plan[1], policy):
            if meter is not None:
                meter.note(acc.peak)
            return acc.value
    acc = accumulator()
    _sum_series(acc, z, az, s, v, policy, None)
    if meter is not None:
        meter.note(acc.peak)
    return acc.value


def _gamma(z: complex) -> complex:
    return cmath.exp(log_gamma(z))


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
    gamma_s = _gamma(s)
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


def hurwitz_zeta(
    s: complex,
    a: complex,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> complex:
    """Hurwitz zeta(s, a) by Euler-Maclaurin with Bernoulli terms through B10.

    The split point is N = max(10, ceil|s| + 10 - floor(Re a)); arguments with
    Re(a) <= 0 are first lifted by the forward recurrence
    zeta(s, a) = a^(-s) + zeta(s, a+1).  The direct sum and the corrections
    are added as one compensated block.  `policy` is ignored: the cut is
    fixed and there is no remainder estimate, so nothing is raised when
    digits are lost.  Measured against mpmath in two draws of 60 random
    points per band (|Im s| <= 20, Re a in [0.1, 5], |Im a| <= 3; both are
    recorded in ROADMAP.md's zeta item), the worse draw's worst error
    relative to max(1, |zeta|) is:

        Re s in (-1, 3)     2.4e-11  (second draw; first 9.2e-12)
        Re s in (-4, -1)    3.2e-7   (second draw; first 2.4e-7)
        Re s in (-8, -4)    0.29     (first draw; second 9.4e-3)
        Re s in (-15, -8)   1.6e6    (second draw; first 7.4e5)
    """
    s = _require_finite(s, "hurwitz_zeta argument s")
    a = _require_finite(a, "hurwitz_zeta argument a")
    if s == 1 or abs(s - 1.0) < 1e-14:
        raise PoleError("hurwitz_zeta has a pole at s = 1")
    if _near_nonpositive_integer(a):
        raise PoleError(f"hurwitz_zeta: a={a!r} is a nonpositive integer")
    _check_liftable(a, 1.0, "hurwitz_zeta")

    shifted = 0j
    while a.real <= 0:
        shifted += principal_pow(a, -s)
        a += 1

    split = max(10, math.ceil(abs(s)) + 10 - math.floor(a.real))
    terms = [shifted]
    terms += [cmath.exp(-s * principal_log(a + n)) for n in range(split)]
    w = a + split
    terms.append(principal_pow(w, 1 - s) / (s - 1))
    terms.append(0.5 * principal_pow(w, -s))
    rising = s
    w2 = w * w
    wpow = principal_pow(w, -s - 1)
    for k, coeff in enumerate(_ZETA_BERNOULLI, start=1):
        terms.append(coeff * rising * wpow)
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        wpow /= w2
    return compensated_sum(terms)


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


def log_gamma(z: complex) -> complex:
    """The continuous-branch log-gamma (not the principal log of Gamma).

    Shifts with logGamma(z) = logGamma(z+1) - log(z) until Re(z) >= 10, then
    applies Stirling's series through the B14 term.  Real and conventional on
    (0, inf); off the real axis it agrees with the branch that is analytic on
    the plane cut along the nonpositive reals.  Raises DomainError for a
    non-finite z.

    Each shift step adds principal_log(z), and two fast paths add the same
    values without its checks.  z was checked finite on entry, and a step
    keeps it finite and away from 0 (z is no pole).  Off the real axis
    (Im z != 0, which z + 1 keeps) principal_log is cmath.log itself.  On
    the positive real axis it is complex(math.log(x), 0.0), so the real
    parts are summed as floats in the same order; the imaginary parts are
    all +0.0.  Everywhere else (Im z = +-0.0 with Re z <= 0) the loop calls
    principal_log, which puts arg = +pi on the negative axis where cmath.log
    gives -pi for Im z = -0.0.
    """
    z = _require_finite(z, "log_gamma argument")
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at nonpositive integer {z!r}")
    _check_liftable(z, _ASYMPTOTIC_REAL, "log_gamma")
    shift = 0j
    if z.imag != 0.0:
        log = cmath.log
        while z.real < _ASYMPTOTIC_REAL:
            shift += log(z)
            z += 1
    elif z.real > 0.0:
        log, total = math.log, 0.0
        while z.real < _ASYMPTOTIC_REAL:
            total += log(z.real)
            z += 1
        shift = complex(total, 0.0)
    else:
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


def digamma(z: complex) -> complex:
    """psi(z) via the recurrence psi(z) = psi(z+1) - 1/z and the asymptotic series."""
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


def harmonic(z: complex) -> complex:
    """Generalized harmonic number H_z = psi(z + 1) + gamma."""
    z = _require_finite(z, "harmonic argument")
    if _near_nonpositive_integer(z + 1):
        raise PoleError(f"harmonic pole at negative integer {z!r}")
    return digamma(z + 1) + EULER_GAMMA


# gamma_1's Euler-Maclaurin corrections pair B_{2j}/(2j) (_DIGAMMA_BERNOULLI)
# with the harmonic numbers H_{2j-1}; the remainder after them is bounded
# through g^(2M)(x) = (2M)! (log x - H_{2M}) / x^(2M+1) for g(x) = log(x)/x.
_GAMMA1_ORDER = 2 * len(_DIGAMMA_BERNOULLI)  # 2M = 14
# H_{2j-1} for j = 1..7, and H_14
_ODD_HARMONIC = (1.0, 11 / 6, 137 / 60, 363 / 140, 7129 / 2520, 83711 / 27720,
                 1145993 / 360360)
_HARMONIC_2M = 1171733 / 360360
_GAMMA1_REMAINDER_SCALE = (4.0 * math.factorial(_GAMMA1_ORDER)
                           / (2.0 * math.pi) ** _GAMMA1_ORDER)
# The remainder is aimed two digits under rel_tol: ID-13 adds up to 30
# gamma_1 values, and their sum must still meet rel_tol.
_GAMMA1_MARGIN = 1e-2
_GAMMA1_MIN_RADIUS = 2.0  # keeps |a + N + t| >= 1, which the bound assumes


def _gamma1_remainder_bound(w: complex) -> float:
    """Bound on the Euler-Maclaurin remainder of gamma_1 at w = a + N, Re w > 0.

    Johansson (Numer. Algorithms 69, 2015, Theorem 1) bounds the remainder
    after M Bernoulli terms by 4/(2 pi)^(2M) int_0^inf |g^(2M)(w+t)| dt.  With
    theta = |arg w| < pi/2, |w+t| >= cos(theta/2)(|w|+t) and
    |arg(w+t)| <= theta, so while cos(theta/2)|w| >= 1 the remainder is at most
    4 (2M)!/(2 pi)^(2M) [(ln|w| + H_2M + theta)/(2M) + 1/(2M)^2]
    / (cos(theta/2)^(2M+1) |w|^(2M)).
    """
    r, theta, p = abs(w), abs(cmath.phase(w)), _GAMMA1_ORDER
    return (_GAMMA1_REMAINDER_SCALE
            * ((math.log(r) + _HARMONIC_2M + theta) / p + 1.0 / (p * p))
            / (math.cos(0.5 * theta) ** (p + 1) * r ** p))


@lru_cache(maxsize=64)
def _gamma1_radius(target: float) -> float:
    """About the smallest real w whose remainder bound is at most target."""
    r, p = _GAMMA1_MIN_RADIUS, _GAMMA1_ORDER
    for _ in range(8):  # r -> (bound * r^p / target)^(1/p) climbs to the root
        r = max(r, (_gamma1_remainder_bound(r) * r ** p / target) ** (1.0 / p))
    return r


def stieltjes_gamma1(
    a: complex,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> complex:
    """First generalized Stieltjes constant gamma_1(a).

    Defined through the Laurent expansion of zeta(s, a) about s = 1 with the
    -gamma_1(a)(s-1) sign convention, so
    gamma_1(a) = -d/ds [zeta(s, a) - 1/(s-1)] at s = 1.  Computed as that
    s-derivative of the Euler-Maclaurin sum for zeta(s, a), with no finite
    difference: for w = a + N and L = log w (principal branch),

        gamma_1(a) = sum_{k<N} log(a+k)/(a+k) - L^2/2 + L/(2w)
                     + sum_{j=1..7} B_{2j}/(2j) (L - H_{2j-1}) / w^(2j).

    N is chosen before summing: the smallest N with Re w > 0 at which the
    remainder bound of _gamma1_remainder_bound is at most rel_tol/100 (about
    |w| >= 7 at the default rel_tol).  The head starts at a itself, so for
    Re a <= 0 it uses the same principal logs as hurwitz_zeta's
    (a+k)^(-s).  Raises ConvergenceError when N exceeds max_terms.
    """
    a = _require_finite(a, "stieltjes_gamma1 argument")
    if _near_nonpositive_integer(a):
        raise PoleError(f"stieltjes_gamma1: a={a!r} is a nonpositive integer")
    _check_liftable(a, 1.0, "stieltjes_gamma1")

    target = _GAMMA1_MARGIN * policy.rel_tol
    radius = _gamma1_radius(target)
    n = max(0, math.floor(-a.real) + 1)  # Re(a + n) > 0
    if abs(a.imag) < radius:
        n = max(n, math.ceil(math.sqrt(radius * radius - a.imag * a.imag) - a.real))
    while n <= policy.max_terms and _gamma1_remainder_bound(a + n) > target:
        n += 1
    if n > policy.max_terms:
        raise ConvergenceError(
            f"stieltjes_gamma1 needs {n} > max_terms={policy.max_terms} terms "
            f"at a={a!r}"
        )

    terms = [principal_log(x) / x for x in (a + k for k in range(n))]
    w = a + n
    log_w = principal_log(w)
    terms.append(-0.5 * log_w * log_w)
    terms.append(0.5 * log_w / w)
    inv2 = 1.0 / (w * w)
    wpow = inv2
    for coeff, h in zip(_DIGAMMA_BERNOULLI, _ODD_HARMONIC):
        terms.append(coeff * (log_w - h) * wpow)
        wpow *= inv2
    return compensated_sum(terms)
