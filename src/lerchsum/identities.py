"""Registry of the sixteen verified finite-sum/product identities.

Each entry packages a left side and a right side as evaluable expressions
over a typed parameter point, together with the sampling region, whose
keys are the entry's fields, the domain constraints (pole avoidance, series
convergence), and the comparison mode under which the two sides are
checked.  Sides are decomposed into top-level additive terms (or product
factors) so that the verifier can both propagate their errors to first
order and apply sign-flip mutations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .functions import (
    LerchParams,
    digamma,
    harmonic,
    lerch_phi,
    log_gamma,
    polylog,
    stieltjes_gamma1,
)
from .numerics import (
    CancellationMeter,
    ConvergenceError,
    DomainError,
    ErrorScale,
    PoleError,
    PrecisionPolicy,
    compensated_sum,
    principal_log,
    principal_pow,
)

__all__ = [
    "EvalPoint",
    "IdentitySpec",
    "SideExpr",
    "TrendGate",
    "SideEvaluationError",
    "UnknownIdentityError",
    "list_identities",
    "get_identity",
    "evaluate_sides",
    "evaluate_side",
    "prudnikov_original",
    "nielsen_partial_product",
    "nielsen_limit",
]

_I = 1j
_LN2 = math.log(2.0)
_MAX_N = 24  # 2**n argument scaling stays far from the double overflow range


class UnknownIdentityError(DomainError):
    """Identity id not present in the registry."""


class SideEvaluationError(RuntimeError):
    """A side hit a singularity or convergence failure; carries side + term."""

    def __init__(self, side: str, term_index: int, cause: BaseException):
        super().__init__(f"{side} term {term_index} failed: {cause}")
        self.side = side
        self.term_index = term_index
        self.cause = cause


@dataclass(frozen=True)
class EvalPoint:
    """One concrete assignment of an identity's free parameters."""

    a: Optional[complex] = None
    m: Optional[complex] = None
    k: Optional[complex] = None
    n: Optional[int] = None
    x: Optional[complex] = None
    r: Optional[complex] = None
    z: Optional[complex] = None
    s: Optional[complex] = None

    def __post_init__(self):
        if self.n is not None:
            if not isinstance(self.n, int) or self.n < 0:
                raise DomainError(f"n must be a nonnegative integer, got {self.n!r}")
            if self.n > _MAX_N:
                raise DomainError(f"n={self.n} exceeds the overflow guard cap {_MAX_N}")

    def present(self) -> frozenset:
        return frozenset(f.name for f in fields(self) if getattr(self, f.name) is not None)


TermGen = Callable[[EvalPoint, PrecisionPolicy, ErrorScale], Iterator[complex]]


@dataclass(frozen=True)
class SideExpr:
    """One side of an identity: either a sum of terms or a product of factors."""

    kind: str  # "sum" | "product"
    terms: TermGen

    def __post_init__(self):
        if self.kind not in ("sum", "product"):
            raise DomainError(f"unknown side kind {self.kind!r}")


@dataclass(frozen=True)
class TrendGate:
    """Convergence gate for a limit identity whose left side yields the n_hi
    factors of a product: the errors |P_n - L| of its running products P_n
    against the right side's limit L, n in [n_lo, n_hi], must decrease
    strictly and the last must be below the entry's tol."""

    n_lo: int
    n_hi: int

    def partial_products(self, factors: Iterable[complex]) -> list:
        """[P_n for n in n_lo..n_hi], P_n the product of the first n factors,
        each P_n computed as the product side computes its value."""
        return list(accumulate(factors, mul, initial=1 + 0j))[self.n_lo:]


@dataclass(frozen=True)
class IdentitySpec:
    """One registry entry and everything the verifier needs to check it.

    tol is the comparison tolerance: a point passes when its metric is at
    most tol * max(1, cond), or with a trend gate when its last error is
    below tol.  region's keys are the entry's fields: it maps
    each to its sampling box ((re_lo, re_hi), (im_lo, im_hi)) or, as it
    always maps "n", to an inclusive integer range (lo, hi).  lift, when
    set, maps the drawn field values to the point's values, for a field
    whose box is not in its own units.
    """

    id: str
    title: str
    compare_mode: str  # relative | absolute | mod_2pi_i
    lhs: SideExpr
    rhs: SideExpr
    constraints: Callable[[EvalPoint, float], bool]
    tol: float
    region: Mapping[str, tuple]
    trend: Optional[TrendGate] = None
    lift: Optional[Callable[[dict], dict]] = None


def side_terms(side: str, expr: SideExpr, pt: EvalPoint, policy: PrecisionPolicy,
               scale: ErrorScale) -> list:
    """The side's raw top-level terms, each failure tagged with its index;
    what the terms are built from notes its error scale into scale."""
    out = []
    try:
        for term in expr.terms(pt, policy, scale):
            out.append(complex(term))
    except (ZeroDivisionError, OverflowError, PoleError, ConvergenceError,
            DomainError, ValueError) as exc:
        raise SideEvaluationError(side, len(out), exc) from exc
    return out


def evaluate_side(side: str, expr: SideExpr, pt: EvalPoint, policy: PrecisionPolicy,
                  scale: ErrorScale) -> complex:
    """Combine the side's terms: compensated sum, or running product.

    Adds the side's first-order error scale to scale.  A sum's is absolute:
    Σ|t_i| over its terms plus what the terms note (their inner sums'
    weighted Σ|u_j|, a Phi call's peak times its coefficient).  A product's
    is relative: its factor count, one rounding each, plus what the factors
    note, the absolute errors of their exponents, which are relative errors
    of the product.
    """
    terms = side_terms(side, expr, pt, policy, scale)
    if expr.kind == "sum":
        return compensated_sum(terms, scale)
    scale.note(len(terms))
    value = 1 + 0j
    for t in terms:
        value *= t
    return value


def _rungs(rung: Callable[[float], object], first: int = 0) -> Iterator[tuple]:
    """(rung(2^q), rung(2^(q+1))) for q = first, first + 1, ...: the two
    rungs of one term of a dyadic side, the side's first term taking the
    first pair.  first = -1 starts the ladder at 2^-1, for a side whose term
    p reads the scales 2^(p-1) and 2^p.  A rung may return any value, such
    as a pair (value, peak of its own meter).

    The next term needs rung(2^(q+1)) again, so each high rung is carried
    over as the next low rung: each rung is evaluated once per side.  Zip
    the generator after the side's range of p, so that it evaluates no rung
    past the last term and a failure falls in the term that needs the rung.
    rung(s) builds its argument from the scale s by products, quotients and
    sums with constants; multiplying or dividing by 2 is exact in binary
    floating point (the registry's domains keep the arguments far from
    overflow, see _MAX_N, and from the subnormals), so rung(2^(p+1))
    receives bit for bit the argument that term p writes with coefficients
    twice as large, e.g. 0.25 (2^(p+1) a) = 0.5 (2^p a),
    0.25 (2^(p+1) a - 2) = 0.5 (2^p a - 1) and m / 2^(p-1) = 2 (2^-p m).
    rung must look its function up by module name at call time, so that
    the benchmark's tracer, which swaps those names, sees every call.
    """
    scale = 2.0 ** first
    low = rung(scale)
    while True:
        scale *= 2.0
        high = rung(scale)
        yield low, high
        low = high


# --------------------------------------------------------------------------
# small trig/algebra helpers
# --------------------------------------------------------------------------

def _sec(w: complex) -> complex:
    return 1.0 / cmath.cos(w)


def _csc(w: complex) -> complex:
    return 1.0 / cmath.sin(w)


def _cot(w: complex) -> complex:
    return cmath.cos(w) / cmath.sin(w)


def _dist_sin_zero(w: complex, scale: float) -> float:
    """Distance from w to the zero set of sin(scale*w), measured in w units."""
    y = scale * complex(w)
    dx = y.real % math.pi
    dx = min(dx, math.pi - dx)
    return math.hypot(dx, y.imag) / abs(scale)


def _dist_nonpositive_integer(v: complex) -> float:
    if v.real > 0.5:
        return math.hypot(v.real, v.imag)  # distance to 0 exceeds this anyway
    r = min(0.0, round(v.real))
    return math.hypot(v.real - r, v.imag)


def _is_real(w: Optional[complex]) -> bool:
    return w is not None and complex(w).imag == 0.0


# The sides of the dyadic trigonometric entries evaluate tan, sec and csc at
# 2^-p w, so each field w must keep margin from every rung of a pole ladder:
# the zeros of cos(2^-q w) for q = 0..n+depth and of sin(c w) for c in a set
# of dyadic scales.  Read off the sides, the ladders are
#   ID-00, ID-02  depth 1, c in {2^-n, 2}
#   ID-03         depth 1, c in {1, 2^-(n+1)}           (fields m and r)
#   ID-05         depth 2, c in {1, 1/2, 2^-(n+1), 2^-(n+2)}
#   ID-06         depth 2, c in {2^-q : q = -1..n+2}
#   ID-15         depth 2, c in {2, 1, 2^-(n+1), 2^-(n+2)}
# Every rung's zeros lie in (pi/2)Z: cos(2^-q w) vanishes at
# w = 2^q (pi/2)(2j+1), and sin(2^-k w) with k >= -1 at w = 2^k pi j.  And
# every ladder holds all of (pi/2)Z, through sin(2w) (ID-00, ID-02, ID-06,
# ID-15) or through cos(w) and sin(w) together (ID-03, ID-05).  So the
# distance from w to the ladder's poles is its distance to (pi/2)Z, the zero
# set of sin(2w), whatever n is.  tests/helpers.py keeps the rung-by-rung
# check as an oracle for this one.

def _dyadic_poles(fields: Sequence[str]):
    """Domain check of a dyadic trigonometric entry: each field w keeps
    margin from (pi/2)Z, which holds the poles of every rung of its ladder."""
    def check(pt, margin):
        if pt.n is None:
            return False
        for name in fields:
            w = getattr(pt, name)
            if w is None or _dist_sin_zero(complex(w), 2.0) < margin:
                return False
        return True
    return check


# --------------------------------------------------------------------------
# ID-00: telescoped integrand identity
#   sum_{p=0}^n -2^-p tan(2^-p-1 u) sec(2^-p u) = 2^-n csc(2^-n u) - 2 csc(2u)
# --------------------------------------------------------------------------

def _id00_lhs(pt, policy, scale):
    u = complex(pt.m)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        yield -tp * cmath.tan(0.5 * tp * u) * _sec(tp * u)


def _id00_rhs(pt, policy, scale):
    u = complex(pt.m)
    tn = 2.0 ** -pt.n
    yield tn * _csc(tn * u)
    yield -2.0 * _csc(2.0 * u)


_TAN_SEC_POLES = _dyadic_poles(("m",))


# --------------------------------------------------------------------------
# ID-01: the main finite-sum identity for Phi
# --------------------------------------------------------------------------

def _id01_lhs(pt, policy, scale):
    a, m, k = complex(pt.a), complex(pt.m), complex(pt.k)
    la = principal_log(a)

    def rung(s):
        local = CancellationMeter()
        value = lerch_phi(LerchParams(-cmath.exp(_I * m / s), -k, 1.0 - _I * s * la),
                          policy, local)
        return value, local.peak

    for p, ((phi1, peak1), (phi2, peak2)) in zip(range(pt.n + 1), _rungs(rung, first=-1)):
        tp = 2.0 ** -p
        e1 = cmath.exp(_I * m * tp)
        c1 = tp * e1 * principal_pow(_I * tp, k) * e1
        c2 = tp * e1 * principal_pow(_I * tp * 0.5, k)
        scale.note(max(peak1, peak2) * max(abs(c1), abs(c2)))
        yield c1 * phi1
        yield -c2 * phi2


def _id01_rhs(pt, policy, scale):
    a, m, k = complex(pt.a), complex(pt.m), complex(pt.k)
    la = principal_log(a)
    tn = 2.0 ** -pt.n
    local = CancellationMeter()
    phi1 = lerch_phi(LerchParams(cmath.exp(_I * 2.0 * tn * m), -k,
                                 0.5 * (1.0 - _I * 2.0 ** pt.n * la)), policy, local)
    phi2 = lerch_phi(LerchParams(cmath.exp(4.0 * _I * m), -k,
                                 0.5 - 0.25 * _I * la), policy, local)
    c1 = _I * principal_pow(_I * tn, k + 1) * cmath.exp(_I * m * tn)
    c2 = principal_pow(_I, k) * principal_pow(2.0, k + 1) * cmath.exp(2.0 * _I * m)
    scale.note(local.peak * max(abs(c1), abs(c2)))
    yield c1 * phi1
    yield c2 * phi2


def _id01_constraints(pt, margin):
    if pt.a is None or pt.m is None or pt.k is None or pt.n is None:
        return False
    m = complex(pt.m)
    if m.imag < max(margin, 1e-6):
        return False  # every Phi base must sit strictly inside the unit disk
    la = principal_log(complex(pt.a))
    if abs(la) > 2.0 ** -pt.n:
        return False
    # the guard keeps the left side's shifts 1 - i 2^q log a at Re >= 1/2 for
    # q < n, and the q = n one is twice the first shift checked here
    if _dist_nonpositive_integer(0.5 * (1.0 - _I * 2.0 ** pt.n * la)) < margin:
        return False
    return _dist_nonpositive_integer(0.5 - 0.25 * _I * la) >= margin


def _id01_lift(values: dict) -> dict:
    """'a' is drawn in log units of 2^-n: a = exp(drawn * 2^-n), so every
    draw meets the guard |log a| <= 2^-n whatever n is."""
    return {**values, "a": cmath.exp(values["a"] * (2.0 ** -values["n"]))}


# --------------------------------------------------------------------------
# ID-02: degenerate case
#   sum 2^-p-1 tan(m 2^-p-1) sec(m 2^-p) = csc(2m) - 2^-n-1 csc(m 2^-n)
# Its poles are those of ID-00, so it shares _TAN_SEC_POLES.
# --------------------------------------------------------------------------

def _id02_lhs(pt, policy, scale):
    m = complex(pt.m)
    for p in range(pt.n + 1):
        tp = 2.0 ** -(p + 1)
        yield tp * cmath.tan(m * tp) * _sec(m * 2.0 ** -p)


def _id02_rhs(pt, policy, scale):
    m = complex(pt.m)
    yield _csc(2.0 * m)
    yield -(2.0 ** -(pt.n + 1)) * _csc(m * 2.0 ** -pt.n)


def _id02_rhs_prudnikov(pt, policy, scale):
    # RHS with the two terms deliberately swapped in sign: the uncorrected
    # tabulated form that the degenerate case supersedes
    m = complex(pt.m)
    yield (2.0 ** -(pt.n + 1)) * _csc(m * 2.0 ** -pt.n)
    yield -_csc(2.0 * m)


# --------------------------------------------------------------------------
# ID-03: two-parameter cosine-ratio product
# --------------------------------------------------------------------------

def _id03_lhs(pt, policy, scale):
    m, r = complex(pt.m), complex(pt.r)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        yield ((cmath.cos(tp * m) / cmath.cos(tp * r))
               * (cmath.cos(0.5 * tp * r) / cmath.cos(0.5 * tp * m)) ** 2)


def _id03_rhs(pt, policy, scale):
    m, r = complex(pt.m), complex(pt.r)
    th = 2.0 ** -(pt.n + 1)
    yield (cmath.tan(th * m) * cmath.tan(r)) / (cmath.tan(m) * cmath.tan(th * r))


# --------------------------------------------------------------------------
# ID-04: functional equation for Phi(z, s, a)
# --------------------------------------------------------------------------

def _id04_lhs(pt, policy, scale):
    yield lerch_phi(LerchParams(complex(pt.z), complex(pt.s), complex(pt.a)), policy, scale)


def _id04_rhs(pt, policy, scale):
    z, s, a = complex(pt.z), complex(pt.s), complex(pt.a)
    local = CancellationMeter()
    p8 = principal_pow(8.0, -s)
    p4 = principal_pow(4.0, s)
    p2 = principal_pow(2.0, s)
    phi1 = lerch_phi(LerchParams(-z * z, s, 0.5 * (a + 1.0)), policy, local)
    phi2 = lerch_phi(LerchParams(z * z, s, 0.5 * a), policy, local)
    z4 = z ** 4
    phi3 = lerch_phi(LerchParams(-z4, s, 0.25 * (a + 3.0)), policy, local)
    phi4 = lerch_phi(LerchParams(z4 * z4, s, 0.125 * (a + 3.0)), policy, local)
    z3 = z ** 3
    scale.note(local.peak * abs(p8) * max(abs(p4), 2.0 * abs(p2 * z3), 4.0 * abs(z3)))
    yield p8 * p4 * z * phi1
    yield p8 * p4 * phi2
    yield -2.0 * p8 * p2 * z3 * phi3
    yield 4.0 * p8 * z3 * phi4


def _id04_constraints(pt, margin):
    if pt.z is None or pt.s is None or pt.a is None:
        return False
    z, a = complex(pt.z), complex(pt.a)
    return abs(z) <= 0.8 and a.real >= max(margin, 1e-6)


# --------------------------------------------------------------------------
# ID-05: cosine-ratio product (cubic form)
# --------------------------------------------------------------------------

def _id05_lhs(pt, policy, scale):
    x = complex(pt.x)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        yield (cmath.cos(0.5 * tp * x) ** 3
               / (cmath.cos(0.25 * tp * x) ** 2 * cmath.cos(tp * x)))


def _id05_rhs(pt, policy, scale):
    x = complex(pt.x)
    t1 = 2.0 ** -(pt.n + 2)
    t2 = 2.0 ** -(pt.n + 1)
    yield (cmath.tan(x) * cmath.tan(t1 * x)) / (cmath.tan(0.5 * x) * cmath.tan(t2 * x))


# --------------------------------------------------------------------------
# ID-06: exponential-times-cosine-ratio product
# --------------------------------------------------------------------------

def _id06_lhs(pt, policy, scale):
    x = complex(pt.x)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        csc2 = _csc(2.0 * tp * x)
        # the cosine combination collapses to O((tp*x)^2) and is then blown
        # back up by csc: its weighted Σ|u| is the exponent's absolute error
        # scale, a relative error of the factor
        combo = compensated_sum([cmath.cos(0.5 * tp * x), cmath.cos(1.5 * tp * x),
                                 -3.0 * cmath.cos(tp * x), 1.0 + 0j],
                                scale, abs(2.0 * tp * csc2))
        yield (cmath.cos(0.25 * tp * x) ** 2 * cmath.cos(tp * x) * _sec(0.5 * tp * x) ** 3
               * cmath.exp(-2.0 * tp * combo * csc2))


def _id06_rhs(pt, policy, scale):
    x = complex(pt.x)
    tn = 2.0 ** -pt.n
    expo = compensated_sum([tn * _csc(tn * x), -tn * _csc(0.5 * tn * x),
                            cmath.tan(0.5 * x), -cmath.tan(x), _cot(0.5 * x), -_cot(x)], scale)
    yield (cmath.tan(0.5 * x) * _cot(x) * cmath.tan(0.5 * tn * x) * _cot(0.25 * tn * x)
           * cmath.exp(expo))


# --------------------------------------------------------------------------
# ID-07: log-gamma sum with imaginary-axis arguments; equality mod 2 pi i
# --------------------------------------------------------------------------

def _id07_lhs(pt, policy, scale):
    return _log_gamma_ladder(-_I * principal_log(complex(pt.a)), pt.n, scale)


def _id07_rhs(pt, policy, scale):
    la = principal_log(complex(pt.a))
    n = pt.n
    tn = 2.0 ** -n
    sn = 2.0 ** n
    yield -4.0 * log_gamma(-0.25 * _I * la - 0.5)
    yield -0.5 * la * (2.0 * _I * principal_log(_I * tn) + math.pi - 2.0 * _I * _LN2)
    yield -4.0 * principal_log(-2.0 - _I * la)
    yield 2.0 * principal_log(32.0 * math.pi)
    yield (0.5 * tn) * 4.0 * log_gamma(0.5 * (-_I * sn * la - 1.0))
    yield (0.5 * tn) * 4.0 * principal_log(-1.0 - _I * sn * la)
    yield (0.5 * tn) * (-2.0 * math.log(math.pi))
    yield (0.5 * tn) * (-6.0 * _LN2)


def _real_a_constraints(lo: float, hi: float):
    def check(pt, margin):
        if pt.a is None or not _is_real(pt.a):
            return False
        a = complex(pt.a).real
        return lo <= a <= hi and a - 2.0 >= margin
    return check


# --------------------------------------------------------------------------
# ID-08: log-gamma sum, real-argument alternate form
# --------------------------------------------------------------------------

def _log_gamma_ladder(a: complex, n: int, scale: ErrorScale) -> Iterator[complex]:
    """Terms p = 0..n of ID-08's left side at a, each rung evaluated once.
    ID-07's left side is this at a = -i log a', bit for bit: times -i only
    swaps parts, so the rungs' arguments match, and the last term's ratio
    has numerator and denominator negated."""
    for p, (scaled_lo, scaled_hi), (shifted_lo, shifted_hi) in zip(
            range(n + 1),
            _rungs(lambda s: log_gamma(0.25 * s * a)),
            _rungs(lambda s: log_gamma(0.25 * (s * a - 2.0)))):
        tp = 2.0 ** -p
        sp = 2.0 ** p
        yield tp * compensated_sum([
            2.0 * scaled_lo,
            -2.0 * scaled_hi,
            -2.0 * shifted_lo,
            2.0 * shifted_hi,
            principal_log(2.0 * (a * sp - 1.0) ** 2 / (a * sp - 2.0) ** 2),
        ], scale, tp)


def _id08_lhs(pt, policy, scale):
    return _log_gamma_ladder(complex(pt.a), pt.n, scale)


def _id08_rhs(pt, policy, scale):
    a = complex(pt.a)
    n = pt.n
    tn = 2.0 ** -n
    sn = 2.0 ** n
    root = 2.0 * math.sqrt(2.0 * math.pi)
    yield tn * 2.0 * log_gamma(0.5 * (sn * a - 1.0))
    yield tn * 2.0 * principal_log((a * sn - 1.0) / root)
    yield -4.0 * log_gamma(0.25 * (a - 2.0))
    yield a * math.log(0.5 * tn)
    yield 4.0 * principal_log(2.0 * root / (a - 2.0))


# --------------------------------------------------------------------------
# ID-09: digamma sum
# --------------------------------------------------------------------------

def _id09_lhs(pt, policy, scale):
    a = complex(pt.a)
    for p, (scaled_lo, scaled_hi), (shifted_lo, shifted_hi) in zip(
            range(pt.n + 1),
            _rungs(lambda s: digamma(0.25 * s * a)),
            _rungs(lambda s: digamma(0.25 * (s * a - 2.0)))):
        sp = 2.0 ** p
        yield compensated_sum([
            4.0 / (a * sp * (a * sp - 3.0) + 2.0),
            -scaled_lo,
            2.0 * scaled_hi,
            shifted_lo,
            -2.0 * shifted_hi,
        ], scale)


def _id09_rhs(pt, policy, scale):
    a = complex(pt.a)
    sn = 2.0 ** pt.n
    yield -4.0 / (a * sn - 1.0)
    yield -2.0 * digamma(0.5 * (sn * a - 1.0))
    yield 8.0 / (a - 2.0)
    yield 2.0 * digamma(0.25 * (a - 2.0))
    yield -2.0 * math.log(2.0 ** -(pt.n + 1))


# --------------------------------------------------------------------------
# ID-10: closed-form log-gamma transformation (single parameter)
# --------------------------------------------------------------------------

def _id10_lhs(pt, policy, scale):
    a = complex(pt.a)
    yield log_gamma(0.25 * a)
    g = (cmath.exp(log_gamma(0.25 * (a - 2.0)))
         * cmath.sqrt(cmath.exp(log_gamma(0.5 * (a - 1.0)))
                      / (cmath.exp(log_gamma(0.5 * a)) * cmath.exp(log_gamma(a)))))
    yield principal_log(g)


def _id10_rhs(pt, policy, scale):
    a = complex(pt.a)
    inner = (math.pi ** 0.375 * principal_pow(2.0, 2.0 - 0.5 * a)
             * principal_pow(a + 1.0 / (a - 1.0) - 3.0, 0.25) / (a - 2.0))
    yield 2.0 * principal_log(inner)


# --------------------------------------------------------------------------
# ID-11: extended Nielsen product (factors assembled in log space to avoid
# overflow of Gamma at large 2^p x)
# --------------------------------------------------------------------------

def _nielsen_factors(x: complex, n: int, scale: ErrorScale) -> Iterator[complex]:
    """The ratio factors p = 1..n as exp(e_p), noting each |e_p| into scale:
    e_p = 2^-p [-2^(p-1) x ln 2 + log Gamma((2^p x + 1)/2) - 2 log Gamma((2^p x + 2)/4)]."""
    for p, (lo, hi) in zip(range(1, n + 1),
                           _rungs(lambda s: log_gamma(0.25 * (s * x + 2.0)), first=1)):
        sp = 2.0 ** p
        e = (2.0 ** -p) * (-(0.5 * sp * x) * _LN2 + hi - 2.0 * lo)
        scale.note(abs(e))
        yield cmath.exp(e)


def _id11_lhs(pt, policy, scale):
    return _nielsen_factors(complex(pt.x), pt.n, scale)


def _id11_rhs(pt, policy, scale):
    x = complex(pt.x)
    n = pt.n
    tn = 2.0 ** -n
    sn = 2.0 ** n
    value = (principal_pow(2.0, -0.5 * n * x - tn)
             * principal_pow(sn * x - 1.0, tn)
             * cmath.exp(tn * log_gamma(0.5 * (sn * x - 1.0)))
             / cmath.exp(log_gamma(0.5 * (x + 1.0))))
    yield value


def _id11_constraints(pt, margin):
    return (pt.n is not None and _id12_constraints(pt, margin)
            and abs(complex(pt.x).real - 2.0 ** -pt.n) >= margin)


def nielsen_partial_product(x: complex, n: int) -> complex:
    """Product of the first n ratio factors (p = 1..n), in log space."""
    value = 1 + 0j
    for factor in _nielsen_factors(complex(x), n, ErrorScale()):
        value *= factor
    return value


def nielsen_limit(x: complex) -> complex:
    """(2e)^(-x/2) x^(x/2) / Gamma((x+1)/2), the n -> infinity value."""
    x = complex(x)
    return (principal_pow(2.0 * math.e, -0.5 * x) * principal_pow(x, 0.5 * x)
            / cmath.exp(log_gamma(0.5 * (x + 1.0))))


# --------------------------------------------------------------------------
# ID-12: the infinite limiting case, checked as a convergence trend.
# The lhs yields ID-11's factors up to the gate's upper n.
# --------------------------------------------------------------------------

_ID12_GATE = TrendGate(n_lo=4, n_hi=12)


def _id12_lhs(pt, policy, scale):
    return _nielsen_factors(complex(pt.x), _ID12_GATE.n_hi, scale)


def _id12_rhs(pt, policy, scale):
    yield nielsen_limit(complex(pt.x))


def _id12_constraints(pt, margin):
    if pt.x is None or not _is_real(pt.x):
        return False
    x = complex(pt.x).real
    return 0.0 < x < 1.0


# --------------------------------------------------------------------------
# ID-13: generalized Stieltjes constant sum
# --------------------------------------------------------------------------

def _id13_lhs(pt, policy, scale):
    a = complex(pt.a)
    for p, (h_lo, h_hi), (hs_lo, hs_hi), (g_lo, g_hi), (gs_lo, gs_hi) in zip(
            range(pt.n + 1),
            _rungs(lambda s: harmonic(0.25 * s * a)),
            _rungs(lambda s: harmonic(0.25 * (s * a - 2.0))),
            _rungs(lambda s: stieltjes_gamma1(0.25 * s * a + 1.0, policy)),
            _rungs(lambda s: stieltjes_gamma1(0.25 * (s * a + 2.0), policy))):
        yield compensated_sum([
            principal_log(_I * 2.0 ** (1 - p)) * (h_lo - hs_lo),
            2.0 * principal_log(_I * 2.0 ** -p) * (hs_hi - h_hi),
            -g_lo,
            2.0 * g_hi,
            -2.0 * gs_hi,
            gs_lo,
        ], scale)


def _id13_rhs(pt, policy, scale):
    a = complex(pt.a)
    tn = 2.0 ** -pt.n
    sn = 2.0 ** pt.n
    log_itn = principal_log(_I * tn)
    yield -2.0 * stieltjes_gamma1(0.5 * (sn * a + 1.0), policy)
    yield 2.0 * log_itn * digamma(0.5 * (sn * a + 1.0))
    yield 2.0 * stieltjes_gamma1(0.25 * (a + 2.0), policy)
    yield 0.25 * (-8.0 * _LN2 - 4.0 * _I * math.pi) * digamma(0.25 * (a + 2.0))
    yield log_itn * log_itn
    yield 0.25 * (math.pi - 2.0 * _I * _LN2) ** 2


# --------------------------------------------------------------------------
# ID-14: polylogarithm sum (the main identity at unit shift parameter)
# --------------------------------------------------------------------------

def _id14_lhs(pt, policy, scale):
    m, k = complex(pt.m), complex(pt.k)

    def rung(s):
        local = CancellationMeter()
        value = polylog(-k, -cmath.exp(_I * m / s), policy, local)
        return value, local.peak

    for p, ((li2, peak2), (li1, peak1)) in zip(range(pt.n + 1), _rungs(rung, first=-1)):
        tp = 2.0 ** -p
        c1 = tp * principal_pow(0.5 * tp, k)
        c2 = tp * principal_pow(tp, k)
        scale.note(max(peak1, peak2) * max(abs(c1), abs(c2)))
        yield c1 * li1
        yield -c2 * li2


def _id14_rhs(pt, policy, scale):
    m, k = complex(pt.m), complex(pt.k)
    tn = 2.0 ** -pt.n
    local = CancellationMeter()
    phi1 = lerch_phi(LerchParams(cmath.exp(4.0 * _I * m), -k, 0.5), policy, local)
    phi2 = lerch_phi(LerchParams(cmath.exp(_I * 2.0 * tn * m), -k, 0.5), policy, local)
    c1 = principal_pow(2.0, k + 1) * cmath.exp(2.0 * _I * m)
    c2 = principal_pow(tn, k + 1) * cmath.exp(_I * m * tn)
    scale.note(local.peak * max(abs(c1), abs(c2)))
    yield c1 * phi1
    yield -c2 * phi2


def _id14_constraints(pt, margin):
    if pt.m is None or pt.k is None or pt.n is None:
        return False
    return complex(pt.m).imag >= max(margin, 1e-6)


# --------------------------------------------------------------------------
# ID-15: exponential of trigonometric functions, compared in log space:
# both sides are the exponent sums of the printed products.
# --------------------------------------------------------------------------

def _id15_lhs(pt, policy, scale):
    x = complex(pt.x)
    for p in range(pt.n + 1):
        tp = 2.0 ** -p
        weight = 4.0 ** (1 - p)
        yield weight * compensated_sum([_sec(0.25 * tp * x) ** 2,
                                        -3.0 * _sec(0.5 * tp * x) ** 2,
                                        2.0 * _sec(tp * x) ** 2], scale, weight)


def _id15_rhs(pt, policy, scale):
    x = complex(pt.x)
    n = pt.n
    tn = 2.0 ** -n
    weight = 2.0 ** (1 - 2 * n)
    yield weight * compensated_sum([-_csc(0.25 * tn * x) ** 2, _csc(0.5 * tn * x) ** 2,
                                    _sec(0.25 * tn * x) ** 2, -_sec(0.5 * tn * x) ** 2],
                                   scale, weight)
    yield 32.0 * _cot(x) * _csc(x)
    yield -32.0 * _cot(2.0 * x) * _csc(2.0 * x)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_REGISTRY = (
    IdentitySpec(
        id="ID-00", title="integrand-identity", compare_mode="relative",
        lhs=SideExpr("sum", _id00_lhs), rhs=SideExpr("sum", _id00_rhs),
        constraints=_TAN_SEC_POLES,
        tol=1e-10,
        region={"m": ((0.2, 2.5), (-1.0, 1.0)), "n": (0, 10)},
    ),
    IdentitySpec(
        id="ID-01", title="main-theorem", compare_mode="relative",
        lhs=SideExpr("sum", _id01_lhs), rhs=SideExpr("sum", _id01_rhs),
        constraints=_id01_constraints,
        tol=1e-9,
        region={"a": ((-0.7, 0.7), (-0.7, 0.7)), "m": ((0.2, 2.5), (0.5, 2.0)),
                "k": ((-3.0, 3.0), (-2.0, 2.0)), "n": (0, 8)},
        lift=_id01_lift,
    ),
    IdentitySpec(
        id="ID-02", title="degenerate", compare_mode="relative",
        lhs=SideExpr("sum", _id02_lhs), rhs=SideExpr("sum", _id02_rhs),
        constraints=_TAN_SEC_POLES,
        tol=1e-10,
        region={"m": ((0.2, 2.5), (0.0, 0.0)), "n": (0, 10)},
    ),
    IdentitySpec(
        id="ID-03", title="cos-ratio-two-param", compare_mode="relative",
        lhs=SideExpr("product", _id03_lhs), rhs=SideExpr("product", _id03_rhs),
        constraints=_dyadic_poles(("m", "r")),
        tol=1e-9,
        region={"m": ((0.2, 2.5), (0.0, 0.0)), "r": ((0.2, 2.5), (0.0, 0.0)),
                "n": (0, 10)},
    ),
    IdentitySpec(
        id="ID-04", title="functional-equation", compare_mode="relative",
        lhs=SideExpr("sum", _id04_lhs), rhs=SideExpr("sum", _id04_rhs),
        constraints=_id04_constraints,
        tol=1e-9,
        region={"z": ((-0.8, 0.8), (-0.8, 0.8)), "s": ((-2.0, 3.0), (-2.0, 2.0)),
                "a": ((0.5, 4.0), (-1.0, 1.0))},
    ),
    IdentitySpec(
        id="ID-05", title="cos-ratio-k1", compare_mode="relative",
        lhs=SideExpr("product", _id05_lhs), rhs=SideExpr("product", _id05_rhs),
        constraints=_dyadic_poles(("x",)),
        tol=1e-9,
        region={"x": ((0.2, 2.5), (0.0, 0.0)), "n": (0, 10)},
    ),
    IdentitySpec(
        id="ID-06", title="exp-cos-product", compare_mode="relative",
        lhs=SideExpr("product", _id06_lhs), rhs=SideExpr("product", _id06_rhs),
        constraints=_dyadic_poles(("x",)),
        tol=1e-7,
        region={"x": ((0.2, 2.5), (0.0, 0.0)), "n": (0, 10)},
    ),
    IdentitySpec(
        id="ID-07", title="loggamma-sum", compare_mode="mod_2pi_i",
        lhs=SideExpr("sum", _id07_lhs), rhs=SideExpr("sum", _id07_rhs),
        constraints=_real_a_constraints(2.0, 8.5),
        tol=1e-9,
        region={"a": ((2.1, 8.0), (0.0, 0.0)), "n": (0, 8)},
    ),
    IdentitySpec(
        id="ID-08", title="loggamma-sum-alt", compare_mode="relative",
        lhs=SideExpr("sum", _id08_lhs), rhs=SideExpr("sum", _id08_rhs),
        constraints=_real_a_constraints(2.0, 8.5),
        tol=1e-9,
        region={"a": ((2.1, 8.0), (0.0, 0.0)), "n": (0, 8)},
    ),
    IdentitySpec(
        id="ID-09", title="digamma-sum", compare_mode="relative",
        lhs=SideExpr("sum", _id09_lhs), rhs=SideExpr("sum", _id09_rhs),
        constraints=_real_a_constraints(2.0, 8.5),
        tol=1e-9,
        region={"a": ((2.1, 8.0), (0.0, 0.0)), "n": (0, 8)},
    ),
    IdentitySpec(
        id="ID-10", title="loggamma-transform", compare_mode="relative",
        lhs=SideExpr("sum", _id10_lhs), rhs=SideExpr("sum", _id10_rhs),
        constraints=_real_a_constraints(2.0, 8.5),
        tol=1e-9,
        region={"a": ((2.1, 8.0), (0.0, 0.0))},
    ),
    IdentitySpec(
        id="ID-11", title="nielsen-product", compare_mode="relative",
        lhs=SideExpr("product", _id11_lhs), rhs=SideExpr("product", _id11_rhs),
        constraints=_id11_constraints,
        tol=1e-9,
        region={"x": ((0.05, 0.95), (0.0, 0.0)), "n": (1, 10)},
    ),
    IdentitySpec(
        id="ID-12", title="nielsen-infinite", compare_mode="relative",
        lhs=SideExpr("product", _id12_lhs), rhs=SideExpr("product", _id12_rhs),
        constraints=_id12_constraints,
        tol=1e-6,
        region={"x": ((0.05, 0.95), (0.0, 0.0))},
        trend=_ID12_GATE,
    ),
    IdentitySpec(
        id="ID-13", title="stieltjes-sum", compare_mode="absolute",
        lhs=SideExpr("sum", _id13_lhs), rhs=SideExpr("sum", _id13_rhs),
        constraints=_real_a_constraints(2.0, 6.5),
        tol=1e-10,  # gamma_1 is summed to rel_tol/100; worst raw gap ~3e-14
        region={"a": ((2.1, 6.0), (0.0, 0.0)), "n": (0, 6)},
    ),
    IdentitySpec(
        id="ID-14", title="polylog-sum", compare_mode="relative",
        lhs=SideExpr("sum", _id14_lhs), rhs=SideExpr("sum", _id14_rhs),
        constraints=_id14_constraints,
        tol=1e-9,
        region={"m": ((0.2, 2.5), (0.5, 2.0)), "k": ((-3.0, 3.0), (-2.0, 2.0)),
                "n": (0, 8)},
    ),
    IdentitySpec(
        id="ID-15", title="exp-trig-product", compare_mode="relative",
        lhs=SideExpr("sum", _id15_lhs), rhs=SideExpr("sum", _id15_rhs),
        constraints=_dyadic_poles(("x",)),
        tol=1e-8,
        region={"x": ((0.2, 2.5), (0.0, 0.0)), "n": (0, 10)},
    ),
)

_BY_ID = {spec.id: spec for spec in _REGISTRY}


def list_identities() -> tuple:
    """All registry entries, stable order, stable ids."""
    return _REGISTRY


def get_identity(identity_id: str) -> IdentitySpec:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity id {identity_id!r}") from None


def prudnikov_original() -> IdentitySpec:
    """The uncorrected tabulated variant of ID-02 (right side negated).

    Deliberately excluded from list_identities(): it exists so tests can
    confirm that the comparator rejects the erroneous printed form while the
    corrected one passes.
    """
    return replace(
        get_identity("ID-02"),
        id="ID-02-PRUDNIKOV-ORIGINAL", title="degenerate-uncorrected",
        rhs=SideExpr("sum", _id02_rhs_prudnikov),
    )


def evaluate_sides(identity_id: str, point: EvalPoint,
                   policy: PrecisionPolicy = PrecisionPolicy()) -> tuple:
    """Evaluate both sides of a registry identity at one parameter point.

    The point must carry exactly the identity's fields, its region's keys,
    and satisfy its domain constraints.  Raises SideEvaluationError (tagged
    with side and term index) if a singularity or convergence failure is hit
    mid-sum.
    """
    spec = get_identity(identity_id)
    declared = frozenset(spec.region)
    if point.present() != declared:
        raise DomainError(
            f"{identity_id} needs exactly fields {sorted(declared)}, "
            f"got {sorted(point.present())}"
        )
    if not spec.constraints(point, 1e-9):
        raise DomainError(f"{identity_id}: point violates domain constraints")
    lhs = evaluate_side("lhs", spec.lhs, point, policy, ErrorScale())
    rhs = evaluate_side("rhs", spec.rhs, point, policy, ErrorScale())
    return lhs, rhs
