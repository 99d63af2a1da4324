"""Slow, independent reference evaluators.

These certify the fast paths: a brute-force series for Phi with an explicit
tail bound, a from-scratch re-transcription of every registry identity (no
shared code with the registry evaluators beyond the special-function
primitives, and sums/products accumulated in reverse index order with plain
floating addition to decorrelate roundoff), and a sequence probe for the
infinite-product limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .functions import (
    LerchParams,
    digamma,
    harmonic,
    lerch_phi,
    log_gamma,
    polylog,
    stieltjes_gamma1,
)
from .identities import EvalPoint, UnknownIdentityError, get_identity
from .numerics import DomainError, PoleError, PrecisionPolicy, principal_log, principal_pow

__all__ = [
    "OracleReport",
    "ProbeResult",
    "phi_series_bruteforce",
    "finite_sum_direct",
    "limit_probe",
]

_I = 1j


@dataclass(frozen=True)
class OracleReport:
    value: complex
    error_bound: float  # absolute
    method: str
    work: int  # terms or nodes actually used

    def __post_init__(self):
        if not (self.error_bound > 0 and math.isfinite(self.error_bound)):
            raise DomainError("error_bound must be positive and finite")
        if self.work < 1:
            raise DomainError("work must be >= 1")


@dataclass(frozen=True)
class ProbeResult:
    values: tuple
    diffs: tuple  # successive absolute differences |f(i+1) - f(i)|


def phi_series_bruteforce(params: LerchParams, terms: int) -> OracleReport:
    """Phi by summing exactly `terms` series terms, with an explicit tail bound.

    error_bound = |z|^(terms+1)/(1-|z|) * max |(v+n)^(-s)| over a 100-point
    probe of the tail, floored at 1e-300 when everything underflows.  It is
    a truncation bound; callers comparing against other routes must allow
    for double rounding of the summation itself on top of it.
    """
    z, s, v = complex(params.z), complex(params.s), complex(params.v)
    if abs(z) > 0.99:
        raise DomainError(f"bruteforce oracle needs |z| <= 0.99, got {abs(z):.6g}")
    if v.imag == 0.0 and v.real <= 0 and abs(v.real - round(v.real)) < 1e-12:
        raise PoleError(f"v={v!r} is a nonpositive integer")
    if not 1 <= terms <= 10**6:
        raise DomainError("terms must be in [1, 10^6] (oracle work budget)")

    total = 0j
    comp = 0j
    zpow = 1.0 + 0j
    for n in range(terms):
        term = cmath.exp(-s * principal_log(v + n)) * zpow
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        zpow *= z

    az = abs(z)
    if az == 0.0:
        tail = 0.0
    else:
        probe_max = 0.0
        span = max(terms, 100)
        for j in range(100):
            n = terms + 1 + (j * span) // 100
            probe_max = max(probe_max, abs(cmath.exp(-s * principal_log(v + n))))
        tail = az ** (terms + 1) / (1.0 - az) * probe_max
    return OracleReport(value=total, error_bound=max(tail, 1e-300),
                        method="series-bruteforce", work=terms)


def limit_probe(f: Callable[[int], complex], n_max: int) -> ProbeResult:
    """Evaluate f at n = 1..n_max; report values and successive |differences|."""
    if n_max < 4:
        raise DomainError("n_max must be >= 4")
    values = tuple(complex(f(n)) for n in range(1, n_max + 1))
    diffs = tuple(abs(values[i + 1] - values[i]) for i in range(len(values) - 1))
    return ProbeResult(values=values, diffs=diffs)


# --------------------------------------------------------------------------
# Re-transcribed identity sides.  Kept deliberately naive: reversed loops,
# bare `+` accumulation, formulas written out without factoring tricks.
# --------------------------------------------------------------------------

def _phi(z, s, v, policy):
    return lerch_phi(LerchParams(z, s, v), policy)


def _o_id00(pt, policy):
    u = complex(pt.m)
    n = pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += -(2.0 ** -p) * cmath.tan(2.0 ** (-p - 1) * u) / cmath.cos(2.0 ** -p * u)
    rhs = 2.0 ** -n / cmath.sin(2.0 ** -n * u) - 2.0 / cmath.sin(2.0 * u)
    return lhs, rhs


def _o_id01(pt, policy):
    a, m, k, n = complex(pt.a), complex(pt.m), complex(pt.k), pt.n
    la = principal_log(a)
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (2.0 ** -p) * cmath.exp(_I * m * 2.0 ** -p) * (
            principal_pow(_I * 2.0 ** -p, k) * cmath.exp(_I * m * 2.0 ** -p)
            * _phi(-cmath.exp(_I * 2.0 ** (1 - p) * m), -k, 1.0 - _I * 2.0 ** (p - 1) * la, policy)
            - principal_pow(_I * 2.0 ** (-p - 1), k)
            * _phi(-cmath.exp(_I * 2.0 ** -p * m), -k, 1.0 - _I * 2.0 ** p * la, policy)
        )
    rhs = (_I * principal_pow(_I * 2.0 ** -n, k + 1) * cmath.exp(_I * m * 2.0 ** -n)
           * _phi(cmath.exp(_I * 2.0 ** (1 - n) * m), -k, 0.5 * (1.0 - _I * 2.0 ** n * la), policy)
           + principal_pow(_I, k) * principal_pow(2.0, k + 1) * cmath.exp(2.0 * _I * m)
           * _phi(cmath.exp(4.0 * _I * m), -k, 0.5 - 0.25 * _I * la, policy))
    return lhs, rhs


def _o_id02(pt, policy):
    m, n = complex(pt.m), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += 2.0 ** (-p - 1) * cmath.tan(m * 2.0 ** (-p - 1)) / cmath.cos(m * 2.0 ** -p)
    rhs = 1.0 / cmath.sin(2.0 * m) - 2.0 ** (-n - 1) / cmath.sin(m * 2.0 ** -n)
    return lhs, rhs


def _o_id03(pt, policy):
    m, r, n = complex(pt.m), complex(pt.r), pt.n
    lhs = 1 + 0j
    for p in range(n, -1, -1):
        lhs *= (cmath.cos(2.0 ** -p * m) / cmath.cos(2.0 ** -p * r)
                * (cmath.cos(2.0 ** (-1 - p) * r) / cmath.cos(2.0 ** (-1 - p) * m)) ** 2)
    rhs = (cmath.tan(2.0 ** (-1 - n) * m) * cmath.tan(r)
           / (cmath.tan(m) * cmath.tan(2.0 ** (-1 - n) * r)))
    return lhs, rhs


def _o_id04(pt, policy):
    z, s, a = complex(pt.z), complex(pt.s), complex(pt.a)
    lhs = _phi(z, s, a, policy)
    rhs = principal_pow(8.0, -s) * (
        principal_pow(4.0, s) * z * _phi(-z ** 2, s, (a + 1.0) / 2.0, policy)
        + principal_pow(4.0, s) * _phi(z ** 2, s, a / 2.0, policy)
        - 2.0 * z ** 3 * (principal_pow(2.0, s) * _phi(-z ** 4, s, (a + 3.0) / 4.0, policy)
                          - 2.0 * _phi(z ** 8, s, (a + 3.0) / 8.0, policy))
    )
    return lhs, rhs


def _o_id05(pt, policy):
    x, n = complex(pt.x), pt.n
    lhs = 1 + 0j
    for p in range(n, -1, -1):
        lhs *= (cmath.cos(2.0 ** (-1 - p) * x) ** 3
                / (cmath.cos(2.0 ** (-2 - p) * x) ** 2 * cmath.cos(2.0 ** -p * x)))
    rhs = (cmath.tan(x) * cmath.tan(2.0 ** (-2 - n) * x)
           / (cmath.tan(x / 2.0) * cmath.tan(2.0 ** (-1 - n) * x)))
    return lhs, rhs


def _o_id06(pt, policy):
    x, n = complex(pt.x), pt.n
    lhs = 1 + 0j
    for p in range(n, -1, -1):
        lhs *= (cmath.cos(2.0 ** (-p - 2) * x) ** 2 * cmath.cos(2.0 ** -p * x)
                / cmath.cos(2.0 ** (-p - 1) * x) ** 3
                * cmath.exp(-(2.0 ** (1 - p))
                            * (cmath.cos(2.0 ** (-p - 1) * x) + cmath.cos(3.0 * 2.0 ** (-p - 1) * x)
                               - 3.0 * cmath.cos(2.0 ** -p * x) + 1.0)
                            / cmath.sin(2.0 ** (1 - p) * x)))
    rhs = (cmath.tan(x / 2.0) / cmath.tan(x) * cmath.tan(2.0 ** (-n - 1) * x)
           / cmath.tan(2.0 ** (-n - 2) * x)
           * cmath.exp(2.0 ** -n * (1.0 / cmath.sin(2.0 ** -n * x)
                                    - 1.0 / cmath.sin(2.0 ** (-n - 1) * x))
                       + cmath.tan(x / 2.0) - cmath.tan(x)
                       + 1.0 / cmath.tan(x / 2.0) - 1.0 / cmath.tan(x)))
    return lhs, rhs


def _o_id07(pt, policy):
    a, n = complex(pt.a), pt.n
    la = principal_log(a)
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (2.0 ** -p) * (
            2.0 * log_gamma(-_I * 2.0 ** (p - 2) * la)
            - 2.0 * log_gamma(-_I * 2.0 ** (p - 1) * la)
            - 2.0 * log_gamma((-_I * 2.0 ** p * la - 2.0) / 4.0)
            + 2.0 * log_gamma((-_I * 2.0 ** p * la - 1.0) / 2.0)
            + principal_log(2.0 * (2.0 ** p * la - _I) ** 2 / (2.0 ** p * la - 2.0 * _I) ** 2)
        )
    rhs = 2.0 ** (-n - 1) * (
        -(2.0 ** n) * (8.0 * log_gamma(-0.25 * _I * la - 0.5)
                       + la * (2.0 * _I * principal_log(_I * 2.0 ** -n)
                               + math.pi - 2.0 * _I * math.log(2.0))
                       + 8.0 * principal_log(-2.0 - _I * la)
                       - 4.0 * principal_log(32.0 * math.pi))
        + 4.0 * log_gamma((-_I * 2.0 ** n * la - 1.0) / 2.0)
        + 4.0 * principal_log(-1.0 - _I * 2.0 ** n * la)
        - 2.0 * math.log(math.pi) - 6.0 * math.log(2.0)
    )
    return lhs, rhs


def _o_id08(pt, policy):
    a, n = complex(pt.a), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (2.0 ** -p) * (
            2.0 * log_gamma(2.0 ** (p - 2) * a) - 2.0 * log_gamma(2.0 ** (p - 1) * a)
            - 2.0 * log_gamma((2.0 ** p * a - 2.0) / 4.0)
            + 2.0 * log_gamma((2.0 ** p * a - 1.0) / 2.0)
            + principal_log(2.0 * (a * 2.0 ** p - 1.0) ** 2 / (a * 2.0 ** p - 2.0) ** 2)
        )
    rhs = (2.0 ** -n * (2.0 * log_gamma((2.0 ** n * a - 1.0) / 2.0)
                        + 2.0 * principal_log((a * 2.0 ** n - 1.0)
                                              / (2.0 * math.sqrt(2.0 * math.pi))))
           - 4.0 * log_gamma((a - 2.0) / 4.0)
           + a * principal_log(2.0 ** (-n - 1.0))
           + 4.0 * principal_log(4.0 * math.sqrt(2.0 * math.pi) / (a - 2.0)))
    return lhs, rhs


def _o_id09(pt, policy):
    a, n = complex(pt.a), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (4.0 / (a * 2.0 ** p * (a * 2.0 ** p - 3.0) + 2.0)
                - digamma(2.0 ** (p - 2) * a) + 2.0 * digamma(2.0 ** (p - 1) * a)
                + digamma((2.0 ** p * a - 2.0) / 4.0)
                - 2.0 * digamma((2.0 ** p * a - 1.0) / 2.0))
    rhs = -2.0 * (2.0 / (a * 2.0 ** n - 1.0) + digamma((2.0 ** n * a - 1.0) / 2.0)
                  - 4.0 / (a - 2.0) - digamma((a - 2.0) / 4.0)
                  + principal_log(2.0 ** (-n - 1.0)))
    return lhs, rhs


def _o_id10(pt, policy):
    a = complex(pt.a)
    gamma = lambda w: cmath.exp(log_gamma(w))  # noqa: E731
    lhs = (principal_log(gamma(a / 4.0))
           + principal_log(gamma((a - 2.0) / 4.0)
                           * cmath.sqrt(gamma((a - 1.0) / 2.0)
                                        / (gamma(a / 2.0) * gamma(a)))))
    rhs = 2.0 * principal_log(math.pi ** (3.0 / 8.0) * principal_pow(2.0, 2.0 - a / 2.0)
                              * principal_pow(a + 1.0 / (a - 1.0) - 3.0, 0.25)
                              / (a - 2.0))
    return lhs, rhs


def _o_id11(pt, policy):
    x, n = complex(pt.x), pt.n
    lhs = 1 + 0j
    for p in range(n, 0, -1):
        log_factor = (-(2.0 ** (p - 1) * x) * math.log(2.0)
                      + log_gamma((2.0 ** p * x + 1.0) / 2.0)
                      - 2.0 * log_gamma((2.0 ** p * x + 2.0) / 4.0))
        lhs *= cmath.exp(2.0 ** -p * log_factor)
    rhs = (principal_pow(2.0, -n * x / 2.0 - 2.0 ** -n)
           * principal_pow(2.0 ** n * x - 1.0, 2.0 ** -n)
           * cmath.exp(2.0 ** -n * log_gamma((2.0 ** n * x - 1.0) / 2.0))
           / cmath.exp(log_gamma((x + 1.0) / 2.0)))
    return lhs, rhs


def _o_id12(pt, policy):
    x = complex(pt.x)
    lhs = 1 + 0j
    for p in range(get_identity("ID-12").trend.n_hi, 0, -1):
        log_factor = (-(2.0 ** (p - 1) * x) * math.log(2.0)
                      + log_gamma((2.0 ** p * x + 1.0) / 2.0)
                      - 2.0 * log_gamma((2.0 ** p * x + 2.0) / 4.0))
        lhs *= cmath.exp(2.0 ** -p * log_factor)
    rhs = (principal_pow(2.0 * math.e, -x / 2.0) * principal_pow(x, x / 2.0)
           / cmath.exp(log_gamma((x + 1.0) / 2.0)))
    return lhs, rhs


def _o_id13(pt, policy):
    a, n = complex(pt.a), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (principal_log(_I * 2.0 ** (1 - p))
                * (harmonic(2.0 ** (p - 2) * a) - harmonic((2.0 ** p * a - 2.0) / 4.0))
                + 2.0 * principal_log(_I * 2.0 ** -p)
                * (harmonic((2.0 ** p * a - 1.0) / 2.0) - harmonic(2.0 ** (p - 1) * a))
                - stieltjes_gamma1(2.0 ** (p - 2) * a + 1.0, policy)
                + 2.0 * stieltjes_gamma1(2.0 ** (p - 1) * a + 1.0, policy)
                - 2.0 * stieltjes_gamma1((2.0 ** p * a + 1.0) / 2.0, policy)
                + stieltjes_gamma1((2.0 ** p * a + 2.0) / 4.0, policy))
    rhs = 0.25 * (
        -8.0 * stieltjes_gamma1((2.0 ** n * a + 1.0) / 2.0, policy)
        + 8.0 * principal_log(_I * 2.0 ** -n) * digamma((2.0 ** n * a + 1.0) / 2.0)
        + 8.0 * stieltjes_gamma1((a + 2.0) / 4.0, policy)
        + (-8.0 * math.log(2.0) - 4.0 * _I * math.pi) * digamma((a + 2.0) / 4.0)
        + 4.0 * principal_log(_I * 2.0 ** -n) ** 2
        + (math.pi - 2.0 * _I * math.log(2.0)) ** 2
    )
    return lhs, rhs


def _o_id14(pt, policy):
    m, k, n = complex(pt.m), complex(pt.k), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += (2.0 ** -p) * (
            principal_pow(2.0 ** (-p - 1), k) * polylog(-k, -cmath.exp(_I * 2.0 ** -p * m), policy)
            - principal_pow(2.0 ** -p, k) * polylog(-k, -cmath.exp(_I * 2.0 ** (1 - p) * m), policy)
        )
    rhs = (principal_pow(2.0, k + 1) * cmath.exp(2.0 * _I * m)
           * _phi(cmath.exp(4.0 * _I * m), -k, 0.5, policy)
           - principal_pow(2.0 ** -n, k + 1) * cmath.exp(_I * m * 2.0 ** -n)
           * _phi(cmath.exp(_I * 2.0 ** (1 - n) * m), -k, 0.5, policy))
    return lhs, rhs


def _o_id15(pt, policy):
    x, n = complex(pt.x), pt.n
    lhs = 0j
    for p in range(n, -1, -1):
        lhs += 4.0 ** (1 - p) * (cmath.cos(2.0 ** (-p - 2) * x) ** -2
                                 - 3.0 * cmath.cos(2.0 ** (-p - 1) * x) ** -2
                                 + 2.0 * cmath.cos(2.0 ** -p * x) ** -2)
    rhs = (2.0 ** (1 - 2 * n) * (-cmath.sin(2.0 ** (-n - 2) * x) ** -2
                                 + cmath.sin(2.0 ** (-n - 1) * x) ** -2
                                 + cmath.cos(2.0 ** (-n - 2) * x) ** -2
                                 - cmath.cos(2.0 ** (-n - 1) * x) ** -2)
           + 32.0 * cmath.cos(x) / cmath.sin(x) ** 2
           - 32.0 * cmath.cos(2.0 * x) / cmath.sin(2.0 * x) ** 2)
    return lhs, rhs


_ORACLES = {
    "ID-00": _o_id00, "ID-01": _o_id01, "ID-02": _o_id02, "ID-03": _o_id03,
    "ID-04": _o_id04, "ID-05": _o_id05, "ID-06": _o_id06, "ID-07": _o_id07,
    "ID-08": _o_id08, "ID-09": _o_id09, "ID-10": _o_id10, "ID-11": _o_id11,
    "ID-12": _o_id12, "ID-13": _o_id13, "ID-14": _o_id14, "ID-15": _o_id15,
}


def finite_sum_direct(identity_id: str, point: EvalPoint,
                      policy: PrecisionPolicy = PrecisionPolicy()) -> tuple:
    """Both sides of an identity by the independent transcription.

    Shares nothing with the registry evaluators beyond the special-function
    primitives; raises the underlying singularity errors unwrapped.
    """
    try:
        evaluator = _ORACLES[identity_id]
    except KeyError:
        raise UnknownIdentityError(f"no oracle for identity id {identity_id!r}") from None
    return evaluator(point, policy)
