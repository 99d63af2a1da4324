"""Double-precision complex building blocks.

Everything downstream is built on two primitives: principal-branch log and
power, and compensated summation.  Every compensated sum follows one rule:
its rounding error is computed exactly by ``math.fsum``.  A sum given all at
once (``compensated_sum``: zeta, gamma_1, the identities' inner sums and
sum sides) is the fsum of its real and of its imaginary parts; given a
meter, it also notes its peak there.  A sum streamed in blocks
(``CompensatedSum``) keeps the plain running sums plus the fsum of each
block's rounding error.  ``CancellationMeter`` is a CompensatedSum that also
records ``peak``, the largest term or running sum it has seen.  Only
conditioning estimates read ``peak``: the verifier's, which scales its
tolerances, and the benchmark's eval-mix result check.
All values are plain Python ``complex``; overflow
and NaN are error conditions, never results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add
from typing import Iterable, Optional, Sequence

__all__ = [
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "SumOverflowError",
    "PrecisionPolicy",
    "CompensatedSum",
    "CancellationMeter",
    "principal_log",
    "principal_pow",
    "compensated_sum",
]

_EPS = 2.220446049250313e-16  # 2**-52


class DomainError(ValueError):
    """Input violates a documented precondition."""


class PoleError(DomainError):
    """Evaluation exactly at (or indistinguishably close to) a pole."""


class ConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class SumOverflowError(ConvergenceError):
    """A partial accumulation left the representable double range."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Tolerances and budgets shared by every numerical routine.

    rel_tol:   target relative error of series/quadrature truncation
    abs_tol:   floor used when comparing values near zero
    max_terms: hard cap on series length before giving up
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError("rel_tol must be positive and finite")
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError("abs_tol must be positive and finite")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


def _require_finite(z: complex, what: str = "argument") -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} must be finite, got {z!r}")
    return z


def principal_log(z: complex) -> complex:
    """log|z| + i*arg(z) with arg in (-pi, pi]; the negative real axis maps to +pi."""
    z = _require_finite(z)
    if z == 0:
        raise DomainError("principal_log: argument must be nonzero")
    if z.imag == 0.0:
        # force arg = +pi on the negative real axis regardless of the sign of
        # the imaginary zero, so the branch is (-pi, pi] rather than [-pi, pi)
        if z.real > 0:
            return complex(math.log(z.real), 0.0)
        return complex(math.log(-z.real), math.pi)
    return cmath.log(z)


def principal_pow(z: complex, s: complex) -> complex:
    """exp(s * principal_log(z)); 0**s = 0 for Re(s) > 0, errors otherwise at 0."""
    z = _require_finite(z, "base")
    s = _require_finite(s, "exponent")
    if z == 0:
        if s.real > 0:
            return 0j
        raise DomainError("principal_pow: 0 cannot be raised to Re(s) <= 0")
    if s == 0:
        return 1 + 0j
    return cmath.exp(s * principal_log(z))


def _fsum(xs: Iterable[float]) -> float:
    """Correctly rounded sum of xs by ``math.fsum``.

    Raises SumOverflowError when a term is not finite or the sum overflows
    the double range (fsum's OverflowError, ValueError or non-finite value).
    """
    try:
        total = math.fsum(xs)
    except (OverflowError, ValueError) as exc:
        raise SumOverflowError("sum overflowed the double range") from exc
    if not math.isfinite(total):
        raise SumOverflowError("sum overflowed the double range")
    return total


class CompensatedSum:
    """Compensated accumulator of blocks of complex terms.

    ``add_block`` forms the sequential running sum of the block's terms and
    adds the block's rounding error, computed exactly by ``math.fsum``
    (Shewchuk, Discrete Comput. Geom. 18, 1997), to the compensation.
    """

    __slots__ = ("_sr", "_si", "_cr", "_ci")

    def __init__(self):
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)

    def add_block(self, re: Sequence[float], im: Sequence[float]) -> None:
        """Add the terms re[i] + im[i]*1j, given as their real and imaginary parts.

        Raises SumOverflowError, leaving the sum as it was, when a term or a
        running sum is not finite.
        """
        self._advance(re, im, reduce(add, re, self._sr), reduce(add, im, self._si))

    def _advance(self, re: Sequence[float], im: Sequence[float], nr: float, ni: float) -> None:
        """The block kernel: move the running sums to nr + ni*1j, the block's
        sequential sums from the current state, and add the block's rounding
        error to the compensation."""
        if len(re) != len(im):
            raise DomainError("add_block needs as many imaginary parts as real parts")
        # a non-finite term or running sum leaves _fsum no finite error to return
        cr = _fsum((self._sr, *re, -nr))
        ci = _fsum((self._si, *im, -ni))
        self._cr += cr
        self._ci += ci
        self._sr, self._si = nr, ni


class CancellationMeter(CompensatedSum):
    """Compensated accumulator that remembers its largest excursion.

    ``peak`` is the largest magnitude reached by any term or running sum fed
    through this meter; the verifier divides it by the final result
    magnitude to get the conditioning estimate that scales its tolerances.
    Only such estimates read ``peak``, so the special functions sum into a
    CompensatedSum unless a caller passes a meter.  The running sums and
    compensation are CompensatedSum's, so the value is the same bit for bit.
    """

    __slots__ = ("peak",)

    def __init__(self):
        super().__init__()
        self.peak = 0.0

    def note(self, magnitude: float) -> None:
        if magnitude > self.peak:
            self.peak = magnitude

    def add(self, term: complex) -> None:
        """Add one term: a block of one."""
        term = complex(term)
        self.add_block((term.real,), (term.imag,))

    def add_block(self, re: Sequence[float], im: Sequence[float]) -> None:
        """CompensatedSum.add_block, noting the peak of the terms and running sums."""
        partial_r = list(accumulate(re, initial=self._sr))
        partial_i = list(accumulate(im, initial=self._si))
        self._advance(re, im, partial_r[-1], partial_i[-1])
        m = max(map(abs, chain(re, im, partial_r, partial_i)))
        if m > self.peak:
            self.peak = m


def compensated_sum(terms: Sequence[complex], meter: Optional[CancellationMeter] = None,
                    weight: float = 1.0) -> complex:
    """Correctly rounded sum, part by part, of a finite sequence of complex,
    real or int terms (empty sum is 0).  Raises SumOverflowError when a term
    is not finite or a part overflows.

    Given a meter, notes the sum's peak, the largest part of a term or of a
    running sum, times weight into it: the one place where a one-shot sum's
    cancellation enters a conditioning estimate.
    """
    if len(terms) <= 2:
        # up to two terms, fsum is one correctly rounded addition, and the
        # running sums are the terms and the total.  Summing from +0.0 gives
        # fsum's 0.0 where the parts are -0.0; a sum that is not finite
        # raises below.
        total = sum(terms, 0j)
        if cmath.isfinite(total):
            if meter is not None:
                peak = max(abs(total.real), abs(total.imag))
                for t in terms:
                    peak = max(peak, abs(t.real), abs(t.imag))
                meter.note(peak * weight)
            return total
    re = [t.real for t in terms]
    im = [t.imag for t in terms]
    value = complex(_fsum(re), _fsum(im))
    if meter is not None:
        peak = max(map(abs, chain(re, im, accumulate(re), accumulate(im))), default=0.0)
        meter.note(peak * weight)
    return value
