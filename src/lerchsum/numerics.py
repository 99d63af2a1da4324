"""Double-precision complex building blocks.

Everything downstream is built on two primitives: principal-branch log and
power, and compensated summation.  Compensated sums come in two
accumulators with the same value bit for bit.  ``CompensatedSum`` adds
blocks of terms with exact ``math.fsum`` compensation and nothing else;
the special functions use it whenever no caller asks for conditioning.
``CancellationMeter`` also takes single terms (Neumaier steps) and records
``peak``, the largest magnitude it has seen.  Only conditioning estimates
read ``peak``: the verifier's, which scales its tolerances, and the
benchmark's eval-mix result check.
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
from typing import Iterable, Sequence

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


class CompensatedSum:
    """Compensated accumulator of blocks of complex terms.

    ``add_block`` forms the sequential running sum of the block's terms and
    adds the block's rounding error, computed exactly by ``math.fsum``
    (Shewchuk, Discrete Comput. Geom. 18, 1997), to the compensation.
    ``value`` is bit for bit the value that CancellationMeter.add_block
    gives for the same blocks; this class only skips the partial-sum lists
    that CancellationMeter needs for its ``peak``.
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
        if len(re) != len(im):
            raise DomainError("add_block needs as many imaginary parts as real parts")
        sr, si = self._sr, self._si
        nr, ni = reduce(add, re, sr), reduce(add, im, si)
        # a non-finite term or partial sum leaves every later partial sum non-finite
        if not (math.isfinite(nr) and math.isfinite(ni)):
            raise SumOverflowError("block of terms overflowed the double range")
        try:
            cr = math.fsum((sr, *re, -nr))
            ci = math.fsum((si, *im, -ni))
        except (OverflowError, ValueError) as exc:
            raise SumOverflowError("block of terms overflowed the double range") from exc
        self._cr += cr
        self._ci += ci
        self._sr, self._si = nr, ni


class CancellationMeter(CompensatedSum):
    """Compensated accumulator that remembers its largest excursion.

    ``add`` takes one term with a Neumaier step.  ``add_block`` takes a block
    of terms: it forms the same running sums as a loop of ``add`` and adds
    the block's exact rounding error, as CompensatedSum.add_block does.
    ``peak`` is the largest magnitude reached by any term or partial sum fed
    through this meter, the same number either way; the verifier divides it
    by the final result magnitude to get the conditioning estimate that
    scales its tolerances.  Only such estimates read ``peak``, so the
    special functions sum into a CompensatedSum unless a caller passes a
    meter.
    The constructor, ``add`` and ``add_block`` are written out in full
    rather than calling CompensatedSum's: the extra call would slow each
    meter, term and block (the verifier builds a meter per inner sum).
    """

    __slots__ = ("peak",)

    def __init__(self):
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0
        self.peak = 0.0

    def note(self, magnitude: float) -> None:
        if magnitude > self.peak:
            self.peak = magnitude

    def add(self, term: complex) -> None:
        """Add one term.  Raises SumOverflowError, leaving the meter as it
        was, when the term or the running sum is not finite."""
        term = complex(term)
        tr, ti = term.real, term.imag
        if not (math.isfinite(tr) and math.isfinite(ti)):
            raise SumOverflowError("non-finite term fed to compensated sum")
        sr, si = self._sr, self._si
        nr = sr + tr
        ni = si + ti
        if not (math.isfinite(nr) and math.isfinite(ni)):
            raise SumOverflowError("partial sum overflowed the double range")
        if abs(sr) >= abs(tr):
            self._cr += (sr - nr) + tr
        else:
            self._cr += (tr - nr) + sr
        if abs(si) >= abs(ti):
            self._ci += (si - ni) + ti
        else:
            self._ci += (ti - ni) + si
        self._sr, self._si = nr, ni
        m = max(abs(tr), abs(ti), abs(nr), abs(ni))
        if m > self.peak:
            self.peak = m

    def add_block(self, re: Sequence[float], im: Sequence[float]) -> None:
        """Add the terms re[i] + im[i]*1j, given as their real and imaginary parts.

        Raises SumOverflowError, leaving the meter as it was, when a term or
        a running sum is not finite.
        """
        if len(re) != len(im):
            raise DomainError("add_block needs as many imaginary parts as real parts")
        sr, si = self._sr, self._si
        partial_r = list(accumulate(re, initial=sr))
        partial_i = list(accumulate(im, initial=si))
        nr, ni = partial_r[-1], partial_i[-1]
        # a non-finite term or partial sum leaves every later partial sum non-finite
        if not (math.isfinite(nr) and math.isfinite(ni)):
            raise SumOverflowError("block of terms overflowed the double range")
        try:
            cr = math.fsum((sr, *re, -nr))
            ci = math.fsum((si, *im, -ni))
        except (OverflowError, ValueError) as exc:
            raise SumOverflowError("block of terms overflowed the double range") from exc
        self._cr += cr
        self._ci += ci
        self._sr, self._si = nr, ni
        m = max(map(abs, chain(re, im, partial_r, partial_i)))
        if m > self.peak:
            self.peak = m

    def sum(self, terms: Iterable[complex]) -> complex:
        for t in terms:
            self.add(t)
        return self.value


def compensated_sum(terms: Sequence[complex]) -> complex:
    """Compensated sum of a finite sequence of complex, real or int terms
    (empty sum is 0), added as one CompensatedSum block."""
    acc = CompensatedSum()
    acc.add_block([t.real for t in terms], [t.imag for t in terms])
    return acc.value

