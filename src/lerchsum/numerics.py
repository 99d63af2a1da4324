"""Double-precision complex building blocks.

Everything downstream is built on four primitives: principal-branch log and
power, compensated summation with cancellation tracking (Neumaier steps for
single terms, exact ``math.fsum`` compensation for blocks of terms), and
Richardson-extrapolated central differences.  All values are plain Python
``complex``; overflow and NaN are error conditions, never results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

__all__ = [
    "DomainError",
    "PoleError",
    "ConvergenceError",
    "SumOverflowError",
    "EvaluationError",
    "PrecisionPolicy",
    "CancellationMeter",
    "DerivativeEstimate",
    "principal_log",
    "principal_pow",
    "compensated_sum",
    "richardson_derivative",
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


class EvaluationError(RuntimeError):
    """A user-supplied function failed at a required evaluation point."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Tolerances and budgets shared by every numerical routine.

    rel_tol:   target relative error of series/quadrature truncation
    abs_tol:   floor used when comparing values near zero
    max_terms: hard cap on series length before giving up
    diff_step: base step for Richardson-extrapolated differentiation
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_terms: int = 10**6
    diff_step: float = 1e-3

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError("rel_tol must be positive and finite")
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError("abs_tol must be positive and finite")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not (self.diff_step > 0 and math.isfinite(self.diff_step)):
            raise DomainError("diff_step must be positive and finite")


def _require_finite(z: complex, what: str = "argument") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
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


class CancellationMeter:
    """Compensated accumulator that remembers its largest excursion.

    ``add`` takes one term with a Neumaier step.  ``add_block`` takes a block
    of terms: it forms the same running sums as a loop of ``add`` and adds
    the block's rounding error, computed exactly by ``math.fsum``
    (Shewchuk, Discrete Comput. Geom. 18, 1997), to the compensation.
    ``peak`` is the largest magnitude reached by any term or partial sum fed
    through this meter, the same number either way; dividing it by the final
    result magnitude gives the conditioning estimate used to scale
    verification tolerances.
    """

    __slots__ = ("_sr", "_si", "_cr", "_ci", "peak")

    def __init__(self):
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0
        self.peak = 0.0

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)

    def note(self, magnitude: float) -> None:
        if magnitude > self.peak:
            self.peak = magnitude

    def add(self, term: complex) -> None:
        term = complex(term)
        tr, ti = term.real, term.imag
        if not (math.isfinite(tr) and math.isfinite(ti)):
            raise SumOverflowError("non-finite term fed to compensated sum")
        sr, si = self._sr, self._si
        nr = sr + tr
        if abs(sr) >= abs(tr):
            self._cr += (sr - nr) + tr
        else:
            self._cr += (tr - nr) + sr
        ni = si + ti
        if abs(si) >= abs(ti):
            self._ci += (si - ni) + ti
        else:
            self._ci += (ti - ni) + si
        if not (math.isfinite(nr) and math.isfinite(ni)):
            raise SumOverflowError("partial sum overflowed the double range")
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
    """Neumaier-compensated sum of a finite complex sequence (empty sum is 0)."""
    meter = CancellationMeter()
    return meter.sum(terms)


@dataclass(frozen=True)
class DerivativeEstimate:
    value: complex
    error: float


def richardson_derivative(
    f: Callable[[complex], complex],
    x0: complex,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> DerivativeEstimate:
    """Central-difference derivative with two Richardson levels.

    Uses steps h, h/2, h/4 (h = policy.diff_step), eliminating the h^2 and
    h^4 truncation terms.  The reported error combines the last extrapolation
    update with a roundoff term eps*|f|/h and is calibrated to bound the true
    error for functions analytic in a disk of radius ~4h around x0.
    """
    x0 = _require_finite(x0, "expansion point")
    h = policy.diff_step

    fmax = 0.0

    def stencil(step: float) -> complex:
        nonlocal fmax
        try:
            fp = complex(f(x0 + step))
            fm = complex(f(x0 - step))
        except Exception as exc:  # noqa: BLE001 - report which point failed
            raise EvaluationError(f"function failed near {x0!r} at step {step}") from exc
        fmax = max(fmax, abs(fp), abs(fm))
        return (fp - fm) / (2.0 * step)

    d0 = stencil(h)
    d1 = stencil(h / 2.0)
    d2 = stencil(h / 4.0)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    r2 = (16.0 * r1b - r1a) / 15.0
    truncation = abs(r2 - r1b) + abs(r1b - r1a) / 15.0
    roundoff = 8.0 * _EPS * fmax / (h / 4.0)
    error = 2.0 * truncation + roundoff + 1e-300
    if not (math.isfinite(r2.real) and math.isfinite(r2.imag)):
        raise EvaluationError("derivative stencil produced a non-finite value")
    return DerivativeEstimate(value=r2, error=error)
