"""Seeded sampling, cancellation-aware comparison, and suite aggregation.

Each identity draws valid parameter points from a per-identity region by
rejection against its domain constraints, evaluates both sides, and judges
the gap under the identity's comparison mode with the tolerance scaled by
the measured conditioning (peak accumulation over result magnitude).
Evaluation failures are recorded as non-passing results, never dropped.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .identities import (
    EvalPoint,
    IdentitySpec,
    SideEvaluationError,
    SideExpr,
    evaluate_side,
    get_identity,
    list_identities,
    side_terms,
)
from .numerics import (
    CancellationMeter,
    ConvergenceError,
    DomainError,
    PrecisionPolicy,
)

__all__ = [
    "SampleStrategy",
    "VerificationResult",
    "IdentityReport",
    "SuiteReport",
    "DEFAULT_SEED",
    "default_strategy",
    "sample_points",
    "verify_identity",
    "run_suite",
    "mutated_spec",
]

DEFAULT_SEED = 20240601
DEFAULT_POLE_MARGIN = 0.05

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SampleStrategy:
    """How many points to draw for an identity, and from which seed.

    Where they are drawn is the identity's own: its region, its domain
    constraints, and the margin DEFAULT_POLE_MARGIN from every pole.
    """

    seed: int
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise DomainError("count must be >= 0")


def default_strategy(identity_id: str, count: int = 100,
                     seed: int = DEFAULT_SEED) -> SampleStrategy:
    """count points from seed; an id not in the registry raises
    UnknownIdentityError."""
    get_identity(identity_id)
    return SampleStrategy(seed=seed, count=count)


def _draw_point(spec: IdentitySpec, rng: random.Random) -> EvalPoint:
    """One draw from spec.region: "n" first, then the other fields in key order."""
    values = {}
    if "n" in spec.region:
        values["n"] = rng.randint(*spec.region["n"])
    for name, box in spec.region.items():
        if name == "n":
            continue
        if isinstance(box[0], int):  # an inclusive integer range (lo, hi)
            values[name] = complex(rng.randint(*box), 0.0)
            continue
        (re_lo, re_hi), (im_lo, im_hi) = box
        re = rng.uniform(re_lo, re_hi)
        im = rng.uniform(im_lo, im_hi) if im_hi > im_lo else im_lo
        values[name] = complex(re, im)
    if spec.lift is not None:
        values = spec.lift(values)
    return EvalPoint(**values)


def sample_points(spec: IdentitySpec, strategy: SampleStrategy) -> list:
    """Rejection-sample `count` in-domain points, deterministically from the seed."""
    rng = random.Random(f"{strategy.seed}:{spec.id}")
    points = []
    for _ in range(strategy.count):
        for _attempt in range(1000):
            candidate = _draw_point(spec, rng)
            if spec.constraints(candidate, DEFAULT_POLE_MARGIN):
                points.append(candidate)
                break
        else:
            raise ConvergenceError(
                f"sampling for {spec.id} exhausted 1000 rejection attempts; "
                f"region too tight for pole_margin={DEFAULT_POLE_MARGIN}"
            )
    return points


@dataclass(frozen=True)
class VerificationResult:
    identity_id: str
    index: int
    point: EvalPoint
    lhs: Optional[complex]
    rhs: Optional[complex]
    abs_err: Optional[float]
    rel_err: Optional[float]
    cond: float
    passed: bool
    mode: str
    tol: float
    branch_integer: Optional[int] = None
    error: Optional[str] = None


def _judge(mode: str, lhs: complex, rhs: complex, cond: float, tol: float,
           policy: PrecisionPolicy):
    """Return (passed, abs_err, rel_err, branch_integer) for one point."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), policy.abs_tol)
    budget = tol * max(1.0, cond)
    branch = None
    if mode == "relative":
        passed = rel_err <= budget
    elif mode == "absolute":
        passed = abs_err <= budget
    elif mode == "mod_2pi_i":
        d = lhs - rhs
        branch = int(round(d.imag / _TWO_PI))
        resid = abs(d - complex(0.0, _TWO_PI * branch))
        passed = resid / max(abs(lhs), abs(rhs), policy.abs_tol) <= budget
    else:
        raise DomainError(f"unknown compare mode {mode!r}")
    return passed, abs_err, rel_err, branch


def _verify_trend_point(spec, index, point, policy, tol):
    """A limit identity's point: it passes when |P_n - L| falls strictly over
    spec.trend's n range and its last value is below tol, P_n the running
    products of the left side's factors and L the right side."""
    meter = CancellationMeter()
    try:
        limit = evaluate_side("rhs", spec.rhs, point, policy, meter)
        products = spec.trend.partial_products(
            side_terms("lhs", spec.lhs, point, policy, meter))
    except (SideEvaluationError, DomainError, ConvergenceError) as exc:
        return VerificationResult(spec.id, index, point, None, None, None, None,
                                  1.0, False, "trend", tol, error=str(exc))
    errs = [abs(p - limit) for p in products]
    last = products[-1]
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    rel = errs[-1] / max(abs(last), abs(limit), policy.abs_tol)
    return VerificationResult(spec.id, index, point, last, limit, errs[-1],
                              rel, 1.0, monotone and errs[-1] < tol, "trend", tol)


def _verify_one_point(spec, index, point, policy, tol):
    if spec.trend is not None:
        return _verify_trend_point(spec, index, point, policy, tol)
    meter = CancellationMeter()
    try:
        lhs = evaluate_side("lhs", spec.lhs, point, policy, meter)
        rhs = evaluate_side("rhs", spec.rhs, point, policy, meter)
    except (SideEvaluationError, DomainError, ConvergenceError) as exc:
        return VerificationResult(spec.id, index, point, None, None, None, None,
                                  1.0, False, spec.compare_mode, tol, error=str(exc))
    cond = max(1.0, meter.peak / max(abs(lhs), policy.abs_tol))
    passed, abs_err, rel_err, branch = _judge(spec.compare_mode, lhs, rhs,
                                              cond, tol, policy)
    return VerificationResult(spec.id, index, point, lhs, rhs, abs_err, rel_err,
                              cond, passed, spec.compare_mode, tol,
                              branch_integer=branch)


def verify_identity(spec: IdentitySpec, strategy: SampleStrategy,
                    policy: PrecisionPolicy = PrecisionPolicy(),
                    tol: Optional[float] = None) -> list:
    """One VerificationResult per sampled point, in sample order, judged at
    `tol` or, when it is None, at the spec's own tolerance."""
    if tol is None:
        tol = spec.tol
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError("tolerance must be positive and finite")
    points = sample_points(spec, strategy)
    return [_verify_one_point(spec, i, p, policy, tol)
            for i, p in enumerate(points)]


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    title: str
    mode: str
    tol: float
    points: int
    passed: int
    worst_rel_err: Optional[float]
    worst_abs_err: Optional[float]
    results: tuple

    @property
    def pass_rate(self) -> float:
        return self.passed / self.points if self.points else 1.0

    @property
    def all_passed(self) -> bool:
        return self.passed == self.points


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple
    seed: int
    count: int
    policy: PrecisionPolicy
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(row.all_passed for row in self.rows)


def _summarize(spec, tol, results) -> IdentityReport:
    rels = [r.rel_err for r in results if r.rel_err is not None]
    abss = [r.abs_err for r in results if r.abs_err is not None]
    return IdentityReport(
        identity_id=spec.id,
        title=spec.title,
        mode="trend" if spec.trend is not None else spec.compare_mode,
        tol=tol,
        points=len(results),
        passed=sum(1 for r in results if r.passed),
        worst_rel_err=max(rels) if rels else None,
        worst_abs_err=max(abss) if abss else None,
        results=tuple(results),
    )


def run_suite(policy: PrecisionPolicy = PrecisionPolicy(),
              tols: Optional[Mapping[str, float]] = None,
              count: int = 100, seed: int = DEFAULT_SEED,
              ids: Optional[Sequence[str]] = None) -> SuiteReport:
    """Verify every registry identity (or the given subset) and aggregate.

    tols maps identity ids to tolerances that replace the specs' own; ids are
    validated against the registry before any evaluation starts.
    """
    tols = tols or {}
    for oid in tols:
        get_identity(oid)
    selected = list_identities() if ids is None else [get_identity(i) for i in ids]
    start = time.perf_counter()
    rows = []
    for spec in selected:
        strategy = SampleStrategy(seed=seed, count=count)
        tol = tols.get(spec.id, spec.tol)
        results = verify_identity(spec, strategy, policy, tol=tol)
        rows.append(_summarize(spec, tol, results))
    wall = time.perf_counter() - start
    return SuiteReport(rows=tuple(rows), seed=seed, count=count, policy=policy,
                       wall_time_s=wall)


def mutated_spec(spec: IdentitySpec) -> IdentitySpec:
    """Same identity with the sign of one right-side term flipped.

    For sums the largest-magnitude top-level term is flipped (flipping a
    negligible term would not be a meaningful corruption); for products one
    factor is negated, which negates the whole side.
    """
    base_rhs = spec.rhs

    def corrupted(pt, policy, meter):
        terms = side_terms("rhs", base_rhs, pt, policy, meter)
        if terms:
            if base_rhs.kind == "product":
                terms[0] = -terms[0]
            else:
                worst = max(range(len(terms)), key=lambda i: abs(terms[i]))
                terms[worst] = -terms[worst]
        yield from terms

    return replace(spec, id=spec.id + "-MUTATED",
                   rhs=SideExpr(base_rhs.kind, corrupted))
