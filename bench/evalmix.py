"""The eval-mix workload: direct library calls, pre-generated from a seed.

One caller makes the calls back to back (a closed loop with one client) and
no verifier sits around them, as for library and `lerchsum eval` users.  The
mix has a fixed number of calls of each kind, so only the parameters vary
with the seed.  Every result is checked afterwards against an independent
route or a duplication formula (`check_call`).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# |z| bands of the Phi series; the series needs ~ln(1/tol)/(1-|z|) terms, so
# the outer and rim bands carry most of the cost.
PHI_BANDS = (("inner", 0.0, 0.5), ("mid", 0.5, 0.9), ("outer", 0.9, 0.99),
             ("rim", 0.99, 0.999))

# Calls per 1000; exact counts, so the mix itself does not vary with the seed.
# The split of the 505 Phi calls over the bands is measured: it is the split
# of all lerch_phi calls in a whole `lerchsum suite` run at count=100 and the
# default seed (1,323 / 946 / 505 / 68).  The shares of the functions are
# synthetic: no record of library callers exists, and the suite's own mix
# (70% log_gamma, no direct zeta or integral call) would leave the Phi bands
# a few rim calls.  DESIGN.md says which metrics depend on them.
MIX = (
    ("phi.inner", 235),
    ("phi.mid", 168),
    ("phi.outer", 90),
    ("phi.rim", 12),
    ("lerch_phi_integral", 40),
    ("hurwitz_zeta", 130),
    ("log_gamma", 130),
    ("digamma", 130),
    ("stieltjes_gamma1", 20),
    ("polylog", 45),
)
MIX_CALLS = 5000
_LN2 = math.log(2.0)

# Check tolerances: relative disagreement allowed between a result and its
# independent route.  Phi and zeta are summed to PrecisionPolicy.rel_tol =
# 1e-10, so both routes may each be off by about that much; gamma_1 is a
# Richardson-extrapolated derivative documented to ~1e-7 absolute.  The Phi
# series (lerch_phi, polylog) is judged as the verifier judges a side, by
# tol * max(1, cond) with cond = peak partial sum / |result|: near |z| = 1
# with Re s < 0 its terms cancel, and it is then ~9e-9 off at cond ~5e5.
CHECK_TOL = {
    "lerch_phi": 1e-9,
    "lerch_phi_integral": 1e-9,
    "polylog": 1e-9,
    "hurwitz_zeta": 1e-9,
    "log_gamma": 1e-12,
    "digamma": 1e-12,
    "stieltjes_gamma1": 1e-7,
}


@dataclass(frozen=True)
class Call:
    kind: str  # a MIX entry
    fn: str  # public lerchsum function name
    args: tuple


def _band(kind: str) -> tuple:
    name = kind.split(".", 1)[1]
    return next((lo, hi) for band, lo, hi in PHI_BANDS if band == name)


def _z(rng: random.Random, lo: float, hi: float, u: float | None = None) -> complex:
    u = rng.random() if u is None else u
    return cmath.rect(lo + (hi - lo) * u, rng.uniform(-math.pi, math.pi))


def _s(rng: random.Random, re_lo: float = -2.0, u: float | None = None) -> complex:
    u = rng.random() if u is None else u
    return complex(re_lo + (4.0 - re_lo) * u, rng.uniform(-2.0, 2.0))


def _strata(rng: random.Random, n: int) -> list:
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _v(rng: random.Random) -> complex:
    return complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))


def _phi_calls(lib, kind: str, n: int, rng: random.Random) -> list:
    # |z| and Re s set a Phi call's term count, so both are stratified (a
    # Latin hypercube): the cost of the band then varies little with the seed
    radii, re_s = _strata(rng, n), _strata(rng, n)
    return [Call(kind, "lerch_phi",
                 (lib.LerchParams(_z(rng, *_band(kind), u), _s(rng, u=w), _v(rng)),))
            for u, w in zip(radii, re_s)]


def _draw(lib, kind: str, rng: random.Random) -> Call:
    if kind == "lerch_phi_integral":
        params = lib.LerchParams(_z(rng, 0.0, 0.9), _s(rng, 0.2), _v(rng))
        return Call(kind, kind, (params,))
    if kind == "hurwitz_zeta":
        s = _s(rng)
        while abs(s - 1.0) < 0.1:  # stay off the pole at s = 1
            s = _s(rng)
        return Call(kind, kind, (s, _v(rng)))
    if kind in ("log_gamma", "digamma"):
        return Call(kind, kind, (complex(rng.uniform(0.2, 8.0), rng.uniform(-4.0, 4.0)),))
    if kind == "stieltjes_gamma1":
        return Call(kind, kind, (complex(rng.uniform(0.5, 6.0), rng.uniform(-1.0, 1.0)),))
    if kind == "polylog":
        return Call(kind, kind, (_s(rng), _z(rng, 0.5, 0.9)))
    raise ValueError(f"unknown mix entry {kind!r}")


def make_calls(lib, seed: int, total: int = MIX_CALLS) -> list:
    """The seeded call list: MIX scaled to `total` calls, in shuffled order."""
    rng = random.Random(f"{seed}:eval-mix")
    calls = []
    for kind, per_mille in MIX:
        n = max(1, round(per_mille * total / 1000))
        if kind.startswith("phi."):
            calls.extend(_phi_calls(lib, kind, n, rng))
        else:
            calls.extend(_draw(lib, kind, rng) for _ in range(n))
    rng.shuffle(calls)
    return calls


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _phi_reference(lib, params, meter) -> complex:
    """Phi by a route other than the one lerch_phi takes.

    Brute-force series up to |z| = 0.99, the integral route for Re s >= 0.05,
    and otherwise the split into even and odd terms,
    Phi(z, s, v) = 2^-s [Phi(z^2, s, v/2) + z Phi(z^2, s, (v+1)/2)],
    whose halves are series in z^2 with their own truncation points.  The
    split's own cancellation is noted in `meter`.
    """
    z, s, v = complex(params.z), complex(params.s), complex(params.v)
    if abs(z) <= 0.99:
        terms = 64
        while True:
            ref = lib.phi_series_bruteforce(params, terms)
            if ref.error_bound <= 1e-13 * abs(ref.value) or terms >= 10**6:
                return ref.value
            terms = min(10**6, terms * 2)
    # The integral route cuts its left tail at u = -45/max(Re s, 0.05), so it
    # is only accurate from Re s ~ 0.03 up (1e-4 off at Re s = 0.01).
    if s.real >= 0.05 and v.real > 0:
        return lib.lerch_phi_integral(params)
    half = lib.principal_pow(2.0, -s)
    even = half * _phi_reference(lib, lib.LerchParams(z * z, s, v / 2.0), meter)
    odd = half * z * _phi_reference(lib, lib.LerchParams(z * z, s, (v + 1.0) / 2.0), meter)
    meter.note(max(abs(even), abs(odd)))
    return even + odd


def _phi_series_check(lib, params, result: complex, scale: complex = 1.0) -> float:
    """Relative disagreement of scale * Phi(params) with its reference, over
    max(1, cond) of the series and of the reference."""
    meter = lib.numerics.CancellationMeter()
    lib.lerch_phi(params, lib.PrecisionPolicy(), meter)
    ref = scale * _phi_reference(lib, params, meter)
    cond = max(1.0, meter.peak * abs(scale) / max(abs(result), 1e-300))
    return _rel(result, ref) / cond


def check_call(lib, call: Call, result: complex) -> float:
    """Disagreement of `result` with an independent value, over CHECK_TOL."""
    fn = call.fn
    if fn == "lerch_phi":
        err = _phi_series_check(lib, call.args[0], result)
    elif fn == "lerch_phi_integral":
        err = _rel(result, _phi_reference(lib, call.args[0], lib.numerics.CancellationMeter()))
    elif fn == "polylog":
        s, z = call.args
        err = _phi_series_check(lib, lib.LerchParams(z, s, 1.0), result, z)
    elif fn == "hurwitz_zeta":
        # zeta(s, a) = a^-s + zeta(s, a + 1), with zeta(s, a + 1) from the
        # duplication zeta(s, b) + zeta(s, b + 1/2) = 2^s zeta(s, 2b): the
        # Euler-Maclaurin split points differ, and a^-s catches a scale error
        s, a = call.args
        parts = (lib.principal_pow(a, -s),
                 lib.principal_pow(2.0, s) * lib.hurwitz_zeta(s, 2.0 * a + 2.0),
                 -lib.hurwitz_zeta(s, a + 1.5))
        err = abs(result - sum(parts)) / max(abs(result), *map(abs, parts))
    elif fn == "log_gamma":
        # Legendre duplication: Stirling's series runs at 2z and z + 1/2, and
        # _HALF_LN_2PI enters the two sides with different weights
        (z,) = call.args
        ref = (lib.log_gamma(2.0 * z) - (2.0 * z - 1.0) * _LN2 + 0.5 * math.log(math.pi)
               - lib.log_gamma(z + 0.5))
        err = abs(result - ref) / max(abs(result), 1.0)
    elif fn == "digamma":
        # psi(2z) = log 2 + (psi(z) + psi(z + 1/2)) / 2
        (z,) = call.args
        ref = 2.0 * lib.digamma(2.0 * z) - 2.0 * _LN2 - lib.digamma(z + 0.5)
        err = abs(result - ref) / max(abs(result), 1.0)
    elif fn == "stieltjes_gamma1":
        # the s - 1 coefficient of zeta(s, a) + zeta(s, a + 1/2) = 2^s zeta(s, 2a):
        # gamma1(a) + gamma1(a + 1/2) = 2 gamma1(2a) + 2 log 2 psi(2a) - log^2 2
        (a,) = call.args
        ref = (2.0 * lib.stieltjes_gamma1(2.0 * a) + 2.0 * _LN2 * lib.digamma(2.0 * a)
               - _LN2 ** 2 - lib.stieltjes_gamma1(a + 0.5))
        err = abs(result - ref) / max(abs(result), 1.0)
    else:
        raise ValueError(f"no check for {fn!r}")
    return err / CHECK_TOL[fn]
