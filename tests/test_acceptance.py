"""Acceptance gate: one test per published criterion.

Each test prints a `[PASS]`/`[FAIL]` line with the measured numbers before
asserting, so a `pytest -s tests/test_acceptance.py` run reads as the
acceptance checklist.  Criterion 8 checks the ID-12 product over the stated
n = 4..12 against its proven dyadic tail ln(2 pi)/2 * 2^-n - 1/(12 x 4^n) + ...
instead of the stated |P_12 - L| < 1e-6, which no correct product meets before
n ~ 20; the suite's ID-12 row keeps the stated bound (see README).
"""

import cmath
import dataclasses
import math
from fractions import Fraction

from lerchsum import (
    EULER_GAMMA,
    EvalPoint,
    LerchParams,
    PrecisionPolicy,
    SampleStrategy,
    compensated_sum,
    digamma,
    evaluate_sides,
    get_identity,
    harmonic,
    hurwitz_zeta,
    lerch_phi,
    lerch_phi_integral,
    log_gamma,
    mutated_spec,
    nielsen_limit,
    nielsen_partial_product,
    polylog,
    principal_log,
    principal_pow,
    prudnikov_original,
    run_suite,
    stieltjes_gamma1,
    verify_identity,
)
from lerchsum.oracle import finite_sum_direct, limit_probe, phi_series_bruteforce
from lerchsum.report import dumps_csv, report_to_obj, strip_volatile
from lerchsum.verifier import default_strategy
from helpers import (
    HALF_LN_2PI,
    INTEGER_K_REGION,
    alternating_series_limit,
    dyadic_tail_interval,
    gamma_product_oracle,
    random_complex,
    richardson_derivative,
    seeded,
    stieltjes1_fd_oracle,
    zeta2_direct_oracle,
    zeta_at_zero_by_limit,
)

PI = math.pi
LN2 = math.log(2.0)
POLICY = PrecisionPolicy()
SEED = 20240601
TAIL_ROUNDING = 1e-14  # allowance on rho_n in criterion 08; measured excursion 1.0e-16


def announce(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    return ok


def run(identity_id, count, tol=None, seed=SEED, strategy=None):
    spec = get_identity(identity_id)
    strategy = strategy or default_strategy(identity_id, count=count, seed=seed)
    return verify_identity(spec, strategy, POLICY, tol=tol)


def worst_rel(results):
    return max((r.rel_err for r in results if r.rel_err is not None), default=0.0)


def test_criterion_01_integrand_identity():
    results = run("ID-00", 100, tol=1e-10)
    passes = sum(r.passed for r in results)
    worst = worst_rel(results)
    ok = passes == 100 and worst < 1e-11
    assert announce(1, ok, f"ID-00 {passes}/100 at 1e-10*cond, worst rel "
                           f"{worst:.3e} (< 1e-11 required)")


def test_criterion_02_main_theorem():
    results = run("ID-01", 100, tol=1e-9)
    passes = sum(r.passed for r in results)
    worst = worst_rel(results)
    max_n = max(r.point.n for r in results)
    ok = passes == 100 and max_n <= 8
    assert announce(2, ok, f"ID-01 {passes}/100 at 1e-9*cond, worst rel "
                           f"{worst:.3e}, n <= {max_n}")


def test_criterion_03_degenerate_and_erratum():
    results = run("ID-02", 100, tol=1e-10, seed=7)
    passes = sum(r.passed for r in results)
    sidecar = prudnikov_original()
    strategy = default_strategy("ID-02", count=100, seed=7)
    wrong = verify_identity(sidecar, strategy, POLICY, tol=1e-10)
    wrong_fails = sum(1 for r in wrong if (not r.passed) and r.rel_err > 0.5)
    ok = passes == 100 and wrong_fails == 100
    assert announce(3, ok, f"ID-02 {passes}/100 at 1e-10; uncorrected variant "
                           f"rejected {wrong_fails}/100 with discrepancy > 0.5")


def test_criterion_04_trig_products():
    overall = True
    details = []
    for identity_id, tol in (("ID-03", 1e-9), ("ID-05", 1e-9),
                             ("ID-06", 1e-7), ("ID-15", 1e-8)):
        results = run(identity_id, 100, tol=tol)
        passes = sum(r.passed for r in results)
        overall &= passes == 100
        details.append(f"{identity_id} {passes}/100@{tol:g}")
    assert announce(4, overall, "trig products " + ", ".join(details))


def test_criterion_05_functional_equation():
    results = run("ID-04", 100, tol=1e-9)
    passes = sum(r.passed for r in results)
    collapse_ok = True
    for s, a in ((2.0, 1.3), (complex(-1.5, 0.4), 2.5), (3j, 0.7)):
        lhs, rhs = evaluate_sides("ID-04", EvalPoint(z=0.0, s=s, a=a), POLICY)
        rel = abs(lhs - rhs) / abs(lhs)
        collapse_ok &= rel <= 1e-14
    ok = passes == 100 and collapse_ok
    assert announce(5, ok, f"ID-04 {passes}/100 at 1e-9*cond; z=0 collapse "
                           f"exact to 1e-14: {collapse_ok}")


def test_criterion_06_loggamma_digamma_family():
    overall = True
    details = []
    for identity_id in ("ID-07", "ID-08", "ID-09", "ID-10"):
        results = run(identity_id, 100, tol=1e-9)
        passes = sum(r.passed for r in results)
        overall &= passes == 100
        if identity_id == "ID-07":
            branches = {r.branch_integer for r in results}
            overall &= None not in branches
            details.append(f"ID-07 {passes}/100 (branch ints {sorted(branches)})")
        else:
            details.append(f"{identity_id} {passes}/100")
    assert announce(6, overall, "log-gamma family " + ", ".join(details))


def test_criterion_07_nielsen_product():
    results = run("ID-11", 100, tol=1e-9)
    passes = sum(r.passed for r in results)
    ns = sorted({r.point.n for r in results})
    ok = passes == 100 and min(ns) >= 1 and max(ns) <= 10
    assert announce(7, ok, f"ID-11 {passes}/100 at 1e-9*cond, n in [{min(ns)},{max(ns)}]")


def _in_dyadic_tail(product, limit, x, n):
    """rho_n = log(P_n / L) - ln(2 pi)/2 * 2^-n inside its proven interval,
    widened by TAIL_ROUNDING; returns (inside, rho_n real part)."""
    rho = cmath.log(product / limit) - HALF_LN_2PI * 2.0 ** -n
    lo, hi = dyadic_tail_interval(x, n)
    inside = (lo - TAIL_ROUNDING <= rho.real <= hi + TAIL_ROUNDING
              and abs(rho.imag) <= TAIL_ROUNDING)
    return inside, rho.real


def test_criterion_08_limit_trend_gate():
    # ID-12 as the n -> infinity limit of ID-11, at x = 0.3 and 4 other x
    # values over n = 4..12: the truncation error |P_n - L| decreases
    # strictly, and rho_n = log(P_n/L) - ln(2pi)/2 * 2^-n lies in the proven
    # tail interval [-1/(12x*4^n), 0] (Stirling, DLMF 5.11.8 with h = 1/2;
    # see helpers.dyadic_tail_interval).  The tail makes |P_12 - L| ~ 1.1e-4,
    # so the stated |P_12 - L| < 1e-6 first holds near n = 20; the suite's
    # ID-12 row keeps that bound and stays red.  Controls: the limit scaled
    # by 1 +- 1e-7, and P_11 given as P_12, must leave the interval at every x.
    xs = (0.1, 0.3, 0.5, 0.7, 0.9)
    monotone_all = True
    tail_ok = True
    worst_raw = 0.0
    worst_ratio = 0.0
    wrong_fails = 0
    for x in xs:
        limit = nielsen_limit(x)
        products = {n: nielsen_partial_product(x, n) for n in range(4, 13)}
        errors = [abs(products[n] - limit) for n in range(4, 13)]
        monotone_all &= all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        worst_raw = max(worst_raw, errors[-1])
        for n, product in products.items():
            inside, rho = _in_dyadic_tail(product, limit, x, n)
            tail_ok &= inside
            worst_ratio = max(worst_ratio, rho / dyadic_tail_interval(x, n)[0])
        controls = ((products[12], limit * (1.0 + 1e-7)),
                    (products[12], limit * (1.0 - 1e-7)),
                    (products[11], limit))
        wrong_fails += sum(not _in_dyadic_tail(p, lim, x, 12)[0]
                           for p, lim in controls)
    controls_ok = wrong_fails == 3 * len(xs)
    ok = monotone_all and tail_ok and controls_ok
    assert announce(8, ok, f"ID-12 monotone decay n=4..12: {monotone_all}; "
                           f"worst |P_12 - L| {worst_raw:.3e}; tail in "
                           f"[-1/(12x*4^n), 0] +- {TAIL_ROUNDING:g}: {tail_ok}, "
                           f"worst rho/(-1/(12x*4^n)) {worst_ratio:.10f}; "
                           f"limit*(1+-1e-7) and P_11 rejected "
                           f"{wrong_fails}/{3 * len(xs)}")


def test_criterion_09_stieltjes_sum():
    strategy = default_strategy("ID-13", count=50, seed=SEED)
    results = run("ID-13", 50, tol=1e-10, strategy=strategy)
    passes = sum(r.passed for r in results)
    worst_abs = max(r.abs_err for r in results)
    ok = passes == 50 and worst_abs <= 1e-10
    assert announce(9, ok, f"ID-13 {passes}/50, worst raw |lhs-rhs| "
                           f"{worst_abs:.3e} <= 1e-10")


def test_criterion_10_polylog_sum():
    integer_k = dataclasses.replace(get_identity("ID-14"), region=INTEGER_K_REGION)
    int_results = verify_identity(integer_k, SampleStrategy(seed=SEED, count=100),
                                  POLICY, tol=1e-9)
    generic = default_strategy("ID-14", count=20, seed=SEED + 1)
    gen_results = run("ID-14", 20, tol=1e-9, strategy=generic)
    int_passes = sum(r.passed for r in int_results)
    gen_passes = sum(r.passed for r in gen_results)
    kset = sorted({int(r.point.k.real) for r in int_results})
    ok = int_passes == 100 and gen_passes == 20
    assert announce(10, ok, f"ID-14 integer k {int_passes}/100 (k in {kset}), "
                            f"complex k {gen_passes}/20, at 1e-9*cond")


def _derived_value_checks():
    checks = []
    add = checks.append

    # elementary branch anchors
    add(("principal_log(2i)",
         abs(principal_log(2j) - complex(LN2, PI / 2)) < 1e-15))
    add(("principal_pow(i, i)",
         abs(principal_pow(1j, 1j) - math.exp(-PI / 2)) < 1e-15))
    add(("compensated_sum of 1e4 tenths vs exact rational",
         abs(compensated_sum([0.1] * 10**4) - float(Fraction(1, 10) * 10**4)) < 1e-9))
    add(("derivative of exp at 0",
         abs(richardson_derivative(cmath.exp, 0.0).value - 1.0) < 1e-9))
    add(("derivative of log at 2",
         abs(richardson_derivative(principal_log, 2.0).value - 0.5) < 1e-9))

    # Phi and friends against their stated oracles
    brute = phi_series_bruteforce(LerchParams(0.5, 2.0, 1.0), 10**4)
    fast = lerch_phi(LerchParams(0.5, 2.0, 1.0), POLICY)
    add(("Phi(1/2,2,1) series vs brute force",
         abs(fast - brute.value) <= brute.error_bound + 1e-9))
    add(("Phi(1/2,2,1) equals 2*Li2(1/2)",
         abs(brute.value - (PI * PI / 6 - LN2 * LN2)) < 1e-13))
    integral = lerch_phi_integral(LerchParams(0.5, 2.0, 1.0), POLICY)
    add(("integral route matches series route", abs(integral - fast) < 1e-9))
    alt = alternating_series_limit(lambda n: (-1.0) ** n / (n + 1.0))
    add(("Phi(-1,1,1) = ln 2 via averaged alternating series",
         abs(lerch_phi_integral(LerchParams(-1.0, 1.0, 1.0), POLICY) - LN2) < 1e-10
         and abs(alt - LN2) < 1e-6))
    geo = phi_series_bruteforce(LerchParams(0.9, 1.0, 1.0), 10**5)
    add(("Phi(0.9,1,1) = -ln(0.1)/0.9",
         abs(geo.value - (-math.log(0.1) / 0.9)) <= geo.error_bound + 1e-11))

    add(("zeta(2,1) vs direct summation oracle",
         abs(hurwitz_zeta(2.0, 1.0, POLICY) - zeta2_direct_oracle()) < 1e-11))
    add(("zeta(0,1/4) = 1/4 via two-sided limit",
         abs(zeta_at_zero_by_limit(0.25, POLICY) - 0.25) < 1e-8
         and abs(hurwitz_zeta(0.0, 0.25, POLICY) - 0.25) < 1e-12))
    add(("Li_{-1}(1/2) = 2 and Li_1(1/2) = ln 2",
         abs(polylog(-1.0, 0.5, POLICY) - 2.0) < 3e-10
         and abs(polylog(1.0, 0.5, POLICY) - LN2) < 3e-10))

    z = 4 + 3j
    add(("exp(log_gamma(4+3i)) vs product oracle",
         abs(cmath.exp(log_gamma(z)) - gamma_product_oracle(z))
         <= 1e-13 * abs(gamma_product_oracle(z))))
    psi1 = richardson_derivative(log_gamma, 1.0)
    add(("digamma(1) = -gamma via derivative oracle",
         abs(digamma(1.0) - psi1.value) <= max(psi1.error, 1e-9)
         and abs(digamma(1.0) + EULER_GAMMA) < 1e-12))
    add(("digamma(1/2) via duplication oracle",
         abs(digamma(0.5) - (-EULER_GAMMA - 2 * LN2)) < 1e-12))
    add(("harmonic(3.5) via half-integer ladder",
         abs(harmonic(3.5) - ((2 - 2 * LN2) + 1 / 1.5 + 1 / 2.5 + 1 / 3.5)) < 1e-12))

    g1 = stieltjes_gamma1(1.0, POLICY)
    add(("gamma_1(1) via finite-difference oracle",
         abs(g1 - stieltjes1_fd_oracle(1.0)) < 1e-9
         and abs(g1 - (-0.0728158454836767)) < 1e-13))
    add(("gamma_1(2) = gamma_1(1)",
         abs(stieltjes_gamma1(2.0, POLICY) - g1) < 1e-13))
    add(("gamma_1(1/2) closed-form cross-check",
         abs(stieltjes_gamma1(0.5, POLICY)
             - (g1 - 2 * EULER_GAMMA * LN2 - LN2 * LN2)) < 1e-13))

    # identity spot values against the independent transcription
    lhs, rhs = finite_sum_direct("ID-02", EvalPoint(m=PI / 3, n=0))
    add(("ID-02 at (pi/3, 0) equals 1/sqrt(3) both sides",
         abs(lhs - 1 / math.sqrt(3)) < 1e-13 and abs(rhs - lhs) < 1e-13))
    lhs, rhs = finite_sum_direct("ID-02", EvalPoint(m=1.0, n=3))
    add(("ID-02 at (1, 3) matches the csc closed form",
         abs(rhs - (1 / math.sin(2.0) - 2.0 ** -4 / math.sin(0.125))) < 1e-13
         and abs(lhs - rhs) < 1e-13))
    lhs, rhs = finite_sum_direct("ID-05", EvalPoint(x=1.0, n=2))
    add(("ID-05 at (1, 2) product equals tangent form", abs(lhs - rhs) < 1e-13))
    point = EvalPoint(a=cmath.exp(0.25 + 0.1j), m=1.0 + 1.0j, k=0.3 - 0.6j, n=0)
    lhs, rhs = finite_sum_direct("ID-01", point, POLICY)
    add(("ID-01 single-term point finite and balanced",
         cmath.isfinite(lhs) and abs(lhs - rhs) < 1e-9 * abs(lhs)))
    lhs, rhs = evaluate_sides("ID-04", EvalPoint(z=0.0, s=2.0, a=1.3), POLICY)
    add(("ID-04 collapses to a^-s at z=0",
         abs(lhs - principal_pow(1.3, -2.0)) < 1e-13 and abs(lhs - rhs) < 1e-13))

    probe = limit_probe(lambda n: nielsen_partial_product(0.3, n), 12)
    target = nielsen_limit(0.3)
    errs = [abs(v - target) for v in probe.values[3:]]
    add(("truncated gamma-ratio product approaches its closed-form limit",
         all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))))
    return checks


def test_criterion_11_function_level_properties():
    rng = seeded(SEED)
    failures = []

    # Lerch recurrence at 200 in-domain points
    for _ in range(200):
        z = random_complex(rng, (-0.66, 0.66), (-0.66, 0.66))
        s = random_complex(rng, (-2.0, 3.0), (-2.0, 2.0))
        v = random_complex(rng, (0.3, 4.0), (-1.0, 1.0))
        lhs = lerch_phi(LerchParams(z, s, v), POLICY)
        rhs = z * lerch_phi(LerchParams(z, s, v + 1), POLICY) + principal_pow(v, -s)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-12):
            failures.append("lerch recurrence")
            break

    # series/integral agreement at 100 points
    for _ in range(100):
        s = random_complex(rng, (0.5, 3.0), (-1.5, 1.5))
        v = random_complex(rng, (0.5, 5.0), (-1.0, 1.0))
        z = rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * PI))
        series = lerch_phi(LerchParams(z, s, v), POLICY)
        quad = lerch_phi_integral(LerchParams(z, s, v), POLICY)
        if abs(series - quad) > 10.0 * (POLICY.rel_tol * abs(series) + POLICY.abs_tol):
            failures.append("series/integral agreement")
            break

    # log-gamma recurrence at 200 points
    for _ in range(200):
        z = random_complex(rng, (0.05, 20.0), (-10.0, 10.0))
        delta = log_gamma(z + 1) - log_gamma(z) - principal_log(z)
        if abs(delta) > 1e-12 * max(abs(log_gamma(z)), 1.0):
            failures.append("log-gamma recurrence")
            break

    # digamma-is-derivative at 100 points
    for _ in range(100):
        z = random_complex(rng, (0.5, 12.0), (-4.0, 4.0))
        est = richardson_derivative(log_gamma, z)
        if abs(digamma(z) - est.value) > 1e-8:
            failures.append("digamma derivative")
            break

    checks = _derived_value_checks()
    reproduced = sum(1 for _, ok in checks if ok)
    failures.extend(label for label, ok in checks if not ok)
    ok = not failures
    assert announce(11, ok, f"properties + {reproduced}/{len(checks)} derived "
                            f"values reproduced by their oracles"
                            + (f"; failing: {failures}" if failures else ""))


def test_criterion_12_mutation_sensitivity():
    overall = True
    weakest = (None, 0.0)
    for spec_id in [s.id for s in __import__("lerchsum").list_identities()]:
        spec = get_identity(spec_id)
        corrupted = mutated_spec(spec)
        strategy = default_strategy(spec_id, count=20, seed=SEED + 2)
        results = verify_identity(corrupted, strategy, POLICY, tol=spec.tol)
        rate = sum(r.passed for r in results) / len(results)
        if rate >= weakest[1]:
            weakest = (spec_id, rate)
        overall &= rate < 0.05
    assert announce(12, overall, f"sign-flip mutations of every right side "
                                 f"pass at most {weakest[1]:.0%} of points "
                                 f"(worst: {weakest[0]})")


def test_criterion_13_determinism():
    ids = [s.id for s in __import__("lerchsum").list_identities()]
    one = run_suite(POLICY, count=4, seed=SEED, ids=ids)
    two = run_suite(POLICY, count=4, seed=SEED, ids=ids)
    same_obj = strip_volatile(report_to_obj(one)) == strip_volatile(report_to_obj(two))
    same_csv = dumps_csv(one) == dumps_csv(two)
    ok = same_obj and same_csv
    assert announce(13, ok, f"repeated runs identical (json minus volatile "
                            f"meta: {same_obj}, csv bytes: {same_csv})")
