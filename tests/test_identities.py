import cmath
import dataclasses
import math
from fractions import Fraction

import pytest

from lerchsum import (
    DomainError,
    EvalPoint,
    PrecisionPolicy,
    evaluate_sides,
    get_identity,
    list_identities,
    nielsen_partial_product,
    principal_pow,
    prudnikov_original,
)
from lerchsum import identities
from lerchsum.identities import SideEvaluationError, evaluate_side, side_terms
from lerchsum.numerics import ErrorScale, SumOverflowError, compensated_sum
from lerchsum.verifier import DEFAULT_POLE_MARGIN, default_strategy, sample_points
from helpers import (PER_TERM_LHS, POLE_LADDERS, NeumaierSum, extreme_sequences,
                     id01_constraints_by_shifts, nielsen_prefixes_per_term,
                     pole_ladder_check, seeded)

PI = math.pi

EXPECTED_IDS = tuple(f"ID-{i:02d}" for i in range(16))


# ------------------------------------------------------------------- registry

def test_registry_cardinality_and_order():
    specs = list_identities()
    assert len(specs) == 16
    assert tuple(s.id for s in specs) == EXPECTED_IDS


def test_registry_schemas():
    # an entry's fields are its region's keys, drawn in key order after n
    assert tuple(get_identity("ID-01").region) == ("a", "m", "k", "n")
    assert set(get_identity("ID-12").region) == {"x"}
    assert set(get_identity("ID-10").region) == {"a"}
    assert set(get_identity("ID-03").region) == {"m", "r", "n"}


def test_registry_modes():
    assert get_identity("ID-07").compare_mode == "mod_2pi_i"
    assert get_identity("ID-13").compare_mode == "absolute"
    assert get_identity("ID-00").compare_mode == "relative"
    assert get_identity("ID-12").trend is not None


def _trend_products(x, policy):
    """The trend gate's P_n, n = 4..12, from ID-12's registry left side at x."""
    spec = get_identity("ID-12")
    factors = side_terms("lhs", spec.lhs, EvalPoint(x=x), policy, ErrorScale())
    return spec.trend.partial_products(factors)


def test_trend_gate_prefixes_equal_partial_products(policy):
    # one running product over p = 1..n_hi gives every P_n bit for bit
    gate = get_identity("ID-12").trend
    assert (gate.n_lo, gate.n_hi) == (4, 12)
    for x in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        expected = [nielsen_partial_product(x, n) for n in range(4, 13)]
        assert _trend_products(x, policy) == expected


def test_titles_are_stable_cli_strings():
    titles = {s.id: s.title for s in list_identities()}
    assert titles["ID-01"] == "main-theorem"
    assert titles["ID-02"] == "degenerate"
    assert titles["ID-12"] == "nielsen-infinite"


def test_unknown_identity():
    from lerchsum.identities import UnknownIdentityError
    with pytest.raises(UnknownIdentityError):
        get_identity("ID-99")


# ------------------------------------------------------------- evaluate_sides

def test_degenerate_case_value(policy):
    lhs, rhs = evaluate_sides("ID-02", EvalPoint(m=PI / 3.0, n=0), policy)
    assert lhs == pytest.approx(0.5773502691896258, rel=1e-12)
    assert rhs == pytest.approx(0.5773502691896258, rel=1e-12)


def test_functional_equation_collapses_at_z_zero(policy):
    lhs, rhs = evaluate_sides("ID-04", EvalPoint(z=0.0, s=2.0, a=1.3), policy)
    expected = principal_pow(1.3, -2.0)
    assert lhs == pytest.approx(expected, rel=1e-14)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_schema_must_match_exactly(policy):
    with pytest.raises(DomainError):
        evaluate_sides("ID-02", EvalPoint(m=1.0), policy)  # n missing
    with pytest.raises(DomainError):
        evaluate_sides("ID-02", EvalPoint(m=1.0, n=2, x=1.0), policy)  # extra


def test_constraint_violation_rejected(policy):
    # m = pi/2 sits on the sec(m 2^0) pole of the left side
    with pytest.raises(DomainError):
        evaluate_sides("ID-02", EvalPoint(m=PI / 2.0, n=0), policy)


def test_dyadic_pole_ladders_reject_every_pole():
    margin = 0.05
    regular = complex(0.7, 0.5)  # |Im w| >= margin keeps w off every real pole
    for identity_id, (names, depth, sin_scales) in POLE_LADDERS.items():
        spec = get_identity(identity_id)
        base = {name: regular for name in names}
        for n in (0, 1, 4, 10):
            assert spec.constraints(EvalPoint(n=n, **base), margin), (identity_id, n)
            poles = ([2.0 ** q * PI / 2.0 for q in range(n + depth + 1)]
                     + [PI / c for c in sin_scales(n)])
            for name in names:
                for w in poles:
                    pt = EvalPoint(n=n, **{**base, name: complex(w)})
                    assert not spec.constraints(pt, margin), (identity_id, n, name, w)


def test_one_pole_lattice_equals_the_rung_by_rung_ladders():
    # 2,000 points per entry, n = 0..10; half within 0.5-1.5 margins of
    # (pi/2)Z, where a rung the lattice missed would show
    margin = DEFAULT_POLE_MARGIN
    rng = seeded(20240611)
    for identity_id, (names, _, _) in POLE_LADDERS.items():
        spec = get_identity(identity_id)
        for i in range(2000):
            fields = {name: complex(rng.uniform(-12.0, 12.0), rng.uniform(-0.2, 0.2))
                      for name in names}
            if i % 2:
                near = rng.choice(names)
                fields[near] = (rng.randint(-16, 16) * PI / 2.0 + cmath.rect(
                    margin * rng.uniform(0.5, 1.5), rng.uniform(-PI, PI)))
            pt = EvalPoint(n=rng.randint(0, 10), **fields)
            assert spec.constraints(pt, margin) == pole_ladder_check(identity_id, pt, margin), \
                (identity_id, pt)


def test_id01_domain_equals_the_shift_by_shift_check():
    # 2,000 points, n = 0..8, at margins 1e-9 (evaluate_sides'), 0.05 (the
    # sampler's), 0.3 and 0.5; half put 2^n log a within 1.1 of -i, where
    # the right side's shift 0.5 (1 - i 2^n log a) nears its pole at 0
    spec = get_identity("ID-01")
    rng = seeded(20240612)
    outcomes = {margin: set() for margin in (1e-9, 0.05, 0.3, 0.5)}
    for i in range(2000):
        n = rng.randint(0, 8)
        offset = cmath.rect(rng.uniform(0.0, 1.1 if i % 2 else 1.05), rng.uniform(-PI, PI))
        la = 2.0 ** -n * (offset - 1j if i % 2 else offset)
        pt = EvalPoint(a=cmath.exp(la), n=n,
                       m=complex(rng.uniform(0.2, 2.5), rng.uniform(-0.1, 2.0)),
                       k=complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)))
        for margin, seen in outcomes.items():
            inside = spec.constraints(pt, margin)
            assert inside == id01_constraints_by_shifts(pt, margin), (pt, margin)
            seen.add(inside)
    assert all(seen == {True, False} for seen in outcomes.values())


def test_point_n_cap():
    with pytest.raises(DomainError):
        EvalPoint(m=1.0, n=25)
    with pytest.raises(DomainError):
        EvalPoint(m=1.0, n=-1)


def test_side_errors_carry_term_tags(policy):
    spec = get_identity("ID-01")
    bad = EvalPoint(a=1.0, m=1.0 + 1.0j, k=complex(0.5, 0.3), n=0)
    # force a convergence failure by strangling the term budget
    tiny = PrecisionPolicy(max_terms=3)
    with pytest.raises(SideEvaluationError) as info:
        evaluate_side("lhs", spec.lhs, bad, tiny, ErrorScale())
    assert info.value.side == "lhs"
    assert info.value.term_index == 0


def test_noted_sum_scale_is_its_weighted_abs_sum():
    # An inner sum adds weight * sum |t_i| to the scale it is given, on top
    # of what the scale holds; its value is the exact sum rounded once, part
    # by part.  Sums whose running sum overflows raise and note nothing.
    rng = seeded(14)
    raised = 0
    for terms in extreme_sequences(1234, 2000, length=13):
        weight = rng.uniform(0.1, 10.0)
        scale = ErrorScale()
        scale.note(0.5)
        try:
            NeumaierSum().sum(terms)
        except SumOverflowError:
            raised += 1
            with pytest.raises(SumOverflowError):
                compensated_sum(terms, scale, weight)
            assert scale.total == 0.5
            continue
        value = compensated_sum(terms, scale, weight)
        assert scale.total == 0.5 + weight * sum(map(abs, terms))
        assert value == complex(float(sum(map(Fraction, (t.real for t in terms)))),
                                float(sum(map(Fraction, (t.imag for t in terms)))))
    assert 100 < raised < 1900
    # sums of one and two parts are fsum's bit for bit, signed zeros included
    for parts in ([complex(-0.0, -0.0)], [complex(-0.0, 2.5)], [complex(-1e-310, 0.0)],
                  [complex(-0.0, 1.0), complex(-0.0, -1.0)], [complex(1.0, 3.0), 1.1e-16 + 0j],
                  [complex(-0.0, -0.0), complex(-0.0, -0.0)], []):
        scale = ErrorScale()
        value = compensated_sum(parts, scale, 2.0)
        assert (value.real.hex(), value.imag.hex()) == (math.fsum(t.real for t in parts).hex(),
                                                        math.fsum(t.imag for t in parts).hex())
        assert scale.total == 2.0 * sum(map(abs, parts))


# ----------------------------------------------------------- structural facts

def test_id00_holds_for_generic_complex_u(policy):
    # including points in the lower half-plane: the identity is not confined
    # to the convergence region used by the transcendental entries
    spec = get_identity("ID-00")
    rng = seeded(314)
    accepted = 0
    while accepted < 100:
        u = complex(rng.uniform(-2.8, 2.8), rng.uniform(-1.2, 1.2))
        n = rng.randint(0, 10)
        if not (0.1 < abs(u) < 3.0):
            continue
        pt = EvalPoint(m=u, n=n)
        if not spec.constraints(pt, 0.05):
            continue
        scale = ErrorScale()
        lhs = evaluate_side("lhs", spec.lhs, pt, policy, scale)
        rhs = evaluate_side("rhs", spec.rhs, pt, policy, scale)
        cond = max(1.0, scale.total / max(abs(lhs), 1e-12))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
        assert rel <= 1e-10 * cond
        accepted += 1


def test_id03_swap_symmetry_inverts_product(policy):
    spec = get_identity("ID-03")
    rng = seeded(2718)
    accepted = 0
    while accepted < 100:
        m = complex(rng.uniform(0.2, 2.5), 0.0)
        r = complex(rng.uniform(0.2, 2.5), 0.0)
        n = rng.randint(0, 10)
        fwd = EvalPoint(m=m, r=r, n=n)
        bwd = EvalPoint(m=r, r=m, n=n)
        if not (spec.constraints(fwd, 0.05) and spec.constraints(bwd, 0.05)):
            continue
        one = evaluate_side("lhs", spec.lhs, fwd, policy, ErrorScale())
        other = evaluate_side("lhs", spec.lhs, bwd, policy, ErrorScale())
        assert abs(one * other - 1.0) <= 1e-10
        accepted += 1


def test_prudnikov_sidecar_excluded_from_registry():
    sidecar = prudnikov_original()
    assert sidecar.id == "ID-02-PRUDNIKOV-ORIGINAL"
    assert sidecar.id not in {s.id for s in list_identities()}


def test_prudnikov_original_fails_everywhere(policy):
    corrected = get_identity("ID-02")
    sidecar = prudnikov_original()
    points = sample_points(corrected, default_strategy("ID-02", count=100, seed=7))
    for pt in points:
        lhs = evaluate_side("lhs", corrected.lhs, pt, policy, ErrorScale())
        good = evaluate_side("rhs", corrected.rhs, pt, policy, ErrorScale())
        bad = evaluate_side("rhs", sidecar.rhs, pt, policy, ErrorScale())
        rel_good = abs(lhs - good) / max(abs(lhs), abs(good), 1e-12)
        rel_bad = abs(lhs - bad) / max(abs(lhs), abs(bad), 1e-12)
        assert rel_good <= 1e-10
        assert rel_bad > 0.5


def test_every_identity_is_finite_and_tight_on_samples(policy):
    # quick structural sweep; the acceptance gate runs the full counts
    from lerchsum.verifier import verify_identity

    for spec in list_identities():
        strategy = default_strategy(spec.id, count=15, seed=1234)
        results = verify_identity(spec, strategy, policy)
        for res in results:
            if spec.id == "ID-12":
                continue  # its gate is checked (and documented) separately
            assert res.error is None
            assert res.passed, (spec.id, res.index, res.rel_err, res.cond)


# ------------------------------------------------------------ carried rungs

def _counting(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(identities, name)

        def wrapper(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(identities, name, wrapper)
    return counts


# calls each dyadic left side makes at n: every rung once per side
LADDER_CALLS = {
    "ID-01": lambda n: {"lerch_phi": n + 2},
    "ID-07": lambda n: {"log_gamma": 2 * (n + 2)},
    "ID-08": lambda n: {"log_gamma": 2 * (n + 2)},
    "ID-09": lambda n: {"digamma": 2 * (n + 2)},
    "ID-11": lambda n: {"log_gamma": n + 1},
    "ID-13": lambda n: {"harmonic": 2 * (n + 2), "stieltjes_gamma1": 2 * (n + 2)},
    "ID-14": lambda n: {"polylog": n + 2},
}
LADDER_POINTS = {"ID-01": EvalPoint(a=1.001 + 0.002j, m=1.1 + 0.9j, k=0.7 + 0.3j),
                 "ID-07": EvalPoint(a=3.7), "ID-08": EvalPoint(a=3.7),
                 "ID-09": EvalPoint(a=3.7), "ID-11": EvalPoint(x=0.4),
                 "ID-13": EvalPoint(a=3.7),
                 "ID-14": EvalPoint(m=1.1 + 0.9j, k=0.7 + 0.3j)}


@pytest.mark.parametrize("identity_id", sorted(LADDER_CALLS))
def test_dyadic_sides_evaluate_each_rung_once(identity_id, monkeypatch, policy):
    spec = get_identity(identity_id)
    lo, hi = spec.region["n"]
    for n in sorted({lo, 1, 2, hi}):
        expected = LADDER_CALLS[identity_id](n)
        counts = _counting(monkeypatch, expected)
        pt = dataclasses.replace(LADDER_POINTS[identity_id], n=n)
        evaluate_side("lhs", spec.lhs, pt, policy, ErrorScale())
        assert counts == expected, (identity_id, n)


def test_trend_gate_evaluates_each_rung_once(monkeypatch, policy):
    counts = _counting(monkeypatch, ["log_gamma"])
    _trend_products(0.4, policy)
    assert counts == {"log_gamma": 13}


@pytest.mark.parametrize("identity_id", sorted(PER_TERM_LHS))
def test_carried_rungs_equal_the_per_term_sides(identity_id, policy):
    spec = get_identity(identity_id)
    reference = identities.SideExpr(spec.lhs.kind, PER_TERM_LHS[identity_id])
    lo, hi = spec.region["n"]
    points = sample_points(spec, default_strategy(identity_id, count=40, seed=20240607))
    points += [dataclasses.replace(pt, n=n) for pt in points[:10] for n in (lo, hi)]
    for pt in points:
        sides = []
        for expr in (spec.lhs, reference):
            scale = ErrorScale()
            sides.append((side_terms("lhs", expr, pt, policy, scale), scale.total))
        assert sides[0] == sides[1], (identity_id, pt)


def test_trend_gate_equals_the_per_term_products(policy):
    rng = seeded(20240608)
    for x in [0.05, 0.95] + [rng.uniform(0.05, 0.95) for _ in range(40)]:
        assert _trend_products(x, policy) == list(nielsen_prefixes_per_term(complex(x), 12))[3:]
