"""Equilibrium finding, eigenvalue classification, and the harvest thresholds."""

import math
import sys

import numpy as np
import pytest

from conftest import cubic_equilibria, simulated_tag
from fracpop import (
    AlleeHarvest,
    Classification,
    Cubic,
    DegenerateModelError,
    EquilibriumReport,
    LogisticHarvest,
    classify_all,
    equilibria,
    harvest_threshold,
    logistic_harvest_equilibrium,
    to_cubic,
)

AS = Classification.ASYMPTOTICALLY_STABLE
U = Classification.UNSTABLE
INC = Classification.INCONCLUSIVE

LOGISTIC = Cubic(0.0, -0.05, 0.5)
ALLEE = Cubic(-0.05, 0.55, -0.5)

# Roots of -0.05 x^2 + 0.55 x - 0.7 = 0, i.e. (11 +/- sqrt(65)) / 2.
HARVESTED_LOW = 1.46887112585072545
HARVESTED_HIGH = 9.53112887414927455


def roots_of(coeffs):
    return [report.x_eq for report in equilibria(coeffs)]


def tags_of(coeffs, alpha=0.5):
    return [(report.x_eq, report.classification) for report in classify_all(coeffs, alpha)]


def test_equilibria_logistic_roots():
    got = roots_of(LOGISTIC)
    assert len(got) == 2
    assert got[0] == 0.0
    assert abs(got[1] - 10.0) <= 1e-9


def test_equilibria_allee_roots():
    got = roots_of(ALLEE)
    assert len(got) == 3
    assert abs(got[0] - 0.0) <= 1e-12
    assert abs(got[1] - 1.0) <= 1e-9
    assert abs(got[2] - 10.0) <= 1e-9


def test_equilibria_complex_pair_omitted():
    got = equilibria(Cubic(1.0, 0.0, 1.0))
    assert len(got) == 1
    assert got[0].x_eq == 0.0


def test_equilibria_degenerate_error():
    with pytest.raises(DegenerateModelError):
        equilibria(Cubic(0.0, 0.0, 0.0))


def test_equilibria_triple_root_at_origin():
    reports = equilibria(Cubic(1.0, 0.0, 0.0))
    assert len(reports) == 1
    assert reports[0].x_eq == 0.0
    assert reports[0].multiplicity == 3
    assert reports[0].classification is INC
    classified = classify_all(Cubic(1.0, 0.0, 0.0), 0.5)
    assert classified[0].classification is INC
    assert classified[0].multiplicity == 3


def test_triple_root_only_at_a_flat_origin():
    # 1e308 x**2 has a double root and 1e308 x**3 a triple one, although
    # 2*b and 6*a overflow.
    (double,) = equilibria(Cubic(0.0, 1e308, 0.0))
    (triple,) = equilibria(Cubic(1e308, 0.0, 0.0))
    assert (double.x_eq, double.classification, double.multiplicity) == (0.0, INC, 2)
    assert (triple.x_eq, triple.classification, triple.multiplicity) == (0.0, INC, 3)
    assert double.lam == triple.lam == 0.0


def test_origin_eigenvalue_is_c_past_overflow():
    # f'(0) = c exactly, although 3*a overflows: the origin of
    # 1e308 x**3 + x is unstable with lambda 1, not inconclusive with nan.
    (origin,) = equilibria(Cubic(1e308, 0.0, 1.0))
    assert (origin.x_eq, origin.lam, origin.classification, origin.multiplicity) == (
        0.0, 1.0, U, 1
    )


def test_eigenvalue_where_3a_overflows():
    # 1e308 x**3 + x**2 - x has simple roots near -/+1e-154.  3*a overflows,
    # but f'(x) = x (2 a x + b) is 2 there, a product of numbers near 1 times
    # an exact power of two.
    got = [(r.x_eq, r.lam, r.classification) for r in equilibria(Cubic(1e308, 1.0, -1.0))]
    assert got == [(-1e-154, 2.0, U), (0.0, -1.0, AS), (1e-154, 2.0, U)]


def test_underflowing_eigenvalue_keeps_its_sign():
    # f'(x) = b*b/a = 1.8e-589 > 0 at the root -b/a = 5.1e-291: lambda
    # underflows to 0, but its sign, so the tag U, survives.
    reports = equilibria(Cubic(6.6352717006908e-09, -3.4141402435045707e-299, 0.0))
    assert [(r.classification, r.multiplicity) for r in reports] == [(INC, 2), (U, 1)]
    assert reports[1].x_eq == pytest.approx(5.145441509424736e-291, rel=1e-12, abs=0.0)
    assert reports[1].lam == 0.0


def test_roots_far_from_the_largest_coefficient_are_kept_or_refused():
    # a = 5e-324 is 1e-334 of c, yet the root -b/a = -2.02e183, where
    # f'(x) = 2.02e43 > 0, is kept.
    got = [(r.x_eq, r.classification) for r in equilibria(Cubic(5e-324, 1e-140, 1e10))]
    assert [tag for _, tag in got] == [U, AS, U]
    assert [x for x, _ in got] == pytest.approx([-2.024022533073106e183, -1e150, 0.0], rel=1e-12)
    # -c/b = 4.47e325 is past double range: refused, not dropped.
    with pytest.raises(ArithmeticError, match=r"^an equilibrium is .* \* 2\*\*1082, beyond"):
        equilibria(Cubic(0.0, 1.6508793965677024e-137, -7.387323104438517e188))


def test_roots_with_an_underflowed_discriminant():
    # |b| is below about 1e-154 of |a|, so b*b underflows on one common
    # scale, and a scaled discriminant of 0 would give a false double root.
    # x**2 (1e191 x - 1) has the simple root 1e-191, where lambda = 1e-191 > 0.
    reports = equilibria(Cubic(1e191, -1.0, 0.0))
    assert [r.classification for r in reports] == [INC, U]
    assert [r.x_eq for r in reports] == pytest.approx([0.0, 1e-191], rel=1e-12, abs=0.0)
    # x (1e300 x**2 - 1e-300) has the simple roots -/+1e-300, where lambda
    # is 2e-300 > 0, though 4ac scales to 0 beside the largest coefficient.
    reports = equilibria(Cubic(1e300, 0.0, -1e-300))
    assert [r.classification for r in reports] == [U, AS, U]
    assert [r.x_eq for r in reports] == pytest.approx([-1e-300, 0.0, 1e-300], rel=1e-12, abs=0.0)
    # -1e194 x**2 - x - 1e-192 has discriminant 1 - 400 < 0: only the origin.
    got = [(r.x_eq, r.classification) for r in equilibria(Cubic(-1e194, -1.0, -1e-192))]
    assert got == [(0.0, AS)]


def test_equilibria_far_from_unit_scale():
    # x**2 + 10x - 10 has roots -5 -/+ sqrt(35), x**2 + 3x + 1 has
    # (-3 -/+ sqrt(5)) / 2 and x**2 - 1e-14 has -/+ 1e-7: tiny or huge
    # coefficients, or roots close to the origin, move no tag.
    cases = [
        (Cubic(1.0, 0.0, -1e-14), [-1e-7, 0.0, 1e-7]),
        (Cubic(1e-13, 1e-12, -1e-12), [-5.0 - math.sqrt(35.0), 0.0, -5.0 + math.sqrt(35.0)]),
        (Cubic(1e200, 3e200, 1e200), [-1.5 - math.sqrt(1.25), -1.5 + math.sqrt(1.25), 0.0]),
        (Cubic(1e-200, 3e-200, 1e-200), [-1.5 - math.sqrt(1.25), -1.5 + math.sqrt(1.25), 0.0]),
    ]
    for coeffs, want in cases:
        reports = equilibria(coeffs)
        assert len(reports) == 3
        for report, x in zip(reports, want):
            assert abs(report.x_eq - x) <= 1e-12 * abs(x)
        assert [(r.classification, r.multiplicity) for r in reports] == [(U, 1), (AS, 1), (U, 1)]


def test_equilibria_match_an_80_digit_oracle():
    # Seeded random cubics: each coefficient is 0 with probability 0.08 and
    # otherwise +/-10**e, e uniform on [-20, 20] or [-320, 308] by a coin
    # flip.  Roots must hold to 1e-12 and normal eigenvalues to 1e-9
    # relative, tags and multiplicities exactly.  A refusal is right only
    # where a true root or eigenvalue leaves double range, and a root below
    # the smallest normal double may merge into the origin.
    top, tiny = sys.float_info.max, sys.float_info.min

    def matches(report, want):
        x, lam, tag, mult = want
        return (
            abs(report.x_eq - x) <= 1e-12 * abs(x) + (2.0**-1074 if x else 0.0)
            and (report.classification, report.multiplicity) == (tag, mult)
            and (abs(lam) < tiny or abs(report.lam - lam) <= 1e-9 * abs(lam))
        )

    rng = np.random.default_rng(2026)
    answered = 0
    for _ in range(2000):
        lo, hi = (-320, 308) if rng.random() < 0.5 else (-20, 20)
        coeffs = Cubic(*(
            0.0 if rng.random() < 0.08 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)
            for _ in range(3)
        ))
        if coeffs == Cubic(0.0, 0.0, 0.0):
            continue
        want = cubic_equilibria(coeffs.a, coeffs.b, coeffs.c)
        largest = max(max(abs(x), abs(lam)) for x, lam, _, _ in want)
        try:
            reports = equilibria(coeffs)
        except ArithmeticError:
            assert largest > top * (1.0 - 1e-12), coeffs
            continue
        assert largest <= top * (1.0 + 1e-12), coeffs
        pending = iter(want)
        for report in reports:
            expected = next(pending)
            while 0 < abs(expected[0]) < tiny and not matches(report, expected):
                expected = next(pending)
            assert matches(report, expected), (coeffs, report, expected)
        assert all(0 < abs(x) < tiny for x, _, _, _ in pending), coeffs
        answered += 1
    assert answered > 1700


def test_equilibria_unrepresentable_root_raises():
    # The root -1e8 is exact, but f'(-1e8) = 1e316 is past double range.
    with pytest.raises(ArithmeticError, match=r"^lambda at x = -100000000\.0 is .* beyond double"):
        equilibria(Cubic(1e300, 1e308, 1e-300))


def test_equilibria_double_root_reported_once():
    # Harvested Allee growth exactly at its critical effort: the interior
    # pair collapses onto (m + K) / 2, also when time runs 5e12 times slower.
    for rate, effort in ((0.5, 1.0125), (1e-13, 2.025e-13)):
        coeffs = to_cubic(AlleeHarvest(rate, 10.0, 1.0, effort))
        reports = classify_all(coeffs, 0.5)
        assert [(round(r.x_eq, 9), r.multiplicity) for r in reports] == [(0.0, 1), (5.5, 2)]
        assert reports[0].classification is AS
        assert reports[1].classification is INC


def test_classify_logistic_examples():
    zero, capacity = equilibria(LOGISTIC)
    assert isinstance(zero, EquilibriumReport)
    assert zero.x_eq == 0.0
    assert zero.classification is U
    assert abs(zero.lam - 0.5) <= 1e-15
    assert abs(capacity.x_eq - 10.0) <= 1e-9
    assert capacity.classification is AS
    assert abs(capacity.lam + 0.5) <= 1e-12


def test_classify_does_not_overflow():
    # The root near -1e300 of 1e-300 x**2 + x, whose terms are each 1e300.
    report, _ = equilibria(Cubic(0.0, 1e-300, 1.0))
    assert abs(report.x_eq + 1e300) <= 1e-15 * 1e300
    assert report.classification is AS
    assert abs(report.lam + 1.0) <= 1e-15


def test_classify_flat_root_is_inconclusive():
    (report,) = equilibria(Cubic(1.0, 0.0, 0.0))
    assert report.classification is INC
    assert report.lam == 0.0


def test_classify_checks_alpha_domain():
    # No tag depends on alpha, but classify_all keeps the order's domain, and
    # `fracpop equilibria --alpha` relies on it for its exit code 2.
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]"):
            classify_all(LOGISTIC, alpha)
    with pytest.raises(ValueError, match=r"^alpha must be finite, got nan$"):
        classify_all(LOGISTIC, float("nan"))


def test_tags_do_not_depend_on_alpha():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 30:
        coeffs = Cubic(*rng.uniform(-2.0, 2.0, 3))
        try:
            reports = equilibria(coeffs)
        except DegenerateModelError:
            continue
        if any(abs(r.lam) <= 1e-3 for r in reports):
            continue
        checked += 1
        for alpha in (0.1, 0.5, 1.0):
            assert classify_all(coeffs, alpha) == reports


def test_classify_all_two_root_catalog():
    assert tags_of(Cubic(0.0, -1.0, 1.0)) == [(0.0, U), (1.0, AS)]
    assert tags_of(Cubic(0.0, 1.0, -1.0)) == [(0.0, AS), (1.0, U)]


def test_classify_all_negative_leading_coefficient():
    # Downward cubic: both outer roots attract, the origin repels.  The
    # perturb-and-integrate probe must confirm every tag.
    coeffs = Cubic(-1.0, 0.0, 1.0)
    got = tags_of(coeffs)
    assert [(round(x, 12), tag) for x, tag in got] == [(-1.0, AS), (0.0, U), (1.0, AS)]
    for report in classify_all(coeffs, 0.5):
        assert simulated_tag(coeffs, report.x_eq, report.lam) is report.classification


def test_classify_all_positive_leading_coefficient():
    coeffs = Cubic(1.0, 0.0, -1.0)
    got = tags_of(coeffs)
    assert [(round(x, 12), tag) for x, tag in got] == [(-1.0, U), (0.0, AS), (1.0, U)]
    for report in classify_all(coeffs, 0.5):
        assert simulated_tag(coeffs, report.x_eq, report.lam) is report.classification


def test_classification_scale_invariance():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 20:
        coeffs = Cubic(*rng.uniform(-2.0, 2.0, 3))
        try:
            base = classify_all(coeffs, 0.5)
        except DegenerateModelError:
            continue
        checked += 1
        for gamma_scale in (0.5, 3.7, 1e-12, 1e12):
            scaled = Cubic(
                gamma_scale * coeffs.a, gamma_scale * coeffs.b, gamma_scale * coeffs.c
            )
            got = classify_all(scaled, 0.5)
            assert [(r.classification, r.multiplicity) for r in got] == [
                (r.classification, r.multiplicity) for r in base
            ]
            for report, want in zip(got, base):
                assert abs(report.x_eq - want.x_eq) <= 1e-12 * abs(want.x_eq)


def test_harvest_threshold_values():
    assert abs(harvest_threshold(0.5, 10.0, 1.0) - 1.0125) <= 1e-12 * 1.0125
    assert abs(harvest_threshold(4.0, 1.0, 0.5) - 0.25) <= 1e-12 * 0.25
    assert harvest_threshold(1.0, 2.0, 2.0 - 1e-9) < 1e-15


def test_harvest_threshold_validation():
    with pytest.raises(ValueError):
        harvest_threshold(0.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        harvest_threshold(0.5, -1.0, 1.0)
    for m in (0.0, 10.0, 12.0):
        with pytest.raises(ValueError):
            harvest_threshold(0.5, 10.0, m)
    for bad in (math.nan, math.inf):
        for args in ((bad, 10.0, 1.0), (0.5, bad, 1.0), (0.5, 10.0, bad)):
            with pytest.raises(ValueError):
                harvest_threshold(*args)
    # (K - m)**2 past double range: refused, not a bare OverflowError.
    with pytest.raises(ValueError, match="harvest threshold must be finite, got inf"):
        harvest_threshold(1e300, 1e300, 1.0)


def test_harvest_threshold_splits_equilibrium_structure():
    threshold = harvest_threshold(0.5, 10.0, 1.0)
    below = classify_all(to_cubic(AlleeHarvest(0.5, 10.0, 1.0, 0.2)), 0.5)
    assert len(below) == 3
    assert abs(below[1].x_eq - HARVESTED_LOW) <= 1e-9
    assert abs(below[2].x_eq - HARVESTED_HIGH) <= 1e-9
    # Eigenvalue signs decide the tags: the interior root repels, the upper
    # root attracts, extinction attracts.
    assert [r.classification for r in below] == [AS, U, AS]
    above = classify_all(to_cubic(AlleeHarvest(0.5, 10.0, 1.0, threshold + 0.2)), 0.5)
    assert [(r.x_eq, r.classification) for r in above] == [(0.0, AS)]


def test_logistic_harvest_equilibrium_values():
    assert abs(logistic_harvest_equilibrium(0.5, 10.0, 0.2) - 6.0) <= 1e-12 * 6.0
    assert logistic_harvest_equilibrium(0.5, 10.0, 0.0) == 10.0
    assert abs(logistic_harvest_equilibrium(0.5, 10.0, 0.5)) <= 1e-15
    assert abs(logistic_harvest_equilibrium(0.5, 10.0, 0.7) + 4.0) <= 1e-12 * 4.0


def test_logistic_harvest_equilibrium_matches_root_finder():
    rng = np.random.default_rng(43)
    for _ in range(50):
        r = float(rng.uniform(0.1, 3.0))
        K = float(rng.uniform(1.0, 20.0))
        E = float(rng.uniform(0.0, 2.0 * r))
        if abs(E - r) <= 1e-3 * r:
            continue  # nonzero root merges with the origin
        want = logistic_harvest_equilibrium(r, K, E)
        roots = roots_of(to_cubic(LogisticHarvest(r, K, E)))
        nonzero = [x for x in roots if x != 0.0]
        assert len(nonzero) == 1
        assert abs(nonzero[0] - want) <= 1e-12 * (1.0 + abs(want))


def test_logistic_harvest_equilibrium_validation():
    with pytest.raises(ValueError):
        logistic_harvest_equilibrium(0.0, 10.0, 0.2)
    with pytest.raises(ValueError):
        logistic_harvest_equilibrium(0.5, 10.0, -0.2)
    for bad in (math.nan, math.inf):
        for args in ((bad, 10.0, 0.2), (0.5, bad, 0.2), (0.5, 10.0, bad)):
            with pytest.raises(ValueError):
                logistic_harvest_equilibrium(*args)
    # E / r past double range: refused, not returned as -inf.
    with pytest.raises(ValueError, match="equilibrium must be finite, got -inf"):
        logistic_harvest_equilibrium(1e-300, 1e300, 1e300)
