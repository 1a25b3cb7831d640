"""Equilibrium finding, eigenvalue classification, and the harvest thresholds."""

import math

import numpy as np
import pytest

from conftest import simulated_tag
from fracpop import (
    AlleeHarvest,
    Classification,
    Cubic,
    DegenerateModelError,
    EquilibriumReport,
    LogisticHarvest,
    classify,
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
    classified = classify_all(Cubic(1.0, 0.0, 0.0), 0.5)
    assert classified[0].classification is INC
    assert classified[0].multiplicity == 3


def test_equilibria_double_root_reported_once():
    # Harvested Allee growth exactly at its critical effort: the interior
    # pair collapses onto (m + K) / 2.
    coeffs = to_cubic(AlleeHarvest(0.5, 10.0, 1.0, 1.0125))
    reports = classify_all(coeffs, 0.5)
    assert [(round(r.x_eq, 9), r.multiplicity) for r in reports] == [(0.0, 1), (5.5, 2)]
    assert reports[0].classification is AS
    assert reports[1].classification is INC


def test_classify_logistic_examples():
    zero = classify(LOGISTIC, 0.0, 0.5)
    assert isinstance(zero, EquilibriumReport)
    assert zero.classification is U
    assert abs(zero.lam - 0.5) <= 1e-15
    capacity = classify(LOGISTIC, 10.0, 0.5)
    assert capacity.classification is AS
    assert abs(capacity.lam + 0.5) <= 1e-12


def test_classify_flat_root_is_inconclusive():
    report = classify(Cubic(1.0, 0.0, 0.0), 0.0, 0.5)
    assert report.classification is INC
    assert report.lam == 0.0


def test_classify_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        classify(LOGISTIC, 3.0, 0.5)
    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^x_eq must be finite, got {x!r}$"):
            classify(LOGISTIC, x, 0.5)


def test_classify_checks_alpha_domain():
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            classify(LOGISTIC, 0.0, alpha)
    with pytest.raises(ValueError, match=r"^alpha must be finite, got nan$"):
        classify(LOGISTIC, 0.0, float("nan"))


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
        for report in reports:
            tags = {classify(coeffs, report.x_eq, alpha).classification for alpha in (0.1, 0.5, 1.0)}
            assert len(tags) == 1


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
            base = tags_of(coeffs)
        except DegenerateModelError:
            continue
        checked += 1
        for gamma_scale in (0.5, 3.7):
            scaled = Cubic(
                gamma_scale * coeffs.a, gamma_scale * coeffs.b, gamma_scale * coeffs.c
            )
            assert [tag for _, tag in tags_of(scaled)] == [tag for _, tag in base]


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
