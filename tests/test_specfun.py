"""Mittag-Leffler accuracy, identities, and domain policing."""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import ml_series
from fracpop import mittag_leffler

# Frozen 60-digit reference values.
ML_HALF_AT_MINUS_ONE = 0.42758357615580700441  # equals e * erfc(1)
ML_03_AT_MINUS_07 = 0.548823134964846796


def test_ml_matches_exp_at_order_one():
    zs = np.linspace(-10.0, 10.0, 201)
    worst = max(abs(mittag_leffler(1.0, float(z)) - math.exp(float(z))) for z in zs)
    assert worst <= 1e-10


def test_ml_frozen_values():
    got = mittag_leffler(0.5, -1.0)
    assert abs(got - ML_HALF_AT_MINUS_ONE) <= 1e-13
    assert abs(got - math.exp(1.0) * math.erfc(1.0)) <= 1e-13
    assert abs(mittag_leffler(0.3, -0.7) - ML_03_AT_MINUS_07) <= 1e-13


def test_ml_at_zero_is_one():
    for alpha in (0.1, 0.3, 0.5, 0.8, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


def test_ml_randomized_vs_series():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = float(rng.uniform(0.4, 1.0))
        z = float(rng.uniform(-2.0, 2.0))
        assert abs(mittag_leffler(alpha, z) - ml_series(alpha, z)) <= 1e-12


def test_ml_strictly_increasing_in_z():
    # Per-alpha ranges chosen inside the series' full-accuracy zone.
    for alpha, lo, hi in [(0.3, -1.0, 1.0), (0.5, -2.0, 2.0), (0.8, -5.0, 5.0), (1.0, -10.0, 10.0)]:
        values = [mittag_leffler(alpha, float(z)) for z in np.linspace(lo, hi, 41)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_ml_usable_domain_edge():
    # The documented edge of the accurate domain at alpha = 0.5: -3.8 is
    # inside it, -4.0 is refused.  E_{1/2}(-x) = exp(x**2) erfc(x).
    want = float(mp.exp(mp.mpf("3.8") ** 2) * mp.erfc(mp.mpf("3.8")))
    assert abs(mittag_leffler(0.5, -3.8) - want) <= 1e-10
    with pytest.raises(ArithmeticError):
        mittag_leffler(0.5, -4.0)


def test_ml_positive_axis_edge():
    # On the positive axis the 200-term cap sets the edge: at alpha = 0.5,
    # 6.2 is inside it and 6.3 is refused.  E_{1/2}(x) = exp(x**2) erfc(-x).
    want = float(mp.exp(mp.mpf("6.2") ** 2) * mp.erfc(-mp.mpf("6.2")))
    assert abs(mittag_leffler(0.5, 6.2) - want) <= 1e-10 * want
    with pytest.raises(ArithmeticError, match="did not converge within 200 terms"):
        mittag_leffler(0.5, 6.3)


def test_ml_positive_axis_is_relative():
    # No term cancels for z > 0, so the value is as accurate as its terms,
    # relative to its size: these passed 4.3e5, where a 1e-10 absolute rule
    # refused them, though the series had converged.
    for alpha, z in [(0.5, 4.0), (0.9, 12.0), (1.0, 16.0)]:
        want = ml_series(alpha, z)
        assert abs(mittag_leffler(alpha, z) - want) <= 1e-15 * want


def test_ml_domain_errors():
    for alpha in (0.0, -0.5, 1.1):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, 0.5)
    for z in (31.0, -30.5):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, z)


def test_ml_raises_when_series_cannot_deliver():
    # Each refusal names the limit that stopped the series.  Large |z| at
    # small alpha: 200 terms do not converge, on either axis.
    for alpha, z in [(0.25, -25.0), (0.3, 28.0)]:
        with pytest.raises(ArithmeticError) as info:
            mittag_leffler(alpha, z)
        assert str(info.value) == (
            f"Mittag-Leffler series did not converge within 200 terms for alpha={alpha}, z={z}"
        )
    # Tiny alpha at |z| < 1: no term exceeds 1, so cancellation is harmless,
    # but the terms shrink like 0.9**k and 200 of them stop short of 1e-16.
    with pytest.raises(ArithmeticError, match=(
        r"^Mittag-Leffler series did not converge within 200 terms for alpha=0\.02, z=-0\.9$"
    )):
        mittag_leffler(0.02, -0.9)
    # Past about z = -3.9 at alpha = 0.5 the terms converge by k = 144 but
    # cancel by more than the accuracy rule allows.
    with pytest.raises(ArithmeticError, match=(
        r"^Mittag-Leffler series terms cancel beyond 1e-10 of max\(1, \|E\|\) "
        r"for alpha=0\.5, z=-4\.0 \(stopped at k = 144\)$"
    )):
        mittag_leffler(0.5, -4.0)
