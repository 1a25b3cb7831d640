"""Model catalog, cubic reduction, and the uniqueness bound."""

import re
import typing

import numpy as np
import pytest

from fracpop import (
    Allee,
    AlleeHarvest,
    Cubic,
    ExistenceBound,
    FractionalIVP,
    Logistic,
    LogisticHarvest,
    ModelSpec,
    default_h_state,
    existence_bound,
    rhs_eval,
    to_cubic,
)


def direct_rhs(model, x):
    """Each growth law evaluated from its own ecological form, less its harvest."""
    if isinstance(model, Logistic):
        return model.r * x * (1.0 - x / model.K) - model.E * x
    if isinstance(model, Allee):
        return model.r * x * (1.0 - x / model.K) * (x - model.m) - model.E * x
    return ((model.a * x + model.b) * x + model.c) * x


def test_model_catalog_is_exhaustive():
    assert set(typing.get_args(ModelSpec)) == {Cubic, Logistic, Allee}
    # The harvested laws are the base laws with an effort E, which defaults to 0.
    assert LogisticHarvest is Logistic
    assert AlleeHarvest is Allee
    assert Logistic(0.5, 10.0) == LogisticHarvest(0.5, 10.0, 0.0)


def test_reduction_logistic():
    assert to_cubic(Logistic(0.5, 10.0)) == Cubic(0.0, -0.05, 0.5)


def test_reduction_cubic_identity():
    assert to_cubic(Cubic(1.0, 2.0, 3.0)) == Cubic(1.0, 2.0, 3.0)
    model = Cubic(1.0, 2.0, 3.0)
    assert to_cubic(model) is model


def test_reduction_refuses_unknown_model():
    with pytest.raises(TypeError, match="unsupported model"):
        to_cubic(object())


def test_reduction_allee_harvest():
    got = to_cubic(AlleeHarvest(0.5, 10.0, 1.0, 0.2))
    assert got.a == -0.05
    assert abs(got.b - 0.55) <= 1e-15
    assert abs(got.c - (-0.7)) <= 1e-15


@pytest.mark.parametrize(
    "model, name",
    [
        (Logistic(1e-300, 1e300), "r / K"),
        (LogisticHarvest(1e-300, 1e300, 0.0), "r / K"),
        (Allee(1e-300, 1e300, 1.0), "r / K"),
        (AlleeHarvest(1e-200, 10.0, 1e-200, 0.0), "r * m"),
    ],
    ids=["logistic", "logistic-harvest", "allee", "allee-harvest"],
)
def test_reduction_refuses_underflowed_coefficient(model, name):
    # r / K and r * m are positive by formula; a zero there would drop the
    # equilibrium x = K or x = m without a word.
    with pytest.raises(ValueError, match=re.escape(f"{name} underflows to zero")):
        to_cubic(model)


def test_reduction_keeps_subnormal_coefficient():
    # Only an exact zero is refused; a subnormal coefficient still reduces.
    assert to_cubic(Logistic(1e-300, 1e10)).b == -(1e-300 / 1e10)
    assert to_cubic(Allee(1e-300, 10.0, 1e-10)).c == -(1e-300 * 1e-10)


def test_reduction_matches_direct_forms():
    rng = np.random.default_rng(19)
    for _ in range(50):
        r = float(rng.uniform(0.1, 3.0))
        K = float(rng.uniform(1.0, 20.0))
        m = float(rng.uniform(0.05, 0.95)) * K
        E = float(rng.uniform(0.0, 2.0))
        for model in (
            Logistic(r, K),
            LogisticHarvest(r, K, E),
            Allee(r, K, m),
            AlleeHarvest(r, K, m, E),
        ):
            coeffs = to_cubic(model)
            for x in rng.uniform(-2.0 * K, 2.0 * K, 8):
                want = direct_rhs(model, float(x))
                got = rhs_eval(coeffs, float(x))
                assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_rhs_eval_vanishes_at_known_roots():
    assert rhs_eval(Cubic(0.0, -0.05, 0.5), 10.0) == pytest.approx(0.0, abs=1e-15)
    assert rhs_eval(Cubic(3.0, -2.0, 7.0), 0.0) == 0.0
    assert rhs_eval(Cubic(-0.05, 0.55, -0.5), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_rhs_eval_matches_monomial_form():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b, c, x = rng.uniform(-3.0, 3.0, 4)
        want = a * x**3 + b * x**2 + c * x
        assert abs(rhs_eval(Cubic(a, b, c), x) - want) <= 1e-13 * (1.0 + abs(want))


def test_bound_example_logistic():
    report = existence_bound(to_cubic(Logistic(0.5, 10.0)), 12.0, 0.5)
    assert isinstance(report, ExistenceBound)
    assert abs(report.rhs_bound - 1.7) <= 1e-12 * 1.7
    assert abs(report.n_min - 2.89) <= 1e-12 * 2.89
    assert report.h_state == 12.0


def test_bound_example_pure_linear():
    report = existence_bound(Cubic(0.0, 0.0, 1.0), 5.0, 1.0)
    assert report.rhs_bound == 1.0
    assert report.n_min == 1.0


def test_bound_specializations_randomized():
    # The generic 3|a|h^2 + 2|b|h + |c| must collapse onto each model's own
    # closed form; harvested logistic sampled with r > E so the linear
    # coefficient keeps its sign.
    rng = np.random.default_rng(29)
    for _ in range(100):
        r = float(rng.uniform(0.1, 3.0))
        K = float(rng.uniform(1.0, 20.0))
        m = float(rng.uniform(0.05, 0.95)) * K
        E = float(rng.uniform(0.0, 1.0)) * r
        h = float(rng.uniform(0.1, 30.0))
        alpha = float(rng.uniform(0.05, 1.0))
        cases = [
            (Logistic(r, K), r * (2.0 * h / K + 1.0)),
            (LogisticHarvest(r, K, E), 2.0 * (r / K) * h + (r - E)),
            (Allee(r, K, m), 3.0 * (r / K) * h**2 + 2.0 * r * (m / K + 1.0) * h + r * m),
            (
                AlleeHarvest(r, K, m, E),
                r * (m + (m / K + 1.0) * 2.0 * h + 3.0 * h**2 / K) + E,
            ),
        ]
        for model, closed_form in cases:
            got = existence_bound(to_cubic(model), h, alpha).rhs_bound
            assert abs(got - closed_form) <= 1e-12 * closed_form


def test_bound_nmin_power_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        coeffs = Cubic(*rng.uniform(-2.0, 2.0, 3))
        h = float(rng.uniform(0.1, 20.0))
        alpha = float(rng.uniform(0.05, 1.0))
        report = existence_bound(coeffs, h, alpha)
        assert abs(report.n_min**alpha - report.rhs_bound) <= 1e-12 * report.rhs_bound


def test_bound_nmin_monotone_in_alpha():
    alphas = np.linspace(0.1, 1.0, 10)
    # rhs_bound > 1: shrinking 1/alpha exponent lowers n_min.
    large = [existence_bound(Cubic(0.0, 0.0, 2.0), 1.0, float(a)).n_min for a in alphas]
    assert all(n2 <= n1 for n1, n2 in zip(large, large[1:]))
    # rhs_bound < 1: the same exponent change raises n_min.
    small = [existence_bound(Cubic(0.0, 0.0, 0.5), 1.0, float(a)).n_min for a in alphas]
    assert all(n2 >= n1 for n1, n2 in zip(small, small[1:]))


def test_bound_domain_errors():
    coeffs = Cubic(0.0, 0.0, 1.0)
    for h in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            existence_bound(coeffs, h, 0.5)
    for alpha in (0.0, -0.2, 1.1):
        with pytest.raises(ValueError):
            existence_bound(coeffs, 1.0, alpha)
    with pytest.raises(ValueError, match=r"^alpha must be finite, got nan$"):
        existence_bound(coeffs, 1.0, float("nan"))
    # A bound beyond double range fails one way, whether the power overflows
    # (logistic; Allee at alpha = 0.25) or rhs_bound is already infinite.
    beyond = [
        (Logistic(0.5, 10.0), 1e200, 0.5, "1e+200, alpha = 0.5"),
        (Allee(0.5, 10.0, 1.0), 1e200, 0.5, "1e+200, alpha = 0.5"),
        (Allee(0.5, 10.0, 1.0), 1e80, 0.25, "1e+80, alpha = 0.25"),
    ]
    for model, h, alpha, where in beyond:
        message = f"bound beyond double range at h_state = {where}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            existence_bound(to_cubic(model), h, alpha)


def test_default_h_state():
    assert default_h_state(Logistic(0.5, 10.0), 2.0) == pytest.approx(12.0)
    assert default_h_state(Logistic(0.5, 10.0), -15.0) == pytest.approx(18.0)
    assert default_h_state(AlleeHarvest(0.5, 10.0, 1.0, 0.2), 0.0) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        default_h_state(Cubic(1.0, 0.0, 0.0), 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Logistic(0.0, 10.0)
    with pytest.raises(ValueError):
        Logistic(0.5, -1.0)
    with pytest.raises(ValueError):
        Logistic(float("nan"), 10.0)
    with pytest.raises(ValueError):
        LogisticHarvest(0.5, 10.0, -0.1)
    for m in (0.0, 10.0, -1.0, 11.0):
        with pytest.raises(ValueError):
            Allee(0.5, 10.0, m)
    with pytest.raises(ValueError):
        AlleeHarvest(0.5, 10.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        Cubic(1.0, float("inf"), 0.0)
    # Harvesting above the growth rate is a legitimate regime, not an error.
    assert LogisticHarvest(0.5, 10.0, 0.7).E == 0.7


def test_ivp_validation():
    model = Logistic(0.5, 10.0)
    for alpha in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            FractionalIVP(alpha, model, 1.0, 1.0)
    for t_final in (0.0, -1.0):
        with pytest.raises(ValueError):
            FractionalIVP(0.5, model, 1.0, t_final)
    with pytest.raises(ValueError):
        FractionalIVP(0.5, model, float("nan"), 1.0)
    assert FractionalIVP(1.0, model, 1.0, 1.0).alpha == 1.0
    assert FractionalIVP(1e-6, model, -3.0, 2.5).x0 == -3.0
