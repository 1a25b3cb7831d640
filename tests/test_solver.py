"""Integrator correctness: oracles, reductions, properties, and failure modes."""

import math

import numpy as np
import pytest

from conftest import classical_logistic
from fracpop import (
    Allee,
    AlleeHarvest,
    BLOWUP_LIMIT,
    BlowUpError,
    Cubic,
    FractionalIVP,
    Grid,
    Logistic,
    LogisticHarvest,
    SolverMethod,
    Trajectory,
    convergence_study,
    estimate_order,
    rhs_eval,
    solve,
    to_cubic,
)

ML_HALF_AT_MINUS_ONE = 0.42758357615580700441

LINEAR_DECAY = Cubic(0.0, 0.0, -1.0)


def classical_euler(coeffs, x0, t_final, n):
    h = t_final / n
    u = [x0]
    for _ in range(n):
        u.append(u[-1] + h * rhs_eval(coeffs, u[-1]))
    return np.array(u)


def classical_trapezoid_pece(coeffs, x0, t_final, n):
    """One-step trapezoidal predictor-corrector in integral form.

    Both the rectangle-rule predictor and the trapezoid corrector integrate
    from t = 0 over the whole accepted history, which is what the fractional
    weights collapse onto at alpha = 1 (stepwise updates would differ at the
    h**3 level because the predictor restarts from u_0, not from u_n).
    """
    h = t_final / n
    u = [x0]
    fs = [rhs_eval(coeffs, x0)]
    for _ in range(n):
        predicted = x0 + h * sum(fs)
        corrected = x0 + h * (0.5 * fs[0] + sum(fs[1:]) + 0.5 * rhs_eval(coeffs, predicted))
        u.append(corrected)
        fs.append(rhs_eval(coeffs, corrected))
    return np.array(u)


def test_euler_single_classical_step():
    # One step of x' = -x from 1 with h = 1 lands on 0.
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    trajectory = solve(ivp, 1, SolverMethod.FRAC_EULER)
    assert trajectory.values[1] == 0.0


def test_constant_when_rhs_vanishes():
    ivp = FractionalIVP(0.5, Cubic(0.0, 0.0, 0.0), 3.0, 2.0)
    for n in (1, 7, 64):
        assert np.all(solve(ivp, n, SolverMethod.FRAC_EULER).values == 3.0)
        assert np.all(solve(ivp, n, SolverMethod.FRAC_ADAMS_PECE).values == 3.0)


def test_euler_linear_relaxation_accuracy():
    ivp = FractionalIVP(0.5, LINEAR_DECAY, 1.0, 1.0)
    final = solve(ivp, 512, SolverMethod.FRAC_EULER).values[-1]
    assert abs(final - ML_HALF_AT_MINUS_ONE) <= 5e-2


def test_adams_linear_relaxation_accuracy():
    ivp = FractionalIVP(0.5, LINEAR_DECAY, 1.0, 1.0)
    final = solve(ivp, 512, SolverMethod.FRAC_ADAMS_PECE).values[-1]
    assert abs(final - ML_HALF_AT_MINUS_ONE) <= 5e-3


def test_adams_classical_logistic():
    ivp = FractionalIVP(1.0, Logistic(0.5, 10.0), 5.0, 20.0)
    final = solve(ivp, 4000, SolverMethod.FRAC_ADAMS_PECE).values[-1]
    assert abs(final - classical_logistic(0.5, 10.0, 5.0, 20.0)) <= 1e-3


def test_zero_state_is_invariant():
    for alpha in (0.3, 1.0):
        for model in (
            Logistic(0.5, 10.0),
            LogisticHarvest(0.5, 10.0, 0.2),
            Allee(0.5, 10.0, 1.0),
            AlleeHarvest(0.5, 10.0, 1.0, 0.2),
        ):
            ivp = FractionalIVP(alpha, model, 0.0, 5.0)
            assert np.all(solve(ivp, 50, SolverMethod.FRAC_ADAMS_PECE).values == 0.0)


def test_equilibrium_fixed_points():
    # Starting on a root of the cubic, the trajectory must stay on it.
    # Parameters are binary-exact (K = 8 gives coefficient -0.0625) so the
    # right-hand side vanishes exactly at the root; a one-ulp residual would
    # otherwise seed growth over this long horizon.
    cases = [
        (Logistic(0.5, 8.0), 8.0),
        (Allee(0.5, 8.0, 2.0), 2.0),
        (Allee(0.5, 8.0, 2.0), 8.0),
        (LogisticHarvest(0.5, 8.0, 0.25), 4.0),
    ]
    for model, root in cases:
        for method in SolverMethod:
            ivp = FractionalIVP(0.5, model, root, 500.0)
            values = solve(ivp, 1000, method).values
            assert np.all(values == root)


def test_dispatch_identity():
    # The method alone selects the scheme: members looked up by value run the
    # same scheme bit for bit, the two schemes differ, and a non-member is
    # refused.
    ivp = FractionalIVP(0.7, Logistic(0.5, 10.0), 4.0, 10.0)
    euler = solve(ivp, 100, SolverMethod.FRAC_EULER).values
    adams = solve(ivp, 100, SolverMethod.FRAC_ADAMS_PECE).values
    assert np.array_equal(solve(ivp, 100, SolverMethod("euler")).values, euler)
    assert np.array_equal(solve(ivp, 100, SolverMethod("adams")).values, adams)
    assert not np.array_equal(euler, adams)
    with pytest.raises(ValueError):
        solve(ivp, 100, "adams")


def transcribed_scheme(ivp, n, corrected):
    """The two documented schemes written out term by term.

    Weights come straight from the formulas in the ``solve`` docstring, the
    prefactors from ``math.gamma``, and every history sum is a Python loop
    over the nodes j = 0..m, with no reversed buffer or precomputed weight
    arrays.
    """
    coeffs = to_cubic(ivp.model)
    alpha, x0 = ivp.alpha, ivp.x0
    h = ivp.t_final / n
    pref_p = h**alpha / math.gamma(alpha + 1.0)
    pref_c = h**alpha / math.gamma(alpha + 2.0)
    u = [x0]
    f = [rhs_eval(coeffs, x0)]
    for m in range(n):
        hist_p = 0.0
        for j in range(m + 1):
            hist_p += ((m + 1 - j) ** alpha - (m - j) ** alpha) * f[j]
        value = x0 + pref_p * hist_p
        if corrected:
            hist_c = (m ** (alpha + 1) - (m - alpha) * (m + 1) ** alpha) * f[0]
            for j in range(1, m + 1):
                weight = (
                    (m - j + 2) ** (alpha + 1)
                    + (m - j) ** (alpha + 1)
                    - 2.0 * (m - j + 1) ** (alpha + 1)
                )
                hist_c += weight * f[j]
            value = x0 + pref_c * (hist_c + rhs_eval(coeffs, value))
        u.append(value)
        f.append(rhs_eval(coeffs, value))
    return np.array(u)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("method", list(SolverMethod))
def test_solve_matches_transcribed_scheme(alpha, method):
    ivp = FractionalIVP(alpha, LogisticHarvest(0.5, 10.0, 0.2), 4.0, 20.0)
    got = solve(ivp, 40, method).values
    want = transcribed_scheme(ivp, 40, method is SolverMethod.FRAC_ADAMS_PECE)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_mapped_model_matches_raw_cubic():
    model = AlleeHarvest(0.5, 10.0, 1.0, 0.2)
    coeffs = to_cubic(model)
    named = FractionalIVP(0.5, model, 4.0, 25.0)
    raw = FractionalIVP(0.5, Cubic(coeffs.a, coeffs.b, coeffs.c), 4.0, 25.0)
    for method in SolverMethod:
        assert np.array_equal(solve(named, 200, method).values, solve(raw, 200, method).values)


def test_euler_reduces_to_classical_at_order_one():
    coeffs = to_cubic(Logistic(0.5, 10.0))
    ivp = FractionalIVP(1.0, Logistic(0.5, 10.0), 5.0, 2.0)
    got = solve(ivp, 50, SolverMethod.FRAC_EULER).values
    want = classical_euler(coeffs, 5.0, 2.0, 50)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_adams_reduces_to_trapezoid_pece_at_order_one():
    coeffs = to_cubic(Logistic(0.5, 10.0))
    ivp = FractionalIVP(1.0, Logistic(0.5, 10.0), 5.0, 2.0)
    got = solve(ivp, 50, SolverMethod.FRAC_ADAMS_PECE).values
    want = classical_trapezoid_pece(coeffs, 5.0, 2.0, 50)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_blowup_reports_first_offending_step():
    ivp = FractionalIVP(1.0, Cubic(1.0, 0.0, 1.0), 2.0, 10.0)
    with pytest.raises(BlowUpError) as excinfo:
        solve(ivp, 100, SolverMethod.FRAC_ADAMS_PECE)
    err = excinfo.value
    assert err.step_index >= 1
    assert err.time > 0.0
    assert not math.isfinite(err.value) or abs(err.value) > BLOWUP_LIMIT
    with pytest.raises(BlowUpError):
        solve(ivp, 100, SolverMethod.FRAC_EULER)


def test_grid_shape_and_validation():
    grid = Grid(8, 2.0)
    times = grid.times
    assert times[0] == 0.0
    assert times[-1] == 2.0
    assert len(times) == 9
    spacing = np.diff(times)
    assert np.max(np.abs(spacing - grid.h)) <= 1e-12 * grid.h
    with pytest.raises(ValueError):
        Grid(0, 1.0)
    with pytest.raises(ValueError):
        Grid(10, 0.0)
    with pytest.raises(ValueError, match=r"^t_final must be finite, got nan$"):
        Grid(10, float("nan"))
    # A fractional step count is rejected, not truncated.
    with pytest.raises(ValueError, match=r"^n_steps must be a whole number, got 2\.9$"):
        Grid(2.9, 1.0)
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    with pytest.raises(ValueError, match="whole number, got 2.9"):
        solve(ivp, 2.9, SolverMethod.FRAC_EULER)
    with pytest.raises(ValueError, match="whole number, got 1.5"):
        convergence_study(ivp, SolverMethod.FRAC_EULER, 1.5, 2)
    for whole in (np.int64(5), 5.0):
        n_steps = Grid(whole, 1.0).n_steps
        assert n_steps == 5 and type(n_steps) is int


def test_trajectory_initial_value_is_exact():
    ivp = FractionalIVP(0.4, Logistic(0.5, 10.0), 0.1, 5.0)
    trajectory = solve(ivp, 25, SolverMethod.FRAC_ADAMS_PECE)
    assert isinstance(trajectory, Trajectory)
    assert trajectory.values[0] == 0.1
    assert len(trajectory.values) == 26


def test_monotone_logistic_trajectories():
    # Interior starts rise toward the capacity, overshoots sink back to it.
    for x0, rising in [(0.1, True), (4.0, True), (8.0, True), (12.0, False)]:
        ivp = FractionalIVP(0.5, Logistic(0.5, 10.0), x0, 500.0)
        steps = np.diff(solve(ivp, 1500, SolverMethod.FRAC_ADAMS_PECE).values)
        if rising:
            assert np.min(steps) >= -1e-9
        else:
            assert np.max(steps) <= 1e-9


def test_refinement_cauchy_decrease():
    cases = [
        (FractionalIVP(0.5, LogisticHarvest(0.5, 10.0, 0.2), 4.0, 500.0), (250, 500, 1000)),
        (FractionalIVP(0.5, AlleeHarvest(0.5, 10.0, 1.0, 0.2), 8.0, 25.0), (500, 1000, 2000)),
        (FractionalIVP(0.25, LogisticHarvest(0.5, 10.0, 0.2), 12.0, 500.0), (250, 500, 1000)),
    ]
    for ivp, grids in cases:
        finals = [solve(ivp, n, SolverMethod.FRAC_ADAMS_PECE).values[-1] for n in grids]
        first = abs(finals[1] - finals[0])
        second = abs(finals[2] - finals[1])
        assert second < first


def test_alpha_continuity_toward_classical():
    finals = {}
    for alpha in (0.9, 0.99, 1.0):
        ivp = FractionalIVP(alpha, LINEAR_DECAY, 1.0, 1.0)
        finals[alpha] = solve(ivp, 512, SolverMethod.FRAC_ADAMS_PECE).values[-1]
    gap_far = finals[0.9] - finals[1.0]
    gap_near = finals[0.99] - finals[1.0]
    assert gap_far * gap_near > 0.0
    assert abs(gap_near) < abs(gap_far)


def test_estimate_order_classical_adams():
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    assert abs(estimate_order(ivp, SolverMethod.FRAC_ADAMS_PECE, 32, 4) - 2.0) <= 0.2


def test_estimate_order_classical_euler():
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    assert abs(estimate_order(ivp, SolverMethod.FRAC_EULER, 32, 4) - 1.0) <= 0.2


def test_estimate_order_fractional_euler_self_consistent():
    # No closed-form order claim at alpha = 0.5; the working estimate must
    # agree with a much deeper refinement of the same study.
    ivp = FractionalIVP(0.5, LINEAR_DECAY, 1.0, 1.0)
    estimate = estimate_order(ivp, SolverMethod.FRAC_EULER, 32, 4)
    oracle = estimate_order(ivp, SolverMethod.FRAC_EULER, 8, 12)
    assert abs(estimate - oracle) <= 0.25


def test_estimate_order_quadratic_closed_forms():
    # alpha = 1 references beyond the linear law: logistic-type (b, c) and
    # pure-quadratic (b only) right-hand sides.
    harvested = FractionalIVP(1.0, LogisticHarvest(0.5, 10.0, 0.2), 4.0, 5.0)
    assert abs(estimate_order(harvested, SolverMethod.FRAC_ADAMS_PECE, 32, 4) - 2.0) <= 0.2
    quadratic = FractionalIVP(1.0, Cubic(0.0, -0.1, 0.0), 1.0, 5.0)
    assert abs(estimate_order(quadratic, SolverMethod.FRAC_EULER, 32, 4) - 1.0) <= 0.2


def test_estimate_order_requires_reference():
    with pytest.raises(ValueError):
        estimate_order(FractionalIVP(0.5, Allee(0.5, 10.0, 1.0), 4.0, 5.0), SolverMethod.FRAC_ADAMS_PECE, 32, 4)
    # Linear reference exists only while the series oracle stays accurate.
    with pytest.raises(ValueError):
        estimate_order(FractionalIVP(1.0, LINEAR_DECAY, 1.0, 100.0), SolverMethod.FRAC_ADAMS_PECE, 32, 4)
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    with pytest.raises(ValueError):
        estimate_order(ivp, SolverMethod.FRAC_ADAMS_PECE, 0, 4)
    with pytest.raises(ValueError):
        estimate_order(ivp, SolverMethod.FRAC_ADAMS_PECE, 32, 1)
