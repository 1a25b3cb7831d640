"""Integrator correctness: oracles, reductions, properties, and failure modes."""

import itertools
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import classical_logistic, ml_asymptotic
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
import fracpop
from fracpop import solver
from fracpop.solver import _reference_solution

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


def long_horizon_errors(method):
    """Relative errors of D^0.9 x = -x, x0 = 1, at t = 500 for n = 1e4 and 1e5."""
    want = ml_asymptotic(0.9, 500.0**0.9)
    ivp = FractionalIVP(0.9, LINEAR_DECAY, 1.0, 500.0)
    return [abs(solve(ivp, n, method).values[-1] / want - 1.0) for n in (10**4, 10**5)]


def test_euler_long_horizon_keeps_order_one():
    # The asymptotic oracle first meets the closed form E_1/2(-x) = exp(x^2) erfc(x).
    x = mp.mpf(50)
    closed = float(mp.exp(x * x) * mp.erfc(x))
    assert abs(ml_asymptotic(0.5, 50.0) - closed) <= 1e-15 * closed
    coarse, fine = long_horizon_errors(SolverMethod.FRAC_EULER)
    assert fine <= 1e-5
    assert abs(math.log10(coarse / fine) - 1.0) <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="PECE's weights c2 and a0 lose digits to cancellation at long lags: "
    "at alpha = 0.9 and t = 500 its error rises from 2.4e-6 at n = 1e4 to "
    "9.4e-6 at n = 1e5, past Euler's (ROADMAP item 15)",
)
def test_pece_long_horizon_error_falls_under_refinement():
    coarse, fine = long_horizon_errors(SolverMethod.FRAC_ADAMS_PECE)
    assert fine < coarse


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


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_dispatch_identity(alpha):
    # The method alone selects the scheme: a member, the member looked up by
    # value and the bare value run the same scheme bit for bit, the two
    # schemes differ, and any other value is refused.  At alpha = 1 the
    # member reaches the running sum instead of the weights and the leaves.
    ivp = FractionalIVP(alpha, Logistic(0.5, 10.0), 4.0, 10.0)
    euler = solve(ivp, 100, SolverMethod.FRAC_EULER).values
    adams = solve(ivp, 100, SolverMethod.FRAC_ADAMS_PECE).values
    assert np.array_equal(solve(ivp, 100, SolverMethod("euler")).values, euler)
    assert np.array_equal(solve(ivp, 100, SolverMethod("adams")).values, adams)
    assert np.array_equal(solve(ivp, 100, "euler").values, euler)
    assert np.array_equal(solve(ivp, 100, "adams").values, adams)
    assert not np.array_equal(euler, adams)
    for bad in ("pece", None):
        with pytest.raises(ValueError, match="is not a valid SolverMethod"):
            solve(ivp, 100, bad)


def is_pece(method):
    """Whether a reference runs ``method`` as PECE (True) or as Euler (False).

    The references below implement these two members only: any other member
    raises, rather than being checked against the Euler formulas.
    """
    if method not in (SolverMethod.FRAC_EULER, SolverMethod.FRAC_ADAMS_PECE):
        raise NotImplementedError(f"no reference implements {method}")
    return method is SolverMethod.FRAC_ADAMS_PECE


def transcribed_scheme(ivp, n, method):
    """The two documented schemes written out term by term.

    Weights come straight from the formulas in the ``solve`` docstring, the
    prefactors from ``math.gamma``, and every history sum is a Python loop
    over the nodes j = 0..m, with no reversed buffer or precomputed weight
    arrays.  Only the accepted state is checked: past ``BLOWUP_LIMIT`` or
    non-finite, it raises ``BlowUpError`` as ``solve`` documents.
    """
    pece = is_pece(method)
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
        if pece:
            hist_c = (m ** (alpha + 1) - (m - alpha) * (m + 1) ** alpha) * f[0]
            for j in range(1, m + 1):
                weight = (
                    (m - j + 2) ** (alpha + 1)
                    + (m - j) ** (alpha + 1)
                    - 2.0 * (m - j + 1) ** (alpha + 1)
                )
                hist_c += weight * f[j]
            value = x0 + pref_c * (hist_c + rhs_eval(coeffs, value))
        if not math.isfinite(value) or abs(value) > BLOWUP_LIMIT:
            raise BlowUpError(m + 1, (m + 1) * h, value)
        u.append(value)
        f.append(rhs_eval(coeffs, value))
    return np.array(u)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("method", list(SolverMethod))
def test_solve_matches_transcribed_scheme(alpha, method):
    ivp = FractionalIVP(alpha, LogisticHarvest(0.5, 10.0, 0.2), 4.0, 20.0)
    got = solve(ivp, 40, method).values
    want = transcribed_scheme(ivp, 40, method)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("method", list(SolverMethod))
def test_solve_blowup_matches_transcribed_scheme(alpha, method):
    ivp = FractionalIVP(alpha, Cubic(1.0, 0.0, 0.0), 1.0, 5.0)
    with pytest.raises(BlowUpError) as want_info:
        transcribed_scheme(ivp, 500, method)
    with pytest.raises(BlowUpError) as got_info:
        solve(ivp, 500, method)
    got, want = got_info.value, want_info.value
    assert (got.step_index, got.time) == (want.step_index, want.time)
    assert got.value == pytest.approx(want.value, rel=1e-10)


def direct_solve(ivp, n_steps, method):
    """``solve`` without far sums: each step dots its whole history.

    ``solve``'s weights (``solver._weights``), step arithmetic and blow-up
    check in a single leaf that spans the grid, so its values are the direct
    sums'.
    """
    pece = is_pece(method)
    grid = Grid(n_steps, ivp.t_final)
    coeffs = to_cubic(ivp.model)
    alpha = ivp.alpha
    h = grid.h
    n = grid.n_steps

    db, c2, a0 = solver._weights(n, alpha, method)
    pref_p = h**alpha / math.gamma(alpha + 1.0)
    pref_c = h**alpha / math.gamma(alpha + 2.0)

    x0 = ivp.x0
    u = np.empty(n + 1)
    u[0] = x0
    f0 = rhs_eval(coeffs, x0)
    frev = np.empty(n + 1)
    frev[n] = f0
    for step in range(n):
        hist_p = float(np.dot(db[: step + 1], frev[n - step :]))
        value = x0 + pref_p * hist_p
        if pece:
            f_pred = rhs_eval(coeffs, value)
            hist_c = a0.item(step) * f0 + float(np.dot(c2[:step], frev[n - step : n]))
            value = x0 + pref_c * (hist_c + f_pred)
        if not abs(value) <= BLOWUP_LIMIT:
            raise BlowUpError(step + 1, (step + 1) * h, value)
        u[step + 1] = value
        frev[n - (step + 1)] = rhs_eval(coeffs, value)
    return u


def history_scale(ivp, method, values):
    """Size of step m's terms: |x0| + pref * sum_j |w_(m-j) f_j|, per step.

    Cancellation inside the history sums sets how closely two ways of
    summing them can agree, so the engines are compared against this.
    """
    coeffs = to_cubic(ivp.model)
    n = values.size - 1
    alpha = ivp.alpha
    h = ivp.t_final / n
    f = np.abs(rhs_eval(coeffs, values))
    db, c2, a0 = solver._weights(n, alpha, method)
    scale = abs(ivp.x0) + h**alpha / math.gamma(alpha + 1.0) * np.convolve(f[:n], db[:n])[:n]
    if is_pece(method):
        interior = np.convolve(np.concatenate(([0.0], f[1:n])), c2[:n])[:n]
        scale += h**alpha / math.gamma(alpha + 2.0) * (np.abs(a0) * f[0] + interior + f[1:])
    return scale


QUICKSTART = LogisticHarvest(0.5, 10.0, 0.2)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("n", [1, 2, 40, 1023, 1024])
@pytest.mark.parametrize("method", list(SolverMethod))
def test_one_leaf_is_the_direct_sum(n, method, alpha):
    # Up to one leaf of steps no far sum is formed: the values are the
    # direct sums' bit for bit, signs of zero included, the corrector's
    # sums without node 0's weight among them.  At h = 250 PECE blows up at
    # step 2 for alpha = 0.75; then the blow-up must match bit for bit.
    ivp = FractionalIVP(alpha, QUICKSTART, 4.0, 500.0)
    try:
        want = direct_solve(ivp, n, method).tobytes()
    except BlowUpError as exc:
        with pytest.raises(BlowUpError) as info:
            solve(ivp, n, method)
        assert (info.value.step_index, info.value.value.hex()) == (exc.step_index, exc.value.hex())
    else:
        assert solve(ivp, n, method).values.tobytes() == want


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 1024, 1025, 2048, 2049, 3000, 16385])
@pytest.mark.parametrize("method", list(SolverMethod))
@pytest.mark.parametrize(
    "model, x0, t_final", [(QUICKSTART, 4.0, 500.0), (LINEAR_DECAY, 1.0, 30.0)], ids=["quickstart", "decay"]
)
def test_far_sums_match_the_direct_sum(model, x0, t_final, method, n, alpha):
    # Past one leaf, FFT blocks carry the earlier nodes; n = 16385 needs a
    # block of 16384 sources, which the transform cap splits in four.  The
    # grid ends on a leaf boundary at n = 2048 and one step past it at 2049.
    # At alpha = 1 the running sum stands in for both, inside a leaf and past it.
    ivp = FractionalIVP(alpha, model, x0, t_final)
    want = direct_solve(ivp, n, method)
    got = solve(ivp, n, method).values
    assert got[0] == want[0]
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-12 * history_scale(ivp, method, want))


def source_major_far(f, kernels, lo, b):
    """``_add_far``'s sub-squares source chunk by source chunk, each kernel
    transformed anew for every sub-square: the order before the lag-major one."""
    c = min(b, solver._CHUNK)
    size = 2 * c
    stop = min(lo + b, f.size - 1)
    for s0 in range(lo - b, lo, c):
        spec = np.fft.rfft(f[s0 : s0 + c], size)
        for t0 in range(lo, stop, c):
            t1 = min(t0 + c, stop)
            lag = t0 - s0
            for kernel, far, skip_f0 in kernels:
                weights = np.fft.rfft(kernel[lag - c + 1 : lag + c], size)
                src = spec - f[0] if skip_f0 and s0 == 0 else spec
                far[t0:t1] += np.fft.irfft(src * weights, size)[c - 1 : c - 1 + t1 - t0]


@pytest.mark.parametrize("n", [2049, 16385, 40000, 100000, 2**17 + 1])
def test_lag_major_far_sums_are_source_major_bit_for_bit(n):
    # Blocks as solve forms them, with one kernels list (and its caches) for
    # all of them.  From lo = 16,384 a block has several source and several
    # target chunks, so a lag serves several sub-squares; n = 100,000 cuts
    # the block at 65,536 short.
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n + 1)
    db, c2, _ = solver._weights(n, 0.5, SolverMethod.FRAC_ADAMS_PECE)
    got = [(db, np.full(n, -0.0), False, {}), (c2, np.full(n, -0.0), True, {})]
    want = [(db, np.full(n, -0.0), False), (c2, np.full(n, -0.0), True)]
    for lo in range(solver._LEAF, n, solver._LEAF):
        solver._add_far(f, got, lo, lo & -lo)
        source_major_far(f, want, lo, lo & -lo)
        for (_, far, _, cache), (_, ref, _) in zip(got, want):
            assert far.tobytes() == ref.tobytes(), lo
            assert set(cache) <= {1024, 2048, 4096, 8192}


def test_far_sums_peak_memory():
    # The far sums of a PECE solve's blocks, driven as solve drives them
    # (a whole solve under tracemalloc takes about 45 us a step).  Past the
    # block at lo = 65,536 (8 x 8 sub-squares, 15 lags) they hold one source
    # transform per target chunk, about one array of n floats, each kernel's
    # transforms of lags up to 8,192 (0.48 arrays for both) and one
    # sub-square's temporaries.  Measured: 1.98 arrays of 8n bytes beyond
    # the solve's own; caching every lag's transform took 5.23.  The bound
    # leaves 26%.
    n = 2**17 + 1
    f = np.random.default_rng(0).standard_normal(n + 1)
    db, c2, _ = solver._weights(n, 0.5, SolverMethod.FRAC_ADAMS_PECE)
    kernels = [(db, np.full(n, -0.0), False, {}), (c2, np.full(n, -0.0), True, {})]
    tracemalloc.start()  # after the solve's own arrays, which it does not count
    try:
        for lo in range(solver._LEAF, n, solver._LEAF):
            solver._add_far(f, kernels, lo, lo & -lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


def harvest_members():
    """The README harvest models' stable members from x0 = 4, n = 5,000."""
    models = [(QUICKSTART, 500.0), (Allee(0.5, 10.0, 1.0, 0.2), 25.0)]
    return np.array([
        solve(FractionalIVP(alpha, model, 4.0, t_final), 5000, method).values
        for model, t_final in models
        for alpha in (0.5, 0.9)
        for method in SolverMethod
    ])


def run_python(code, **env):
    """Run ``python -c code`` on this fracpop and this module, with ``env`` set."""
    src = str(Path(fracpop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=dict(os.environ, PYTHONPATH=path, **env)
    )


def openblas_core(process):
    """The kernel a DYNAMIC_ARCH OpenBLAS said it picked, under OPENBLAS_VERBOSE=2."""
    found = re.search(r"^Core: (\S+)$", process.stderr.decode(), re.MULTILINE)
    return found and found.group(1)


def test_stable_members_agree_across_blas_kernels():
    # The alpha < 1 near sums call BLAS ddot, and a DYNAMIC_ARCH OpenBLAS
    # picks its kernel from the CPU, or from OPENBLAS_CORETYPE, which acts
    # on one process.  So the stable members are solved again in a child
    # under OpenBLAS's Nehalem kernel, which every x86-64 CPU that numpy
    # supports can run.  Measured with this process on SkylakeX: 8 of 8
    # members changed bits, by at most 3.8e-16 of max|u| (the same under
    # the Haswell, Sandybridge and Zen kernels).  The bound leaves a factor
    # of 26, and is 10 times tighter than the 1e-13 the README states
    # across hosts.  A BLAS that prints no kernel under OPENBLAS_VERBOSE=2
    # has no runtime choice, and the test skips.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS's Nehalem kernel is x86-64 only, not {platform.machine()}")
    native = openblas_core(run_python("import numpy", OPENBLAS_VERBOSE="2"))
    if native is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS built DYNAMIC_ARCH: it has no runtime kernel choice")
    if native == "Nehalem":
        pytest.skip("this process already runs OpenBLAS's Nehalem kernel")
    child = run_python(
        "import sys, test_solver; sys.stdout.buffer.write(test_solver.harvest_members().tobytes())",
        OPENBLAS_CORETYPE="Nehalem",
        OPENBLAS_VERBOSE="2",
    )
    assert child.returncode == 0, child.stderr.decode()
    if openblas_core(child) != "Nehalem":
        pytest.skip("this OpenBLAS has no Nehalem kernel")
    want = harvest_members()
    got = np.frombuffer(child.stdout).reshape(want.shape)
    assert np.all(np.isfinite(got))
    spread = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert spread.max() <= 1e-14, (native, spread)


@pytest.mark.parametrize("alpha, x0, t_final", [(0.5, 0.4, 5.0), (1.0, 1.0, 1.0)])
@pytest.mark.parametrize("method", list(SolverMethod))
def test_blowup_past_the_first_leaf(alpha, x0, t_final, method):
    ivp = FractionalIVP(alpha, Cubic(1.0, 0.0, 0.0), x0, t_final)
    with pytest.raises(BlowUpError) as want_info:
        direct_solve(ivp, 3000, method)
    with pytest.raises(BlowUpError) as got_info:
        solve(ivp, 3000, method)
    got, want = got_info.value, want_info.value
    assert want.step_index > 1024
    assert (got.step_index, got.time) == (want.step_index, want.time)
    assert got.value == pytest.approx(want.value, rel=1e-9)


@pytest.mark.parametrize(
    "method, x0, step",
    [
        (SolverMethod.FRAC_EULER, 0.4226, 1025),
        (SolverMethod.FRAC_EULER, 0.35487, 2049),
        (SolverMethod.FRAC_EULER, 0.33423, 2600),
        (SolverMethod.FRAC_ADAMS_PECE, 0.4217, 1025),
        (SolverMethod.FRAC_ADAMS_PECE, 0.35444, 2049),
        (SolverMethod.FRAC_ADAMS_PECE, 0.3339, 2600),
    ],
)
def test_blowup_in_every_leaf_position(method, x0, step):
    # A leaf's blow-up step comes from the leaf slot its step writes: the
    # first step of the second and third leaves, and a step of the short
    # last leaf (2049..3000) of a 3000-step grid.
    ivp = FractionalIVP(0.5, Cubic(1.0, 0.0, 0.0), x0, 5.0)
    with pytest.raises(BlowUpError) as want_info:
        direct_solve(ivp, 3000, method)
    with pytest.raises(BlowUpError) as got_info:
        solve(ivp, 3000, method)
    got, want = got_info.value, want_info.value
    assert want.step_index == step
    assert (got.step_index, got.time) == (want.step_index, want.time)
    assert got.value == pytest.approx(want.value, rel=1e-9)


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


def test_pece_overflow_is_a_blowup():
    # The corrector sum overflows to inf at step 1.  With Python-float
    # arithmetic that is a BlowUpError, not a NumPy overflow warning, which
    # this suite turns into an error.
    for alpha, x0 in ((1.0, 1e308), (0.5, 1.7e308)):
        ivp = FractionalIVP(alpha, Cubic(0.0, 0.0, -1.0), x0, 1.0)
        with pytest.raises(BlowUpError) as excinfo:
            solve(ivp, 32, SolverMethod.FRAC_ADAMS_PECE)
        assert excinfo.value.step_index == 1
        assert excinfo.value.value == -math.inf


@pytest.mark.parametrize(
    "ivp, n, method, step",
    [
        # f0 is inf and an entry of a0 is 0: inf * 0 in the corrector's start.
        (FractionalIVP(1e-8, Cubic(1e300, 0.0, 0.0), 1e10, 1.0), 3000, "adams", 1),
        # f(u_3) is near 1e308, and the leaf dot of step 4 overflows.
        (FractionalIVP(0.999999, Cubic(0.0, 0.0, 1e308), 0.5, 1e-320), 4, "euler", 4),
    ],
)
def test_non_finite_numpy_terms_are_a_blowup(ivp, n, method, step):
    # NumPy warns on these terms, and this suite turns its warnings into
    # errors; a solve ends them as a BlowUpError at their step instead.
    with pytest.raises(BlowUpError) as excinfo:
        solve(ivp, n, method)
    assert excinfo.value.step_index == step
    assert excinfo.value.value == math.inf


WEIGHT_LAGS = [10, 100, 1000, 1023, 10**4, 10**5, 999_998]


def weight_errors(alpha):
    """Relative errors of PECE's ``_weights`` at n = 10**6 by lag, per weight.

    Graded against the formulas of the ``solve`` docstring in 50-digit mpmath.
    """
    got = dict(zip(("db", "c2", "a0"), solver._weights(10**6, alpha, SolverMethod.FRAC_ADAMS_PECE)))
    errors = {name: {} for name in got}
    with mp.workdps(50):
        a = mp.mpf(alpha)
        for m in WEIGHT_LAGS:
            k = mp.mpf(m)
            want = {
                "db": (k + 1) ** a - k**a,
                "c2": (k + 2) ** (a + 1) + k ** (a + 1) - 2 * (k + 1) ** (a + 1),
                "a0": k ** (a + 1) - (k - a) * (k + 1) ** a,
            }
            for name, weights in got.items():
                errors[name][m] = float(abs(mp.mpf(weights.item(m)) / want[name] - 1))
    return errors


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_weights_match_mpmath(alpha):
    # Measured worst: db 1.5e-10 (alpha 0.5, lag 999,998); c2 and a0 2.0e-9
    # up to lag 1,023, past which their cancellation grows (the xfail below).
    errors = weight_errors(alpha)
    assert max(errors["db"].values()) <= 1e-9
    for name in ("c2", "a0"):
        assert all(err <= 1e-8 for m, err in errors[name].items() if m < 1024)


@pytest.mark.xfail(
    strict=True,
    reason="c2 and a0 are differences of nearly equal powers: 1.2e-9 to 4.0e-3 "
    "relative at lags 1e4 to 1e6 (ROADMAP item 15)",
)
def test_long_lag_pece_weights_to_1e_14():
    for alpha in (0.3, 0.5, 0.9):
        errors = weight_errors(alpha)
        for name in ("c2", "a0"):
            assert all(err <= 1e-14 for m, err in errors[name].items() if m >= 1024)


def test_setup_peak_memory():
    # A solve that blows up at step 1 peaks in its set-up.  The loop needs
    # u, fs, db and (PECE) c2; building them holds at most one array more.
    # At alpha = 1 the running sum needs u alone.
    n = 10**6
    cases = [
        (0.5, SolverMethod.FRAC_ADAMS_PECE, 5.5),
        (0.5, SolverMethod.FRAC_EULER, 3.5),
        (1.0, SolverMethod.FRAC_ADAMS_PECE, 1.5),
        (1.0, SolverMethod.FRAC_EULER, 1.5),
    ]
    for alpha, method, arrays in cases:
        ivp = FractionalIVP(alpha, LINEAR_DECAY, 1e308, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(BlowUpError) as excinfo:
                solve(ivp, n, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.step_index == 1
        assert peak <= arrays * 8 * n


def test_order_one_runs_no_far_sums(monkeypatch):
    def refuse(*args):
        raise AssertionError("_add_far ran at alpha = 1")

    monkeypatch.setattr(solver, "_add_far", refuse)
    ivp = FractionalIVP(1.0, QUICKSTART, 4.0, 500.0)
    for method in SolverMethod:
        assert np.isfinite(solve(ivp, 3000, method).values).all()


@pytest.mark.parametrize("method", list(SolverMethod))
def test_order_one_holds_an_equilibrium_to_the_last_ulps(method):
    # x = 6 is the stable equilibrium.  A plain running sum of f stalls 107
    # ulps below it after 1e5 steps; the direct and compensated sums end
    # within 2 ulps.
    ivp = FractionalIVP(1.0, Logistic(0.5, 10.0, 0.2), 4.0, 500.0)
    final = solve(ivp, 10**5, method).values[-1]
    assert abs(final - 6.0) <= 2 * math.ulp(6.0)


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


def test_convergence_study_exact_solve_has_no_order():
    # Every error is exactly zero, so there is no slope to fit.  From x0 = 0
    # the reference is 0 for every model: also where e^(-c t) underflows
    # (c t = 1000), where the series refuses (z = -4.47) and where no other
    # closed form exists (alpha = 0.5 with b != 0).
    for ivp in (
        FractionalIVP(0.5, LINEAR_DECAY, 0.0, 1.0),
        FractionalIVP(1.0, LogisticHarvest(0.5, 10.0, 0.2), 0.0, 1.0),
        FractionalIVP(0.5, Cubic(0.0, 0.0, 0.0), 3.0, 1.0),
        FractionalIVP(1.0, Logistic(0.5, 10.0), 0.0, 2000.0),
        FractionalIVP(0.5, LINEAR_DECAY, 0.0, 20.0),
        FractionalIVP(0.5, Logistic(0.5, 10.0), 0.0, 5.0),
        FractionalIVP(0.5, Allee(0.5, 10.0, 1.0), 0.0, 5.0),
    ):
        for method in SolverMethod:
            ns, _, errors, order = convergence_study(ivp, method, 8, 2)
            assert ns == [8, 16, 32]
            assert errors == [0.0, 0.0, 0.0]
            assert math.isnan(order)


@pytest.mark.parametrize(
    "coeffs, x0, t_final",
    [
        ((0.0, 1.0, 0.0), 1.0, 1.0),
        ((0.0, 1.0, 0.0), 1.0, 2.0),
        ((0.0, 1.0, 1.0), 1.0, math.log(2.0)),
        ((0.0, 1.0, -1.0), 2.0, 1.0),
    ],
)
def test_reference_refuses_an_escaped_solution(coeffs, x0, t_final):
    # At alpha = 1 with a = 0 the closed form's denominator reaches zero at
    # the escape time; past it the formula gives a finite, wrong value.
    ivp = FractionalIVP(1.0, Cubic(*coeffs), x0, t_final)
    with pytest.raises(ValueError, match=f"t_final = {t_final:g}"):
        convergence_study(ivp, SolverMethod.FRAC_EULER, 1, 2)


def test_reference_refuses_an_ill_conditioned_solution():
    # x0 = -c/b = 1 is an unstable equilibrium, so x(t) = 1, but the scaled
    # denominator 1 - (1 - e^(-30)) cancels to 9.4e-14 against 1: x is that
    # ill-conditioned in x0, and the closed form in doubles is off by 1.7e-4.
    ivp = FractionalIVP(1.0, Cubic(0.0, 1.0, -1.0), 1.0, 30.0)
    with pytest.raises(ValueError, match="ill-conditioned .* t_final = 30"):
        _reference_solution(ivp)


def test_reference_refuses_values_beyond_double_range():
    # The solution escaped at t = 1.4e-297; by t_final both terms of the
    # scaled denominator e^(-c t) - b x0 (1 - e^(-c t)) / c underflow to 0.
    ivp = FractionalIVP(1.0, Cubic(0.0, 1e-300, 1e300), 1.0, 1.0)
    with pytest.raises(ValueError, match="t_final = 1"):
        convergence_study(ivp, SolverMethod.FRAC_ADAMS_PECE, 32, 4)
    # A finite solution whose value, about 4e309, overflows in the quotient.
    ivp = FractionalIVP(1.0, Cubic(0.0, -1e-320, 1.0), 1e10, 690.0)
    with pytest.raises(ValueError, match="t_final = 690"):
        convergence_study(ivp, SolverMethod.FRAC_ADAMS_PECE, 32, 4)


def test_quadratic_reference_matches_mpmath():
    # x = x0 e^z / D with z = c t and D = 1 - b x0 (e^z - 1) / c, in 50
    # digits: the solution has escaped by t exactly when D <= 0.  No x0 sits
    # on an unstable equilibrium -c/b (c < 0), where the double D cancels.
    escaped = 0
    with mp.workdps(50):
        for b, c, x0, t in itertools.product(
            (1.0, -1.0, 0.3, -3.0),
            (2.0, -1.0, 0.5, 1e-3, 0.0, -0.4),
            (-4.0, -0.2, 0.7, 2.5),
            (0.1, 1.0, 8.0, 60.0),
        ):
            ivp = FractionalIVP(1.0, Cubic(0.0, b, c), x0, t)
            z = mp.mpf(c) * t
            den = 1 - mp.mpf(b) * x0 * (mp.expm1(z) / c if c else t)
            if den <= 0:
                escaped += 1
                with pytest.raises(ValueError, match="escapes"):
                    _reference_solution(ivp)
            else:
                exact = x0 * mp.exp(z) / den
                assert abs(_reference_solution(ivp) - exact) <= 1e-13 * abs(exact), (b, c, x0, t)
    assert 0 < escaped < 384
    # The logistic reference past c t = 709.8, where e^(c t) overflows.
    assert _reference_solution(FractionalIVP(1.0, Logistic(0.5, 10.0), 4.0, 2000.0)) == 10.0


def test_convergence_study_refuses_a_fractional_refinement_count():
    ivp = FractionalIVP(0.5, LINEAR_DECAY, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"refinements must be a whole number, got 2\.5"):
        convergence_study(ivp, "euler", 8, 2.5)
    with pytest.raises(ValueError, match=r"refinements must be >= 2, got 1\.5"):
        convergence_study(ivp, "euler", 8, 1.5)
    assert convergence_study(ivp, "euler", 8, 2.0) == convergence_study(ivp, "euler", 8, 2)


def test_estimate_order_requires_reference():
    with pytest.raises(ValueError):
        estimate_order(FractionalIVP(0.5, Allee(0.5, 10.0, 1.0), 4.0, 5.0), SolverMethod.FRAC_ADAMS_PECE, 32, 4)
    # Below alpha = 1 the linear reference exists only inside the series'
    # domain: here z = -1000**0.5, about -31.6.
    with pytest.raises(ValueError, match=r"\|z\| <= 30 required"):
        estimate_order(FractionalIVP(0.5, LINEAR_DECAY, 1.0, 1000.0), SolverMethod.FRAC_ADAMS_PECE, 32, 4)
    ivp = FractionalIVP(1.0, LINEAR_DECAY, 1.0, 1.0)
    with pytest.raises(ValueError):
        estimate_order(ivp, SolverMethod.FRAC_ADAMS_PECE, 0, 4)
    with pytest.raises(ValueError):
        estimate_order(ivp, SolverMethod.FRAC_ADAMS_PECE, 32, 1)
