import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gabwin as gw
from gabwin.errors import NotAFrameError
from gabwin import iterations
from gabwin.iterations import (EPS, IterationConfig, IterationTrace, _combine, _diverging,
                               _iterate, _prescale, _run_stack, _traces, flop_estimate)

from oracles import DivergenceDetector, convergence_order, normalized_singular_values, \
    random_valid_lattice, scalar_recursion, taylor_inv_coeffs, taylor_inv_sqrt_coeffs, \
    wrong_limit_by_error


def _Bhat(g, lattice):
    """The upper frame bound estimate of g, from the Gram of its blocks."""
    fac = gw.factorize(g, lattice)
    return gw.upper_frame_bound_estimate(gw.block_gram(fac, fac))


def _one_step(g, lattice, name, **kwargs):
    """The blocks of g and of its image under one step of algorithm name."""
    trace = gw.run(g, lattice, IterationConfig.from_algorithm(
        name, stop_mode="fixed", max_steps=1, **kwargs))
    assert trace.steps_taken == 1
    return trace.blocks


# ---------------------------------------------------------------------------
# Taylor coefficients

def test_tight_coeffs_match_spec_values():
    assert gw.tight_taylor_coeffs(1).tolist() == [1.0]
    assert gw.tight_taylor_coeffs(2).tolist() == [1.5, -0.5]
    assert gw.tight_taylor_coeffs(3).tolist() == [15 / 8, -5 / 4, 3 / 8]


def test_dual_coeffs_match_spec_values():
    assert gw.dual_taylor_coeffs(2).tolist() == [2.0, -1.0]
    assert gw.dual_taylor_coeffs(3).tolist() == [3.0, -3.0, 1.0]
    assert gw.dual_taylor_coeffs(4).tolist() == [4.0, -6.0, 4.0, -1.0]


@pytest.mark.parametrize("m", range(1, 9))
def test_coeffs_match_independent_expansion(m):
    from gabwin.iterations import (dual_taylor_coeffs_fractions,
                                   tight_taylor_coeffs_fractions)
    assert list(tight_taylor_coeffs_fractions(m)) == taylor_inv_sqrt_coeffs(m)
    assert list(dual_taylor_coeffs_fractions(m)) == taylor_inv_coeffs(m)


# ---------------------------------------------------------------------------
# Scaling constants

def test_optimal_constant_degenerate():
    for algo in ("I", "II", "III", "IV", "V"):
        assert gw.optimal_scaling_constant(1.7, 1.7, algo) == pytest.approx(1.7)


def test_optimal_constant_IV_midpoint():
    assert gw.optimal_scaling_constant(1.0, 3.0, "IV") == 2.0


def test_optimal_constant_rejects_bad_order():
    with pytest.raises(ValueError):
        gw.optimal_scaling_constant(2.0, 1.0, "II")


@pytest.mark.parametrize("algo,order,target", [("II", 2, "tight"),
                                               ("III", 3, "tight"),
                                               ("IV", 2, "dual"),
                                               ("V", 3, "dual")])
def test_optimal_constant_maximizes_flatness(algo, order, target):
    # grid-search oracle: the tabulated constant must (near-)maximize the
    # post-step bound ratio over all prescalings
    A, B = 1.0, 2.5
    s = np.linspace(A, B, 2001)
    coeffs = (gw.tight_taylor_coeffs(order) if target == "tight"
              else gw.dual_taylor_coeffs(order))

    def post_ratio(bhat):
        x = s / bhat
        phi = sum(c * x**j for j, c in enumerate(coeffs))
        img = x * phi**2 if target == "tight" else x * phi
        return img.min() / img.max()

    grid = np.linspace(1.0, 2.6, 3001)
    best = max(post_ratio(b) for b in grid)
    table = gw.optimal_scaling_constant(A, B, algo)
    assert post_ratio(table) >= best - 1e-4


def test_upper_bound_estimate_tight_calibration(lat432, ref_tight432):
    assert _Bhat(ref_tight432, lat432) == pytest.approx(1.0, abs=1e-10)


def test_upper_bound_estimate_dominates(rng, lat432):
    for _ in range(50):
        g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
        fac = gw.factorize(g, lat432)
        S = gw.block_gram(fac, fac)
        assert gw.upper_frame_bound_estimate(S) >= gw.frame_bounds(S).upper - 1e-9


def test_upper_bound_estimate_quadratic_scaling(lat432, gauss432):
    base = _Bhat(gauss432, lat432)
    assert _Bhat(2.0 * gauss432, lat432) == pytest.approx(4.0 * base, rel=1e-12)


def test_initial_scale_spectrum(lat432, gauss432):
    # a run that takes no step keeps the window the iteration starts from
    fac = gw.factorize(gauss432, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "II", scaling="initial", Bhat=B, max_steps=0))
    scaled = gw.ZakFactorization(lat432, trace.blocks[0])
    assert gw.frame_bounds(gw.block_gram(scaled, scaled)).upper == pytest.approx(
        1.0, rel=1e-12)
    for Bhat in (0.0, -B, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="Bhat must be positive and finite"):
            IterationConfig.from_algorithm("II", scaling="initial", Bhat=Bhat)


# ---------------------------------------------------------------------------
# Single steps: one step is a fixed one-step run

def test_step_tight_fixed_point(lat432, ref_tight432):
    before, after = _one_step(ref_tight432 / np.linalg.norm(ref_tight432), lat432, "II")
    assert np.abs(after - before).max() < 1e-12


def test_step_dual_fixed_point_at_tight(lat432, ref_tight432):
    # the raw polynomial: initial scaling by 1
    before, after = _one_step(ref_tight432, lat432, "IV", scaling="initial", Bhat=1.0)
    assert np.abs(after - before).max() < 1e-12


def test_step_frame_inverse_fixed_point(lat432, ref_tight432):
    before, after = _one_step(ref_tight432 / np.linalg.norm(ref_tight432), lat432, "I")
    assert np.abs(after - before).max() < 1e-12


def test_step_frame_inverse_rejects_lost_frame():
    lt = gw.derive_lattice(16, 4, 4)
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    with pytest.raises(NotAFrameError, match="frame"):
        _one_step(delta, lt, "I")


def test_initial_scaled_tight_quadratic(lat432, gauss432):
    Bhat = _Bhat(gauss432, lat432)
    cfg = IterationConfig.from_algorithm("II", scaling="initial", Bhat=Bhat,
                                         stop_mode="fixed", max_steps=8)
    trace = gw.run(gauss432, lat432, cfg)
    order = convergence_order(trace.errors, window=(1e-12, 1e-1))
    assert order is not None and order >= 1.9
    ratios = [np.log(trace.errors[k + 1]) / np.log(trace.errors[k])
              for k in range(1, 6) if trace.errors[k + 1] > 1e-12]
    assert all(b > a - 1e-6 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.85


@pytest.fixture(scope="module")
def sigma432(lat432, gauss432):
    return normalized_singular_values(gauss432, lat432)


_ALL_CONFIGS = [("I", "norm")] + [
    (name, scaling) for name in ("II", "III", "IV", "V")
    for scaling in ("norm", "initial", "initial_optimal", "constant_optimal")]


@pytest.mark.parametrize("name,scaling,steps", [
    *((name, scaling, 4) for name, scaling in _ALL_CONFIGS), ("II", "norm", 6)],
    ids=[*(name if scaling == "norm" else f"{name}-{scaling}"
           for name, scaling in _ALL_CONFIGS), "II-norm-6"])
def test_block_matches_scalar_trace(name, scaling, steps, lat432, gauss432, sigma432):
    # the singular values of the block iterands follow the scalar recursion;
    # norm scaling is scale-free, the others run on raw sigma (sigma^2 is
    # the frame-operator spectrum) with the block run's explicit Bhat
    Bhat = _Bhat(gauss432, lat432) if scaling == "initial" else None
    cfg = IterationConfig.from_algorithm(name, scaling=scaling, Bhat=Bhat,
                                         stop_mode="fixed", max_steps=steps)
    trace = gw.run(gauss432, lat432, cfg)
    unit = 1.0 if scaling == "norm" else np.sqrt(lat432.M * lat432.N)
    strace = gw.scalar_iteration(sigma432 * unit, cfg)
    assert strace.shape == (steps + 1, lat432.L)
    for k in range(steps + 1):
        # the singular values of O_gamma: the roots of the frame-operator
        # block eigenvalues, each q times (the dense SVD gives the same)
        F = gw.factorize(trace.iterands[k], lat432)
        ev = np.linalg.eigvalsh(gw.block_gram(F, F).blocks).ravel()
        sk = np.sort(np.repeat(np.sqrt(ev), lat432.q)) * unit / np.sqrt(lat432.M * lat432.N)
        # measured at most 4.7e-14 relative (IV, initial_optimal)
        assert (np.abs(np.sort(np.abs(strace[k])) - sk).max()
                < 2e-13 * np.abs(strace[k]).max())


# The loop and the recursion differ in the order of the products in a term
# (sigma^2 sigma against sigma sigma sigma) and in the norms: np.linalg.norm
# is a dot product, a sequential sum in longdouble, which at the flat limit
# of 432 equal squares errs by 15 eps where the oracle's pairwise sum does
# not.  Norm scaling divides every Taylor term by such a norm, so a step may
# differ by sum |c_j| times that (up to 7 x 15 eps).  Measured over 12 steps
# at (432,18,18) and (240,12,10): at most 5.6 eps without norm scaling, and
# with it 9.7 eps in float64 and 47 eps in longdouble.
_ORACLE_EPS = {"norm": {np.float64: 16, np.longdouble: 64}}


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("name,scaling", _ALL_CONFIGS)
def test_scalar_iteration_matches_recursion_oracle(name, scaling, dtype, lat432, gauss432,
                                                   sigma432):
    Bhat = _Bhat(gauss432, lat432) if scaling == "initial" else None
    cfg = IterationConfig.from_algorithm(name, scaling=scaling, Bhat=Bhat, max_steps=12)
    unit = 1.0 if scaling == "norm" else np.sqrt(lat432.M * lat432.N)
    sig = (sigma432 * unit).astype(dtype)
    got = gw.scalar_iteration(sig, cfg)
    want = scalar_recursion(sig, cfg, steps=12)
    assert got.dtype == dtype and got.shape == want.shape == (13, len(sig))
    bound = _ORACLE_EPS.get(scaling, {}).get(dtype, 8) * np.finfo(dtype).eps
    assert (np.abs(got - want).max(axis=1) <= bound * np.abs(want).max(axis=1)).all()


def test_scalar_iteration_freezes_a_diverging_run(lat432, sigma432):
    # Bhat = B / 6 puts sigma up to 6^(1/2), beyond 5^(1/2), where
    # II's map sigma (3 - sigma^2) / 2 starts to grow |sigma|
    sig = sigma432 * np.sqrt(lat432.M * lat432.N)
    cfg = IterationConfig.from_algorithm("II", scaling="initial",
                                         Bhat=float((sig ** 2).max()) / 6, max_steps=20)
    trace = gw.scalar_iteration(sig, cfg)
    assert trace.shape == (21, len(sig)) and np.isfinite(trace).all()
    frozen = [k for k in range(1, 21) if np.array_equal(trace[k], trace[k - 1])]
    assert frozen == list(range(frozen[0], 21)) and np.abs(trace[-1]).max() > 1e90
    # up to the freeze it is the recursion; the loop stops one step before
    # the oracle here, at the first iterand whose norm overflows
    want = scalar_recursion(sig, cfg, steps=20)
    assert np.allclose(trace[:frozen[0]], want[:frozen[0]], rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# Full runs

@pytest.mark.parametrize("L,a,b,name", [(8640, 72, 80, "II"), (432, 18, 18, "II"),
                                        (432, 18, 18, "IV")])
def test_run_rejects_window_whose_squared_norm_underflows(L, a, b, name):
    # ||g||^2 underflows, so no step, bound or dual lattice norm of g means
    # anything: a named error, not a division by zero, an empty trace or an
    # overflow warning
    lt = gw.derive_lattice(L, a, b)
    g = 1e-160 * gw.gaussian_window(L).astype(complex)
    with pytest.raises(ValueError, match="window norm too small"):
        gw.run(g, lt, IterationConfig.from_algorithm(name))


@pytest.mark.parametrize("L,a,b", [(240, 12, 10), (8640, 72, 80), (432, 18, 18)])
@pytest.mark.parametrize("name,scaling", _ALL_CONFIGS)
def test_run_rejects_window_whose_squared_norm_overflows(L, a, b, name, scaling):
    # at p = 1, 2 and 3, before any Gram of the window is built, and with no
    # RuntimeWarning; at 1e150 the squared norm is finite and the run goes
    # on, also with no RuntimeWarning: under norm scaling the Gram of the
    # polynomial steps overflows and the run stops non_finite, and an
    # optimal constant that overflows is a named error
    lt = gw.derive_lattice(L, a, b)
    g = gw.gaussian_window(L).astype(complex)
    config = IterationConfig.from_algorithm(name, scaling=scaling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="window norm too large: its square overflows"):
            gw.run(1e160 * g, lt, config)
        try:
            trace = gw.run(1e150 * g, lt, config)
        except ValueError as exc:
            assert scaling in ("initial_optimal", "constant_optimal"), exc
            assert "too large" in str(exc) or "Bhat must be positive and finite" in str(exc)
        else:
            if scaling == "norm":
                assert trace.stop_reason == ("converged" if name == "I" else "non_finite")


def test_stopping_thresholds():
    assert EPS == 2.220446049250313e-16
    assert IterationConfig.from_algorithm("II").step_threshold == EPS ** 0.5
    assert IterationConfig.from_algorithm("II").step_threshold == pytest.approx(
        1.49e-8, rel=1e-2)
    assert IterationConfig.from_algorithm("V").step_threshold == pytest.approx(
        6.06e-6, rel=1e-2)
    assert IterationConfig.from_algorithm("I").step_threshold == EPS ** 0.5


def test_config_validation():
    with pytest.raises(ValueError, match="norm scaling"):
        IterationConfig(target="tight", inverse=True, scaling="initial", Bhat=1.0)
    with pytest.raises(ValueError, match="tight"):
        IterationConfig(target="dual", inverse=True)
    with pytest.raises(ValueError):
        IterationConfig(order=1)
    with pytest.raises(ValueError):
        IterationConfig(scaling="bogus")
    with pytest.raises(ValueError):
        IterationConfig.from_algorithm("VI")
    assert IterationConfig.from_algorithm("V").algorithm_name == "V"
    assert IterationConfig(target="dual", order=4).algorithm_name == "dual-m4"


@pytest.mark.parametrize("kwargs", [
    {"max_steps": -3}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
    {"tol": float("inf")}, {"stop_mode": "auto", "tol": -1.0}, {"stop_mode": "tol"},
    {"stop_mode": "fixed", "tol": 1e-3}, {"Bhat": float("nan")},
    {"Bhat": float("inf")}, {"scaling": "initial", "Bhat": float("inf")},
    {"Bhat": 0.0}],
    ids=["steps-3", "tol0", "tol-1", "tol-nan", "tol-inf", "auto-tol-1", "tol-none",
         "fixed-tol", "Bhat-nan", "Bhat-inf", "initial-Bhat-inf", "Bhat0"])
def test_config_rejects_bad_step_budget_and_tolerance(kwargs):
    # the message names the offending field; "tol" is no stop mode, and a
    # fixed-step run has no threshold for a tol to set
    with pytest.raises(ValueError, match="|".join(k for k in kwargs if k != "scaling")):
        IterationConfig.from_algorithm("II", **kwargs)


@pytest.mark.parametrize("scaling", ["norm", "initial_optimal", "constant_optimal"])
def test_config_rejects_Bhat_it_would_ignore(scaling):
    # only initial scaling divides by Bhat
    with pytest.raises(ValueError, match=f"scaling '{scaling}' takes no Bhat"):
        IterationConfig.from_algorithm("II", scaling=scaling, Bhat=1e9)


def test_run_II_converges_fast(lat432, gauss432, ref_tight432):
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II"))
    assert trace.stop_reason == "converged" and trace.steps_taken <= 7
    err = np.linalg.norm(
        trace.final / np.linalg.norm(trace.final)
        - ref_tight432 / np.linalg.norm(ref_tight432))
    assert err < 1e-12


def test_run_IV_reaches_dual_then_doubles(lat432, gauss432, ref_dual432):
    cfg = IterationConfig.from_algorithm("IV", stop_mode="fixed", max_steps=30)
    trace = gw.run(gauss432, lat432, cfg)
    errs = np.array([
        np.linalg.norm(x / np.linalg.norm(x) - ref_dual432 / np.linalg.norm(ref_dual432))
        for x in trace.iterands])
    assert errs[:9].min() < 1e-10
    facs = [errs[k + 1] / errs[k] for k in range(int(np.argmin(errs)), 30)
            if 1e-11 < errs[k] < 1e-4 and 1e-11 < errs[k + 1] < 1e-4]
    assert np.mean(facs) == pytest.approx(2.0, abs=0.2)


def test_run_V_quadruples_and_misses_full_precision(lat432, gauss432):
    cfg_v = IterationConfig.from_algorithm("V", stop_mode="fixed", max_steps=30)
    trace_v = gw.run(gauss432, lat432, cfg_v)
    errs = np.array(trace_v.errors)
    facs = [errs[k + 1] / errs[k] for k in range(int(np.argmin(errs)), 30)
            if 1e-11 < errs[k] < 1e-4 and 1e-11 < errs[k + 1] < 1e-4]
    assert np.mean(facs) == pytest.approx(4.0, abs=0.4)
    cfg_iii = IterationConfig.from_algorithm("III", stop_mode="fixed", max_steps=12)
    trace_iii = gw.run(gauss432, lat432, cfg_iii)
    assert min(trace_v.errors) > 1.5 * min(trace_iii.errors)


def test_run_I_quadratic_and_stays(lat432, gauss432):
    cfg = IterationConfig.from_algorithm("I", stop_mode="fixed", max_steps=15)
    trace = gw.run(gauss432, lat432, cfg)
    errs = np.array(trace.errors)
    kmin = int(np.argmin(errs[:6]))
    assert errs[kmin] < 1e-12
    assert errs[kmin:].max() < 10 * errs[kmin]
    order = convergence_order(errs, window=(1e-12, 1e-1))
    assert order == pytest.approx(2.0, abs=0.3)


def test_run_I_handles_bad_conditioning(lat432):
    g = gw.gaussian_window(432, 1 / 5).astype(complex)
    trace = gw.run(g, lat432, IterationConfig.from_algorithm("I", max_steps=40))
    assert trace.stop_reason == "converged"
    assert trace.errors[-1] < 1e-10


def test_tight_after_convergence_stability(lat432, gauss432):
    for name in ("I", "II", "III"):
        cfg = IterationConfig.from_algorithm(name, stop_mode="fixed", max_steps=16)
        trace = gw.run(gauss432, lat432, cfg)
        errs = np.array(trace.errors)
        kmin = int(np.argmin(errs[:6]))
        assert errs[kmin + 1: kmin + 11].max() < 10 * errs[kmin]


@pytest.mark.parametrize("target,order,boundary", [
    ("tight", 2, 3.0), ("tight", 3, 7 / 3), ("dual", 2, 2.0), ("dual", 3, 2.0)])
def test_attraction_regions_full_frame(target, order, boundary, lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    inside = gw.run(gauss432, lat432, IterationConfig(
        target=target, order=order, scaling="initial",
        Bhat=B / (0.95 * boundary), max_steps=80))
    assert inside.stop_reason == "converged" and not inside.wrong_limit
    outside = gw.run(gauss432, lat432, IterationConfig(
        target=target, order=order, scaling="initial",
        Bhat=B / (1.05 * boundary), max_steps=80))
    assert outside.stop_reason != "converged" or outside.wrong_limit


def test_scaling_strategies_step_counts(lat432, gauss432):
    def steps(name, **kw):
        trace = gw.run(gauss432, lat432,
                       IterationConfig.from_algorithm(name, **kw))
        assert trace.stop_reason == "converged"
        return trace.steps_taken

    for name in ("II", "IV"):
        n_norm = steps(name)
        n_est = steps(name, scaling="initial",
                      Bhat=_Bhat(gauss432, lat432))
        n_opt = steps(name, scaling="initial_optimal")
        n_const = steps(name, scaling="constant_optimal")
        assert n_est <= n_norm + 2
        assert abs(n_opt - n_norm) <= 1
        assert n_const <= n_norm + 1


def test_norm_scaling_scale_invariance(lat432, gauss432):
    a = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II"))
    b = gw.run(7.3 * gauss432, lat432, IterationConfig.from_algorithm("II"))
    fa, fb = a.final / np.linalg.norm(a.final), b.final / np.linalg.norm(b.final)
    assert np.linalg.norm(fa - fb) < 1e-12


def test_reference_scale_covariance(lat432, gauss432):
    t = 3.7
    gt1 = gw.reference_tight(gauss432, lat432)
    gt2 = gw.reference_tight(t * gauss432, lat432)
    assert np.linalg.norm(gt1 - gt2) < 1e-12
    gd1 = gw.reference_dual(gauss432, lat432)
    gd2 = gw.reference_dual(t * gauss432, lat432)
    assert np.linalg.norm(gd2 - gd1 / t) < 1e-12


def test_initial_scaling_bhat_covariance(lat432, gauss432):
    Bhat = _Bhat(gauss432, lat432)
    t = 2.5
    a = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "IV", scaling="initial", Bhat=Bhat))
    b = gw.run(t * gauss432, lat432, IterationConfig.from_algorithm(
        "IV", scaling="initial", Bhat=t * t * Bhat))
    fa, fb = a.final / np.linalg.norm(a.final), b.final / np.linalg.norm(b.final)
    assert np.linalg.norm(fa - fb) < 1e-11


def test_initial_scaling_estimates_bhat_without_refactorizing(
        monkeypatch, lat432, gauss432):
    # run() already holds the factorization of g: the default Bhat must come
    # from its Gram blocks and equal upper_frame_bound_estimate bit for bit
    Bhat = _Bhat(gauss432, lat432)
    expected = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "II", scaling="initial", Bhat=Bhat))

    def no_factorize(*args, **kwargs):
        raise AssertionError("diagnostics.factorize called")

    calls = []

    def counted_factorize(f, lattice):
        calls.append(lattice)
        return gw.factorize(f, lattice)

    monkeypatch.setattr("gabwin.diagnostics.factorize", no_factorize)
    monkeypatch.setattr("gabwin.iterations.factorize", counted_factorize)
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "II", scaling="initial"))
    assert len(calls) == 1
    assert trace.errors == expected.errors
    assert np.array_equal(trace.final, expected.final)


def test_dual_trace_z_bounds_start_at_frame_bounds(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    fb = gw.frame_bounds(gw.block_gram(fac, fac))
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "IV", stop_mode="fixed", max_steps=1))
    assert trace.bounds[0].lower == pytest.approx(fb.lower, rel=1e-12)
    assert trace.bounds[0].upper == pytest.approx(fb.upper, rel=1e-12)


@pytest.mark.parametrize("name,scaling", [
    ("I", "norm"), ("II", "norm"), ("III", "norm"), ("IV", "norm"), ("V", "norm"),
    ("II", "constant_optimal"), ("V", "constant_optimal"), ("IV", "constant_optimal"),
    ("III", "initial"), ("IV", "initial_optimal")])
def test_recorded_diagnostics_match_signal_level(name, scaling, lat432, gauss432):
    # the trace derives each iterand's diagnostics from its kept blocks; the
    # public signal-level functions must give the same numbers
    config = IterationConfig.from_algorithm(name, scaling=scaling)
    trace = gw.run(gauss432, lat432, config)
    g = trace.iterands[0]
    fac_g = gw.factorize(g, lat432)
    for k, gamma in enumerate(trace.iterands):
        fac = gw.factorize(gamma, lat432)
        if config.target == "tight":
            dln = gw.dual_lattice_norm_tight(gamma / np.linalg.norm(gamma), lat432)
            bounds = gw.frame_bounds(gw.block_gram(fac, fac))
        else:
            dln = gw.dual_lattice_norm_dual(g / np.linalg.norm(g),
                                            gamma / np.linalg.norm(gamma), lat432)
            bounds = gw.z_bounds(fac_g, fac)
        assert trace.dual_lattice_norms[k] == pytest.approx(dln, rel=1e-12, abs=1e-13)
        assert trace.bounds[k].lower == pytest.approx(bounds.lower, rel=1e-12, abs=1e-13)
        assert trace.bounds[k].upper == pytest.approx(bounds.upper, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("name", ["II", "IV"])
def test_run_computes_no_unread_diagnostics(name, monkeypatch, lat432, gauss432):
    # under norm scaling neither the loop nor the fields run() fills need a
    # spectrum or adjoint correlations; bounds and dual lattice norms are
    # computed from the kept blocks when read
    def refuse(*args):
        raise RuntimeError("unread diagnostic computed")

    monkeypatch.setattr("gabwin.diagnostics._gram_correlations", refuse)
    monkeypatch.setattr("gabwin.diagnostics._spectrum", refuse)
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(name))
    assert trace.steps_taken > 0 and trace.final.shape == (432,)
    assert trace.errors[-1] < 1e-10 and not trace.wrong_limit
    for field in ("bounds", "dual_lattice_norms"):
        with pytest.raises(RuntimeError, match="unread diagnostic"):
            getattr(trace, field)
    monkeypatch.undo()
    assert len(trace.bounds) == len(trace.dual_lattice_norms) == trace.steps_taken + 1


@pytest.mark.parametrize("name", ["II", "IV"])
def test_run_solves_no_reference(name, monkeypatch, lat432, gauss432):
    # the direct reference is solved from blocks[0] when errors is first
    # read, and only then: wrong_limit reads the trace's own mixed Gram
    def refuse(*args):
        raise RuntimeError("reference solved")

    monkeypatch.setattr("gabwin.iterations.svd_tight", refuse)
    monkeypatch.setattr("gabwin.iterations.inv_dual", refuse)
    config = IterationConfig.from_algorithm(name)
    trace = gw.run(gauss432, lat432, config)
    assert trace.steps_taken > 0 and trace.stop_reason == "converged"
    assert trace.final.shape == (432,)
    assert trace.wrong_limit is False
    with pytest.raises(RuntimeError, match="reference solved"):
        trace.errors
    monkeypatch.undo()
    fresh = gw.run(gauss432, lat432, config)
    assert trace.steps_taken == fresh.steps_taken
    assert np.array_equal(trace.final, fresh.final)
    assert trace.errors == fresh.errors and trace.wrong_limit is fresh.wrong_limit is False


@pytest.mark.parametrize("name", ["II", "IV"])
def test_run_unfactorizes_only_the_final_iterand(name, monkeypatch, lat432, gauss432):
    # run() computes the iteration only: the final signal, the errors and the
    # signal iterands are built from the kept blocks when read
    calls = {"factorize": 0, "unfactorize": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("gabwin.iterations.factorize", counted(gw.factorize))
    monkeypatch.setattr("gabwin.iterations.unfactorize", counted(gw.unfactorize))
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(name))
    assert calls == {"factorize": 1, "unfactorize": 0}
    assert trace.steps_taken > 1
    final = trace.final
    assert calls["unfactorize"] == 1
    assert trace.final is final and calls["unfactorize"] == 1
    assert np.array_equal(final, gw.unfactorize(gw.ZakFactorization(lat432, trace.blocks[-1])))
    assert np.array_equal(trace.iterands[-1], final)
    assert calls["unfactorize"] == trace.steps_taken + 2


@pytest.mark.parametrize("name", ["II", "IV"])
def test_trace_builds_each_gram_once(name, monkeypatch, lat432, gauss432, lat600):
    # at p = 2 the Grams and norms are the factors' (R_j Q (R_k Q)* =
    # R_j R_k*): reading them forms no block R_k Q
    config = IterationConfig.from_algorithm(name)
    for trace in (gw.run(gauss432, lat432, config),
                  gw.run(gw.gaussian_window(lat600.L).astype(complex), lat600, config)):
        calls, products = [], []

        def counted(X, Y, q=None):
            calls.append(X.shape)
            return gw.zak._gram_blocks(X, Y, q)

        def product(op, X):
            products.append(X.shape)
            return gw.zak._block_product(op, X)

        monkeypatch.setattr("gabwin.iterations._gram_blocks", counted)
        monkeypatch.setattr("gabwin.iterations._block_product", product)
        assert trace.bounds and trace.dual_lattice_norms
        assert len(calls) == trace.steps_taken + 1
        assert trace.wrong_limit is False
        assert products == []


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128,
                                   np.clongdouble])
def test_norm_scaled_terms_are_quotients_bit_for_bit(dtype, rng):
    # complex terms take the reciprocal of their norm, which is numpy's
    # complex quotient; real terms (scalar_iteration's) are divided.  A term
    # is a stack of members, each over its own np.linalg.norm
    def term(scales):
        T = rng.standard_normal((3, 6, 5, 2, 3))
        if np.issubdtype(dtype, np.complexfloating):
            T = T + 1j * rng.standard_normal(T.shape)
        return T.astype(dtype) * (10.0 ** np.array(scales))[:, None, None, None, None]

    terms = [term(np.roll([-100, 0, 100], k)) for k in range(3)]
    coeffs = gw.tight_taylor_coeffs(3)
    quotients = sum(np.stack([cf * t / np.linalg.norm(t) for t in T])
                    for cf, T in zip(coeffs, terms))
    assert np.array_equal(_combine(coeffs, terms, True), quotients)


def test_combine_leaves_its_first_term_unmodified(rng):
    # the first term is the kept iterand; the products after it are scaled
    # in place
    terms = [rng.standard_normal((2, 6, 5, 2, 3)) + 1j * rng.standard_normal((2, 6, 5, 2, 3))
             for _ in range(3)]
    kept = terms[0].copy()
    coeffs = gw.tight_taylor_coeffs(3)
    for norm_scaled in (True, False):
        _combine(coeffs, [t.copy() if i else t for i, t in enumerate(terms)], norm_scaled)
        assert np.array_equal(terms[0], kept)


# The LQ split against the unsplit loop, its oracle, on random lattices with
# p <= 2 < q, frame bound ratio <= 100, every algorithm and scaling.  Over
# 3,502 such seeded runs the two stopped alike at the same step every time;
# I-IV agreed within 1.5e-13 at every iterand.  The published V amplifies
# its rounding about 4x a step near its limit, and its last iterands
# differed by up to 9e-8, while its final error against the canonical
# window had a median of 4.2e-16 split and 3.6e-15 unsplit (824 runs).
@settings(derandomize=True, deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), config=st.sampled_from(_ALL_CONFIGS),
       sech=st.booleans(), w=st.floats(0.3, 3.0))
def test_split_run_matches_the_unsplit_loop(seed, config, sech, w):
    L, a, b = random_valid_lattice(np.random.default_rng(seed))
    lt = gw.derive_lattice(L, a, b)
    assume(lt.p <= 2 and lt.p < lt.q)
    g = (gw.sech_window if sech else gw.gaussian_window)(L, w).astype(complex)
    fac = gw.factorize(g, lt)
    bounds = gw.frame_bounds(gw.block_gram(fac, fac))
    assume(bounds.upper <= 100 * bounds.lower)
    name, scaling = config
    config = IterationConfig.from_algorithm(name, scaling=scaling)
    trace = gw.run(g, lt, config)
    oracle = IterationTrace(config, lt, *_iterate(_prescale(fac.blocks[None], lt, config),
                                                  config)[0])
    assert trace.stop_reason == oracle.stop_reason
    assert trace.steps_taken == oracle.steps_taken
    tail = 3 if name == "V" else 0  # V's last iterands: within the two runs' errors
    for k, (got, want) in enumerate(zip(trace.blocks, oracle.blocks)):
        if k < len(oracle.blocks) - tail:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        else:
            apart = np.linalg.norm(got / np.linalg.norm(got) - want / np.linalg.norm(want))
            assert apart <= trace.errors[k] + oracle.errors[k] + 1e-12
    Q = trace.rows
    gram = np.einsum("...kl,...ml->...km", Q, Q.conj())
    assert np.abs(gram - np.eye(lt.p)).max() <= 1e-14


def test_split_run_at_p_q_1_matches_the_unsplit_loop():
    # critical density, p = q = 1, where the hypothesis test above draws
    # nothing: its Gaussian and sech windows are never frames there.  The
    # split run stops as the unsplit loop does; IV and V end at their
    # limits, which the unsplit loop misses by up to 6e-12
    lt = gw.derive_lattice(144, 12, 12)
    rng = np.random.default_rng(1)
    g = gw.gaussian_window(lt.L) + 0.1 * (rng.standard_normal(lt.L)
                                          + 1j * rng.standard_normal(lt.L))
    fac = gw.factorize(g, lt)
    assert 1000 < gw.frame_bounds(gw.block_gram(fac, fac)).ratio < 2000
    for name, scaling in _ALL_CONFIGS:
        config = IterationConfig.from_algorithm(name, scaling=scaling)
        trace = gw.run(g, lt, config)
        oracle = IterationTrace(config, lt, *_iterate(_prescale(fac.blocks[None], lt, config),
                                                      config)[0])
        assert trace.rows is not None
        assert trace.stop_reason == oracle.stop_reason
        assert trace.steps_taken == oracle.steps_taken
        assert trace.wrong_limit == oracle.wrong_limit
        if trace.converged and not trace.wrong_limit:
            assert trace.errors[-1] < 1e-15


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_run_keeps_the_block_shape_of_planar_storage(name, lat600):
    # at p = 2 the loop iterates on planar storage, (p, q, c, d) in memory;
    # the trace's blocks keep the shape (c, d, p, q) of ZakFactorization
    lt = lat600
    assert lt.p == 2
    g = gw.gaussian_window(lt.L).astype(complex)
    trace = gw.run(g, lt, IterationConfig.from_algorithm(name))
    assert trace.stop_reason == "converged" and trace.errors[-1] < 1e-10
    for blocks in trace.blocks:
        assert blocks.shape == (lt.c, lt.d, lt.p, lt.q)
        assert np.moveaxis(blocks, (-2, -1), (0, 1)).flags.c_contiguous
    assert np.array_equal(gw.unfactorize(gw.ZakFactorization(lt, trace.blocks[-1])),
                          trace.final)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_run_makes_no_lapack_call_at_p_2(name, monkeypatch, lat600):
    # the Cholesky of algorithm I, the references that errors reads and the
    # spectra of the trace are blockwise closed forms at p <= 2: on the split
    # run at p = 1, q = 2 and at p = 2, q = 3, under every scaling
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for fn in ("cholesky", "eigh", "eigvalsh", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, fn, refuse)
    for lt in (gw.derive_lattice(240, 12, 10), lat600):
        g = gw.gaussian_window(lt.L).astype(complex)
        for scaling in (scaling for algorithm, scaling in _ALL_CONFIGS if algorithm == name):
            trace = gw.run(g, lt, IterationConfig.from_algorithm(name, scaling=scaling))
            assert trace.stop_reason == "converged" and trace.errors[-1] < 1e-10
            assert trace.rows is not None and trace.wrong_limit is False
            assert trace.bounds and trace.dual_lattice_norms


def test_run_flags_a_two_cycle_as_oscillating(lat432, gauss432):
    # II maps sigma to 1.5 sigma - 0.5 sigma^3, which sends sqrt(5) to
    # -sqrt(5): a tight window scaled to S = 5 I flips sign every step.  The
    # cycle is unstable (roundoff grows 6x a step), so the budget is short.
    tight = gw.unfactorize(gw.svd_tight(gw.factorize(gauss432, lat432)))
    fac = gw.factorize(tight, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    trace = gw.run(tight, lat432, IterationConfig.from_algorithm(
        "II", scaling="initial", Bhat=B / 5, max_steps=6))
    assert trace.stop_reason == "oscillating"
    assert trace.rel_steps == pytest.approx([2.0] * 6)


@pytest.mark.parametrize("target,order,boundary", [("tight", 3, 7 / 3), ("dual", 3, 2.0)])
def test_diverging_run_leaks_no_runtime_warning(target, order, boundary, lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    config = IterationConfig(target=target, order=order, scaling="initial",
                             Bhat=B / (1.05 * boundary), max_steps=80)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = gw.run(gauss432, lat432, config)
    assert trace.stop_reason == "non_finite"


def test_concurrent_dual_runs_leave_warning_filters_unchanged(lat432, gauss432):
    # the filters are process-wide: a run() that saved and restored them
    # could leave another thread's temporary filter installed
    config = IterationConfig.from_algorithm("IV", stop_mode="fixed", max_steps=10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            before = list(warnings.filters)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(gw.run, gauss432, lat432, config)
                           for _ in range(24)]
                traces = [f.result(timeout=60) for f in futures]
            after = list(warnings.filters)
    finally:
        sys.setswitchinterval(interval)
    assert all(t.steps_taken == 10 for t in traces)
    assert after == before


def test_monster_run_stops_with_large_dual_lattice_norm(lat600, monster600):
    trace = gw.run(monster600, lat600, IterationConfig.from_algorithm(
        "II", max_steps=40))
    assert trace.steps_taken < 40
    assert trace.dual_lattice_norms[-1] > 0.1
    assert trace.stop_reason == "diverging" and trace.wrong_limit


_DETECTOR_SEQUENCES = ((0.5, 0.3, 0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4, 0.5),
                       (0.5, 0.30, 0.301, 0.302, 0.303, 0.304))


def _prefix_verdicts(rel_steps):
    return [_diverging(list(rel_steps[:k])) for k in range(1, len(rel_steps) + 1)]


def test_divergence_detector():
    fired = _prefix_verdicts(_DETECTOR_SEQUENCES[0])
    assert fired == [False, False, False, False, False, True]
    # never decreased: no flag
    assert not any(_prefix_verdicts(_DETECTOR_SEQUENCES[1]))
    # sub-margin wobble on a plateau must not trip it
    assert not any(_prefix_verdicts(_DETECTOR_SEQUENCES[2]))


# step factors: equal steps, exactly the 1.2x margin, plateau wobble, halving,
# doubling, and anything in between; the pool of step values repeats values
# and holds zero and the exact 1.2x pairs (0.1, 0.12) and (0.3, 0.36)
_FACTORS = st.one_of(st.sampled_from([1.0, 1.2, 1.001, 0.999, 0.5, 2.0]),
                     st.floats(0.2, 4.0))
_STEP_SEQUENCES = st.one_of(
    st.tuples(st.floats(1e-12, 1.0), st.lists(_FACTORS, max_size=30)).map(
        lambda t: list(accumulate(t[1], mul, initial=t[0]))),
    st.lists(st.sampled_from([0.0, 0.1, 0.12, 0.3, 0.36, 0.5]), max_size=30))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_STEP_SEQUENCES)
@example(list(_DETECTOR_SEQUENCES[0]))
@example(list(_DETECTOR_SEQUENCES[1]))
@example(list(_DETECTOR_SEQUENCES[2]))
def test_divergence_predicate_matches_detector_oracle(rel_steps):
    # on every prefix up to the first firing the predicate on the kept
    # relative steps agrees with the stateful detector it replaced
    det = DivergenceDetector()
    for k, rel in enumerate(rel_steps, start=1):
        fired = det.update(rel)
        assert _diverging(rel_steps[:k]) == fired
        if fired:
            break


def test_detector_spares_converging_badly_conditioned_dual(lat432):
    g = gw.gaussian_window(432, 1 / 5).astype(complex)
    cfg = IterationConfig.from_algorithm(
        "IV", scaling="initial",
        Bhat=_Bhat(g, lat432), max_steps=60)
    trace = gw.run(g, lat432, cfg)
    assert trace.stop_reason == "converged"
    assert trace.errors[-1] < 1e-8


def test_orders_at_good_conditioning_longdouble():
    # B/A = 1.07 here; quadratic orders >= 1.9 and cubic >= 2.7 per family
    lt = gw.derive_lattice(432, 12, 12)
    g = gw.gaussian_window(432).astype(complex)
    sig = normalized_singular_values(g, lt).astype(np.longdouble)
    expected = {"II": 1.9, "III": 2.7, "IV": 1.9, "V": 2.7}
    for name, floor in expected.items():
        cfg = IterationConfig.from_algorithm(name, max_steps=9)
        strace = gw.scalar_iteration(sig, cfg)
        ref_idx = 9 if name in ("II", "III") else 5
        ref = strace[ref_idx] / np.sqrt((strace[ref_idx] ** 2).sum())
        errs = [float(np.sqrt((((t / np.sqrt((t * t).sum())) - ref) ** 2).sum()))
                for t in strace]
        order = convergence_order(errs, window=(1e-16, 0.5))
        assert order is not None and order >= floor


def test_block_size_independent_step_counts():
    # two Fibonacci lattices with width tuned to the same frame bound ratio
    from gabwin.cli import tune_width_to_ratio
    counts = []
    for (L, a, b) in ((216, 12, 12), (640, 20, 20)):
        lt = gw.derive_lattice(L, a, b)
        w = tune_width_to_ratio(lt, 3.0)
        g = gw.gaussian_window(L, w).astype(complex)
        trace = gw.run(g, lt, IterationConfig.from_algorithm("II"))
        assert trace.stop_reason == "converged"
        counts.append(trace.steps_taken)
    assert counts[0] == counts[1]


def test_run_on_nonsquare_lattice(lat144):
    g = gw.sech_window(144).astype(complex)
    for name in ("II", "IV"):
        trace = gw.run(g, lat144, IterationConfig.from_algorithm(name))
        assert trace.stop_reason == "converged"
        assert trace.errors[-1] < 1e-10
        assert not trace.wrong_limit


def test_flop_estimate_values(lat432):
    assert flop_estimate(lat432, "II") == 16 * 432 * 3
    assert flop_estimate(lat432, "II", steps=4) == 4 * 16 * 432 * 3
    assert flop_estimate(lat432, "EIG") == 24 * 432 * 3 + 14 * 36 * 27
    with pytest.raises(ValueError):
        flop_estimate(lat432, "QR")


def test_explicit_tolerance_stop(lat432, gauss432):
    # a given tol is the threshold of the auto stop
    loose = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II", tol=1e-3))
    strict = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II"))
    assert loose.stop_reason == strict.stop_reason == "converged"
    assert loose.steps_taken < strict.steps_taken
    assert loose.rel_steps[-1] < 1e-3


# ---------------------------------------------------------------------------
# Stacked runs: a sweep's members through one loop


def _assert_same_runs(traces, singles):
    """Each stacked trace gives its member's own run() bit for bit."""
    assert len(traces) == len(singles)
    for trace, single in zip(traces, singles):
        assert trace.stop_reason == single.stop_reason
        assert trace.rel_steps == single.rel_steps
        assert len(trace.blocks) == len(single.blocks)
        for got, want in zip(trace.blocks, single.blocks):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert trace.errors == single.errors


def _assert_same_ends(traces, singles):
    """Each sweep trace keeps its member's start and last iterand of its own
    run() bit for bit, with every relative step, the stop reason and the
    errors of the two."""
    assert len(traces) == len(singles)
    for trace, single in zip(traces, singles):
        assert trace.stop_reason == single.stop_reason
        assert trace.rel_steps == single.rel_steps
        want = single.blocks[:1] + single.blocks[1:][-1:]
        assert len(trace.blocks) == len(want)
        for got, ref in zip(trace.blocks, want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        assert trace.errors == [single.errors[0], single.errors[-1]][:len(want)]
        assert trace.wrong_limit is single.wrong_limit


def _assert_stack_matches(stack, lattice, config, singles):
    """The members of a stack, prescaled and iterated as one batch, give each
    its own run() bit for bit at every iterand, and _run_stack gives each
    its start and last iterand; returns _run_stack's traces."""
    _assert_same_runs(_traces(stack, lattice, config, every=True), singles)
    traces = _run_stack(stack, lattice, config)
    _assert_same_ends(traces, singles)
    return traces


def _prescaled(blocks, Bhat):
    """A stack of the window blocks over the root of each constant Bhat: the
    windows a sweep runs with Bhat = 1."""
    return blocks / np.sqrt(np.asarray(Bhat))[:, None, None, None, None]


_STACK_LATTICES = {1: (240, 12, 10), 2: (600, 20, 20), 3: (432, 18, 18)}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name,scaling", _ALL_CONFIGS)
def test_stacked_members_match_their_own_runs(p, name, scaling):
    # members of different widths share one loop; each keeps its norms,
    # steps and stop (under initial scaling each its own Bhat estimate)
    L, a, b = _STACK_LATTICES[p]
    lt = gw.derive_lattice(L, a, b)
    assert lt.p == p
    windows = [gw.gaussian_window(L, w).astype(complex) for w in (0.5, 1.0, 1.7)]
    windows.append(gw.sech_window(L, 0.8).astype(complex))
    config = IterationConfig.from_algorithm(name, scaling=scaling, max_steps=12)
    stack = np.stack([gw.factorize(g, lt).blocks for g in windows])
    _assert_stack_matches(stack, lt, config, [gw.run(g, lt, config) for g in windows])


def _gauss432_and_B(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    return fac, gw.frame_bounds(gw.block_gram(fac, fac)).upper


def test_stacked_members_stop_each_for_its_own_reason(lat432, gauss432):
    # a scaling-sweep batch: the window prescaled to 1.0 B ... 5.1 B, with a
    # budget of 15 steps; the members stop at different steps
    fac, B = _gauss432_and_B(lat432, gauss432)
    grid = (1.0, 3.3, 3.9, 4.1, 5.1)
    config = IterationConfig(order=2, scaling="initial", Bhat=1.0, max_steps=15)
    singles = [gw.run(gauss432, lat432, replace(config, Bhat=B / b)) for b in grid]
    traces = _assert_stack_matches(_prescaled(fac.blocks, [B / b for b in grid]), lat432,
                                   config, singles)
    assert [t.stop_reason for t in traces] == [
        "converged", "budget", "converged", "diverging", "non_finite"]
    assert all(np.array_equal(t.blocks[0], s.blocks[0]) for t, s in zip(traces, singles))
    assert [t.wrong_limit for t in traces] == [False, False, True, True, True]


def test_stacked_two_cycle_is_oscillating(lat432, gauss432):
    # the two-cycle of test_run_flags_a_two_cycle_as_oscillating beside a
    # member that converges on the last step of the budget
    tight = gw.unfactorize(gw.svd_tight(gw.factorize(gauss432, lat432)))
    fac_t = gw.factorize(tight, lat432)
    B_t = gw.frame_bounds(gw.block_gram(fac_t, fac_t)).upper
    fac, B = _gauss432_and_B(lat432, gauss432)
    config = IterationConfig(order=2, scaling="initial", Bhat=1.0, max_steps=6)
    stack = np.concatenate([_prescaled(fac_t.blocks, [B_t / 5]), _prescaled(fac.blocks, [B])])
    singles = [gw.run(tight, lat432, replace(config, Bhat=B_t / 5)),
               gw.run(gauss432, lat432, replace(config, Bhat=B))]
    traces = _assert_stack_matches(stack, lat432, config, singles)
    assert [t.stop_reason for t in traces] == ["oscillating", "converged"]
    assert all(np.array_equal(t.blocks[0], s.blocks[0]) for t, s in zip(traces, singles))


@pytest.mark.parametrize("target,solver", [("tight", "svd_tight"), ("dual", "inv_dual")])
def test_footprint_cap_splits_a_stack_into_batches(target, solver, monkeypatch, lat600):
    # two members a batch: 5 members run as 3 batches; each trace solves its
    # own reference, one window, when its errors are first read
    batches, solves = [], []
    iterate, solve = iterations._iterate, getattr(iterations, solver)

    def counted_iterate(g_blocks, *args):
        batches.append(len(g_blocks))
        return iterate(g_blocks, *args)

    def counted_solve(fac):
        solves.append(fac.blocks.shape)
        return solve(fac)

    monkeypatch.setattr(iterations, "_iterate", counted_iterate)
    monkeypatch.setattr(iterations, solver, counted_solve)
    windows = [gw.gaussian_window(600, w).astype(complex) for w in (0.6, 0.8, 1.0, 1.3, 2.0)]
    stack = np.stack([gw.factorize(g, lat600).blocks for g in windows])
    monkeypatch.setattr(iterations, "_STACK_BYTES", 2 * stack[0].nbytes)
    config = IterationConfig(target=target, order=3)
    traces = _run_stack(stack, lat600, config)
    assert batches == [2, 2, 1]
    assert not solves
    for trace in traces:
        assert trace.errors[-1] < 1e-10
    assert solves == [stack.shape[1:]] * 5
    _assert_same_ends(traces, [gw.run(g, lat600, config) for g in windows])


def test_wrong_limit_agrees_with_the_reference_error_on_sweep_grids():
    # the scaling-sweep grids at p = 1, 2 and 3: on every converged member the
    # sign of the mixed Gram reads the branch the reference error reads
    flags = []
    for L, a, b in ((240, 12, 10), (216, 12, 12), (432, 18, 18)):
        lattice = gw.derive_lattice(L, a, b)
        fac = gw.factorize(gw.gaussian_window(L).astype(complex), lattice)
        B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
        for target, upper in (("tight", 5.3), ("dual", 2.9)):
            grid = np.round(np.arange(0.1, upper + 1e-9, 0.2), 10)
            stack = _prescaled(fac.blocks, B / grid)
            for order in (2, 3):
                config = IterationConfig(target=target, order=order, scaling="initial",
                                         Bhat=1.0, max_steps=80)
                for x, trace in zip(grid, _run_stack(stack, lattice, config)):
                    if trace.converged:
                        assert trace.wrong_limit is wrong_limit_by_error(trace), (
                            L, target, order, x)
                        flags.append(trace.wrong_limit)
    assert 0 < sum(flags) < len(flags)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_loose_tol_converges_on_the_right_branch(name, lat432, gauss432):
    # tol = 0.1 stops after 2 steps, not yet accurate but on the right branch
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm(name, tol=0.1))
    assert trace.stop_reason == "converged" and trace.steps_taken == 2
    assert 1e-6 < trace.errors[-1] < 1e-2 and wrong_limit_by_error(trace)
    assert trace.wrong_limit is False


def test_dual_wrong_limit_of_V_under_norm_scaling():
    # at B/A of about 8e7 the published V converges, by its step, to another
    # limit; its sign shows in the mixed Gram as in the tight case
    lattice = gw.derive_lattice(240, 12, 10)
    g = gw.gaussian_window(240, 0.05).astype(complex)
    trace = gw.run(g, lattice, IterationConfig.from_algorithm("V"))
    assert trace.stop_reason == "converged" and trace.steps_taken == 34
    assert trace.wrong_limit is True
    assert trace.errors[-1] == pytest.approx(1.41, abs=0.01)


def test_sweep_traces_keep_the_start_and_last_iterand(lat432, gauss432):
    # against the same members iterated keeping every iterand
    fac, B = _gauss432_and_B(lat432, gauss432)
    config = IterationConfig.from_algorithm("IV", scaling="initial", Bhat=1.0, max_steps=30)
    stack = _prescaled(fac.blocks, [B, B / 2, B / 2.5])
    full = _traces(stack, lat432, config, every=True)
    assert any(len(trace.blocks) > 2 for trace in full)
    _assert_same_ends(_run_stack(stack, lat432, config), full)


def _literal_step(name, gamma, g, S_of, S_fixed):
    """One iteration step straight from the published recursions, using
    dense frame operators only."""
    nrm = np.linalg.norm
    if name == "I":
        Sk = S_of(gamma)
        x = np.linalg.solve(Sk, gamma)
        return 0.5 * gamma / nrm(gamma) + 0.5 * x / nrm(x)
    if name == "II":
        Sg = S_of(gamma) @ gamma
        return 1.5 * gamma / nrm(gamma) - 0.5 * Sg / nrm(Sg)
    if name == "III":
        Sk = S_of(gamma)
        t1, t2 = Sk @ gamma, Sk @ (Sk @ gamma)
        return (15 / 8) * gamma / nrm(gamma) - (5 / 4) * t1 / nrm(t1) \
            + (3 / 8) * t2 / nrm(t2)
    if name == "IV":
        t1 = S_of(gamma) @ g
        return 2 * gamma / nrm(gamma) - t1 / nrm(t1)
    if name == "V":
        Sk = S_of(gamma)
        t1 = Sk @ g
        t2 = S_fixed @ (Sk @ gamma)
        return 3 * gamma / nrm(gamma) - 3 * t1 / nrm(t1) + t2 / nrm(t2)
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_block_runner_matches_literal_dense_recursion(name, lat144):
    # fully independent oracle: the published window recursions evaluated
    # with dense frame operators, no factorization involved
    g = gw.gaussian_window(144).astype(complex)
    S_of = lambda x: gw.synthesis_matrix(x, lat144).frame_operator()
    S_fixed = S_of(g)
    trace = gw.run(g, lat144, IterationConfig.from_algorithm(
        name, stop_mode="fixed", max_steps=5))
    gamma = g.copy()
    for k in range(5):
        gamma = _literal_step(name, gamma, g, S_of, S_fixed)
        dev = np.linalg.norm(trace.iterands[k + 1] - gamma)
        assert dev < 1e-10 * np.linalg.norm(gamma)
