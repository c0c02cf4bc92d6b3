import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gabwin as gw
from gabwin.errors import NotAFrameError
from gabwin.iterations import EPS, IterationConfig, _DivergenceDetector, flop_estimate

from oracles import taylor_inv_coeffs, taylor_inv_sqrt_coeffs


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
    assert gw.upper_frame_bound_estimate(ref_tight432, lat432) == pytest.approx(
        1.0, abs=1e-10)


def test_upper_bound_estimate_dominates(rng, lat432):
    for _ in range(50):
        g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
        fac = gw.factorize(g, lat432)
        B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
        assert gw.upper_frame_bound_estimate(g, lat432) >= B - 1e-9


def test_upper_bound_estimate_quadratic_scaling(lat432, gauss432):
    base = gw.upper_frame_bound_estimate(gauss432, lat432)
    assert gw.upper_frame_bound_estimate(2.0 * gauss432, lat432) == pytest.approx(
        4.0 * base, rel=1e-12)


def test_initial_scale_spectrum(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    scaled = gw.initial_scale(fac, B)
    assert gw.frame_bounds(gw.block_gram(scaled, scaled)).upper == pytest.approx(
        1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Single steps

def test_step_tight_fixed_point(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432 / np.linalg.norm(ref_tight432), lat432)
    out = gw.step_tight(fac, order=2, scaling="norm")
    assert np.abs(out.blocks - fac.blocks).max() < 1e-12


def test_step_dual_fixed_point_at_tight(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    out = gw.step_dual(fac, fac, order=2, scaling="initial")
    assert np.abs(out.blocks - fac.blocks).max() < 1e-12


def test_step_frame_inverse_fixed_point(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432 / np.linalg.norm(ref_tight432), lat432)
    out = gw.step_frame_inverse(fac)
    assert np.abs(out.blocks - fac.blocks).max() < 1e-12


def test_step_frame_inverse_rejects_lost_frame():
    lt = gw.derive_lattice(16, 4, 4)
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    with pytest.raises(NotAFrameError, match="frame"):
        gw.step_frame_inverse(gw.factorize(delta, lt))


def test_initial_scaled_tight_quadratic(lat432, gauss432):
    Bhat = gw.upper_frame_bound_estimate(gauss432, lat432)
    cfg = IterationConfig.from_algorithm("II", scaling="initial", Bhat=Bhat,
                                         stop_mode="fixed", max_steps=8)
    trace = gw.run(gauss432, lat432, cfg)
    order = gw.convergence_order(trace.errors, window=(1e-12, 1e-1))
    assert order is not None and order >= 1.9
    ratios = [np.log(trace.errors[k + 1]) / np.log(trace.errors[k])
              for k in range(1, 6) if trace.errors[k + 1] > 1e-12]
    assert all(b > a - 1e-6 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.85


@pytest.mark.parametrize("name", ["III", "V"])
def test_block_matches_scalar_trace(name, lat432, gauss432):
    cfg = IterationConfig.from_algorithm(name, stop_mode="fixed", max_steps=4)
    trace = gw.run(gauss432, lat432, cfg)
    sig = gw.normalized_singular_values(gauss432, lat432)
    strace = gw.scalar_iteration(sig, cfg, steps=4)
    for k in range(5):
        sk = gw.normalized_singular_values(trace.iterands[k], lat432)
        assert np.abs(np.sort(strace[k]) - np.sort(sk)).max() < 1e-9


# ---------------------------------------------------------------------------
# Full runs

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


def test_run_II_converges_fast(lat432, gauss432, ref_tight432):
    trace = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II"))
    assert trace.converged and trace.steps_taken <= 7
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
    order = gw.convergence_order(errs, window=(1e-12, 1e-1))
    assert order == pytest.approx(2.0, abs=0.3)


def test_run_I_handles_bad_conditioning(lat432):
    g = gw.gaussian_window(432, 1 / 5).astype(complex)
    trace = gw.run(g, lat432, IterationConfig.from_algorithm("I", max_steps=40))
    assert trace.converged
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
    assert inside.converged and not inside.wrong_limit
    outside = gw.run(gauss432, lat432, IterationConfig(
        target=target, order=order, scaling="initial",
        Bhat=B / (1.05 * boundary), max_steps=80))
    assert not outside.converged or outside.wrong_limit


def test_scaling_strategies_step_counts(lat432, gauss432):
    def steps(name, **kw):
        trace = gw.run(gauss432, lat432,
                       IterationConfig.from_algorithm(name, **kw))
        assert trace.converged
        return trace.steps_taken

    for name in ("II", "IV"):
        n_norm = steps(name)
        n_est = steps(name, scaling="initial",
                      Bhat=gw.upper_frame_bound_estimate(gauss432, lat432))
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
    Bhat = gw.upper_frame_bound_estimate(gauss432, lat432)
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
    Bhat = gw.upper_frame_bound_estimate(gauss432, lat432)
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
    ("II", "constant_optimal"), ("V", "constant_optimal")])
def test_recorded_diagnostics_match_signal_level(name, scaling, lat432, gauss432):
    # run() observes each iterand through the Gram blocks it already holds;
    # the public signal-level functions must give the same numbers
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


@pytest.mark.parametrize("target,order,boundary", [("tight", 3, 7 / 3), ("dual", 3, 2.0)])
def test_diverging_run_leaks_no_runtime_warning(target, order, boundary, lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    B = gw.frame_bounds(gw.block_gram(fac, fac)).upper
    config = IterationConfig(target=target, order=order, scaling="initial",
                             Bhat=B / (1.05 * boundary), max_steps=80)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = gw.run(gauss432, lat432, config)
    assert trace.diverging


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
    assert trace.wrong_limit


def test_divergence_detector():
    det = _DivergenceDetector()
    fired = [det.update(r) for r in (0.5, 0.3, 0.1, 0.2, 0.3, 0.4)]
    assert fired == [False, False, False, False, False, True]
    # never decreased: no flag
    det = _DivergenceDetector()
    assert not any(det.update(r) for r in (0.1, 0.2, 0.3, 0.4, 0.5))
    # sub-margin wobble on a plateau must not trip it
    det = _DivergenceDetector()
    assert not any(det.update(r) for r in (0.5, 0.30, 0.301, 0.302, 0.303, 0.304))


def test_detector_spares_converging_badly_conditioned_dual(lat432):
    g = gw.gaussian_window(432, 1 / 5).astype(complex)
    cfg = IterationConfig.from_algorithm(
        "IV", scaling="initial",
        Bhat=gw.upper_frame_bound_estimate(g, lat432), max_steps=60)
    trace = gw.run(g, lat432, cfg)
    assert trace.converged and not trace.diverging
    assert trace.errors[-1] < 1e-8


def test_orders_at_good_conditioning_longdouble():
    # B/A = 1.07 here; quadratic orders >= 1.9 and cubic >= 2.7 per family
    lt = gw.derive_lattice(432, 12, 12)
    g = gw.gaussian_window(432).astype(complex)
    sig = gw.normalized_singular_values(g, lt).astype(np.longdouble)
    expected = {"II": 1.9, "III": 2.7, "IV": 1.9, "V": 2.7}
    for name, floor in expected.items():
        cfg = IterationConfig.from_algorithm(name)
        strace = gw.scalar_iteration(sig, cfg, steps=9)
        ref_idx = 9 if name in ("II", "III") else 5
        ref = strace[ref_idx] / np.sqrt((strace[ref_idx] ** 2).sum())
        errs = [float(np.sqrt((((t / np.sqrt((t * t).sum())) - ref) ** 2).sum()))
                for t in strace]
        order = gw.convergence_order(errs, window=(1e-16, 0.5))
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
        assert trace.converged
        counts.append(trace.steps_taken)
    assert counts[0] == counts[1]


def test_run_on_nonsquare_lattice(lat144):
    g = gw.sech_window(144).astype(complex)
    for name in ("II", "IV"):
        trace = gw.run(g, lat144, IterationConfig.from_algorithm(name))
        assert trace.converged
        assert trace.errors[-1] < 1e-10
        assert not trace.wrong_limit


def test_flop_estimate_values(lat432):
    assert flop_estimate(lat432, "II") == 16 * 432 * 3
    assert flop_estimate(lat432, "II", steps=4) == 4 * 16 * 432 * 3
    assert flop_estimate(lat432, "EIG") == 24 * 432 * 3 + 14 * 36 * 27
    with pytest.raises(ValueError):
        flop_estimate(lat432, "QR")


def test_explicit_tolerance_stop(lat432, gauss432):
    loose = gw.run(gauss432, lat432, IterationConfig.from_algorithm(
        "II", stop_mode="tol", tol=1e-3))
    strict = gw.run(gauss432, lat432, IterationConfig.from_algorithm("II"))
    assert loose.converged and strict.converged
    assert loose.steps_taken < strict.steps_taken
    assert loose.rel_steps[-1] < 1e-3


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
