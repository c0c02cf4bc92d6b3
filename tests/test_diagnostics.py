import numpy as np
import pytest

import gabwin as gw
from gabwin.diagnostics import _off_origin_mass

from oracles import adjoint_correlations_fft, dense_operator_norm, shift_mod


@pytest.mark.parametrize("L,a,b", [(240, 12, 10), (600, 20, 20), (432, 18, 18)])
def test_adjoint_correlations_match_literal_sum(rng, L, a, b):
    # p = 1, 2, 3: every column gather of the Gram-domain kernel is exercised
    lt = gw.derive_lattice(L, a, b)
    f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    literal = np.array([[L / (a * b) * np.vdot(shift_mod(h, j * lt.M, l * lt.N), f)
                         for l in range(a)] for j in range(b)])
    c = gw.adjoint_correlations(f, h, lt)
    assert np.abs(c - literal).max() <= 1e-12 * np.abs(literal).max()


def test_adjoint_correlations_match_fft_oracle(rng):
    lt = gw.derive_lattice(8640, 72, 80)
    f = rng.standard_normal(lt.L) + 1j * rng.standard_normal(lt.L)
    h = gw.gaussian_window(lt.L, 0.7).astype(complex)
    expected = adjoint_correlations_fft(f, h, lt)
    c = gw.adjoint_correlations(f, h, lt)
    assert np.abs(c - expected).max() <= 1e-12 * np.abs(expected).max()


def test_dual_lattice_norm_tight_vanishes_at_tight(lat432, ref_tight432):
    assert gw.dual_lattice_norm_tight(ref_tight432, lat432) < 1e-10


def test_dual_lattice_norm_tight_bounds_operator_distance(rng):
    lt = gw.derive_lattice(240, 12, 10)
    scale = lt.L / (lt.a * lt.b)
    for _ in range(5):
        gamma = rng.standard_normal(240) + 1j * rng.standard_normal(240)
        S = gw.synthesis_matrix(gamma, lt).frame_operator()
        dist = dense_operator_norm(
            S - scale * np.linalg.norm(gamma) ** 2 * np.eye(240))
        assert gw.dual_lattice_norm_tight(gamma, lt) >= dist - 1e-10


def test_dual_lattice_norm_dual_vanishes_at_dual(lat432, gauss432, ref_dual432):
    assert gw.dual_lattice_norm_dual(gauss432, ref_dual432, lat432) < 1e-10


def test_dual_lattice_norm_dual_reflection_symmetry(rng, lat432):
    g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    gamma = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    # swapping the windows reflects the correlation indices, sums agree
    assert gw.dual_lattice_norm_dual(g, gamma, lat432) == pytest.approx(
        gw.dual_lattice_norm_dual(gamma, g, lat432), rel=1e-12)


def test_dual_lattice_norm_dual_bounds_operator_distance(rng):
    lt = gw.derive_lattice(240, 12, 10)
    g = gw.gaussian_window(240).astype(complex)
    S = gw.synthesis_matrix(g, lt).frame_operator()
    # gamma in the functional-calculus orbit so Z = S phi(S) is well defined
    gamma = 1.2 * g - 0.3 * (S @ g)
    Z = S @ (1.2 * np.eye(240) - 0.3 * S)
    scale = lt.L / (lt.a * lt.b)
    c = scale * np.vdot(gamma, g)  # (g, gamma) in the math convention
    dist = dense_operator_norm(Z - c * np.eye(240))
    assert gw.dual_lattice_norm_dual(g, gamma, lt) >= dist - 1e-10


def test_dual_lattice_norm_homogeneity(rng, lat432):
    g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    h = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    base_t = gw.dual_lattice_norm_tight(g, lat432)
    assert gw.dual_lattice_norm_tight(2.5 * g, lat432) == pytest.approx(
        2.5 ** 2 * base_t, rel=1e-12)
    base_d = gw.dual_lattice_norm_dual(g, h, lat432)
    assert gw.dual_lattice_norm_dual(3.0 * g, 0.5 * h, lat432) == pytest.approx(
        1.5 * base_d, rel=1e-12)


def test_wexler_raz_canonical_pair(lat432, gauss432, ref_dual432, ref_tight432):
    assert gw.wexler_raz_residual(gauss432, ref_dual432, lat432) < 1e-10
    assert gw.wexler_raz_residual(ref_tight432, ref_tight432, lat432) < 1e-10


def test_wexler_raz_fails_for_non_dual(lat432, gauss432):
    assert gw.wexler_raz_residual(gauss432, gauss432, lat432) > 1e-2


def test_wexler_raz_methods_agree(lat432, gauss432, ref_dual432):
    fac = gw.factorize(gauss432, lat432)
    gd_block = gw.unfactorize(gw.inv_dual(fac))
    r1 = gw.wexler_raz_residual(gauss432, gd_block, lat432)
    r2 = gw.wexler_raz_residual(gauss432, ref_dual432, lat432)
    assert abs(r1 - r2) < 1e-9


def test_off_origin_mass_keeps_entries_below_the_origin_ulp():
    # subtracting the origin from the whole sum would leave 2.2e-16, one
    # ulp of 4/3, instead of the 323 off-origin entries of 1e-18
    c = np.full((18, 18), 1e-18)
    c[0, 0] = 4 / 3
    assert _off_origin_mass(c) == pytest.approx(323e-18, rel=1e-12, abs=0)
    assert c[0, 0] == 4 / 3


def test_kantorovich_endpoints():
    assert gw.kantorovich_bound_tight(1.0) == 0.0
    assert gw.kantorovich_bound_dual(1.0) == 0.0


def test_kantorovich_monotone():
    grid = np.linspace(0.01, 1.0, 200)
    t = [gw.kantorovich_bound_tight(Q) for Q in grid]
    d = [gw.kantorovich_bound_dual(R) for R in grid]
    assert all(a > b for a, b in zip(t, t[1:]))
    assert all(a > b for a, b in zip(d, d[1:]))


def test_kantorovich_dominates_trace_errors(lat432, gauss432):
    for name in ("I", "II", "III", "IV", "V"):
        cfg = gw.IterationConfig.from_algorithm(name)
        trace = gw.run(gauss432, lat432, cfg)
        assert trace.stop_reason == "converged"
        for k in range(trace.steps_taken + 1):
            ratio = trace.bounds[k].lower / trace.bounds[k].upper
            bound = (gw.kantorovich_bound_tight(ratio) if cfg.target == "tight"
                     else gw.kantorovich_bound_dual(ratio))
            assert trace.errors[k] <= bound + 1e-12


def test_z_bounds_at_gamma_equals_g(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    fb = gw.frame_bounds(gw.block_gram(fac, fac))
    zb = gw.z_bounds(fac, fac)
    assert zb.lower == pytest.approx(fb.lower, rel=1e-12)
    assert zb.upper == pytest.approx(fb.upper, rel=1e-12)


def test_z_bounds_at_dual(lat432, gauss432, ref_dual432):
    zb = gw.z_bounds(gw.factorize(gauss432, lat432),
                     gw.factorize(ref_dual432, lat432))
    assert zb.lower == pytest.approx(1.0, abs=1e-8)
    assert zb.upper == pytest.approx(1.0, abs=1e-8)


def test_z_bounds_warns_off_orbit(rng, lat432, gauss432, lat600):
    # p = 3 (LAPACK) and p = 2 (closed form)
    for lt, g in ((lat432, gauss432), (lat600, gw.gaussian_window(600).astype(complex))):
        noise = rng.standard_normal(lt.L) + 1j * rng.standard_normal(lt.L)
        with pytest.warns(UserWarning, match="orbit"):
            gw.z_bounds(gw.factorize(g, lt), gw.factorize(noise, lt))


def test_convergence_order_synthetic():
    errs = [10.0 ** (-(2.0 ** k)) for k in range(5)]
    order = gw.convergence_order(errs)
    assert order == pytest.approx(2.0, abs=0.05)


def test_convergence_order_insufficient():
    assert gw.convergence_order([1e-3, 1e-9, 1e-15]) is None
    assert gw.convergence_order([0.5, 0.4, 0.3]) is None
