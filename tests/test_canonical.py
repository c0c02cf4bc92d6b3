import numpy as np
import pytest

import gabwin as gw
from gabwin.canonical import cholesky_solve_blocks
from gabwin.errors import NotAFrameError



@pytest.fixture(scope="module")
def fac432(lat432, gauss432):
    return gw.factorize(gauss432, lat432)


@pytest.fixture(scope="module")
def dense_cases(lat432, gauss432, ref_tight432, ref_dual432):
    """(lattice, g, factorization, tight reference, dual reference) of a
    Gaussian at p = 3, 1 and 2; svd_tight takes its closed form at p = 1."""
    cases = [(lat432, gauss432, ref_tight432, ref_dual432)]
    for L, a, b in ((240, 12, 10), (600, 20, 20)):
        lt = gw.derive_lattice(L, a, b)
        g = gw.gaussian_window(L).astype(complex)
        cases.append((lt, g, gw.reference_tight(g, lt), gw.reference_dual(g, lt)))
    return [(lt, g, gw.factorize(g, lt), rt, rd) for lt, g, rt, rd in cases]


def test_eig_tight_frame_operator_is_identity(lat432, fac432):
    out = gw.eig_tight(fac432)
    A = gw.block_gram(out, out).blocks
    eye = np.broadcast_to(np.eye(lat432.p), A.shape)
    assert np.abs(A - eye).max() < 1e-8


def test_eig_tight_matches_dense_reference(dense_cases):
    for lt, _, fac, ref_tight, _ in dense_cases:
        out = gw.unfactorize(gw.eig_tight(fac))
        assert np.linalg.norm(out - ref_tight) < 1e-8, lt


def test_svd_tight_matches_dense_reference(dense_cases):
    for lt, _, fac, ref_tight, _ in dense_cases:
        out = gw.unfactorize(gw.svd_tight(fac))
        assert np.linalg.norm(out - ref_tight) < 1e-8, lt


def test_svd_tight_matches_eig(lat432, fac432):
    assert np.linalg.norm(
        gw.unfactorize(gw.svd_tight(fac432)) - gw.unfactorize(gw.eig_tight(fac432))
    ) < 1e-8


def test_svd_tight_fixed_on_tight(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    out = gw.svd_tight(fac)
    assert np.abs(out.blocks - fac.blocks).max() < 1e-12


def test_svd_tight_orbit_invariance(lat432, gauss432, fac432):
    # every window phi(S) g with positive phi shares the tight window, and
    # svd_tight must map the whole orbit to the same output
    S = gw.synthesis_matrix(gauss432, lat432).frame_operator()
    w = 1.5 * gauss432 - 0.5 * (S @ gauss432)  # phi(s) = 3/2 - s/2 > 0 here
    a = gw.unfactorize(gw.svd_tight(fac432))
    b = gw.unfactorize(gw.svd_tight(gw.factorize(w, lat432)))
    assert np.linalg.norm(a - b) < 1e-10


def test_inv_dual_wexler_raz(dense_cases):
    for lt, g, fac, _, _ in dense_cases:
        gd = gw.unfactorize(gw.inv_dual(fac))
        assert gw.wexler_raz_residual(g, gd, lt) < 1e-10, lt


def test_inv_dual_fixed_on_tight(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    out = gw.unfactorize(gw.inv_dual(fac))
    assert np.linalg.norm(out - ref_tight432) < 1e-12


def test_inv_dual_matches_dense_reference(dense_cases):
    for lt, _, fac, _, ref_dual in dense_cases:
        gd = gw.unfactorize(gw.inv_dual(fac))
        assert np.linalg.norm(gd - ref_dual) < 1e-9, lt


@pytest.mark.parametrize("alpha", [1e200, 1e-200, 1e-160])
def test_svd_tight_scale_covariance_p1(alpha):
    # the p = 1 closed form must not square the block entries: a norm that
    # does overflows at 1e200 and underflows below about 1e-154
    lt = gw.derive_lattice(240, 12, 10)
    g = gw.gaussian_window(240).astype(complex)
    base = gw.svd_tight(gw.factorize(g, lt)).blocks
    scaled = gw.svd_tight(gw.factorize(alpha * g, lt)).blocks
    assert np.linalg.norm(scaled - base) <= 1e-14 * np.linalg.norm(base)


def test_svd_tight_p1_matches_lapack_polar_factor():
    lt = gw.derive_lattice(240, 12, 10)
    for g in (gw.gaussian_window(240), gw.sech_window(240)):
        fac = gw.factorize(np.asarray(g, dtype=complex), lt)
        U, _, Vh = np.linalg.svd(fac.blocks, full_matrices=False)
        polar = (U @ Vh) / np.sqrt(lt.c * lt.d * lt.q)
        out = gw.svd_tight(fac).blocks
        assert np.linalg.norm(out - polar) <= 1e-15 * np.linalg.norm(polar)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_cholesky_solve_blocks_matches_solve(p, rng):
    X = rng.standard_normal((4, 3, p, p + 2)) + 1j * rng.standard_normal((4, 3, p, p + 2))
    A = X @ np.conj(np.swapaxes(X, -2, -1))
    B = rng.standard_normal((4, 3, p, 7)) + 1j * rng.standard_normal((4, 3, p, 7))
    expected = np.linalg.solve(A, B)
    out = cholesky_solve_blocks(A, B)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_cholesky_solve_blocks_rejects_indefinite(rng):
    A = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3, 3)).copy()
    A[2, 1, 1, 1] = -1.0
    with pytest.raises(NotAFrameError, match="not a frame"):
        cholesky_solve_blocks(A, rng.standard_normal((4, 3, 3, 2)))


def test_direct_methods_reject_non_frame():
    lt = gw.derive_lattice(16, 4, 4)
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    fac = gw.factorize(delta, lt)
    for fn in (gw.eig_tight, gw.svd_tight, gw.inv_dual):
        with pytest.raises(NotAFrameError, match="not a frame"):
            fn(fac)


def test_eig_degrades_svd_does_not(lat432):
    # eigenvalue inversion amplifies roundoff roughly like B/A * eps, the
    # SVD method never touches the singular values: the gap opens with B/A
    def dln_of(method, w):
        g = gw.gaussian_window(432, w).astype(complex)
        fac = gw.factorize(g, lat432)
        out = gw.unfactorize(method(fac))
        return gw.dual_lattice_norm_tight(out / np.linalg.norm(out), lat432)

    w = 1 / 7  # frame bound ratio ~ 1.9e3
    eig_err, svd_err = dln_of(gw.eig_tight, w), dln_of(gw.svd_tight, w)
    assert eig_err > 10 * svd_err
    assert svd_err < 1e-12
