"""The block spectra of zak._hermitian_eigvals and zak._eigvals against LAPACK
and against the 60-digit roots of the characteristic polynomial.

At p <= 2 the helpers take closed forms, so they must agree with a
per-block LAPACK call to within LAPACK's own error, and with the 60-digit
roots to within 4 eps max|block|.  LAPACK's error on 2 x 2 blocks reaches
about 8 eps max|block| on Gram blocks and 11 on uniform random blocks
(measured against the same roots), and grows with the eigenvalue condition
number of a non-normal block; the LAPACK tolerance allows for both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gabwin as gw
from gabwin.zak import _eigvals, _gram_blocks, _hermitian_eigvals
from oracles import decimal_eigvals_2x2, lapack_eigvals, lapack_hermitian_eigvals

EPS = np.finfo(float).eps
EXACT_TOL = 4.0
LAPACK_TOL = 16.0

LATTICES = [(240, 12, 10), (65536, 256, 128), (216, 12, 12), (600, 20, 20),
            (8640, 72, 80)]


def _distance(x, y):
    """Per block, the largest eigenvalue difference under the better of the
    two pairings of 2 x 2 spectra."""
    same = np.maximum(np.abs(x[..., 0] - y[..., 0]), np.abs(x[..., 1] - y[..., 1]))
    swap = np.maximum(np.abs(x[..., 0] - y[..., 1]), np.abs(x[..., 1] - y[..., 0]))
    return np.minimum(same, swap)


def _condition(blocks):
    """Upper bound 1/sigma_min(V) on the eigenvalue condition numbers of each
    block, V the unit eigenvectors from LAPACK, capped at 1/eps (beyond it
    no eigenvalue digit is certain)."""
    sigma = np.linalg.svd(np.linalg.eig(blocks)[1], compute_uv=False)[..., -1]
    return 1.0 / np.maximum(sigma, EPS)


def _check_2x2(blocks):
    """Both entry points against the 60-digit roots and against LAPACK."""
    blocks = np.asarray(blocks).reshape(-1, 2, 2)
    scale = EPS * np.abs(blocks).max(axis=(-2, -1))
    herm, gen = _hermitian_eigvals(blocks), _eigvals(blocks)
    exact_herm = np.array([decimal_eigvals_2x2(b, hermitian=True) for b in blocks])
    exact_gen = np.array([decimal_eigvals_2x2(b) for b in blocks])
    assert np.all(herm[..., 0] <= herm[..., 1])
    assert np.all(_distance(herm, exact_herm) <= EXACT_TOL * scale)
    assert np.all(_distance(gen, exact_gen) <= EXACT_TOL * scale)
    assert np.all(_distance(herm, lapack_hermitian_eigvals(blocks)) <= LAPACK_TOL * scale)
    assert np.all(_distance(gen, lapack_eigvals(blocks))
                  <= LAPACK_TOL * scale * _condition(blocks))


def _lattice_blocks(L, a, b):
    """Gram blocks of a Gaussian and a sech window, and the mixed Gram of the
    Gaussian against a random signal (not Hermitian, complex spectrum)."""
    lt = gw.derive_lattice(L, a, b)
    rng = np.random.default_rng(L)
    G = gw.factorize(gw.gaussian_window(L, 0.5).astype(complex), lt)
    H = gw.factorize(gw.sech_window(L, 2.0).astype(complex), lt)
    R = gw.factorize(rng.standard_normal(L) + 1j * rng.standard_normal(L), lt)
    return lt, [_gram_blocks(X.blocks, Y.blocks) for X, Y in ((G, G), (H, H), (G, R))]


@pytest.mark.parametrize("L,a,b", LATTICES)
def test_block_spectra_match_oracles_on_lattices(L, a, b):
    lt, grams = _lattice_blocks(L, a, b)
    for A in grams:
        if lt.p == 1:  # the block is its own eigenvalue, as LAPACK returns it
            assert np.array_equal(_hermitian_eigvals(A), lapack_hermitian_eigvals(A))
            assert np.array_equal(_eigvals(A), lapack_eigvals(A))
        else:
            _check_2x2(A)
    bounds = gw.frame_bounds(gw.BlockOperator(lt, grams[0]))
    ev = lapack_hermitian_eigvals(grams[0])
    tol = (EXACT_TOL + LAPACK_TOL) * EPS * ev.max()
    assert abs(bounds.lower - ev.min()) <= tol
    assert abs(bounds.upper - ev.max()) <= tol


def _adversarial_blocks():
    alpha = 3.0
    herm = np.array([[0.3, 0.7 + 0.2j], [0.7 - 0.2j, -0.4]])
    skew = np.array([[0.0, 0.7 + 0.2j], [-0.7 + 0.2j, 0.0]])
    return {
        "near-multiple, Hermitian perturbation": alpha * np.eye(2) + 1e-9 * herm,
        "near-multiple, skew perturbation": alpha * np.eye(2) + 1e-9 * skew,
        "zero": np.zeros((2, 2)),
        "rank one": np.outer([1.0, 2.0 - 1.0j], [0.5j, 3.0]),
        "real spectrum, not symmetric": np.array([[2.0, 1.0], [0.5, 1.0]]),
    }


@pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500, 1e160, 1e-160])
@pytest.mark.parametrize("name", list(_adversarial_blocks()))
def test_block_spectra_adversarial(name, scale):
    # products of entries overflow at 1e160 and lose digits to underflow at
    # 1e-160 unless the block is scaled first; RuntimeWarnings are errors
    block = scale * np.asarray(_adversarial_blocks()[name], dtype=complex)
    _check_2x2(block)


@pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500])
def test_small_eigenvalue_has_relative_accuracy(scale):
    # the eigenvalues of [[1, 1], [1, 1 + delta]] are about 2 and delta/2;
    # m - s would cancel down to an absolute error of eps, det / (m + s)
    # keeps the small one to a few eps relative (det is exact here: at
    # power-of-two scales the entry products are exact)
    block = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]], dtype=complex)
    small = np.abs(_eigvals(block[None])[0]).min()
    exact = np.abs(decimal_eigvals_2x2(block)).min()
    assert abs(small - exact) <= EXACT_TOL * EPS * exact


_parts = st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                  min_size=8, max_size=8)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(parts=_parts, exponent=st.integers(-1000, 1000))
def test_2x2_spectra_property(parts, exponent):
    block = np.ldexp(np.array(parts), exponent).view(complex).reshape(1, 2, 2)
    _check_2x2(block)
