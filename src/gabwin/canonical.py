"""Direct (non-iterative) canonical-window methods on the block
factorization: EIG, SVD and INV.  At p = 2 SVD's polar factor of a block
Phi = B E (Gram-Schmidt) is [[s, -conj t], [t, s]] E / hypot(s, |t|), built
from sums of positive terms so that nothing cancels (see svd_tight)."""

from __future__ import annotations

import numpy as np

from .errors import NotAFrameError
from .zak import ZakFactorization, _hermitian_eigvals, block_gram, hermitian_part

__all__ = ["eig_tight", "svd_tight", "inv_dual", "cholesky_solve_blocks"]

_RANK_TOL = 1e-13


def eig_tight(fac: ZakFactorization) -> ZakFactorization:
    """Canonical tight window via per-block eigendecomposition.

    Each frame-operator block A is diagonalized as U D U* and D^(-1/2) is
    applied: tight = U D^(-1/2) U* Phi.  Inverting small eigenvalues makes
    this method lose accuracy as B/A grows.
    """
    A = block_gram(fac, fac).blocks
    if fac.lattice.p == 1:  # U = 1 and the block is its own eigenvalue
        ev = _hermitian_eigvals(A)
        _check_eigenvalues(ev)
        return ZakFactorization(fac.lattice, fac.blocks / np.sqrt(ev)[..., None])
    ev, U = np.linalg.eigh(hermitian_part(A))
    _check_eigenvalues(ev)
    out = np.einsum("rsij,rsj,rskj,rskl->rsil", U, ev ** -0.5, U.conj(), fac.blocks)
    return ZakFactorization(fac.lattice, out)


def _check_eigenvalues(ev: np.ndarray) -> None:
    if ev.min() <= _RANK_TOL * ev.max():
        raise NotAFrameError("not a frame: frame operator numerically singular")


def svd_tight(fac: ZakFactorization) -> ZakFactorization:
    """Canonical tight window via per-block thin SVD.

    Singular values are discarded (set to 1), so roundoff on small singular
    values never enters; depends only on the block column spaces.

    When p = 1 each block is a row phi, whose polar factor U Vh is
    phi / ||phi||, the norm taken by hypot so that it neither overflows nor
    underflows, on blocks scaled clear of subnormals (_unit_scaled).

    When p = 2 Gram-Schmidt on the rows (re-orthogonalized once) gives
    Phi = B E, E with orthonormal rows, B = [[r11, 0], [t, r22]]; as det B > 0,
    U Vh = [[s, -conj t], [t, s]] E / hypot(s, |t|) with s = r11 + r22 (Higham,
    Functions of Matrices, ch. 8).  The rank test takes sigma1 = (hypot(s, |t|)
    + hypot(r11 - r22, |t|)) / 2 and sigma2 = r11 (r22 / sigma1).  No step
    subtracts nearly equal numbers.  For p > 2 LAPACK computes the SVD.
    """
    lt = fac.lattice
    if lt.p == 1:
        x = _unit_scaled(fac.blocks)
        s = np.hypot.reduce(np.abs(x), axis=-1, keepdims=True)
        _check_singular_values(s)
        polar = np.divide(x, s, out=x)
    elif lt.p == 2:
        polar = _polar_2xq(fac.blocks)
    else:
        U, s, Vh = np.linalg.svd(fac.blocks, full_matrices=False)
        _check_singular_values(s)
        polar = np.einsum("rsij,rsjl->rsil", U, Vh)
    return ZakFactorization(lt, np.divide(polar, np.sqrt(lt.c * lt.d * lt.q), out=polar))


def _polar_2xq(blocks: np.ndarray) -> np.ndarray:
    """Polar factor of (..., 2, q) blocks in closed form (see svd_tight)."""
    x = _unit_scaled(blocks)
    phi1, phi2 = x[..., 0, :], x[..., 1, :]
    r11 = np.hypot.reduce(np.abs(phi1), axis=-1, keepdims=True)
    _check_singular_values(r11)  # the test below implies it: sigma2 <= r11 <= sigma1
    e1 = phi1 / r11
    t = np.einsum("...i,...i->...", phi2, e1.conj())[..., None]
    y = phi2 - t * e1
    dt = np.einsum("...i,...i->...", y, e1.conj())[..., None]
    y, t = y - dt * e1, t + dt
    r22, at = np.hypot.reduce(np.abs(y), axis=-1, keepdims=True), np.abs(t)
    h = np.hypot(r11 + r22, at)
    sigma1 = 0.5 * (h + np.hypot(r11 - r22, at))
    _check_singular_values(np.concatenate([sigma1, r11 * (r22 / sigma1)]))
    e2, s, t = y / r22, (r11 + r22) / h, t / h
    return np.stack([s * e1 - t.conj() * e2, t * e1 + s * e2], axis=-2)


def _unit_scaled(blocks: np.ndarray) -> np.ndarray:
    """blocks over the power of two that takes their largest part into
    [1/2, 1): exact, and clear of subnormals where the rank test passes."""
    x = np.ascontiguousarray(blocks).view(float)
    return np.ldexp(x, -np.frexp(max(x.max(), -x.min()))[1]).view(complex)


def _check_singular_values(s: np.ndarray) -> None:
    if s.min() <= _RANK_TOL * s.max():
        raise NotAFrameError("not a frame: rank-deficient factorization block")


def cholesky_solve_blocks(op_blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A X = B per block for Hermitian positive definite A
    (Cholesky factorization A = L L* followed by two substitutions).

    Each substitution step finishes one row of X and updates the rows
    after it, in every block at once, so the p forward and p backward
    steps make no per-block LAPACK call.
    """
    if op_blocks.shape[-1] == 1:  # the 1 x 1 factor is sqrt(Re a), 0 if Re a <= 0
        low = np.sqrt(np.maximum(op_blocks.real, 0.0))
    else:
        try:
            low = np.linalg.cholesky(hermitian_part(op_blocks))
        except np.linalg.LinAlgError as exc:
            raise NotAFrameError(f"not a frame: {exc}") from exc
    # potrf fails on a pivot that is not positive or is NaN; OpenBLAS passes
    # a NaN through, and a NaN anywhere in a block reaches a later pivot
    if not (np.diagonal(low, axis1=-2, axis2=-1).real > 0).all():
        raise NotAFrameError("not a frame: Matrix is not positive definite")
    x = np.array(rhs, dtype=np.result_type(low, rhs))
    for j in range(low.shape[-1]):  # L Y = B
        x[..., j, :] /= low[..., j, j, None]
        x[..., j + 1:, :] -= low[..., j + 1:, j, None] * x[..., j, None, :]
    for j in reversed(range(low.shape[-1])):  # L* X = Y
        x[..., j, :] /= low[..., j, j, None].conj()
        x[..., :j, :] -= low[..., j, :j, None].conj() * x[..., j, None, :]
    return x


def inv_dual(fac: ZakFactorization) -> ZakFactorization:
    """Canonical dual window: per-block Hermitian solve A X = Phi."""
    A = block_gram(fac, fac)
    _check_eigenvalues(_hermitian_eigvals(A.blocks))
    return ZakFactorization(fac.lattice, cholesky_solve_blocks(A.blocks, fac.blocks))
