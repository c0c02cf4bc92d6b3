"""Direct (non-iterative) canonical-window methods on the block
factorization: EIG, SVD and INV."""

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

    When p = 1 each block is a single row phi, whose SVD is
    (1, ||phi||, phi / ||phi||), so the polar factor U Vh is exactly
    phi / ||phi||; it is computed in closed form, with the norm taken by
    hypot so that it neither overflows nor underflows.  For p > 1 the
    blocks go through LAPACK's SVD.
    """
    lt = fac.lattice
    if lt.p == 1:
        s = np.hypot.reduce(np.abs(fac.blocks), axis=-1, keepdims=True)
        _check_singular_values(s)
        polar = fac.blocks / s
    else:
        U, s, Vh = np.linalg.svd(fac.blocks, full_matrices=False)
        _check_singular_values(s)
        polar = np.einsum("rsij,rsjl->rsil", U, Vh)
    return ZakFactorization(lt, polar / np.sqrt(lt.c * lt.d * lt.q))


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
