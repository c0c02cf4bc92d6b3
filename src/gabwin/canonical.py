"""Direct (non-iterative) canonical-window methods on the block
factorization: EIG, SVD and INV.  At p = 2 SVD's polar factor of a block
Phi = B E (Gram-Schmidt) is [[s, -conj t], [t, s]] E / hypot(s, |t|), built
from sums of positive terms so that nothing cancels (see svd_tight).  At
p <= 2 the row norms are q - 1 whole-plane hypot calls, and every division
by reals goes through zak._over.  EIG and INV read the Gram, and its
eigenvalues, that the factorization holds (zak.block_gram), and every
method rejects a system by zak's one rank rule (zak._require_frame)."""

from __future__ import annotations

import numpy as np

from .errors import NotAFrameError
from .zak import (ZakFactorization, _extremes, _over, _require_frame, block_gram, frame_bounds,
                  hermitian_part)

__all__ = ["eig_tight", "svd_tight", "inv_dual", "cholesky_solve_blocks"]


def eig_tight(fac: ZakFactorization) -> ZakFactorization:
    """Canonical tight window via per-block eigendecomposition.

    Each frame-operator block A is diagonalized as U D U* and D^(-1/2) is
    applied: tight = U D^(-1/2) U* Phi.  Inverting small eigenvalues makes
    this method lose accuracy as B/A grows.
    """
    A = block_gram(fac, fac)
    if fac.lattice.p == 1:  # U = 1 and the block is its own eigenvalue
        _require_frame(frame_bounds(A))
        return ZakFactorization(fac.lattice, _over(fac.blocks, np.sqrt(A._eigvals)[..., None]))
    ev, U = np.linalg.eigh(hermitian_part(A.blocks))
    _require_frame(_extremes(ev))
    out = np.einsum("rsij,rsj,rskj,rskl->rsil", U, ev ** -0.5, U.conj(), fac.blocks)
    return ZakFactorization(fac.lattice, out)


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
    Functions of Matrices, ch. 8).  The rank test (zak's, on the squared
    singular values at every p) takes sigma1 = (hypot(s, |t|) + hypot(r11 -
    r22, |t|)) / 2 and sigma2 = r11 (r22 / sigma1).  No step subtracts nearly
    equal numbers.  For p > 2 LAPACK computes the SVD.
    """
    lt = fac.lattice
    if lt.p == 1:
        x = _unit_scaled(fac.blocks)
        s = _row_norms(x)
        _require_frame(_extremes(s * s))
        polar = _over(x, s, out=x)
    elif lt.p == 2:
        polar = _polar_2xq(fac.blocks)
    else:
        U, s, Vh = np.linalg.svd(fac.blocks, full_matrices=False)
        _require_frame(_extremes(np.ldexp(s, -np.frexp(s.max())[1]) ** 2))  # exact, no overflow
        polar = np.einsum("rsij,rsjl->rsil", U, Vh)
    return ZakFactorization(lt, _over(polar, np.sqrt(lt.c * lt.d * lt.q), out=polar))


def _polar_2xq(blocks: np.ndarray) -> np.ndarray:
    """Polar factor of (..., 2, q) blocks in closed form (see svd_tight)."""
    x = _unit_scaled(blocks)
    r11, t, r22 = _gram_schmidt_2xq(x)
    e1, e2 = x[..., 0, :], x[..., 1, :]
    # the test below implies this one (sigma2 <= r11 <= sigma1) but for a
    # zero block, where it would take 0 / 0
    _require_frame(_extremes(r11 * r11))
    at = np.abs(t)
    h = np.hypot(r11 + r22, at)
    sigma1 = 0.5 * (h + np.hypot(r11 - r22, at))
    _require_frame(_extremes(np.concatenate([sigma1, r11 * (r22 / sigma1)]) ** 2))
    s, t = (r11 + r22) / h, _over(t, h)
    return np.stack([s * e1 - t.conj() * e2, t * e1 + s * e2], axis=-2)


def _gram_schmidt_2xq(x: np.ndarray):
    """x = [[r11, 0], [t, r22]] E for (..., 2, q) blocks x, by Gram-Schmidt
    on the rows, re-orthogonalized once, so that the rows of E are
    orthonormal to working precision: returns r11, t, r22 as (..., 1) and
    overwrites x with E.  A row of zero norm gives a zero row of E (a rank
    deficient block, which svd_tight refuses and _lq_split keeps)."""
    phi1, phi2 = x[..., 0, :], x[..., 1, :]
    r11 = _row_norms(phi1)
    e1 = _unit_rows(phi1, r11, out=phi1)
    t = np.einsum("...i,...i->...", phi2, e1.conj())[..., None]
    y = phi2 - t * e1
    dt = np.einsum("...i,...i->...", y, e1.conj())[..., None]
    y, t = y - dt * e1, t + dt
    r22 = _row_norms(y)
    _unit_rows(y, r22, out=phi2)
    return r11, t, r22


def _unit_rows(x: np.ndarray, norms: np.ndarray, out=None) -> np.ndarray:
    """x over its row norms, into out if given; a zero row where the norm is
    subnormal or 0, whose reciprocal would overflow (1 / inf is 0)."""
    return _over(x, np.where(norms >= np.finfo(norms.dtype).tiny, norms, np.inf), out=out)


def _lq_split(blocks: np.ndarray):
    """(R, Q) with blocks = R Q blockwise, R (..., p, p) lower triangular
    with a real diagonal (real at p = 1) and Q (..., p, q) with orthonormal
    rows, in closed form: at p = 1 R is the row norm by hypot, at p = 2 the
    Gram-Schmidt factors of svd_tight, with R and Q in planar storage (see
    zak), each block entry a contiguous (c, d) plane after the leading axes.
    A row norm that overflows is inf; at p = q = 1 Q is a phase.  Returns
    (blocks, None) at p > 2, where numpy's batched QR would cost more than
    the split saves."""
    p = blocks.shape[-2]
    if p > 2:
        return blocks, None
    with np.errstate(over="ignore"):
        if p == 1:
            r = _row_norms(blocks)
            return r, _unit_rows(blocks, r)
        planes = np.array(np.moveaxis(blocks, (-2, -1), (-4, -3)), order="C")
        x = np.moveaxis(planes, (-4, -3), (-2, -1))
        r11, t, r22 = _gram_schmidt_2xq(x)
    R = np.zeros_like(x, shape=x.shape[:-1] + (2,))
    R[..., 0, 0], R[..., 1, 0], R[..., 1, 1] = r11[..., 0], t[..., 0], r22[..., 0]
    return R, x


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norms (..., 1) of the rows of (..., q) x by q - 1 whole-plane hypot
    calls, left to right: the bits of np.hypot.reduce along the row, which
    costs about 0.1 us a row on a short trailing axis."""
    s = np.abs(x[..., :1])
    for l in range(1, x.shape[-1]):
        np.hypot(s, np.abs(x[..., l:l + 1]), out=s)
    return s


def _unit_scaled(blocks: np.ndarray) -> np.ndarray:
    """blocks over the power of two that takes their largest part into
    [1/2, 1): exact, and clear of subnormals where the rank test passes."""
    x = np.ascontiguousarray(blocks).view(float)
    return np.ldexp(x, -np.frexp(max(x.max(), -x.min()))[1]).view(complex)


def cholesky_solve_blocks(op_blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A X = B per block for Hermitian positive definite A
    (Cholesky factorization A = L L* followed by two substitutions).

    The factorization finishes one column of L in every block at once,
    from the lower triangle of A, and so does each substitution step with
    one row of X, so no step makes a per-block LAPACK call.  L keeps a real
    diagonal l_jj, the root of Re a_jj - sum_k |l_jk|^2, so both
    substitutions divide by reals (see zak._over).  A pivot that is not
    positive, or is NaN, raises NotAFrameError.  The input dtype and layout
    are kept.
    """
    p = op_blocks.shape[-1]
    # L strictly below its diagonal: columns 0 .. p-2, none at p = 1
    low = np.empty_like(op_blocks, shape=op_blocks.shape[:-1] + (p - 1,))
    diag = []  # l_jj
    for j in range(p):
        row = low[..., j, :j]
        pivot = op_blocks[..., j, j].real
        if j:
            pivot = pivot - (row.real ** 2 + row.imag ** 2).sum(axis=-1)
        if not (pivot > 0).all():
            raise NotAFrameError("not a frame: frame operator block not positive definite")
        diag.append(np.sqrt(pivot)[..., None])
        if j < p - 1:
            col = op_blocks[..., j + 1:, j]
            for k in range(j):
                col = col - low[..., j + 1:, k] * row[..., k, None].conj()
            np.multiply(col, 1 / diag[j], out=low[..., j + 1:, j])
    x = np.array(rhs, dtype=np.result_type(op_blocks, rhs))
    for j in range(p):  # L Y = B
        _over(x[..., j, :], diag[j], out=x[..., j, :])
        if j < p - 1:
            x[..., j + 1:, :] -= low[..., j + 1:, j, None] * x[..., j, None, :]
    for j in reversed(range(p)):  # L* X = Y
        _over(x[..., j, :], diag[j], out=x[..., j, :])
        if j:
            x[..., :j, :] -= low[..., j, :j, None].conj() * x[..., j, None, :]
    return x


def inv_dual(fac: ZakFactorization) -> ZakFactorization:
    """Canonical dual window: per-block Hermitian solve A X = Phi."""
    A = block_gram(fac, fac)
    _require_frame(frame_bounds(A))
    return ZakFactorization(fac.lattice, cholesky_solve_blocks(A.blocks, fac.blocks))
