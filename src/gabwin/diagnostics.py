"""Error measures: adjoint-lattice correlations, dual lattice norms,
Wexler-Raz residual, Kantorovich-type window bounds, Z-operator bounds,
and convergence-order estimation.  Every rule that turns Zak blocks into a
reported number lives here: the spectrum by target, the correlations of
unit-norm windows and the canonical report.

The adjoint lattice of (a, b) on C^L consists of the shifts
(j * L/b, l * L/a), j in [0, b), l in [0, a).  All correlation sums carry
the constant L/(a*b) of the dual lattice representation of frame-type
operators, calibrated so that the Wexler-Raz diagonal is exactly 1 and a
canonical tight window has upper-bound estimate exactly 1.
"""

from __future__ import annotations

import warnings

import numpy as np

from .lattice import GaborLattice
from .zak import (BlockOperator, SpectralSummary, ZakFactorization, _eigvals, _extremes,
                  _gram_blocks, _hermitian_eigvals, factorize, frame_bounds)

__all__ = [
    "adjoint_correlations",
    "dual_lattice_norm_tight",
    "dual_lattice_norm_dual",
    "wexler_raz_residual",
    "kantorovich_bound_tight",
    "kantorovich_bound_dual",
    "z_bounds",
    "convergence_order",
]


def _gram_correlations(A: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Adjoint correlations from the Gram blocks A = _gram_blocks(F, H).

    One FFT over the d axis of A, a gather into the (b, a) grid at columns
    r0 + c ((k q) mod p), which cover every residue mod a because
    gcd(p, q) = 1, and one length-a FFT per row.
    """
    lt = lattice
    Ahat = np.fft.fft(A, axis=1)
    k = np.arange(lt.p)
    k_j = k - np.arange(lt.b)[:, None]
    # gathered[r0, j, k] = Ahat[r0, t mod d, k, (k - j) mod p]
    gathered = Ahat[:, (k_j // lt.p) % lt.d, k, k_j % lt.p]
    rows = np.empty((lt.b, lt.a), dtype=complex)
    rows[:, np.arange(lt.c)[:, None] + lt.c * (k * lt.q % lt.p)] = \
        np.moveaxis(gathered, 0, 1)
    return (lt.p / (lt.a * lt.b)) * np.fft.fft(rows, axis=1)


def _off_origin_mass(c: np.ndarray) -> float:
    """Sum of |c[j, l]| off the origin.  The origin is zeroed: subtracting it
    from the total would round the sum to a multiple of ulp(|c[0, 0]|)."""
    c = np.abs(c)
    c[0, 0] = 0.0
    return float(c.sum())


def _unit_correlations(X: np.ndarray, Y: np.ndarray, lattice: GaborLattice,
                       A: np.ndarray | None = None) -> np.ndarray:
    """Adjoint correlations of the unit-norm windows whose Zak blocks are X
    and Y: those of their Gram blocks A (computed when not given), which are
    linear in A, over ||X|| ||Y||, or ||X||^2 when Y is X."""
    if A is None:
        A = _gram_blocks(X, Y)
    norm = np.linalg.norm(X)
    return _gram_correlations(A, lattice) / (norm ** 2 if Y is X else
                                             norm * np.linalg.norm(Y))


def _report(g_blocks: np.ndarray, gamma_blocks: np.ndarray, lattice: GaborLattice,
            target: str) -> tuple[SpectralSummary, float, float]:
    """Frame bounds of A^{gamma,gamma}, the dual lattice norm of unit-norm
    gamma (tight) or g, gamma (dual), and the Wexler-Raz residual, the
    largest deviation of the correlations from the diagonal 1: of unit-norm
    gamma with itself times the density (tight, blind to the scale of gamma,
    which the frame bounds show), of g with gamma as they are (dual, 1 only
    at the canonical dual's scale)."""
    A = _gram_blocks(gamma_blocks, gamma_blocks)
    if target == "tight":
        corr = _unit_correlations(gamma_blocks, gamma_blocks, lattice, A)
        dln = _off_origin_mass(corr)
        corr = corr * lattice.density
    else:
        corr = _gram_correlations(_gram_blocks(g_blocks, gamma_blocks), lattice)
        dln = _off_origin_mass(corr / (np.linalg.norm(g_blocks) * np.linalg.norm(gamma_blocks)))
    corr[0, 0] -= 1.0
    return frame_bounds(BlockOperator(lattice, A)), dln, float(np.abs(corr).max())


def adjoint_correlations(f: np.ndarray, h: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Scaled inner products of f against adjoint-lattice shifts of h.

    Returns the (b, a) array  c[j, l] = (L/(a b)) <f, h_{j M, l N}>  with
    <u, v> = sum u conj(v).  By the Janssen / Wexler-Raz representation
    these are a twiddled 2-D DFT of the Zak-domain Gram blocks
    A = block_gram(F, H).blocks:

        c[j, l] = (p/(a b)) sum_{r0<c, k<p} e^{-2 pi i l (r0 + k M)/a}
                  sum_{s0<d} e^{-2 pi i t s0/d} A[r0, s0, k, (k - j) mod p]

    with t = floor((k - j)/p), computed in O(c d p^2 log d + a b log a).
    """
    A = _gram_blocks(factorize(f, lattice).blocks, factorize(h, lattice).blocks)
    return _gram_correlations(A, lattice)


def dual_lattice_norm_tight(gamma: np.ndarray, lattice: GaborLattice) -> float:
    """Off-origin adjoint correlation mass of gamma against itself.

    Upper-bounds || S_gamma - (L/ab) ||gamma||^2 I || in operator norm and
    vanishes exactly at canonical tight windows (Wexler-Raz).
    """
    return _off_origin_mass(adjoint_correlations(gamma, gamma, lattice))


def dual_lattice_norm_dual(g: np.ndarray, gamma: np.ndarray, lattice: GaborLattice) -> float:
    """Off-origin cross-correlation mass of (g, gamma) on the adjoint lattice.

    Upper-bounds || Z - (L/ab) (g, gamma) I || and vanishes at the
    canonical dual pair.
    """
    return _off_origin_mass(adjoint_correlations(g, gamma, lattice))


def wexler_raz_residual(g: np.ndarray, gamma: np.ndarray, lattice: GaborLattice) -> float:
    """Max deviation of the scaled correlations from the biorthogonality
    pattern delta_{j0} delta_{l0} (diagonal constant 1 by calibration)."""
    c = adjoint_correlations(g, gamma, lattice)
    c[0, 0] -= 1.0
    return float(np.abs(c).max())


def kantorovich_bound_tight(Q: float) -> float:
    """Window-distance bound (1 - Q^(1/4)) sqrt(2/(1+Q)) for Q = A/B."""
    return (1.0 - Q ** 0.25) * np.sqrt(2.0 / (1.0 + Q))


def kantorovich_bound_dual(R: float) -> float:
    """Window-distance bound (1 - R^(1/2)) sqrt(2/(1+R)) for R = E/F."""
    return (1.0 - R ** 0.5) * np.sqrt(2.0 / (1.0 + R))


def _spectrum(A: np.ndarray, target: str) -> SpectralSummary:
    """Frame bounds (tight) or Z-bounds (dual) of the Gram blocks A.

    Z-bounds are the extremal eigenvalue moduli of the blocks, with the
    largest |imag| / |eig| kept in max_imag_ratio instead of warned about.
    Those blocks are not Hermitian.  At p <= 2 their eigenvalues are taken
    in closed form (the block itself at p = 1; at p = 2 the
    trace/determinant root of larger modulus and det over it, on the block
    scaled by a power of two), at p >= 3 from LAPACK.
    """
    if target == "tight":
        return _extremes(_hermitian_eigvals(A))
    ev = _eigvals(A)
    mod = np.abs(ev)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mod > 0, np.abs(ev.imag) / np.maximum(mod, 1e-300), 0.0)
    return SpectralSummary(lower=float(mod.min()), upper=float(mod.max()),
                           max_imag_ratio=float(ratios.max()))


def z_bounds(fac_g: ZakFactorization, fac_gamma: ZakFactorization) -> SpectralSummary:
    """Extremal spectrum of the operator Z = (S S_gamma)^(1/2).

    Z is represented blockwise by A^{g,gamma}; its eigenvalues are real when
    gamma lies in the functional-calculus orbit of g, which is checked: a
    warning is issued when |imag| / |eig| exceeds 1e-6.  Bounds are min/max
    eigenvalue modulus, so z_bounds(G, G) equals frame_bounds and the exact
    canonical dual gives (1, 1).
    """
    if fac_g.lattice != fac_gamma.lattice:
        raise ValueError("lattice mismatch")
    summary = _spectrum(_gram_blocks(fac_g.blocks, fac_gamma.blocks), "dual")
    if summary.max_imag_ratio > 1e-6:
        warnings.warn(
            f"Z-operator blocks have complex spectrum (imag ratio "
            f"{summary.max_imag_ratio:.2e}); "
            "iterand has left the functional-calculus orbit",
            stacklevel=2,
        )
    return summary


def convergence_order(errors, window=(1e-12, 1e-2)):
    """Least-squares slope of log e_{k+1} against log e_k.

    Only consecutive pairs with both errors inside ``window`` enter the fit
    (pre-asymptotic steps; floor values excluded).  Returns None when fewer
    than 2 pairs remain.
    """
    lo, hi = window
    errors = np.asarray(errors, dtype=float)
    pts = [
        (np.log(errors[k]), np.log(errors[k + 1]))
        for k in range(len(errors) - 1)
        if lo <= errors[k] <= hi and lo <= errors[k + 1] <= hi
    ]
    if len(pts) < 2:
        return None
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    dx = xs - xs.mean()
    return float((dx * (ys - ys.mean())).sum() / (dx * dx).sum())
