"""Test-window generators: periodized Gaussian, hyperbolic secant, and the
frame-breaking MONSTER window.

The Gaussian and sech windows are sampled at l / sqrt(L) and periodized
with period sqrt(L); both families are unit-norm and map to themselves
under the unitary DFT with w -> 1/w.  The MONSTER window is built on the
Zak block factorization, from the eigenpairs of the Gaussian's Gram
blocks, so it has no dense frame operator and no limit on L.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAFrameError
from .lattice import GaborLattice
from .zak import ZakFactorization, block_gram, factorize, unfactorize

__all__ = ["gaussian_window", "sech_window", "monster_window"]

_TAIL = 1e-20
_MAX_SHELLS = 1000  # the widest golden input, sech of w = 40 at L = 216, needs 7


def _periodize(L: int, w: float, term) -> np.ndarray:
    """Sum term(t_l - k sqrt(L)) over k until the next shell drops below
    the truncation tail (terms decay at least exponentially, monotonically
    in |t|); a ValueError if shell _MAX_SHELLS, at its sample nearest 0, would not."""
    t = np.arange(L) / np.sqrt(L)
    if term(t[-1:] - _MAX_SHELLS * np.sqrt(L), w)[0] >= _TAIL:
        raise ValueError(f"width w = {w} needs more than {_MAX_SHELLS} periodization "
                         f"shells at L = {L}")
    total = term(t, w)
    k = 1
    while True:
        shell = term(t - k * np.sqrt(L), w) + term(t + k * np.sqrt(L), w)
        if shell.max() < _TAIL:
            break
        total += shell
        k += 1
    return total


def gaussian_window(L: int, w: float = 1.0) -> np.ndarray:
    """Sampled-periodized dilated Gaussian, unit norm, even about sample 0."""
    if not 0 < w < np.inf:  # a non-finite w would periodize forever
        raise ValueError(f"width w must be positive and finite, got {w}")
    with np.errstate(over="ignore"):  # at tiny w t^2 / w overflows: exp(-inf) is the tail's 0
        vals = _periodize(L, w, lambda t, w: np.exp(-np.pi * t * t / w))
    return (w * L / 2.0) ** (-0.25) * vals


def _sech(x: np.ndarray) -> np.ndarray:
    # 2 e^{-|x|} / (1 + e^{-2|x|}) avoids cosh overflow
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def sech_window(L: int, w: float = 1.0) -> np.ndarray:
    """Sampled-periodized dilated hyperbolic secant, unit norm, even."""
    if not 0 < w < np.inf:  # a non-finite w would periodize forever
        raise ValueError(f"width w must be positive and finite, got {w}")
    vals = _periodize(L, w, lambda t, w: _sech(np.pi * t / np.sqrt(w)))
    return np.sqrt(np.pi / 2.0) * (w * L) ** (-0.25) * vals


def _reflect(u: np.ndarray) -> np.ndarray:
    return u[(-np.arange(len(u))) % len(u)]


def _remove_phase(u: np.ndarray) -> np.ndarray:
    s = np.sum(u * u)
    if np.abs(s) < 1e-14:
        return u
    return u * np.exp(-0.5j * np.angle(s))


def _symmetry_score(v: np.ndarray) -> float:
    return 1.0 - np.linalg.norm(v - _reflect(v)) / np.linalg.norm(v)


def monster_window(lattice: GaborLattice, sigma_real: float = 6.0) -> np.ndarray:
    """Gaussian with one symmetric-eigenvector singular value inflated.

    The frame operator S of the Gaussian is block-diagonal on the Zak
    factorization G: one batched eigh of the c x d Gram blocks gives its
    spectrum, and each block eigenpair (lam, u) spans a q-dimensional
    eigenspace of S, so every eigenvalue has multiplicity >= q.  Block
    eigenvalues within 1e-10 lam_max of their neighbour form one group; the
    projection of the Gaussian onto a group's eigenspace is the
    unfactorized U (mask U* G).  Walking the groups from the top, the first
    projection that is nonzero and real and even up to a global phase
    gives the direction v; the window is modified along v so that the
    whole group's synthesis-matrix singular value becomes exactly
    ``sigma_real`` while all others are untouched.
    """
    if not (np.isfinite(sigma_real) and sigma_real > 0):
        raise ValueError("monster singular value must be positive and finite, "
                         f"got {sigma_real}")
    largest = np.sqrt(np.finfo(float).max / lattice.L)  # above it the Gram overflows
    if sigma_real > largest:
        raise ValueError(f"monster singular value {sigma_real} overflows: above "
                         f"sqrt(max float / L) = {largest:.17g} at L = {lattice.L}")
    g = gaussian_window(lattice.L).astype(complex)
    G = factorize(g, lattice)
    lam, U = np.linalg.eigh(block_gram(G, G).blocks)
    ordered = np.sort(lam, axis=None)
    if ordered[0] <= 1e-13 * ordered[-1]:
        raise NotAFrameError("Gaussian system on this lattice is not a frame")

    # group numerically equal eigenvalues (relative tolerance 1e-10)
    tops = np.append(np.flatnonzero(np.diff(ordered) > 1e-10 * ordered[-1]),
                     len(ordered) - 1)
    bottoms = np.append(0, tops[:-1] + 1)
    coeffs = np.swapaxes(U.conj(), -1, -2) @ G.blocks
    for lo, hi in zip(ordered[bottoms[::-1]], ordered[tops[::-1]]):
        mask = (lam >= lo) & (lam <= hi)
        proj = unfactorize(ZakFactorization(lattice, U @ (mask[..., None] * coeffs)))
        nrm = np.linalg.norm(proj)
        if nrm < 1e-8:
            continue
        v = _remove_phase(proj / nrm)
        if _symmetry_score(v) > 0.99:
            break
    else:
        raise ValueError("no sufficiently real and symmetric eigenvector found")

    v = np.real(v)
    v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    sigma_j = np.sqrt(hi)
    lam_coef = sigma_real / sigma_j - 1.0
    return np.real(g + lam_coef * np.dot(v, np.real(g)) * v)
