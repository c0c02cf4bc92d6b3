"""Dense synthesis operator and the fiber oracle.

The synthesis matrix O_g holds all lattice shifts of g as columns (guarded to
L <= DENSE_SIZE_GUARD).  Its rows in the residue class r mod M are
G_r (x) phi_r^T, with the b x N fiber G_r[j, n] = g(r + j M - n a) and
|phi_r|^2 = M (Walnut's representation), so S is block diagonal with blocks
M G_r G_r* on the samples r + j M.  One batched SVD G_r = U Sigma V* gives
the ground-truth windows there, U V* e_0 / sqrt(M) (tight) and
U Sigma^-1 V* e_0 / M (dual), and sigma(O) = sqrt(M) sigma(G_r), the
singular values that the tests' oracles take from _fibers.  The fibers
use no Zak transform and this module imports nothing of the package but its
lattice and errors, so they stay an independent oracle for the block
methods; they hold L N entries, guarded to L N <= DENSE_SIZE_GUARD^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFrameError
from .lattice import GaborLattice

__all__ = [
    "DENSE_SIZE_GUARD",
    "SynthesisMatrix",
    "synthesis_matrix",
    "reference_tight",
    "reference_dual",
]

DENSE_SIZE_GUARD = 2048
_RANK_TOL = 1e-13


@dataclass(frozen=True)
class SynthesisMatrix:
    """Dense L x (M N) synthesis operator; column m + n*M is the shift of
    g by (n*a, m*b)."""

    lattice: GaborLattice
    entries: np.ndarray

    def frame_operator(self) -> np.ndarray:
        return self.entries @ self.entries.conj().T


def synthesis_matrix(g: np.ndarray, lattice: GaborLattice) -> SynthesisMatrix:
    if lattice.L > DENSE_SIZE_GUARD:
        raise ValueError(
            f"dense size guard exceeded: L={lattice.L} > {DENSE_SIZE_GUARD}"
        )
    g = np.asarray(g, dtype=complex)
    if len(g) != lattice.L:
        raise ValueError("signal length does not match lattice")
    lt = lattice
    cols = np.arange(lt.M * lt.N)
    m, n = cols % lt.M, cols // lt.M
    l = np.arange(lt.L)[:, None]
    # modulation phases l m b mod L in exact integers, from one table of roots
    roots = np.exp(2j * np.pi * np.arange(lt.L) / lt.L)
    entries = roots[l * (m * lt.b)[None, :] % lt.L] * g[(l - (n * lt.a)[None, :]) % lt.L]
    return SynthesisMatrix(lattice=lt, entries=entries)


def _fibers(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """The (M, b, N) fiber stack G_r[j, n] = g(r + j M - n a)."""
    lt = lattice
    if lt.L * lt.N > DENSE_SIZE_GUARD**2:
        raise ValueError(f"fiber size guard exceeded: L*N={lt.L * lt.N} > "
                         f"{DENSE_SIZE_GUARD}^2={DENSE_SIZE_GUARD**2}")
    g = np.asarray(g, dtype=complex)
    if len(g) != lt.L:
        raise ValueError("signal length does not match lattice")
    r, j, n = np.ix_(np.arange(lt.M), np.arange(lt.b), np.arange(lt.N))
    return g[(r + j * lt.M - n * lt.a) % lt.L]


def _fiber_svd(g: np.ndarray, lattice: GaborLattice):
    U, s, Vh = np.linalg.svd(_fibers(g, lattice), full_matrices=False)
    unit = np.ldexp(s, -np.frexp(s.max())[1])  # exact: its squares cannot overflow
    if unit.min() ** 2 <= _RANK_TOL * unit.max() ** 2:  # zak's rule; a zero window is no frame
        raise NotAFrameError("numerically not a frame")
    return U, s, Vh


def _from_fibers(w: np.ndarray) -> np.ndarray:
    """The signal whose sample r + j M is w[r, j, 0]."""
    return w[..., 0].T.reshape(-1)


def reference_tight(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Ground-truth canonical tight window S^(-1/2) g, U V* e_0 / sqrt(M) on
    each fiber."""
    U, _, Vh = _fiber_svd(g, lattice)
    return _from_fibers(U @ Vh[..., :1]) / np.sqrt(lattice.M)


def reference_dual(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Ground-truth canonical dual window S^(-1) g, U Sigma^(-1) V* e_0 / M on
    each fiber."""
    U, s, Vh = _fiber_svd(g, lattice)
    return _from_fibers(U @ (Vh[..., :1] / s[..., None])) / lattice.M

