"""Dense synthesis-operator oracle and the scalar singular-value view.

The synthesis matrix O_g holds all lattice shifts of g as columns; its
SVD gives ground-truth canonical windows (polar decomposition and
pseudo-inverse), and every iteration acts as a scalar recursion on its
singular values: scalar_iteration runs the block iteration loop of
iterations.run on 1 x 1 blocks with Gram sigma^2, so the step rules and
scalings live in iterations alone.  Dense work is guarded to L <= 2048;
the block path has no such limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotAFrameError
from .iterations import IterationConfig, _iterate, _prescale
from .lattice import GaborLattice, tf_shift

__all__ = [
    "DENSE_SIZE_GUARD",
    "SynthesisMatrix",
    "synthesis_matrix",
    "reference_tight",
    "reference_dual",
    "normalized_singular_values",
    "scalar_iteration",
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


def _thin_svd(g: np.ndarray, lattice: GaborLattice):
    O = synthesis_matrix(g, lattice).entries
    U, s, Vh = np.linalg.svd(O, full_matrices=False)
    if s.min() < _RANK_TOL * s.max():
        raise NotAFrameError("numerically not a frame")
    return U, s, Vh


def reference_tight(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Ground-truth canonical tight window from the dense polar part U V*
    (the zero-shift column of the tight synthesis matrix is the window)."""
    U, _, Vh = _thin_svd(g, lattice)
    return U @ Vh[:, 0]


def reference_dual(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Ground-truth canonical dual window (O_g O_g*)^(-1) g via the SVD."""
    U, s, _ = _thin_svd(g, lattice)
    return U @ ((U.conj().T @ np.asarray(g, dtype=complex)) / s**2)


def normalized_singular_values(g: np.ndarray, lattice: GaborLattice) -> np.ndarray:
    """Singular values of the unit-column synthesis matrix, sigma / sqrt(MN).

    In these units the norm-scaled scalar recursion tracks the full block
    iteration step for step.
    """
    O = synthesis_matrix(g, lattice).entries
    return np.linalg.svd(O, compute_uv=False) / np.sqrt(lattice.M * lattice.N)


def _scalar_gram(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X * Y.conj()


def scalar_iteration(sigmas: np.ndarray, config: IterationConfig,
                     steps: int | None = None) -> np.ndarray:
    """Run an iteration as a scalar recursion on singular values.

    This is the block iteration of ``run`` on 1 x 1 blocks: sigma viewed as
    (n, 1, 1, 1) blocks with Gram sigma^2, for exactly ``steps`` steps
    (default ``config.max_steps``).  Returns the (steps+1, n) trace of sigma
    vectors; a run that diverges (an iterand whose norm is not finite) is
    frozen at the iterand before.  Norm
    scaling is scale-invariant in the input; for initial scaling pass raw
    singular values (so sigma^2 is the frame-operator spectrum) and an
    explicit Bhat.  Computations stay in the input dtype, so longdouble
    input gives an extended-precision trace.
    """
    if config.scaling == "initial" and config.Bhat is None:
        raise ValueError("initial scaling of a scalar run needs an explicit Bhat")
    steps = config.max_steps if steps is None else steps
    config = replace(config, stop_mode="fixed", max_steps=steps, tol=None)
    sig = _prescale(np.asarray(sigmas).reshape(-1, 1, 1, 1), config, _scalar_gram,
                    config.Bhat)
    # fixed steps stop early only on a non-finite iterand: freeze at the last one
    trace = [blocks.reshape(-1) for blocks in _iterate(sig, config, _scalar_gram)[0]]
    return np.array(trace + trace[-1:] * (steps + 1 - len(trace)))
