"""Finite discrete Zak transform and the block factorization of C^L.

The factorization maps a signal to a c x d grid of p x q complex matrices of
Zak samples Z_a f(r + k M, s + l d), k < p, l < q.  It is unitary (block
Frobenius norm equals the signal 2-norm), and the frame operator of (g, a, b)
acts on it blockwise: with A = block_gram(G, G), factorize(S f) = A @
factorize(f) block by block, so frame bounds are a batch of p x p Hermitian
eigensolves.  At p <= 2 those are closed forms over the whole batch, with no
per-block LAPACK call: a 1 x 1 block is its own eigenvalue, and a 2 x 2 block
[[a, b], [c, d]], first scaled by a power of two (exact) so that products
of its entries neither overflow nor underflow, has the Hermitian-part
eigenvalues m -+ hypot((a - d)/2, |(b + conj c)/2|), m = (a + d)/2, and the
general eigenvalues m +- sqrt(((a - d)/2)^2 + b c), the root of larger
modulus taken first and the other as det over it.  At p >= 3 LAPACK runs.
As a = p c and M = q c, (r + k M) // a = floor(k q / p) and
(r + k M) % a = r + c m[k] with m = q arange(p) % p for every r < c: the
blocks are the (a, N) Zak grid viewed as (p, c, q, d), times a (p, 1, q, d)
twiddle shared by the c rows of a row block, with its p row blocks permuted
by m and transposed.  No call builds an L-sized index or twiddle array.
Gram blocks and block products are sums of whole (c, d)-plane products,
entry by entry, at p <= 2.  Their outputs follow the layout of their block
input, and on planar storage, (p, q, ..., c, d) in memory as the run loop
keeps it at p = 2, each plane X[..., k, l] is contiguous; the values do not
depend on the layout.  At p >= 3 einsum computes them, because the p^2 q
ufunc calls would cost more at small c d, and because numpy's complex
multiply fuses its products (FMA) where einsum's loop does not, so einsum
keeps every p >= 3 output bit for bit.  A factorization holds its Gram
A^{g,g}: block_gram(G, G) computes it on first read and returns the same
operator after, so frame bounds and the direct methods of one
factorization share one Gram, and its eigenvalues, held by the Gram.  One
rule says what is numerically a frame: SpectralSummary.is_frame."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import NotAFrameError
from .lattice import GaborLattice

__all__ = [
    "ZakFactorization",
    "BlockOperator",
    "SpectralSummary",
    "dzt",
    "zak_extend",
    "factorize",
    "unfactorize",
    "block_gram",
    "apply_block_operator",
    "frame_bounds",
]

# a lower bound at or below this share of the upper one is no frame
_RANK_TOL = 1e-13


def dzt(h: np.ndarray, K: int) -> np.ndarray:
    """Finite discrete Zak transform on the fundamental domain.

    Returns the (K, L/K) grid
    (Z_K h)(r, s) = sqrt(K/L) * sum_l h(r - l K) exp(2 pi i s l K / L),
    computed as K inverse FFTs of length L/K.  Unitary onto the grid.
    """
    L = len(h)
    if K <= 0 or L % K != 0:
        raise ValueError(f"K={K} must divide the signal length L={L}")
    J = L // K
    # h(r - l K) is row -l mod J of h viewed as (J, K): row 0, then J-1 .. 1
    rows = np.asarray(h).reshape(J, K)
    x = np.empty((K, J), dtype=complex)
    x[:, 0] = rows[0]
    x[:, 1:] = rows[:0:-1].T
    np.fft.ifft(x, axis=1, out=x)
    return np.multiply(np.sqrt(K / L) * J, x, out=x)


def zak_extend(grid: np.ndarray, r, s) -> np.ndarray:
    """Evaluate a dzt grid at arbitrary integer (r, s) via quasi-periodicity.

    (Z_K h)(r + k K, s) = exp(2 pi i k s K / L) (Z_K h)(r, s), and the grid
    is L/K-periodic in s.  Accepts scalars or broadcastable index arrays.
    """
    K, J = grid.shape
    r = np.asarray(r)
    s = np.asarray(s)
    wraps = r // K
    phase = np.exp(2j * np.pi * wraps * s / J)
    return phase * grid[r % K, s % J]


@dataclass(frozen=True)
class ZakFactorization:
    """c x d grid of p x q blocks sampled from the Zak transform.

    ``blocks`` has shape (c, d, p, q); the map signal -> blocks is unitary.
    Immutable: the array is marked read-only after construction, so the
    Gram computed from it on first read (``_gram``) stays valid and is held.
    """

    lattice: GaborLattice
    blocks: np.ndarray

    def __post_init__(self):
        lt = self.lattice
        if self.blocks.shape != (lt.c, lt.d, lt.p, lt.q):
            raise ValueError(
                f"blocks shape {self.blocks.shape} does not match lattice "
                f"({lt.c}, {lt.d}, {lt.p}, {lt.q})"
            )
        self.blocks.flags.writeable = False

    @cached_property
    def _gram(self) -> BlockOperator:
        return BlockOperator(self.lattice, _gram_blocks(self.blocks, self.blocks))


@dataclass(frozen=True)
class BlockOperator:
    """c x d grid of p x p read-only blocks of an operator commuting with the
    lattice shifts (e.g. a frame operator); it holds their eigenvalues."""

    lattice: GaborLattice
    blocks: np.ndarray

    def __post_init__(self):
        lt = self.lattice
        if self.blocks.shape != (lt.c, lt.d, lt.p, lt.p):
            raise ValueError("blocks shape does not match lattice")
        self.blocks.flags.writeable = False

    @cached_property
    def _eigvals(self) -> np.ndarray:
        return _hermitian_eigvals(self.blocks)


@dataclass(frozen=True)
class SpectralSummary:
    """Extremal spectral values of a block operator.

    ``lower``/``upper`` are the min/max over all blocks; for frame operators
    these are the best frame bounds (A, B), for the mixed dual-iteration
    operator they are the Z-bounds (E, F).
    """

    lower: float
    upper: float
    max_imag_ratio: float = field(default=0.0)

    @property
    def ratio(self) -> float:
        """upper / lower, or inf when not is_frame."""
        return self.upper / self.lower if self.is_frame else np.inf

    @property
    def is_frame(self) -> bool:
        """Whether lower > _RANK_TOL upper: the package's one rule of what
        is numerically a frame (see _require_frame)."""
        return self.lower > _RANK_TOL * self.upper


def _extremes(values: np.ndarray) -> SpectralSummary:
    """Least and largest of values: Gram eigenvalues or squared singular values."""
    return SpectralSummary(lower=float(values.min()), upper=float(values.max()))


def _require_frame(summary: SpectralSummary) -> SpectralSummary:
    """summary, or NotAFrameError unless it is_frame."""
    if not summary.is_frame:
        raise NotAFrameError("not a frame: frame operator numerically singular")
    return summary


@lru_cache(maxsize=16)
def _plan(lattice: GaborLattice) -> tuple[np.ndarray, ...]:
    """Read-only per-lattice constants: the row-block permutation m, its
    inverse, and the forward and inverse twiddles exp(+-2 pi i w (l d + s) / N)
    on the grid viewed as (p, c, q, d), where row block m[k] wraps floor(kq/p)."""
    lt = lattice
    m = np.arange(lt.p) * lt.q % lt.p
    inv = np.argsort(m)
    wraps = (inv * lt.q // lt.p)[:, None, None, None]
    ss = np.arange(lt.N).reshape(lt.q, lt.d)
    plan = (m, inv, *(np.exp(sign * 2j * np.pi * wraps * ss / lt.N)
                      for sign in (1, -1)))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def factorize(f: np.ndarray, lattice: GaborLattice) -> ZakFactorization:
    """Assemble the unitary block factorization of a length-L signal.

    Blocks are dzt(f, a) samples at (r + k M, s + l d) with the
    quasi-periodic extension applied in the first index.  A non-finite
    sample raises ValueError.
    """
    lt = lattice
    f = np.asarray(f, dtype=complex)
    if len(f) != lt.L:
        raise ValueError(f"signal length {len(f)} != L = {lt.L}")
    if not np.isfinite(f).all():
        i = int(np.argmin(np.isfinite(f)))
        raise ValueError(f"signal sample f[{i}] = {f[i]} is not finite")
    _, inv, tw, _ = _plan(lt)
    grid = dzt(f, lt.a).reshape(lt.p, lt.c, lt.q, lt.d)
    np.multiply(tw, grid, out=grid)
    blocks = np.empty((lt.c, lt.d, lt.p, lt.q), dtype=complex)
    blocks.transpose(2, 0, 3, 1)[inv] = grid
    return ZakFactorization(lt, blocks)


def unfactorize(fac: ZakFactorization) -> np.ndarray:
    """Invert factorize (exact up to rounding)."""
    lt = fac.lattice
    J = lt.N
    m, _, _, tw = _plan(lt)
    grid = np.empty((lt.p, lt.c, lt.q, lt.d), dtype=complex)
    grid[m] = fac.blocks.transpose(2, 0, 3, 1)
    np.multiply(tw, grid, out=grid)
    x = grid.reshape(lt.a, J)
    np.fft.fft(x, axis=1, out=x)
    _over(x, np.sqrt(lt.a / lt.L) * J, out=x)
    # undo the dzt gather: column l of x is row -l mod J of f viewed as (J, a)
    f = np.empty((J, lt.a), dtype=complex)
    f[0] = x[:, 0]
    f[1:] = x[:, :0:-1].T
    return f.reshape(lt.L)


def _gram_blocks(X: np.ndarray, Y: np.ndarray, q: int | None = None) -> np.ndarray:
    """Gram blocks cdq X Y* (..., c, d, p, p) of (..., c, d, p, q) blocks, in
    the input dtype; leading axes are a batch.  q is the lattice's, which is
    the block shape's unless X and Y are the p x p factors R of blocks R Q
    with orthonormal rows Q (see iterations).  At p <= 2 entry (k, m) is the
    sum of X[..., k, l] conj(Y[..., m, l]) over the (c, d) plane, added up in
    its plane of the output; when X is Y the diagonal is sums of squares,
    every row at once, and the lower triangle the conjugate of the upper, so
    A is exactly Hermitian.  A is stored in the layout of X: planar X gives
    planar A.  At p >= 3 einsum runs: p^2 q ufunc calls cost more at small
    c d, and its unfused products keep the bits."""
    # cdq restores the frame-operator normalization on unitary factorizations
    c, d, p, cols = X.shape[-4:]
    cdq = c * d * (cols if q is None else q)
    if p > 2:
        return cdq * np.einsum("...kl,...ml->...km", X, Y.conj())
    herm = X is Y
    out = np.empty_like(X, dtype=np.result_type(X, Y), shape=X.shape[:-2] + (p, p))
    if herm:  # the diagonal from squares: a fused x conj(x) would not be exactly real
        squares = X.real ** 2 + X.imag ** 2
        diag = squares[..., 0]
        for l in range(1, cols):
            diag = diag + squares[..., l]
        for k in range(p):
            out[..., k, k] = diag[..., k]
    for k in range(p):
        for m in range(k + 1 if herm else 0, p):
            acc = np.multiply(X[..., k, 0], Y[..., m, 0].conj(), out=out[..., k, m])
            for l in range(1, cols):
                acc += X[..., k, l] * Y[..., m, l].conj()
            if herm:
                np.conjugate(acc, out=out[..., m, k])
    return np.multiply(out, cdq, out=out)


def _block_product(op: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Blockwise products op X of (..., p, p) and (..., p, q) blocks.  At
    p <= 2 each entry is the p-term sum of op[..., k, m] X[..., m, l] over
    the (c, d) plane, accumulated in place in the input dtype and stored in
    the layout of X; at p >= 3 einsum runs (see _gram_blocks)."""
    p, q = X.shape[-2:]
    if p > 2:
        return np.einsum("...km,...ml->...kl", op, X)
    out = np.empty_like(X, dtype=np.result_type(op, X))
    for k in range(p):
        for l in range(q):
            acc = np.multiply(op[..., k, 0], X[..., 0, l], out=out[..., k, l])
            for m in range(1, p):
                acc += op[..., k, m] * X[..., m, l]
    return out


def block_gram(fac_f: ZakFactorization, fac_h: ZakFactorization) -> BlockOperator:
    """Blockwise Gram products representing the frame-type operator S_{h,f}.

    block_gram(G, G) represents the frame operator of g:
    apply_block_operator(block_gram(G, G), F) == factorize(S f).  It is
    computed once per factorization G and held (see ZakFactorization).
    """
    if fac_f.lattice != fac_h.lattice:
        raise ValueError("lattice mismatch")
    if fac_f is fac_h:
        return fac_f._gram
    return BlockOperator(fac_f.lattice, _gram_blocks(fac_f.blocks, fac_h.blocks))


def apply_block_operator(op: BlockOperator, fac: ZakFactorization) -> ZakFactorization:
    """Blockwise matrix product: (A Phi)_{r,s} = A_{r,s} Phi_{r,s}."""
    if op.lattice != fac.lattice:
        raise ValueError("lattice mismatch")
    return ZakFactorization(fac.lattice, _block_product(op.blocks, fac.blocks))


def _over(X: np.ndarray, s, out=None) -> np.ndarray:
    """X / s for real s, into out if given, else into a new array in the
    layout of X (an s that broadcasts, one value a member of a stack,
    would make numpy write it in C order).  numpy divides complex by real
    as (re + im 0) (1 / s), (im - re 0) (1 / s), so complex X takes the
    product with 1 / s: the quotient's value at a fraction of its cost, and
    its bits wherever a part is finite and nonzero.  The sign of an exact
    zero part can differ: complex(-0.0, 1) / 3 has real part +0.0, while
    the product keeps -0.0.  Real X is divided, since x (1 / s) can differ
    from x / s by an ulp."""
    if out is None and isinstance(s, np.ndarray):
        out = np.empty_like(X, dtype=np.result_type(X, s))
    if np.iscomplexobj(X):
        return np.multiply(X, 1 / s, out=out)
    return np.divide(X, s, out=out)


def hermitian_part(blocks: np.ndarray) -> np.ndarray:
    return 0.5 * (blocks + np.conj(np.swapaxes(blocks, -2, -1)))


def _scaled_2x2(blocks: np.ndarray):
    """Entries a, b, c, d of 2 x 2 blocks [[a, b], [c, d]], each block divided
    by the power of two 2^e that takes its largest real or imaginary part
    into [1/2, 1), and e.  The scaling is exact, and products of scaled
    entries neither overflow nor lose digits to underflow."""
    parts = np.ascontiguousarray(blocks, dtype=complex).view(float)
    # the 8 parts as rows, halved pairwise: a reduction along a short
    # trailing axis costs about 0.1 us a block
    big = np.abs(parts.reshape(-1, 8).T, order="C")
    for half in (4, 2, 1):
        big = np.maximum(big[:half], big[half:])
    _, e = np.frexp(big[0].reshape(parts.shape[:-2]))
    x = np.ldexp(parts, -e[..., None, None]).view(complex)
    return x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1], e


def _hermitian_eigvals(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., p) of the Hermitian parts of (..., p, p)
    blocks.  p = 1: the real part; p = 2: m -+ hypot((a - d)/2, |b|) with
    m = (a + d)/2 and b the off-diagonal of the Hermitian part, on the
    scaled block; p >= 3: LAPACK."""
    p = blocks.shape[-1]
    if p == 1:
        return blocks.real[..., 0]
    if p > 2:
        return np.linalg.eigvalsh(hermitian_part(blocks))
    a, b, c, d, e = _scaled_2x2(blocks)
    m = 0.5 * (a.real + d.real)
    r = np.hypot(0.5 * (a.real - d.real), np.abs(0.5 * (b + c.conj())))
    return np.ldexp(np.stack((m - r, m + r), axis=-1), e[..., None])


def _eigvals(blocks: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., p) of general (..., p, p) blocks.  p = 1: the block;
    p = 2: the root m +- sqrt(((a - d)/2)^2 + b c) of larger modulus, then
    det / that root, so neither cancels, on the scaled block; p >= 3:
    LAPACK."""
    p = blocks.shape[-1]
    if p == 1:
        return blocks[..., 0]
    if p > 2:
        return np.linalg.eigvals(blocks)
    a, b, c, d, e = _scaled_2x2(blocks)
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    s = np.sqrt(h * h + b * c)
    s = np.where(m.real * s.real + m.imag * s.imag < 0, -s, s)
    big = m + s
    # big = 0 only when m = s = 0, and then both eigenvalues are 0
    small = np.divide(a * d - b * c, big, out=np.zeros_like(big), where=big != 0)
    ev = np.stack((big, small), axis=-1)
    return np.ldexp(ev.view(float), e[..., None]).view(complex)


def frame_bounds(op: BlockOperator) -> SpectralSummary:
    """Best frame bounds (A, B) from the block eigenvalues.

    The eigenvalues are those of the Hermitian parts of the blocks: in closed
    form at p <= 2 (the block itself at p = 1, m -+ hypot((a - d)/2, |b|) on
    the block scaled by a power of two at p = 2), from LAPACK at p >= 3,
    solved once per operator and held.  A system that is not numerically a
    frame is reported through SpectralSummary.is_frame rather than raised.
    """
    return _extremes(op._eigvals)
