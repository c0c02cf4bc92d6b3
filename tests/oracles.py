"""Independent oracles used by the tests.

Everything here recomputes quantities from definitions (literal sums,
direct transforms, exact rational expansions) without going through the
library's fast paths.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np

from gabwin import NotAFrameError, gaussian_window, synthesis_matrix, zak_extend
from gabwin.iterations import (
    IterationConfig,
    dual_taylor_coeffs,
    optimal_scaling_constant,
    tight_taylor_coeffs,
)
from gabwin.scalarlab import Classification, _two_point_step_dual, _two_point_step_tight
from gabwin.windows import _remove_phase, _symmetry_score


def shift_mod(g, j, k):
    """Literal time-frequency shift from the definition."""
    L = len(g)
    out = np.empty(L, dtype=complex)
    for l in range(L):
        out[l] = np.exp(2j * np.pi * k * l / L) * g[(l - j) % L]
    return out


def literal_frame_operator(g, lattice, f):
    """S f computed as the literal double sum over all lattice shifts."""
    out = np.zeros(lattice.L, dtype=complex)
    for n in range(lattice.N):
        for m in range(lattice.M):
            gnm = shift_mod(g, n * lattice.a, m * lattice.b)
            out += np.vdot(gnm, f) * gnm
    return out


def adjoint_correlations_fft(f, h, lattice):
    """(L/(a b)) <f, h_{j M, l N}> row by row: one length-L FFT of
    f conj(h(. - j M)) per adjoint time shift j, sampled every N bins."""
    lt = lattice
    f = np.asarray(f, dtype=complex)
    h = np.asarray(h, dtype=complex)
    out = np.empty((lt.b, lt.a), dtype=complex)
    for j in range(lt.b):
        t = f * np.conj(np.roll(h, j * lt.M))
        out[j] = lt.L / (lt.a * lt.b) * np.fft.fft(t)[:: lt.N]
    return out


def dzt_direct(h, K, r, s):
    """Direct double-sum DZT value at arbitrary integers (r, s)."""
    L = len(h)
    J = L // K
    acc = 0.0 + 0.0j
    for l in range(J):
        acc += h[(r - l * K) % L] * np.exp(2j * np.pi * s * l * K / L)
    return np.sqrt(K / L) * acc


def dzt_indexed(h, K):
    """DZT through an L-sized index map: row r gathers h(r - l K), l < L/K."""
    L = len(h)
    J = L // K
    idx = (np.arange(K)[:, None] - np.arange(J)[None, :] * K) % L
    return np.sqrt(K / L) * J * np.fft.ifft(np.asarray(h)[idx], axis=1)


def block_indices(lattice):
    """Zak-grid coordinates (r + k M, s + l d) of every block entry."""
    lt = lattice
    r = np.arange(lt.c)[:, None, None, None]
    s = np.arange(lt.d)[None, :, None, None]
    k = np.arange(lt.p)[None, None, :, None]
    l = np.arange(lt.q)[None, None, None, :]
    return r + k * lt.M, s + l * lt.d


def factorize_indexed(f, lattice):
    """(c, d, p, q) blocks: dzt samples at block_indices, extended
    quasi-periodically in the first index."""
    grid = dzt_indexed(np.asarray(f, dtype=complex), lattice.a)
    rr, ss = block_indices(lattice)
    return zak_extend(grid, rr, ss)


def unfactorize_indexed(blocks, lattice):
    """Inverse of factorize_indexed: untwiddled scatter onto the Zak grid,
    forward FFTs, and a scatter through the DZT index map."""
    lt = lattice
    rr, ss = block_indices(lt)
    wraps = rr // lt.a
    grid = np.zeros((lt.a, lt.N), dtype=complex)
    grid[rr % lt.a, ss % lt.N] = np.exp(-2j * np.pi * wraps * ss / lt.N) * blocks
    J = lt.N
    x = np.fft.fft(grid, axis=1) / (np.sqrt(lt.a / lt.L) * J)
    f = np.empty(lt.L, dtype=complex)
    idx = (np.arange(lt.a)[:, None] - np.arange(J)[None, :] * lt.a) % lt.L
    f[idx] = x
    return f


def einsum_gram(X, Y, lattice):
    """Gram blocks cdq X Y* of (..., p, q) blocks by one einsum over all
    blocks, the kernel's form at p >= 3."""
    return lattice.c * lattice.d * lattice.q * np.einsum(
        "rskl,rsml->rskm", X, np.conj(Y))


def einsum_block_product(op, X):
    """Blockwise products op X by one einsum, the kernel's form at p >= 3."""
    return np.einsum("rskm,rsml->rskl", op, X)


def lapack_hermitian_eigvals(blocks):
    """Ascending eigenvalues of the Hermitian parts of (..., p, p) blocks,
    one LAPACK call per block."""
    blocks = np.asarray(blocks)
    return np.linalg.eigvalsh(0.5 * (blocks + np.conj(np.swapaxes(blocks, -2, -1))))


def lapack_eigvals(blocks):
    """Eigenvalues of general (..., p, p) blocks, one LAPACK call per block."""
    return np.linalg.eigvals(np.asarray(blocks))


def _csqrt(x, y):
    """Principal square root of x + i y in Decimal arithmetic."""
    r = (x * x + y * y).sqrt()
    if r == 0:
        return x, y
    if x >= 0:
        u = ((r + x) / 2).sqrt()
        return u, y / (2 * u)
    v = ((r - x) / 2).sqrt().copy_sign(y)
    return y / (2 * v), v


def decimal_eigvals_2x2(block, hermitian=False):
    """Both eigenvalues of one 2 x 2 block (of its Hermitian part if asked),
    the roots m +- sqrt(((a - d)/2)^2 + b c) of the characteristic
    polynomial evaluated in 60-digit decimal arithmetic, rounded to complex."""
    with localcontext() as ctx:
        ctx.prec = 60
        (a, b), (c, d) = [[(Decimal(float(np.real(z))), Decimal(float(np.imag(z))))
                           for z in row] for row in np.asarray(block, dtype=complex)]
        if hermitian:
            a, d = (a[0], Decimal(0)), (d[0], Decimal(0))
            b = ((b[0] + c[0]) / 2, (b[1] - c[1]) / 2)
            c = (b[0], -b[1])
        m = ((a[0] + d[0]) / 2, (a[1] + d[1]) / 2)
        h = ((a[0] - d[0]) / 2, (a[1] - d[1]) / 2)
        s = _csqrt(h[0] * h[0] - h[1] * h[1] + b[0] * c[0] - b[1] * c[1],
                   2 * h[0] * h[1] + b[0] * c[1] + b[1] * c[0])
        return np.array([complex(float(m[0] - s[0]), float(m[1] - s[1])),
                         complex(float(m[0] + s[0]), float(m[1] + s[1]))])


def dense_operator_norm(mat):
    return float(np.linalg.norm(mat, ord=2))


def taylor_inv_sqrt_coeffs(m):
    """Coefficients of the (m-1)-th Taylor polynomial of x^(-1/2) at 1,
    via the central-binomial form (2l choose l)/4^l of |binom(-1/2, l)|."""
    coeffs = [Fraction(0)] * m
    for l in range(m):
        w = Fraction(comb(2 * l, l), 4**l)
        for j in range(l + 1):
            coeffs[j] += w * comb(l, j) * (-1) ** j
    return coeffs


def taylor_inv_coeffs(m):
    """Coefficients of the geometric partial sum sum_{l<m} (1-x)^l."""
    coeffs = [Fraction(0)] * m
    for l in range(m):
        for j in range(l + 1):
            coeffs[j] += Fraction(comb(l, j) * (-1) ** j)
    return coeffs


def norm_error(x, ref):
    x = np.asarray(x)
    ref = np.asarray(ref)
    return float(np.linalg.norm(x / np.linalg.norm(x) - ref / np.linalg.norm(ref)))


def random_valid_lattice(rng, max_factor=5):
    """Sample (L, a, b) from random coprime (p, q), p <= q, and small c, d."""
    while True:
        p = int(rng.integers(1, max_factor))
        q = int(rng.integers(p, max_factor + 3))
        if np.gcd(p, q) == 1:
            break
    c = int(rng.integers(1, max_factor))
    d = int(rng.integers(1, max_factor))
    return c * d * p * q, p * c, p * d


def mpmath_polar_factor(block, dps=50):
    """Polar factor U Vh of one p x q block (p <= q) of full rank, as
    (Phi Phi*)^(-1/2) Phi in dps-digit arithmetic, rounded to complex."""
    import mpmath

    with mpmath.workdps(dps):
        phi = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in block])
        ev, Q = mpmath.eighe(phi * phi.H)
        root = Q * mpmath.diag([1 / mpmath.sqrt(e) for e in ev]) * Q.H
        return np.array((root * phi).tolist(), dtype=complex)



def reduce_polar_2xq(blocks):
    """Closed-form polar factor of full-rank (..., 2, q) blocks as
    canonical._polar_2xq computed it with each row norm one np.hypot.reduce
    along the row, without its rank tests."""
    x = np.ascontiguousarray(blocks).view(float)
    x = np.ldexp(x, -np.frexp(max(x.max(), -x.min()))[1]).view(complex)

    def norm(v):
        return np.hypot.reduce(np.abs(v), axis=-1, keepdims=True)

    phi1, phi2 = x[..., 0, :], x[..., 1, :]
    r11 = norm(phi1)
    e1 = phi1 / r11
    t = np.einsum("...i,...i->...", phi2, e1.conj())[..., None]
    y = phi2 - t * e1
    dt = np.einsum("...i,...i->...", y, e1.conj())[..., None]
    y, t = y - dt * e1, t + dt
    r22, at = norm(y), np.abs(t)
    h = np.hypot(r11 + r22, at)
    e2, s, t = y / r22, (r11 + r22) / h, t / h
    return np.stack([s * e1 - t.conj() * e2, t * e1 + s * e2], axis=-2)

# The scalar singular-value recursion with its own step rules of I-V and
# the four scalings, written on sigma vectors directly (scalar_iteration
# runs the block iteration loop on 1 x 1 blocks instead).

def _vec_norm(x: np.ndarray) -> float:
    return np.sqrt((x * x).sum())


def scalar_recursion(sigmas: np.ndarray, config: IterationConfig,
                     steps: int | None = None) -> np.ndarray:
    """Run an iteration as a scalar recursion on singular values.

    Returns the (steps+1, n) trace of sigma vectors.  Norm scaling is
    scale-invariant in the input; for initial scaling pass raw singular
    values (so sigma^2 is the frame-operator spectrum) and the configured
    Bhat prescale is applied once.  Computations stay in the input dtype,
    so longdouble input gives an extended-precision trace.
    """
    sig = np.array(sigmas, copy=True)
    dtype = sig.dtype
    steps = config.max_steps if steps is None else steps

    if config.scaling == "initial":
        if config.Bhat is None:
            raise ValueError("initial scaling of a scalar run needs an explicit Bhat")
        sig = sig / np.sqrt(dtype.type(config.Bhat))
    elif config.scaling == "initial_optimal":
        lo, hi = float((sig**2).min()), float((sig**2).max())
        sig = sig / np.sqrt(dtype.type(
            optimal_scaling_constant(lo, hi, config.algorithm_name)))

    sig0 = sig.copy()
    coeffs = None
    if not config.inverse:
        raw = (tight_taylor_coeffs(config.order) if config.target == "tight"
               else dual_taylor_coeffs(config.order))
        coeffs = raw.astype(dtype)

    norm_scaled = config.scaling == "norm"
    trace = [sig.copy()]
    for _ in range(steps):
        if config.scaling == "constant_optimal":
            if config.target == "tight":
                lo, hi = float((sig**2).min()), float((sig**2).max())
                const = optimal_scaling_constant(lo, hi, config.algorithm_name)
                sig = sig / np.sqrt(dtype.type(const))
            else:
                z = sig0 * sig
                const = optimal_scaling_constant(float(np.abs(z).min()),
                                                 float(np.abs(z).max()),
                                                 config.algorithm_name)
                sig = sig / dtype.type(const)

        with np.errstate(over="ignore", invalid="ignore"):
            if config.inverse:
                t0, t1 = sig, 1.0 / sig
                sig = 0.5 * t0 / _vec_norm(t0) + 0.5 * t1 / _vec_norm(t1)
            elif config.target == "tight":
                terms = [sig]
                for _j in range(config.order - 1):
                    terms.append(terms[-1] * sig * sig)
                if norm_scaled:
                    sig = sum(cf * T / _vec_norm(T) for cf, T in zip(coeffs, terms))
                else:
                    sig = sum(cf * T for cf, T in zip(coeffs, terms))
            else:
                zfac = sig0 * sig
                terms = [sig, sig * zfac]
                while len(terms) < config.order:
                    terms.append(terms[-2] * zfac * zfac)
                if norm_scaled:
                    sig = sum(cf * T / _vec_norm(T) for cf, T in zip(coeffs, terms))
                else:
                    sig = sum(cf * T for cf, T in zip(coeffs, terms))
        if not np.isfinite(sig).all():
            # diverged; freeze the trace at the last finite iterand
            trace.extend(trace[-1].copy() for _ in range(steps - len(trace) + 1))
            break
        trace.append(sig.copy())
    return np.array(trace)


def dense_references(g, lattice):
    """Canonical tight and dual windows and the unit-column singular values
    from one thin SVD O = U Sigma V* of the dense L x MN synthesis matrix
    (L <= 2048): U V* e_0, U Sigma^-2 U* g and sigma / sqrt(MN), in
    descending order.  Raises NotAFrameError when sigma_min^2 <= 1e-13 sigma_max^2,
    the package's rule on the frame operator's eigenvalues."""
    O = synthesis_matrix(g, lattice).entries
    U, s, Vh = np.linalg.svd(O, full_matrices=False)
    if s.min() ** 2 <= 1e-13 * s.max() ** 2:
        raise NotAFrameError("numerically not a frame")
    g = np.asarray(g, dtype=complex)
    return (U @ Vh[:, 0], U @ ((U.conj().T @ g) / s**2),
            s / np.sqrt(lattice.M * lattice.N))


def dense_monster_window(lattice, sigma_real=6.0):
    """The MONSTER window from the dense frame operator: its eigh on C^L,
    eigenvalues grouped at 1e-10 lam_max, the top real and even projection
    of the Gaussian inflated to sigma_real (L <= 2048, the dense guard)."""
    g = gaussian_window(lattice.L).astype(complex)
    S = synthesis_matrix(g, lattice).frame_operator()
    lam, vecs = np.linalg.eigh(S)
    if lam.min() <= 1e-13 * lam.max():
        raise NotAFrameError("Gaussian system on this lattice is not a frame")

    # group numerically equal eigenvalues (relative tolerance 1e-10)
    groups = []
    start = 0
    for i in range(1, lattice.L + 1):
        if i == lattice.L or lam[i] - lam[i - 1] > 1e-10 * lam[-1]:
            groups.append((start, i))
            start = i

    chosen = None
    for i0, i1 in groups:
        if i1 - i0 == 1:
            v = _remove_phase(vecs[:, i0])
        else:
            proj = vecs[:, i0:i1] @ (vecs[:, i0:i1].conj().T @ g)
            nrm = np.linalg.norm(proj)
            if nrm < 1e-8:
                continue
            v = _remove_phase(proj / nrm)
        if _symmetry_score(v) > 0.99 and (chosen is None or lam[i1 - 1] > chosen[0]):
            chosen = (lam[i1 - 1], v)

    if chosen is None:
        raise ValueError("no sufficiently real and symmetric eigenvector found")

    eigval, v = chosen
    v = np.real(v)
    v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    sigma_j = np.sqrt(eigval)
    lam_coef = sigma_real / sigma_j - 1.0
    return np.real(g + lam_coef * np.dot(v, np.real(g)) * v)


def scalar_two_point_norm_scaled(x: float, eps: float, algo: str = "II",
                                 steps: int = 500) -> Classification:
    """The two-point recursion of scalarlab on one Python float x, stopping
    at the first step past 1e12 or non-finite (x positive and finite, and
    not so large that its powers overflow a Python float)."""
    if algo not in ("II", "IV"):
        raise ValueError(f"unknown two-point algorithm {algo!r}")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    c, d = 1.0, float(x)
    hist = np.empty((steps + 1, 2))
    hist[0] = c, d
    for k in range(steps):
        if algo == "II":
            c, d = _two_point_step_tight(c, d, eps)
        else:
            c, d = _two_point_step_dual(c, d, x, eps)
        if not np.isfinite(c) or not np.isfinite(d) or max(abs(c), abs(d)) > 1e12:
            return Classification.UNBOUNDED
        hist[k + 1] = c, d

    # the analytic limits hold as eps -> 0; the actual fixed points sit
    # O(eps) away from them, hence the coarse tolerance
    tail = hist[-50:]
    tol = 0.05
    settled = np.abs(tail - tail[-1]).max() < 1e-3
    if settled and abs(c - 1) < tol:
        if algo == "IV" and abs(d - 1 / x) < tol:
            return Classification.INVERSE_LIMIT
        if abs(d - 1) < tol:
            return Classification.BOTH_TO_ONE
        if abs(d + 1) < tol:
            return Classification.SIGN_FLIP
    if (tail[:, 1] < 0).all():
        return Classification.NEGATIVE_D
    # bounded non-convergence; past sqrt(5) the norm scaling settles into a
    # large-amplitude sign-alternating oscillation
    return Classification.CHAOTIC


class DivergenceDetector:
    """The divergence rule of iterations._diverging, fed one relative step
    at a time: flags a run whose relative step grows beyond a 1.2x margin
    for 3 consecutive steps after having decreased at least once."""

    GROWTH_MARGIN = 1.2

    def __init__(self):
        self.prev = None
        self.decreased = False
        self.growth = 0

    def update(self, rel: float) -> bool:
        if self.prev is not None:
            if rel < self.prev:
                self.decreased = True
                self.growth = 0
            elif self.decreased:
                self.growth = self.growth + 1 if rel > self.GROWTH_MARGIN * self.prev else 0
        self.prev = rel
        return self.growth >= 3


def wrong_limit_by_error(trace) -> bool:
    """The wrong-limit rule read through the direct reference: a run that
    did not stop by oscillation or budget, whose last error against
    svd_tight or inv_dual exceeds 1e-6.  It mixes a wrong branch with a
    limit not yet accurate, so it agrees with IterationTrace.wrong_limit on
    converged runs that end near their limit."""
    return trace.stop_reason not in ("oscillating", "budget") and trace.errors[-1] > 1e-6
