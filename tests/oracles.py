"""Independent oracles used by the tests.

Everything here recomputes quantities from definitions (literal sums,
direct transforms, exact rational expansions) without going through the
library's fast paths.
"""

from fractions import Fraction
from math import comb

import numpy as np


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
