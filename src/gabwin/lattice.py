"""Lattice parameter arithmetic on C^L.

A Gabor system on C^L is generated by shifting a window g by multiples of
``a`` samples in time and ``b`` bins in frequency.  The derived integers
(M, N, c, d, p, q) control the block factorization used everywhere else:
L = N*a = M*b, c = gcd(a, M), d = gcd(b, N), p = a/c = b/d, q = M/c = N/d,
and L = c*d*p*q with gcd(p, q) = 1.  The density of the system is
a*b/L = p/q, so p <= q is required for a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidLatticeError

__all__ = ["GaborLattice", "derive_lattice"]


@dataclass(frozen=True)
class GaborLattice:
    L: int
    a: int
    b: int
    M: int
    N: int
    c: int
    d: int
    p: int
    q: int

    @property
    def density(self) -> float:
        """Lattice density a*b/L = p/q."""
        return self.p / self.q


def derive_lattice(L: int, a: int, b: int) -> GaborLattice:
    """Validate (L, a, b) and compute the derived block parameters."""
    if L <= 0 or a <= 0 or b <= 0:
        raise InvalidLatticeError("invalid lattice: L, a, b must be positive")
    if L % a != 0 or L % b != 0:
        raise InvalidLatticeError(
            f"invalid lattice: a={a} and b={b} must divide L={L}"
        )
    M, N = L // b, L // a
    c, d = gcd(a, M), gcd(b, N)
    p, q = a // c, M // c
    if p != b // d or q != N // d or c * d * p * q != L or gcd(p, q) != 1:
        raise InvalidLatticeError(f"invalid lattice: ({L}, {a}, {b})")
    if p > q:
        raise InvalidLatticeError(
            f"undersampled system cannot be a frame: p/q = {p}/{q} > 1"
        )
    return GaborLattice(L=L, a=a, b=b, M=M, N=N, c=c, d=d, p=p, q=q)

