"""Computed cost of one iteration step and one direct solve.

Operation counts come from the package's own model,
``gabwin.iterations.flop_estimate``.  Bytes moved are computed here from
array sizes: each pass of a block kernel reads its operand arrays once and
writes its result once, as complex128.  A pass touches either a
signal-sized block array (c*d*p*q = L entries) or a Gram-sized one
(c*d*p*p entries).  This is compulsory traffic only: cache misses and
temporaries inside numpy/LAPACK are not counted, so the figures are a
lower bound computed from a CPU run, never a measurement.
"""

from __future__ import annotations

from gabwin.iterations import flop_estimate

_BYTES_PER_ENTRY = 16

# (signal-sized arrays, Gram-sized arrays) touched per step, norm scaling
_STEP_PASSES = {
    # Gram, Cholesky (Hermitian part, factor, two solves), norms, combine
    "I": (10, 9),
    # Gram, one block product, two norms, combine of two terms
    "II": (8, 2),
    # Gram, two block products, three norms, combine of three terms
    "III": (12, 3),
    # Gram, A_k g, two norms, combine of two terms
    "IV": (8, 2),
    # Gram, three block products, three norms, combine of three terms
    "V": (14, 4),
}

# polynomial terms whose norm only norm scaling takes (one signal pass each);
# the inverse step of algorithm I always normalises its two terms
_NORMED_TERMS = {"I": 0, "II": 2, "III": 3, "IV": 2, "V": 3}

# constant_optimal rescales the iterand before every step: read it, write it
_RESCALE_PASSES = 2

# (signal-sized arrays, Gram-sized arrays) touched per direct solve
_DIRECT_PASSES = {
    # Gram, Hermitian part, eigh, U D^-1/2 U* Phi
    "EIG": (3, 9),
    # thin SVD, U Vh, rescale
    "SVD": (6, 2),
    # Gram, singularity test, Hermitian part, Cholesky, two solves
    "INV": (5, 12),
}


def _bytes(lattice, passes) -> float:
    signal, gram = passes
    gram_entries = lattice.c * lattice.d * lattice.p * lattice.p
    return float(_BYTES_PER_ENTRY * (signal * lattice.L + gram * gram_entries))


def step_cost(lattice, algorithm: str, scaling: str) -> tuple[float, float]:
    """(model flops, computed bytes) of one step of algorithm I-V under a
    scaling strategy.  The model flops do not depend on the scaling."""
    signal, gram = _STEP_PASSES[algorithm]
    if scaling != "norm":
        signal -= _NORMED_TERMS[algorithm]
    if scaling == "constant_optimal":
        signal += _RESCALE_PASSES
    return flop_estimate(lattice, algorithm), _bytes(lattice, (signal, gram))


def direct_cost(lattice, method: str) -> tuple[float, float]:
    """(model flops, computed bytes) of one EIG, SVD or INV solve."""
    return flop_estimate(lattice, method), _bytes(lattice, _DIRECT_PASSES[method])
