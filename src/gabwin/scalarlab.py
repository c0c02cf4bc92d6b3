"""Zak-domain scalar laboratory: pointwise and two-valued recursions with
analytically known convergence and divergence thresholds.

On a critically sampled system the block factorization collapses to
scalars, so the tight and dual iterations become pointwise maps of the Zak
transform value.  The two-valued variant (value 1 on a set of measure
1 - eps, value x on a set of measure eps) makes the norm-scaled maps fully
explicit and exhibits the thresholds x = sqrt(3), sqrt(5) (tight) and
sqrt(2) (dual).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Classification",
    "pointwise_tight",
    "pointwise_dual",
    "two_point_norm_scaled",
]


_ESCAPE = 1e12  # a pointwise iterand beyond this modulus is unbounded


def _inputs(steps: int, **values: complex) -> list[np.complex128]:
    """The named values as complex128, each finite, for steps >= 0."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    for name, z in values.items():
        if not np.isfinite(np.complex128(z)):
            raise ValueError(f"{name} must be finite, got {z!r}")
    return [np.complex128(z) for z in values.values()]


def pointwise_tight(gamma0: complex, steps: int) -> np.ndarray:
    """Iterate G -> 3/2 G - 1/2 |G|^2 G (initial-scaled tight map).

    Converges to exp(i arg gamma0) iff |gamma0|^2 < 3; unbounded beyond 5.
    gamma0 must be finite and steps >= 0; an iterand beyond modulus 1e12,
    the start included, is unbounded and freezes the rest of the trace.
    """
    (g,) = _inputs(steps, gamma0=gamma0)
    out = np.full(steps + 1, g)
    for k in range(steps if abs(g) <= _ESCAPE else 0):
        g = 1.5 * g - 0.5 * (g.real**2 + g.imag**2) * g
        if not np.isfinite(g) or abs(g) > _ESCAPE:
            out[k + 1:] = g
            break
        out[k + 1] = g
    return out


def pointwise_dual(gamma0: complex, G: complex, steps: int) -> np.ndarray:
    """Iterate Gam -> 2 Gam - |Gam|^2 G (initial-scaled dual map).

    Converges to 1/conj(G) iff |G|^2 < 2.  gamma0 and G must be finite and
    steps >= 0; an iterand beyond modulus 1e12, the start included, is
    unbounded and freezes the rest of the trace, inf where a step overflows
    (|Gam|^2 G can, at |G| > 1e284).
    """
    gam, G = _inputs(steps, gamma0=gamma0, G=G)
    out = np.full(steps + 1, gam)
    for k in range(steps if abs(gam) <= _ESCAPE else 0):
        with np.errstate(over="ignore"):
            gam = 2.0 * gam - (gam.real**2 + gam.imag**2) * G
        if not np.isfinite(gam) or abs(gam) > _ESCAPE:
            out[k + 1:] = gam
            break
        out[k + 1] = gam
    return out


class Classification(str, enum.Enum):
    BOTH_TO_ONE = "both_to_one"
    SIGN_FLIP = "sign_flip"
    INVERSE_LIMIT = "inverse_limit"
    NEGATIVE_D = "negative_d"
    CHAOTIC = "chaotic"
    UNBOUNDED = "unbounded"


def _two_point_step_tight(c: float, d: float, eps: float):
    n1 = np.sqrt((1 - eps) * c**2 + eps * d**2)
    n3 = np.sqrt((1 - eps) * c**6 + eps * d**6)
    return 1.5 * c / n1 - 0.5 * c**3 / n3, 1.5 * d / n1 - 0.5 * d**3 / n3


def _two_point_step_dual(c: float, d: float, x: float, eps: float):
    n1 = np.sqrt((1 - eps) * c**2 + eps * d**2)
    n2 = np.sqrt((1 - eps) * c**4 + eps * d**4 * x**2)
    return 2 * c / n1 - c**2 / n2, 2 * d / n1 - d**2 * x / n2


def two_point_norm_scaled(x: float | np.ndarray, eps: float, algo: str = "II",
                          steps: int = 500) -> Classification | list[Classification]:
    """Classify the limit of the norm-scaled two-valued recursion.

    Starts from the Zak values (c, d) = (1, x).  Thresholds for eps << 1:
    algo II converges (both values to 1) for x < sqrt(3), flips the sign of
    d on (sqrt(3), sqrt(5)) and is chaotic beyond sqrt(5); algo IV reaches
    (1, 1/x) for x < sqrt(2) and drives d negative beyond.

    x is one positive finite value, which gives one Classification, or a 1-D
    array of them, which gives a list: one elementwise recursion runs all
    of them, and no member's result depends on the others.
    """
    if algo not in ("II", "IV"):
        raise ValueError(f"unknown two-point algorithm {algo!r}")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a scalar or a 1-D array, got shape {xs.shape}")
    if not (np.isfinite(xs) & (xs > 0)).all():
        raise ValueError(f"x must be positive and finite, got {x!r}")
    xv = xs.reshape(-1)
    hist = np.empty((steps + 1, 2, xv.size))
    hist[0, 0], hist[0, 1] = 1.0, xv
    c, d = hist[0]
    with np.errstate(all="ignore"):
        for k in range(steps):
            if algo == "II":
                c, d = _two_point_step_tight(c, d, eps)
            else:
                c, d = _two_point_step_dual(c, d, xv, eps)
            hist[k + 1] = c, d
        # a member past 1e12 or non-finite at any step is unbounded
        unbounded = ~(np.abs(hist[1:]).max(axis=1) <= _ESCAPE).all(axis=0)

        # the analytic limits hold as eps -> 0; the actual fixed points sit
        # O(eps) away from them, hence the coarse tolerance
        tail = hist[-50:]
        tol = 0.05
        near_one = (np.abs(tail - tail[-1]).max(axis=(0, 1)) < 1e-3) & (np.abs(c - 1) < tol)
        inverse = near_one & (np.abs(d - 1 / xv) < tol) & (algo == "IV")
        # bounded non-convergence (the default, CHAOTIC): past sqrt(5) the norm
        # scaling settles into a large-amplitude sign-alternating oscillation
        rules = [(unbounded, Classification.UNBOUNDED),
                 (inverse, Classification.INVERSE_LIMIT),
                 (near_one & (np.abs(d - 1) < tol), Classification.BOTH_TO_ONE),
                 (near_one & (np.abs(d + 1) < tol), Classification.SIGN_FLIP),
                 ((tail[:, 1] < 0).all(axis=0), Classification.NEGATIVE_D)]
    out = [next((cls for mask, cls in rules if mask[i]), Classification.CHAOTIC)
           for i in range(xv.size)]
    return out[0] if xs.ndim == 0 else out
