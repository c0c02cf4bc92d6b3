"""Iterative approximation of canonical tight and dual windows.

Five named algorithms plus their general order-m versions:

    I    tight, frame-operator inverse step (norm scaling only)
    II   tight, order 2        III  tight, order 3
    IV   dual,  order 2        V    dual,  order 3

Each step applies a Taylor polynomial of the current frame operator (tight)
or of Z_k = (S S_k)^(1/2) (dual) to the iterand.  Under norm scaling every
polynomial term is divided by its own norm; under initial scaling the window
is divided once by Bhat^(1/2) and the raw polynomial is used from then on.
Powers of Z_k never require a square root thanks to
Z^(2r) gamma = (S S_k)^r gamma and Z^(2r+1) gamma = (S S_k)^r S_k g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import diagnostics
from .canonical import cholesky_solve_blocks, inv_dual, svd_tight
from .errors import NotAFrameError
from .lattice import GaborLattice
from .zak import (
    BlockOperator,
    SpectralSummary,
    ZakFactorization,
    _gram_blocks,
    block_gram,
    factorize,
    frame_bounds,
    unfactorize,
)

__all__ = [
    "EPS",
    "IterationConfig",
    "IterationTrace",
    "tight_taylor_coeffs",
    "dual_taylor_coeffs",
    "tight_taylor_coeffs_fractions",
    "dual_taylor_coeffs_fractions",
    "optimal_scaling_constant",
    "upper_frame_bound_estimate",
    "initial_scale",
    "step_tight",
    "step_dual",
    "step_frame_inverse",
    "run",
    "flop_estimate",
]

EPS = float(np.finfo(np.float64).eps)

_NAMED = {"I": ("tight", None), "II": ("tight", 2), "III": ("tight", 3),
          "IV": ("dual", 2), "V": ("dual", 3)}
_SCALINGS = ("norm", "initial", "initial_optimal", "constant_optimal")


# ---------------------------------------------------------------------------
# Taylor coefficients

def _expand_one_minus_x_powers(weights) -> list[Fraction]:
    """Expand sum_l w_l (1 - x)^l into coefficients of x^j (exact)."""
    m = len(weights)
    coeffs = [Fraction(0)] * m
    binom_row = [Fraction(1)]
    for l, w in enumerate(weights):
        for j, bc in enumerate(binom_row):
            coeffs[j] += w * bc * (-1) ** j
        binom_row = [Fraction(1)] + [
            binom_row[i] + binom_row[i + 1] for i in range(len(binom_row) - 1)
        ] + [Fraction(1)]
    return coeffs


def tight_taylor_coeffs_fractions(m: int) -> tuple[Fraction, ...]:
    """Exact coefficients of the order-(m-1) Taylor polynomial of x^(-1/2)
    around 1, written in powers of x."""
    if m < 1:
        raise ValueError("order must be >= 1")
    weights = []
    w = Fraction(1)
    for l in range(m):
        # (-1)^l binom(-1/2, l) = (2l-1)!! / (2^l l!)
        weights.append(w)
        w = w * Fraction(2 * l + 1, 2 * (l + 1))
    return tuple(_expand_one_minus_x_powers(weights))


def dual_taylor_coeffs_fractions(m: int) -> tuple[Fraction, ...]:
    """Exact coefficients of the order-(m-1) Taylor polynomial of x^(-1)
    around 1 (geometric partial sum), in powers of x."""
    if m < 1:
        raise ValueError("order must be >= 1")
    return tuple(_expand_one_minus_x_powers([Fraction(1)] * m))


def tight_taylor_coeffs(m: int) -> np.ndarray:
    return np.array([float(f) for f in tight_taylor_coeffs_fractions(m)])


def dual_taylor_coeffs(m: int) -> np.ndarray:
    return np.array([float(f) for f in dual_taylor_coeffs_fractions(m)])


# ---------------------------------------------------------------------------
# Scaling constants

def optimal_scaling_constant(lower: float, upper: float, algorithm: str) -> float:
    """Optimal initial-scaling constant Bhat (or Fhat) per algorithm."""
    if not 0 < lower <= upper:
        raise ValueError(f"invalid bound ordering: ({lower}, {upper})")
    A, B = lower, upper
    if algorithm == "I":
        return float(np.sqrt(A * B))
    if algorithm == "II":
        return (A + np.sqrt(A * B) + B) / 3.0
    if algorithm == "III":
        return 0.3 * (B + A) + 0.4 * np.sqrt(0.5 * (B * B + A * A) + (B - A) ** 2 / 16.0)
    if algorithm == "IV":
        return 0.5 * (A + B)
    if algorithm == "V":
        return (A + B) / 3.0 + np.sqrt(0.5 * (B * B + A * A) + 0.5 * (B - A) ** 2) / 3.0
    raise ValueError(f"no optimal scaling constant for algorithm {algorithm!r}")


def upper_frame_bound_estimate(g: np.ndarray, lattice: GaborLattice) -> float:
    """Guaranteed upper bound on max spectrum of S from the dual lattice
    representation: the total adjoint-correlation mass of g.  Equals 1
    exactly when g is a canonical tight window."""
    fac = factorize(g, lattice)
    return _upper_frame_bound(_gram_blocks(fac.blocks, fac.blocks, lattice), lattice)


def _upper_frame_bound(A: np.ndarray, lattice: GaborLattice) -> float:
    """upper_frame_bound_estimate from the Gram blocks A^{g,g}."""
    return float(np.abs(diagnostics._gram_correlations(A, lattice)).sum())


def initial_scale(fac: ZakFactorization, Bhat: float) -> ZakFactorization:
    """Divide the window by Bhat^(1/2) (so S is divided by Bhat)."""
    if Bhat <= 0:
        raise ValueError("Bhat must be positive")
    return ZakFactorization(fac.lattice, fac.blocks / np.sqrt(Bhat))


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class IterationConfig:
    """Algorithm selection, scaling strategy and stopping rule.

    ``order`` is the envisaged convergence order m >= 2 of the Taylor
    polynomial; ``inverse=True`` selects algorithm I instead (tight target,
    norm scaling only).  ``stop_mode``: "auto" stops at the eps^(1/m)
    relative-step threshold or on divergence, "fixed" always runs
    ``max_steps`` steps, "tol" uses an explicit relative-step tolerance.
    """

    target: str = "tight"
    order: int = 2
    inverse: bool = False
    scaling: str = "norm"
    Bhat: float | None = None
    max_steps: int = 40
    stop_mode: str = "auto"
    tol: float | None = None

    def __post_init__(self):
        if self.target not in ("tight", "dual"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.scaling not in _SCALINGS:
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.stop_mode not in ("auto", "fixed", "tol"):
            raise ValueError(f"unknown stop_mode {self.stop_mode!r}")
        if self.inverse:
            if self.target != "tight":
                raise ValueError("algorithm I approximates the tight window only")
            if self.scaling != "norm":
                raise ValueError("algorithm I supports norm scaling only")
        elif self.order < 2:
            raise ValueError("polynomial iterations need order >= 2")
        if self.stop_mode == "tol" and not self.tol:
            raise ValueError("stop_mode 'tol' needs a tolerance")
        if self.Bhat is not None and self.Bhat <= 0:
            raise ValueError("Bhat must be positive")

    @classmethod
    def from_algorithm(cls, name: str, **kwargs) -> "IterationConfig":
        if name not in _NAMED:
            raise ValueError(f"unknown algorithm {name!r}")
        target, order = _NAMED[name]
        if order is None:
            return cls(target="tight", inverse=True, **kwargs)
        return cls(target=target, order=order, **kwargs)

    @property
    def algorithm_name(self) -> str:
        if self.inverse:
            return "I"
        for name, (target, order) in _NAMED.items():
            if order == self.order and target == self.target:
                return name
        return f"{self.target}-m{self.order}"

    @property
    def step_threshold(self) -> float:
        if self.stop_mode == "tol":
            return self.tol
        m = 2 if self.inverse else self.order
        return EPS ** (1.0 / m)


# ---------------------------------------------------------------------------
# Single steps (block domain)

def _norm(blocks: np.ndarray) -> float:
    return float(np.linalg.norm(blocks))


def _combine(coeffs, terms, norm_scaled: bool) -> np.ndarray:
    if norm_scaled:
        return sum(cf * T / _norm(T) for cf, T in zip(coeffs, terms))
    return sum(cf * T for cf, T in zip(coeffs, terms))


def _apply(op: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    return np.einsum("rskm,rsml->rskl", op, blocks)


def _tight_step_blocks(blocks, A, order, norm_scaled):
    terms = [blocks]
    for _ in range(order - 1):
        terms.append(_apply(A, terms[-1]))
    return _combine(tight_taylor_coeffs(order), terms, norm_scaled)


def _dual_step_blocks(blocks, g_blocks, Agg, lattice, order, norm_scaled):
    A = _gram_blocks(blocks, blocks, lattice)
    terms = [blocks, _apply(A, g_blocks)]
    while len(terms) < order:
        terms.append(_apply(Agg, _apply(A, terms[-2])))
    return _combine(dual_taylor_coeffs(order), terms[:order], norm_scaled)


def _inverse_step_blocks(blocks, A):
    try:
        solved = cholesky_solve_blocks(A, blocks)
    except NotAFrameError as exc:
        raise NotAFrameError("iterand lost frame property") from exc
    return 0.5 * blocks / _norm(blocks) + 0.5 * solved / _norm(solved)


def step_tight(fac: ZakFactorization, order: int = 2, scaling: str = "norm") -> ZakFactorization:
    """One tight-window step gamma -> sum_j a_mj S^j gamma (scaled terms
    under norm scaling, raw polynomial otherwise)."""
    A = _gram_blocks(fac.blocks, fac.blocks, fac.lattice)
    out = _tight_step_blocks(fac.blocks, A, order, scaling == "norm")
    return ZakFactorization(fac.lattice, out)


def step_dual(fac: ZakFactorization, fac_g: ZakFactorization, order: int = 2,
              scaling: str = "norm") -> ZakFactorization:
    """One dual-window step gamma -> sum_j b_mj Z^j gamma with the original
    window g held fixed across steps."""
    if fac.lattice != fac_g.lattice:
        raise ValueError("lattice mismatch")
    Agg = _gram_blocks(fac_g.blocks, fac_g.blocks, fac_g.lattice)
    out = _dual_step_blocks(fac.blocks, fac_g.blocks, Agg, fac.lattice, order,
                            scaling == "norm")
    return ZakFactorization(fac.lattice, out)


def step_frame_inverse(fac: ZakFactorization) -> ZakFactorization:
    """One algorithm-I step 0.5 gamma/||gamma|| + 0.5 S^-1 gamma/||S^-1 gamma||."""
    A = _gram_blocks(fac.blocks, fac.blocks, fac.lattice)
    return ZakFactorization(fac.lattice, _inverse_step_blocks(fac.blocks, A))


# ---------------------------------------------------------------------------
# Full runs

@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``iterands[k]`` is gamma_k as a signal; ``rel_steps[k]`` is
    ||gamma_{k+1} - gamma_k|| / ||gamma_{k+1}||; ``errors[k]`` is the
    normalized-window distance to the reference; ``bounds[k]`` holds
    (A_k, B_k) for tight targets and the Z-bounds (E_k, F_k) for dual ones.
    """

    config: IterationConfig
    lattice: GaborLattice
    reference: np.ndarray
    iterands: list = field(default_factory=list)
    rel_steps: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    dual_lattice_norms: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    converged: bool = False
    diverging: bool = False
    oscillating: bool = False
    wrong_limit: bool = False

    @property
    def steps_taken(self) -> int:
        return len(self.rel_steps)

    @property
    def final(self) -> np.ndarray:
        return self.iterands[-1]


def _normalized(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def _norm_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(_normalized(x) - _normalized(ref)))


class _DivergenceDetector:
    """Flags a run whose relative step grows for 3 consecutive steps after
    having decreased at least once.

    Growth only counts beyond a 1.2x margin: true divergence multiplies the
    step by >= 2 each iteration, while the plateau phase of badly
    conditioned (but convergent) runs wobbles by fractions of a percent and
    must not trip the detector.
    """

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


def run(g: np.ndarray, lattice: GaborLattice, config: IterationConfig) -> IterationTrace:
    """Run an iteration to the configured stopping rule, recording
    diagnostics at every step."""
    fac0 = factorize(g, lattice)

    if config.scaling == "initial":
        Bhat = config.Bhat if config.Bhat is not None else _upper_frame_bound(
            _gram_blocks(fac0.blocks, fac0.blocks, lattice), lattice)
        fac0 = initial_scale(fac0, Bhat)
    elif config.scaling == "initial_optimal":
        summary = frame_bounds(block_gram(fac0, fac0))
        if not summary.is_frame:
            raise NotAFrameError("not a frame: cannot compute optimal scaling")
        fac0 = initial_scale(
            fac0, optimal_scaling_constant(summary.lower, summary.upper,
                                           config.algorithm_name))

    g_blocks = fac0.blocks.copy()
    fac_g = ZakFactorization(lattice, g_blocks)
    g_norm = _norm(g_blocks)

    if config.target == "tight":
        reference = unfactorize(svd_tight(fac_g))
    else:
        reference = unfactorize(inv_dual(fac_g))

    trace = IterationTrace(config=config, lattice=lattice, reference=reference)

    def record(blocks, signal):
        """Append the diagnostics of iterand `blocks`; returns the Gram they
        come from: A^{gamma,gamma} (tight) or A^{g,gamma} (dual)."""
        trace.iterands.append(signal)
        trace.errors.append(_norm_error(signal, reference))
        if config.target == "tight":
            A = _gram_blocks(blocks, blocks, lattice)
            trace.bounds.append(frame_bounds(BlockOperator(lattice, A)))
            scale = _norm(blocks) ** 2
        else:
            A = _gram_blocks(g_blocks, blocks, lattice)
            # post-convergence divergence legitimately leaves the orbit; the
            # departure is kept in bounds[k].max_imag_ratio, not warned about
            trace.bounds.append(diagnostics._z_spectrum(A))
            scale = g_norm * _norm(blocks)
        # correlations are linear in A, so dividing by the norms gives the
        # dual lattice norm of the normalized iterand (and normalized g)
        trace.dual_lattice_norms.append(
            diagnostics._off_origin_mass(diagnostics._gram_correlations(A, lattice))
            / scale)
        return A

    blocks = g_blocks
    # at gamma_0 = g both targets' Gram is A^{g,g}, which the dual steps reuse
    A = Agg = record(blocks, unfactorize(fac_g))
    threshold = config.step_threshold
    detector = _DivergenceDetector()
    norm_scaled = config.scaling == "norm"

    for _ in range(config.max_steps):
        if config.scaling == "constant_optimal":
            summary = trace.bounds[-1]
            const = optimal_scaling_constant(summary.lower, summary.upper,
                                             config.algorithm_name)
            if config.target == "tight":
                blocks, A = blocks / np.sqrt(const), A / const
            else:
                blocks = blocks / const

        with np.errstate(over="ignore", invalid="ignore"):
            if config.inverse:
                new = _inverse_step_blocks(blocks, A)
            elif config.target == "tight":
                new = _tight_step_blocks(blocks, A, config.order, norm_scaled)
            else:
                new = _dual_step_blocks(blocks, g_blocks, Agg, lattice,
                                        config.order, norm_scaled)
            new_norm = _norm(new)
            if not np.isfinite(new_norm) or new_norm == 0.0:
                trace.diverging = True
                break
            rel = _norm(new - blocks) / new_norm

        trace.rel_steps.append(rel)
        blocks = new
        A = record(blocks, unfactorize(ZakFactorization(lattice, blocks)))

        if config.stop_mode == "fixed":
            continue
        if rel < threshold:
            trace.converged = True
            break
        if detector.update(rel):
            trace.diverging = True
            break

    if not trace.converged and len(trace.iterands) >= 3:
        last, before = trace.iterands[-1], trace.iterands[-3]
        cyc = np.linalg.norm(last - before) / np.linalg.norm(last)
        if cyc < 1e-8 and trace.rel_steps[-1] > threshold:
            trace.oscillating = True

    if (trace.converged or trace.diverging) and trace.errors[-1] > 1e-6:
        trace.wrong_limit = True
    return trace


# ---------------------------------------------------------------------------
# Cost model (real flops per iteration step / per direct solve)

def flop_estimate(lattice: GaborLattice, method: str, steps: int = 1) -> float:
    """Model operation counts for one iteration step (I-V) or a full direct
    solve (INV, EIG, SVD); excludes the pre/post factorization."""
    L, c, d, p = lattice.L, lattice.c, lattice.d, lattice.p
    per = {
        "I": 16 * L * p + 4 * c * d * p**3 / 3.0,
        "II": 16 * L * p,
        "III": 24 * L * p,
        "IV": 16 * L * p,
        "V": 24 * L * p + 8 * c * d * p**3,
    }
    total = {
        "INV": 16 * L * p + 4 * c * d * p**3 / 3.0,
        "EIG": 24 * L * p + 14 * c * d * p**3,
        "SVD": 64 * L * p + 32 * c * d * p**3,
    }
    if method in per:
        return per[method] * steps
    if method in total:
        return total[method]
    raise ValueError(f"unknown method {method!r}")
