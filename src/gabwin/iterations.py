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

One loop (_iterate, after _prescale) holds the step rules, the scalings and
the stopping rule.  It runs a stack of members on a leading member axis,
each member the blocks of one window: every member keeps its own norms,
relative steps and stop, and leaves the stack when it stops.  Each way in
takes windows and a config: run() (a batch of one that keeps every
iterand; one step is a fixed one-step run), _run_stack (a sweep, in
batches capped by their footprint, each trace keeping its start and last
iterand) and scalar_iteration (one member of 1 x 1 blocks of singular
values).  At p <= 2 < q run() and _run_stack split the window blocks once
as R_0 Q, R_0 p x p and Q with orthonormal rows (canonical._lq_split), and
iterate R: every iterand is a polynomial in S applied to g, so its blocks
are R_k Q, which the trace forms when they are read.  A p x p step costs
less than a p x q one, and Q, an isometry, amplifies no rounding of R.  At
p >= 3 the blocks are iterated whole.  _prescale gives each member its
start constant by one rule (_start_constant).  The stack is stored
member-major, each member contiguous, so a member's norm is a dot
product over its memory; at p = 2 as (n, p, q, ..., c, d) planar storage
(see zak).  At p <= 2 every step is whole-plane products, the Cholesky
solve of algorithm I included, with no per-block LAPACK call.  Every
other part of a trace, the final signal and the errors against the
direct reference included, is computed from the kept blocks when read.
Norms stay in the input dtype.  Spectra and dual lattice norms follow the
rules of diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import diagnostics
from .canonical import _lq_split, cholesky_solve_blocks, inv_dual, svd_tight
from .errors import NotAFrameError
from .lattice import GaborLattice
from .zak import (BlockOperator, ZakFactorization, _block_product, _gram_blocks,
                  _hermitian_eigvals, _over, _require_frame, factorize, unfactorize)

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
    "run",
    "scalar_iteration",
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


@lru_cache(maxsize=16)
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


@lru_cache(maxsize=16)
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
    if algorithm in ("III", "V") and not B * B < np.inf:  # (B - A) ** 2 would raise
        raise ValueError(f"upper bound too large: {B:.3g}, its square overflows")
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


def upper_frame_bound_estimate(S: BlockOperator) -> float:
    """Guaranteed upper bound on the max spectrum of the frame operator
    S = block_gram(G, G) of a window g, from the dual lattice
    representation: the total adjoint-correlation mass of g.  Equals 1
    exactly when g is a canonical tight window."""
    return float(np.abs(diagnostics._gram_correlations(S.blocks, S.lattice)).sum())


def _checked_Bhat(Bhat):
    if Bhat is not None and not 0 < Bhat < np.inf:
        raise ValueError(f"Bhat must be positive and finite, got {Bhat}")
    return Bhat


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class IterationConfig:
    """Algorithm selection, scaling strategy and stopping rule.

    ``order`` is the envisaged convergence order m >= 2 of the Taylor
    polynomial; ``inverse=True`` selects algorithm I instead (tight target,
    norm scaling only).  ``Bhat`` is the constant of initial scaling (an
    estimate when None); other scalings take none.  ``stop_mode``: "auto"
    stops at the relative-step threshold, ``tol`` when given and else
    eps^(1/m), or on divergence; "fixed" always runs ``max_steps`` steps and
    takes no ``tol``.
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
        if self.stop_mode not in ("auto", "fixed"):
            raise ValueError(f"unknown stop_mode {self.stop_mode!r}")
        if self.inverse:
            if self.target != "tight":
                raise ValueError("algorithm I approximates the tight window only")
            if self.scaling != "norm":
                raise ValueError("algorithm I supports norm scaling only")
        elif self.order < 2:
            raise ValueError("polynomial iterations need order >= 2")
        if self.tol is not None:
            if self.stop_mode == "fixed":
                raise ValueError("stop_mode 'fixed' takes no tol")
            if not 0 < self.tol < np.inf:
                raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        _checked_Bhat(self.Bhat)
        if self.Bhat is not None and self.scaling != "initial":
            raise ValueError(f"scaling {self.scaling!r} takes no Bhat")

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
        if self.tol is not None:
            return self.tol
        m = 2 if self.inverse else self.order
        return EPS ** (1.0 / m)


# ---------------------------------------------------------------------------
# Step kernels (block domain), on member-major stacks (n, ..., c, d, p, q)

# a batch stacks at most this many bytes of start blocks (9 members at
# L = 432, one from L = 4096 on): a larger stack leaves the cache, where a
# step costs more than the members' own steps, and its working set raises
# the peak memory of a sweep
_STACK_BYTES = 1 << 16


def _members(x: np.ndarray, index) -> np.ndarray:
    """The members ``index`` (a slice or a list) of a stack, member-major:
    at p = 2 as (n, p, q, ..., c, d) in memory, whose (n, ..., c, d, p, q)
    view is returned, so that each block entry of each member is a
    contiguous plane.  A list copies; a slice copies only at p = 2, into
    that storage when the stack is not in it."""
    if x.shape[-2] != 2:
        return x[index]
    planes = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (1, 2))[index])
    return np.moveaxis(planes, (1, 2), (-2, -1))


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the members of a member-major stack, shaped to broadcast
    against it: bit for bit np.linalg.norm of each member, which takes the
    dot products of its real and imaginary parts in memory order.  A stack
    of one gets np.linalg.norm itself (see _per_member)."""
    if len(x) == 1:
        return np.linalg.norm(x)
    v = x.ravel(order="K").reshape(len(x), -1)
    if np.iscomplexobj(v):
        return _per_member(np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)), x)
    return _per_member(np.sqrt(np.vecdot(v, v)), x)


def _per_member(values, x: np.ndarray):
    """values, one per member of the stack x, shaped to broadcast against
    it; for a stack of one its value, a scalar, which numpy applies with no
    broadcast and no cast."""
    values = np.asarray(values)
    # the stack-of-one branches here and in _norms are not a second path to
    # drop: run() is a stack of one, and without them its scalars become
    # (1, 1, ...) arrays that every step broadcasts, which made run() 3 to
    # 13% slower on one thread, the most at the smallest lattices
    return values[0] if len(x) == 1 else values.reshape((len(x),) + (1,) * (x.ndim - 1))


def _each(values):
    """The values of _norms or _per_member, one a member, to iterate over."""
    return values.ravel() if isinstance(values, np.ndarray) else (values,)


def _combine(coeffs, terms, norm_scaled: bool, norm=None) -> np.ndarray:
    """sum_j coeffs[j] terms[j], each member of a term over its norm when
    norm_scaled (the first term's is ``norm`` when given), added up from the
    first term (sum() would start from 0: one more pass).  The first term,
    the iterand, is copied; the others, the step's own products, are scaled
    in place."""
    out = None
    for cf, T in zip(coeffs, terms):
        if norm_scaled:
            T_norm = norm if out is None and norm is not None else _norms(T)
        T = cf * T if out is None else np.multiply(cf, T, out=T)
        if norm_scaled:
            _over(T, T_norm, out=T)
        if out is None:
            out = T
        else:
            out += T
    return out


def _tight_step_blocks(blocks, A, coeffs, norm_scaled, norm):
    terms = [blocks]
    for _ in range(len(coeffs) - 1):
        terms.append(_block_product(A, terms[-1]))
    return _combine(coeffs, terms, norm_scaled, norm)


def _dual_step_blocks(blocks, g_blocks, Agg, coeffs, norm_scaled, norm, q):
    # at the start the iterand is g, whose Gram is A^{g,g}
    A = Agg if blocks is g_blocks else _gram_blocks(blocks, blocks, q)
    terms = [blocks, _block_product(A, g_blocks)]
    while len(terms) < len(coeffs):
        terms.append(_block_product(Agg, _block_product(A, terms[-2])))
    return _combine(coeffs, terms[:len(coeffs)], norm_scaled, norm)


def _inverse_step_blocks(blocks, A, norm):
    try:
        solved = cholesky_solve_blocks(A, blocks)
    except NotAFrameError as exc:
        raise NotAFrameError("iterand lost frame property") from exc
    return _combine((0.5, 0.5), (blocks, solved), True, norm)


# ---------------------------------------------------------------------------
# Full runs

@dataclass
class IterationTrace:
    """Record of a run, which keeps the blocks of every iterand.

    run() fills the fields: ``factors[k]``, what the loop iterated for
    gamma_k (gamma_0 is the prescaled window g); ``rel_steps[k]``,
    ||gamma_{k+1} - gamma_k|| / ||gamma_{k+1}||; ``stop_reason`` (see
    _iterate); and ``rows``.  At p <= 2 < q ``rows`` is the Q of the
    window's blocks R_0 Q (see _lq_split) and ``factors[k]`` is R_k; else
    ``rows`` is None and ``factors[k]`` the blocks of gamma_k.  Everything
    else is computed when first read: ``blocks[k]``, the Zak blocks of
    gamma_k, R_k Q; ``final``, the last iterand as a signal; ``errors[k]``,
    the normalized gamma_k's distance to the normalized reference
    (svd_tight or inv_dual of gamma_0), on the blocks, the one field that
    solves it;
    ``wrong_limit``, a run that diverged, or converged to a sign-flipped
    window: the Hermitian part of a block of A^{g,gamma} of the last iterand
    has a negative eigenvalue (at a tight limit U D V* of g = U S V*, with
    D = diag(+-1), that block is U S D U*); ``iterands[k]``, gamma_k as a
    signal; ``bounds[k]``, (A_k, B_k) for tight targets and the Z-bounds
    (E_k, F_k) for dual ones; and ``dual_lattice_norms[k]``, that of the
    normalized gamma_k (against the normalized g for dual targets).  The
    last two share one Gram per iterand.  A sweep's trace (see _run_stack)
    always keeps the blocks of its start and last iterand only, and has an
    error for each.
    """

    config: IterationConfig
    lattice: GaborLattice
    factors: list
    rel_steps: list
    stop_reason: str
    rows: np.ndarray | None = None

    @property
    def steps_taken(self) -> int:
        return len(self.rel_steps)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def _block(self, k: int) -> np.ndarray:
        """The blocks of gamma_k, formed on each call, so that the fields
        that read one iterand at a time hold none of them."""
        R = self.factors[k]
        return R if self.rows is None else _block_product(R, self.rows)

    @cached_property
    def blocks(self) -> list:
        return [self._block(k) for k in range(len(self.factors))]

    @cached_property
    def errors(self) -> list:
        solve = svd_tight if self.config.target == "tight" else inv_dual
        reference = solve(ZakFactorization(self.lattice, self._block(0))).blocks
        reference = reference / np.linalg.norm(reference)
        return [float(np.linalg.norm(b / np.linalg.norm(b) - reference))
                for b in map(self._block, range(len(self.factors)))]

    @cached_property
    def wrong_limit(self) -> bool:
        if self.stop_reason != "converged":
            return self.stop_reason in ("diverging", "non_finite")
        return bool(_hermitian_eigvals(_gram_blocks(self._block(0), self._block(-1))).min() < 0)

    @cached_property
    def final(self) -> np.ndarray:
        return unfactorize(ZakFactorization(self.lattice, self._block(-1)))

    @cached_property
    def iterands(self) -> list:
        return [unfactorize(ZakFactorization(self.lattice, b)) for b in self.blocks]

    @cached_property
    def _grams(self) -> list:
        """A^{gamma,gamma} (tight) or A^{g,gamma} (dual) of every iterand."""
        g, tight = self.blocks[0], self.config.target == "tight"
        return [_gram_blocks(b if tight else g, b) for b in self.blocks]

    @cached_property
    def bounds(self) -> list:
        # post-convergence divergence legitimately leaves the orbit; the
        # departure is kept in bounds[k].max_imag_ratio, not warned about
        return [diagnostics._spectrum(A, self.config.target) for A in self._grams]

    @cached_property
    def dual_lattice_norms(self) -> list:
        g, tight = self.blocks[0], self.config.target == "tight"
        return [diagnostics._off_origin_mass(diagnostics._unit_correlations(
                    b if tight else g, b, self.lattice, A))
                for b, A in zip(self.blocks, self._grams)]


def _diverging(rel_steps: list) -> bool:
    """Whether the relative step grew by more than 1.2x on each of the last
    3 steps, after a decrease before them.  True divergence multiplies the
    step by >= 2 a step; the margin spares the plateau of badly conditioned
    (but convergent) runs, which wobbles by fractions of a percent."""
    r = rel_steps
    return (len(r) >= 5 and all(r[i] > 1.2 * r[i - 1] for i in (-3, -2, -1))
            and any(r[i] < r[i - 1] for i in range(1, len(r) - 3)))


def _start_constant(g: np.ndarray, lattice: GaborLattice, config: IterationConfig) -> float:
    """config.Bhat when set, else from one Gram of the window whose blocks
    are g: its upper frame bound estimate (initial) or the optimal constant
    of its frame bounds (initial_optimal)."""
    if config.Bhat is not None:
        return config.Bhat
    S = _gram_blocks(g, g, None if lattice is None else lattice.q)
    if config.scaling == "initial":
        return upper_frame_bound_estimate(BlockOperator(lattice, S))
    bounds = _require_frame(diagnostics._spectrum(S, "tight"))
    return optimal_scaling_constant(bounds.lower, bounds.upper, config.algorithm_name)


def _prescale(g_blocks: np.ndarray, lattice: GaborLattice, config: IterationConfig) -> np.ndarray:
    """The stack the iteration starts from, member by member: g over the
    root of its _start_constant (initial, initial_optimal), else g; at
    p = 2 copied into planar storage (see _members).  Raises ValueError when
    the squared norm of a member overflows, before any Gram is built, or
    when it underflows, as every bound would."""
    finfo = np.finfo(g_blocks.dtype)
    with np.errstate(over="ignore"):
        norms = _each(_norms(g_blocks))
    if not max(norms) < np.inf:
        raise ValueError(f"window norm too large: its square overflows {finfo.dtype}")
    if config.scaling in ("initial", "initial_optimal"):
        Bhat = np.array([_checked_Bhat(_start_constant(g, lattice, config)) for g in g_blocks],
                        dtype=finfo.dtype)
        g_blocks = g_blocks / _per_member(np.sqrt(Bhat), g_blocks)
        norms = _each(_norms(g_blocks))
    g_norm, least = min(norms), np.sqrt(finfo.tiny)
    if not g_norm >= least:
        raise ValueError(f"window norm too small: {g_norm:.3g} < {least:.3g}, "
                         f"its square underflows {finfo.dtype}")
    return _members(g_blocks, slice(None))


def _iterate(g_blocks: np.ndarray, config: IterationConfig, every: bool = True,
             q: int | None = None) -> list:
    """Iterate every member of the (prescaled) stack g_blocks to the
    stopping rule.  The blocks are (..., p, q) window blocks, or their p x p
    factors R (see _lq_split) with q the lattice's, which every Gram takes.

    A tight step reuses the Gram A^{gamma,gamma} of its iterand, a dual step
    builds its own and reuses A^{g,g}.  Only constant_optimal reads a
    spectrum, that of A^{gamma,gamma} (tight) or A^{g,gamma} (dual), one per
    member.  Returns, per member, the blocks of every iterand (its start
    first), the relative steps that led to them, and why it stopped:
    "converged", "diverging" (see _diverging), "non_finite" (the next
    iterand's norm is not finite or is zero; it is not kept), or with the
    budget used up "oscillating" (a two-cycle: gamma_k within 1e-8 of
    gamma_{k-2}, steps above threshold) or "budget".  A member that stops
    leaves the stack.  The iterands keep the storage of the stack.  Unless
    ``every``, only a member's start and last iterand are returned, and
    held while it runs (the last three in the last steps of the budget): a
    sweep that reads no more holds two iterands a member, not every one.
    """
    real = np.finfo(g_blocks.dtype).dtype.type
    tight = config.target == "tight"
    norm_scaled = config.scaling == "norm"
    coeffs = None if config.inverse else (
        tight_taylor_coeffs if tight else dual_taylor_coeffs)(config.order)
    auto, threshold = config.stop_mode == "auto", config.step_threshold
    n = len(g_blocks)
    iterands, rel_steps, reasons = [[g] for g in g_blocks], [[] for _ in range(n)], [None] * n
    live = list(range(n))  # the members in the rows of the stack
    blocks = g_start = g_blocks
    Agg = None if tight else _gram_blocks(g_blocks, g_blocks, q)
    norm = diff = None  # the norm of the iterand, when taken; the step buffer

    def stop(member, reason):
        reasons[member] = reason
        kept = iterands[member]
        if not every and len(kept) > 1:
            # a copy: a view would hold the stack of its step, every member
            kept[1:] = [kept[-1].copy(order="K")]

    for step in range(config.max_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            A = _gram_blocks(blocks, blocks, q) if tight else None
            if config.scaling == "constant_optimal":
                grams = A if tight else _gram_blocks(g_start, blocks, q)
                const = [optimal_scaling_constant(b.lower, b.upper, config.algorithm_name)
                         for b in (diagnostics._spectrum(G, config.target) for G in grams)]
                const = _per_member(np.array(const, dtype=real), blocks)
                if tight:
                    blocks = _over(blocks, np.sqrt(const))
                    _over(A, const, out=A)
                else:
                    blocks = _over(blocks, const)

            if config.inverse:
                new = _inverse_step_blocks(blocks, A, norm)
            elif tight:
                new = _tight_step_blocks(blocks, A, coeffs, norm_scaled, norm)
            else:
                new = _dual_step_blocks(blocks, g_start, Agg, coeffs, norm_scaled, norm, q)
            if diff is None:
                diff = np.empty_like(new)
            norm = _norms(new)
            new_norm, step_norm = norm, _norms(np.subtract(new, blocks, out=diff[:len(new)]))

        stay = []
        for row, (member, new_norm, step_norm) in enumerate(zip(live, _each(new_norm),
                                                                 _each(step_norm))):
            kept, steps, reason = iterands[member], rel_steps[member], None
            if 0.0 < new_norm < np.inf:  # finite and not zero
                rel = step_norm / new_norm
                kept.append(new[row])
                steps.append(float(rel))
                if not every and step + 2 < config.max_steps:
                    del kept[1:-1]  # the budget stop reads the last three
                if auto and rel < threshold:
                    reason = "converged"
                elif auto and _diverging(steps):
                    reason = "diverging"
            else:
                reason = "non_finite"
            if reason is None:
                stay.append(row)
            else:
                stop(member, reason)
        if len(stay) == len(live):
            blocks = new
            continue
        norm = None
        live = [live[row] for row in stay]
        if not live:
            break
        blocks, g_start = _members(new, stay), _members(g_start, stay)
        Agg = None if tight else _members(Agg, stay)
    for member in live:
        stop(member, _budget_stop(iterands[member], rel_steps[member], config))
    return list(zip(iterands, rel_steps, reasons))


def _budget_stop(iterands: list, rel_steps: list, config: IterationConfig) -> str:
    """"oscillating" for a two-cycle above the step threshold, else "budget"."""
    if len(iterands) >= 3:
        cyc = np.linalg.norm(iterands[-1] - iterands[-3]) / np.linalg.norm(iterands[-1])
        if cyc < 1e-8 and rel_steps[-1] > config.step_threshold:
            return "oscillating"
    return "budget"


def _traces(stack: np.ndarray, lattice: GaborLattice, config: IterationConfig,
            every: bool) -> list:
    """Run every member of a stack (n, c, d, p, q) of window blocks as one
    batch and record each: the blocks are split once as R Q (_lq_split),
    the R are prescaled and iterated, and each trace keeps its member's Q."""
    R, Q = _lq_split(stack)
    results = _iterate(_prescale(R, lattice, config), config, every, lattice.q)
    return [IterationTrace(config, lattice, *result, rows=rows)
            for result, rows in zip(results, [None] * len(stack) if Q is None else Q)]


def _run_stack(stack: np.ndarray, lattice: GaborLattice, config: IterationConfig) -> list:
    """Run every member of a stack (n, c, d, p, q) of window blocks under one
    config and record each: one trace per member, in order, which keeps the
    blocks of its start and last iterand (see _iterate).  The members run in
    batches of at most _STACK_BYTES of blocks."""
    size = max(1, _STACK_BYTES // stack[0].nbytes)
    return [trace for lo in range(0, len(stack), size)
            for trace in _traces(stack[lo:lo + size], lattice, config, every=False)]


def run(g: np.ndarray, lattice: GaborLattice, config: IterationConfig) -> IterationTrace:
    """Run an iteration to the configured stopping rule and record it."""
    return _traces(factorize(g, lattice).blocks[None], lattice, config, every=True)[0]


def scalar_iteration(sigmas: np.ndarray, config: IterationConfig) -> np.ndarray:
    """Run an iteration as a scalar recursion on singular values.

    This is the block iteration of ``run`` on 1 x 1 blocks: sigma viewed as
    one member, a batch of n (1, 1, 1, 1) blocks with Gram sigma^2, for
    exactly ``config.max_steps`` steps, whatever its stop mode.  Returns the
    (max_steps+1, n) trace of sigma vectors; a run that diverges (an iterand
    whose norm is not finite) is frozen at the iterand before.  Norm scaling
    is scale-invariant in the input; for initial scaling pass raw singular
    values (so sigma^2 is the frame-operator spectrum) and an explicit Bhat
    (no lattice, no estimate).  Computations stay in the input dtype, so
    longdouble input gives an extended-precision trace.
    """
    if config.scaling == "initial" and config.Bhat is None:
        raise ValueError("initial scaling of a scalar run needs an explicit Bhat")
    config = replace(config, stop_mode="fixed", tol=None)
    sig = _prescale(np.asarray(sigmas).reshape(1, -1, 1, 1, 1, 1), None, config)
    # fixed steps stop early only on a non-finite iterand: freeze at the last one
    trace = [blocks.reshape(-1) for blocks in _iterate(sig, config)[0][0]]
    return np.array(trace + trace[-1:] * (config.max_steps + 1 - len(trace)))


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
