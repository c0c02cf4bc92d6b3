"""Command-line experiment harness.

Two entry points: ``canonical`` computes a tight or dual window for one
system and writes the window (binary complex64) plus a JSON diagnostics
report; ``experiment`` reproduces the convergence, divergence, scaling and
precision studies as CSV datasets.  All experiments are deterministic for
fixed flags; floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from . import diagnostics
from .canonical import eig_tight, inv_dual, svd_tight
from .dense import reference_dual, reference_tight
from .errors import InvalidLatticeError, NotAFrameError
from .iterations import (
    IterationConfig,
    _run_stack,
    flop_estimate,
    run,
    upper_frame_bound_estimate,
)
from .lattice import GaborLattice, derive_lattice
from .scalarlab import two_point_norm_scaled
from .windows import gaussian_window, monster_window, sech_window
from .zak import (SpectralSummary, ZakFactorization, _require_frame, block_gram, factorize,
                  frame_bounds, unfactorize)

EXIT_NOT_A_FRAME = 2
EXIT_DIVERGED = 3
EXIT_NOT_CONVERGED = 4
EXIT_WRONG_LIMIT = 5
_EXIT_CODES = {"converged": 0, "diverging": EXIT_DIVERGED, "non_finite": EXIT_DIVERGED,
               "oscillating": EXIT_NOT_CONVERGED, "budget": EXIT_NOT_CONVERGED}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")


def write_sidecar(path: str, args: argparse.Namespace) -> None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "command": vars(args).copy(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
            "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "gabwin": __version__,
        },
    }
    info["command"].pop("func", None)
    with open(path + ".json", "w") as fh:
        json.dump(info, fh, indent=2, default=str)
        fh.write("\n")


def make_window(spec: str, lattice: GaborLattice) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "gauss":
        return gaussian_window(lattice.L, float(arg or 1.0))
    if kind == "sech":
        return sech_window(lattice.L, float(arg or 1.0))
    if kind == "monster":
        return monster_window(lattice, float(arg or 6.0))
    if kind == "file":
        with open(arg, "rb") as fh:
            raw = fh.read()
        if len(raw) != 8 * lattice.L:  # L complex64 samples, nothing else
            raise ValueError(f"window file holds {len(raw)} bytes, lattice needs "
                             f"{8 * lattice.L} ({lattice.L} complex64 samples)")
        return np.frombuffer(raw, dtype="<c8").astype(complex)
    raise ValueError(f"unknown window spec {spec!r}")


def save_window(path: str, values: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # a sample that does not fit is the error below
        samples = np.asarray(values, dtype=complex).astype("<c8")
    if not np.isfinite(samples).all():
        raise ValueError(
            f"largest |sample| {np.abs(values).max():.3g} overflows complex64")
    samples.tofile(path)


def _frame_bounds(fac: ZakFactorization) -> SpectralSummary:
    """Best frame bounds of the window whose factorization is fac;
    NotAFrameError when it is not a frame (SpectralSummary.is_frame)."""
    return _require_frame(frame_bounds(block_gram(fac, fac)))


def _steps_to_converge(trace) -> int:
    return trace.steps_taken if trace.converged else -1


def cmd_canonical(args: argparse.Namespace) -> int:
    if args.method in ("eig", "svd", "inv", "ref"):
        given = [flag for flag, keywords in _ITERATION_OPTIONS.items()
                 if getattr(args, flag[2:]) != keywords["default"]]
        if given:
            raise ValueError(f"method {args.method} does not iterate: it takes no "
                             + ", ".join(given))
    lattice = derive_lattice(args.L, args.a, args.b)
    g = make_window(args.window, lattice).astype(complex)
    fac = factorize(g, lattice)
    summary = _frame_bounds(fac)

    report: dict = {
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "lattice": {f: getattr(lattice, f) for f in
                    ("L", "a", "b", "M", "N", "c", "d", "p", "q")},
        "frame_bounds_input": {"A": summary.lower, "B": summary.upper,
                               "ratio": summary.ratio},
    }

    code = 0
    if args.method.startswith("iter:"):
        name = args.method.split(":", 1)[1]
        config = IterationConfig.from_algorithm(
            name, scaling=args.scaling.replace("-", "_"), Bhat=args.Bhat,
            max_steps=args.steps, tol=args.tol)
        if config.target != args.target:
            raise ValueError(
                f"algorithm {name} computes the {config.target} window, "
                f"not {args.target}")
        trace = run(g, lattice, config)
        out, gamma = trace.blocks[-1], trace.final
        wrong = trace.converged and trace.wrong_limit
        if trace.converged and not wrong:
            # the limit is t h, h the canonical window, and Wexler-Raz fixes
            # t: h has squared norm ab/L (tight), and <h, g> = ab/L for the
            # input g as given (dual, as A^{g,h} = I; <u, v> = sum u conj(v))
            if args.target == "tight":
                t = np.linalg.norm(out) / np.sqrt(lattice.density)
            else:
                t = np.vdot(fac.blocks, out) / lattice.density
            out, gamma = out / t, gamma / t
        code = EXIT_WRONG_LIMIT if wrong else _EXIT_CODES[trace.stop_reason]
        report["iteration"] = {
            "algorithm": name,
            "scaling": config.scaling,
            "steps": trace.steps_taken,
            "stop_reason": trace.stop_reason,
            "wrong_limit": trace.wrong_limit,
            "final_rel_step": trace.rel_steps[-1] if trace.rel_steps else None,
            "error_vs_reference": trace.errors[-1],
            "flops_per_step": flop_estimate(lattice, name),
        }
    elif args.method in ("eig", "svd", "inv"):
        fn = {"eig": eig_tight, "svd": svd_tight, "inv": inv_dual}[args.method]
        want = "dual" if args.method == "inv" else "tight"
        if want != args.target:
            raise ValueError(f"method {args.method} computes the {want} window")
        result = fn(fac)
        out, gamma = result.blocks, unfactorize(result)
        report["flops"] = flop_estimate(lattice, args.method.upper())
    elif args.method == "ref":
        gamma = (reference_tight if args.target == "tight" else reference_dual)(
            g, lattice)
        out = factorize(gamma, lattice).blocks
    else:
        raise ValueError(f"unknown method {args.method!r}")

    out_summary, dln, wr = diagnostics._report(fac.blocks, out, lattice, args.target)
    report["result"] = {
        "dual_lattice_norm": dln,
        "wexler_raz_residual": wr,
        "window_norm": float(np.linalg.norm(gamma)),
        # A^{gamma,gamma} is semidefinite: a lower bound <= 0 is roundoff, no ratio
        "frame_bounds": {"A": out_summary.lower, "B": out_summary.upper,
                         "ratio": out_summary.ratio if out_summary.is_frame else None},
    }

    with open(args.out + ".report.json", "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    try:
        save_window(args.out + ".window", gamma)
    except ValueError as exc:  # the report stands; no exit 0 without a window
        print(f"error: window not written: {exc}", file=sys.stderr)
        return code or 1
    print(f"{args.target} window via {args.method}: dual lattice norm {dln:.3e}, "
          f"Wexler-Raz residual {wr:.3e} -> {args.out}.window")
    return code


# ---------------------------------------------------------------------------
# experiments

_ALGOS = ("I", "II", "III", "IV", "V")


def exp_convergence(args):
    lattice = derive_lattice(args.L, args.a, args.b)
    g = make_window(args.window, lattice).astype(complex)
    rows = []
    traces = {}
    for name in _ALGOS:
        config = IterationConfig.from_algorithm(
            name, max_steps=args.steps, stop_mode="fixed")
        traces[name] = run(g, lattice, config)
    for k in range(1, args.steps + 1):
        rows.append([k] + [traces[n].errors[k] for n in _ALGOS])
    return ["step", "err_I", "err_II", "err_III", "err_IV", "err_V"], rows


def exp_scaling_compare(args):
    lattice = derive_lattice(args.L, args.a, args.b)
    g = make_window(args.window, lattice).astype(complex)
    traces = [run(g, lattice, IterationConfig.from_algorithm(
                  "II", scaling=scaling, max_steps=args.steps, stop_mode="fixed"))
              for scaling in ("norm", "initial", "initial_optimal", "constant_optimal")]
    rows = [[k] + [t.errors[k] for t in traces] for k in range(1, args.steps + 1)]
    header = ["step", "err_norm", "err_initial_bbound", "err_initial_optimal",
              "err_constant_optimal"]
    return header, rows


def exp_monster(args):
    lattice = derive_lattice(args.L, args.a, args.b)
    g = monster_window(lattice, args.sigma).astype(complex)
    t2 = run(g, lattice, IterationConfig.from_algorithm(
        "II", max_steps=args.steps, stop_mode="fixed"))
    t4 = run(g, lattice, IterationConfig.from_algorithm(
        "IV", max_steps=args.steps, stop_mode="fixed"))
    rows = []
    for k in range(args.steps + 1):
        rows.append([
            k, t2.dual_lattice_norms[k], t2.errors[k],
            t4.bounds[k].lower, t4.bounds[k].upper,
        ])
    return ["step", "ii_dual_lattice_norm", "ii_error", "iv_E", "iv_F"], rows


_W_SWEEP = (1/8, 1/7, 1/6, 1/5, 1/4, 1/3, 1/2, 2/3, 1.0, 1.5, 2.0, 3.0, 4.0,
            5.0, 6.0, 7.0, 8.0)


def _sweep_windows(args):
    """The lattice of --L --a --b, the stacked Zak blocks of the Gaussians of
    the widths _W_SWEEP on it, and the factorization of each (a stack view)."""
    lattice = derive_lattice(args.L, args.a, args.b)
    stack = np.stack([factorize(gaussian_window(lattice.L, w).astype(complex), lattice).blocks
                      for w in _W_SWEEP])
    return lattice, stack, [ZakFactorization(lattice, blocks) for blocks in stack]


def exp_precision(args):
    lattice, stack, facs = _sweep_windows(args)
    traces = _run_stack(stack, lattice, IterationConfig.from_algorithm("II", max_steps=40))

    def dln(x):  # of the unit-norm window whose Zak blocks are x
        return diagnostics._off_origin_mass(diagnostics._unit_correlations(x, x, lattice))
    rows = [[w, _frame_bounds(fac).ratio, dln(eig_tight(fac).blocks),
             dln(svd_tight(fac).blocks), dln(trace.blocks[-1]), trace.steps_taken]
            for w, fac, trace in zip(_W_SWEEP, facs, traces)]
    return ["w", "frame_bound_ratio", "eig_err", "svd_err", "iter_err",
            "iter_steps"], rows


def exp_iterations_vs_ratio(args):
    lattice, stack, facs = _sweep_windows(args)
    rows = [[w, _frame_bounds(fac).ratio] for w, fac in zip(_W_SWEEP, facs)]
    Bhat = np.array([upper_frame_bound_estimate(block_gram(fac, fac)) for fac in facs])
    prescaled = stack / np.sqrt(Bhat)[:, None, None, None, None]
    for name in _ALGOS:
        initial = name != "I"
        config = IterationConfig.from_algorithm(
            name, max_steps=60, **({"scaling": "initial", "Bhat": 1.0} if initial else {}))
        # one algorithm's traces at a time: each holds two iterands a member
        steps = [_steps_to_converge(trace) for trace in
                 _run_stack(prescaled if initial else stack, lattice, config)]
        for row, n in zip(rows, steps):
            row.append(n)
    return ["w", "frame_bound_ratio", "steps_I", "steps_II", "steps_III",
            "steps_IV", "steps_V"], rows


def _sweep_cells(trace) -> list:
    """Steps to converge and the stop flag of a scaling-sweep trace."""
    if trace.converged:
        # past the sign-flip boundary an iteration can still halt by step size,
        # on a wrong window that the sign of its own mixed Gram shows
        flag = "wrong_limit" if trace.wrong_limit else "converged"
    else:
        flag = "diverged"
    return [_steps_to_converge(trace), flag]


def exp_scaling_sweep(args):
    lattice = derive_lattice(args.L, args.a, args.b)
    g = make_window(args.window, lattice).astype(complex)
    fac = factorize(g, lattice)
    B_best = _frame_bounds(fac).upper
    upper = 5.3 if args.target == "tight" else 2.9
    grid = np.round(np.arange(0.1, upper + 1e-9, 0.2), 10)
    # g prescaled to upper bound b, under the raw polynomial
    stack = fac.blocks / np.sqrt(B_best / grid)[:, None, None, None, None]
    rows = [[b_scaled] for b_scaled in grid]
    for order in (2, 3):
        config = IterationConfig(target=args.target, order=order, scaling="initial",
                                 Bhat=1.0, max_steps=80)
        cells = [_sweep_cells(trace) for trace in _run_stack(stack, lattice, config)]
        for row, cell in zip(rows, cells):
            row += cell
    header = ["B_scaled", "steps_m2", "flag_m2", "steps_m3", "flag_m3"]
    return header, rows


_FIBONACCI = ((2, 3, 216, 12, 12), (3, 5, 540, 18, 18),
              (5, 8, 640, 20, 20), (8, 13, 936, 24, 24))


def tune_width_to_ratio(lattice: GaborLattice, target_ratio: float,
                        lo: float = 1.0, hi: float = 40.0) -> float:
    """The Gaussian width in [lo, hi] whose frame bound ratio matches, by
    Illinois regula falsi on h(w) = log ratio(w) - log target_ratio
    (Dowell and Jarratt, BIT 11, 1971): an end of the bracket that stays
    twice in a row has its weight in the secant halved.  It bisects while
    h(hi) is not finite (no frame), and stops at adjacent floats or after
    60 evaluations of h; the end of smaller |h| is returned.  ValueError
    when the finite ratios of the bracket miss the target: h(lo) >= 0, or
    h(hi) < 0, or h(hi) ends not finite."""
    def h(w):
        g = gaussian_window(lattice.L, w).astype(complex)
        fac = factorize(g, lattice)
        return math.log(frame_bounds(block_gram(fac, fac)).ratio) - log_target

    missed = ValueError(f"frame bound ratio {target_ratio} is not reached by "
                        f"Gaussian widths in [{lo}, {hi}]")
    if not 0 < target_ratio < math.inf:
        raise missed
    log_target = math.log(target_ratio)
    h_lo, h_hi = h(lo), h(hi)
    if not (h_lo < 0 <= h_hi):
        raise missed
    weight_lo = weight_hi = 1.0
    side = 0  # the end of the bracket that the last secant step moved
    for _ in range(58):
        if h_hi == 0 or math.nextafter(lo, hi) == hi:
            break
        w, secant = 0.5 * (lo + hi), h_hi < math.inf
        if secant:
            y_lo, y_hi = weight_lo * h_lo, weight_hi * h_hi
            w = (lo * y_hi - hi * y_lo) / (y_hi - y_lo)
            if not lo < w < hi:
                w, secant = 0.5 * (lo + hi), False
        h_w = h(w)
        moved = -1 if h_w < 0 else 1
        if secant and moved == side and moved < 0:  # hi stays a second time
            weight_hi *= 0.5
        elif secant and moved == side:
            weight_lo *= 0.5
        if moved < 0:
            lo, h_lo, weight_lo = w, h_w, 1.0
        else:
            hi, h_hi, weight_hi = w, h_w, 1.0
        side = moved if secant else 0
    if h_hi == math.inf:
        raise missed
    return hi if h_hi <= -h_lo else lo


def _fibonacci_item(pp, qq, L, a, b, target_ratio):
    lattice = derive_lattice(L, a, b)
    assert (lattice.p, lattice.q) == (pp, qq)
    w = tune_width_to_ratio(lattice, target_ratio)
    g = gaussian_window(L, w).astype(complex)
    ratio = _frame_bounds(factorize(g, lattice)).ratio
    row = [pp, qq, L, a, b, w, ratio]
    for name in ("I", "II", "IV"):
        trace = run(g, lattice, IterationConfig.from_algorithm(name, max_steps=60))
        row.append(_steps_to_converge(trace))
    return row


def exp_fibonacci(args):
    rows = [_fibonacci_item(*f, args.ratio) for f in _FIBONACCI]
    return ["p", "q", "L", "a", "b", "w", "frame_bound_ratio",
            "steps_I", "steps_II", "steps_IV"], rows


def exp_scalar_lab(args):
    rows = []
    for algo, xmax in (("II", 3.4), ("IV", 2.6)):
        xs = np.round(np.arange(0.1, xmax + 1e-9, 0.1), 10)
        for x, cls in zip(xs, two_point_norm_scaled(xs, args.eps, algo)):
            rows.append([algo, x, args.eps, cls.value])
    return ["algo", "x", "eps", "classification"], rows


# the experiment options' add_argument keywords, and the options each one reads
_OPTIONS = {
    "--L": dict(type=int, default=432),
    "--a": dict(type=int, default=18),
    "--b": dict(type=int, default=18),
    "--window": dict(default="gauss:1",
                     help="gauss:<w> | sech:<w> | monster:<sigma> | file:<path>"),
    "--target": dict(choices=("tight", "dual"), default="dual"),
    "--steps": dict(type=int, default=12),
    "--sigma": dict(type=float, default=6.0, help="monster singular value"),
    "--ratio": dict(type=float, default=3.0, help="target frame bound ratio"),
    "--eps": dict(type=float, default=1e-3, help="measure of the second Zak level set"),
}
_SYSTEM = ("--L", "--a", "--b", "--window")
_EXPERIMENTS = {
    "convergence": (exp_convergence, _SYSTEM + ("--steps",)),
    "scaling-compare": (exp_scaling_compare, _SYSTEM + ("--steps",)),
    "monster": (exp_monster, ("--L", "--a", "--b", "--sigma", "--steps")),
    "precision": (exp_precision, ("--L", "--a", "--b")),
    "iterations-vs-ratio": (exp_iterations_vs_ratio, ("--L", "--a", "--b")),
    "scaling-sweep": (exp_scaling_sweep, _SYSTEM + ("--target",)),
    "fibonacci": (exp_fibonacci, ("--ratio",)),
    "scalar-lab": (exp_scalar_lab, ("--eps",)),
}

# canonical's iteration options; a direct method takes each only at its default
_ITERATION_OPTIONS = {
    "--scaling": dict(default="norm", choices=("norm", "initial", "initial-optimal",
                                               "constant-optimal")),
    "--Bhat": dict(type=float, default=None,
                   help="constant of --scaling initial (estimated when omitted)"),
    "--steps": dict(type=int, default=40),
    "--tol": dict(type=float, default=None),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    header, rows = _EXPERIMENTS[args.name][0](args)
    write_csv(args.out, header, rows)
    if args.json:
        write_sidecar(args.out, args)
    print(f"experiment {args.name}: {len(rows)} rows -> {args.out}")
    return 0


@functools.cache  # built once per process: it takes longer than a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabwin",
        description="Canonical tight/dual Gabor windows and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("canonical", help="compute one canonical window")
    for flag in _SYSTEM:
        pc.add_argument(flag, **_OPTIONS[flag])
    pc.add_argument("--target", choices=("tight", "dual"), default="tight")
    pc.add_argument("--method", default="iter:II",
                    help="iter:<I..V> | eig | svd | inv | ref")
    for flag, keywords in _ITERATION_OPTIONS.items():
        pc.add_argument(flag, **keywords)
    pc.add_argument("--out", required=True,
                    help="basename for <out>.window and <out>.report.json")
    pc.set_defaults(func=cmd_canonical)

    pe = sub.add_parser("experiment", help="run a named experiment to CSV")
    names = pe.add_subparsers(dest="name", required=True)
    for name, (_, flags) in _EXPERIMENTS.items():
        px = names.add_parser(name)
        for flag in flags:
            px.add_argument(flag, **_OPTIONS[flag])
        px.add_argument("--out", required=True, help="CSV output path")
        px.add_argument("--json", action="store_true",
                        help="write <out>.json sidecar with the options and environment")
        px.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (NotAFrameError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_FRAME
    except (InvalidLatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
