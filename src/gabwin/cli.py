"""Command-line experiment harness.

Two entry points: ``canonical`` computes a tight or dual window for one
system and writes the window (binary complex64) plus a JSON diagnostics
report; ``experiment`` reproduces the convergence, divergence, scaling and
precision studies as CSV datasets.  All experiments are deterministic for
fixed flags; floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
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
    flop_estimate,
    run,
    upper_frame_bound_estimate,
)
from .lattice import GaborLattice, derive_lattice
from .scalarlab import two_point_norm_scaled
from .windows import gaussian_window, monster_window, sech_window
from .zak import block_gram, factorize, frame_bounds, unfactorize

EXIT_NOT_A_FRAME = 2
EXIT_DIVERGED = 3


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


def write_sidecar(path: str, args: argparse.Namespace) -> None:
    info = {
        "command": vars(args).copy(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
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
        data = np.fromfile(arg, dtype="<c8")
        if len(data) != lattice.L:
            raise ValueError(
                f"window file holds {len(data)} samples, lattice needs {lattice.L}"
            )
        return data.astype(complex)
    raise ValueError(f"unknown window spec {spec!r}")


def save_window(path: str, values: np.ndarray) -> None:
    np.asarray(values, dtype=complex).astype("<c8").tofile(path)


def _steps_to_converge(trace) -> int | None:
    return trace.steps_taken if trace.converged else None


def _canonical_wr_scale(target: str, g: np.ndarray, gamma: np.ndarray,
                        lattice: GaborLattice) -> np.ndarray:
    """Rescale an iterative (normalized) limit onto the canonical scale so
    the Wexler-Raz diagonal is 1."""
    if target == "tight":
        return gamma / np.linalg.norm(gamma) * np.sqrt(lattice.density)
    corr = diagnostics.adjoint_correlations(g, gamma, lattice)[0, 0]
    return gamma / corr


def cmd_canonical(args: argparse.Namespace) -> int:
    lattice = derive_lattice(args.L, args.a, args.b)
    g = make_window(args.window, lattice).astype(complex)
    fac = factorize(g, lattice)
    summary = frame_bounds(block_gram(fac, fac))
    if not summary.is_frame:
        raise NotAFrameError("input system is not a frame")

    report: dict = {
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "lattice": {f: getattr(lattice, f) for f in
                    ("L", "a", "b", "M", "N", "c", "d", "p", "q")},
        "frame_bounds_input": {"A": summary.lower, "B": summary.upper,
                               "ratio": summary.ratio},
    }

    diverged = False
    if args.method.startswith("iter:"):
        name = args.method.split(":", 1)[1]
        config = IterationConfig.from_algorithm(
            name, scaling=args.scaling.replace("-", "_"), Bhat=args.Bhat,
            max_steps=args.steps,
            stop_mode="tol" if args.tol else "auto", tol=args.tol)
        if config.target != args.target:
            raise ValueError(
                f"algorithm {name} computes the {config.target} window, "
                f"not {args.target}")
        trace = run(g, lattice, config)
        gamma = trace.final
        diverged = trace.diverging and not trace.converged
        report["iteration"] = {
            "algorithm": name,
            "scaling": config.scaling,
            "steps": trace.steps_taken,
            "converged": trace.converged,
            "diverging": trace.diverging,
            "oscillating": trace.oscillating,
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
        gamma = unfactorize(fn(fac))
        report["flops"] = flop_estimate(lattice, args.method.upper())
    elif args.method == "ref":
        gamma = (reference_tight if args.target == "tight" else reference_dual)(
            g, lattice)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    gn = gamma / np.linalg.norm(gamma)
    canonical_gamma = _canonical_wr_scale(args.target, g, gamma, lattice)
    if args.target == "tight":
        dln = diagnostics.dual_lattice_norm_tight(gn, lattice)
        # tight windows are Wexler-Raz biorthogonal to themselves
        wr = diagnostics.wexler_raz_residual(canonical_gamma, canonical_gamma,
                                             lattice)
    else:
        dln = diagnostics.dual_lattice_norm_dual(g / np.linalg.norm(g), gn, lattice)
        wr = diagnostics.wexler_raz_residual(g, canonical_gamma, lattice)
    out_fac = factorize(gamma, lattice)
    out_summary = frame_bounds(block_gram(out_fac, out_fac))
    report["result"] = {
        "dual_lattice_norm": dln,
        "wexler_raz_residual": wr,
        "window_norm": float(np.linalg.norm(gamma)),
        "frame_bounds": {"A": out_summary.lower, "B": out_summary.upper,
                         "ratio": out_summary.ratio},
    }

    save_window(args.out + ".window", gamma)
    with open(args.out + ".report.json", "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    print(f"{args.target} window via {args.method}: dual lattice norm {dln:.3e}, "
          f"Wexler-Raz residual {wr:.3e} -> {args.out}.window")
    return EXIT_DIVERGED if diverged else 0


# ---------------------------------------------------------------------------
# experiments

_ALGOS = ("I", "II", "III", "IV", "V")


def exp_convergence(args, lattice, g):
    rows = []
    traces = {}
    for name in _ALGOS:
        config = IterationConfig.from_algorithm(
            name, max_steps=args.steps, stop_mode="fixed")
        traces[name] = run(g, lattice, config)
    for k in range(1, args.steps + 1):
        rows.append([k] + [traces[n].errors[k] for n in _ALGOS])
    return ["step", "err_I", "err_II", "err_III", "err_IV", "err_V"], rows


def exp_scaling_compare(args, lattice, g):
    strategies = [
        ("norm", {}),
        ("initial", {"Bhat": upper_frame_bound_estimate(g, lattice)}),
        ("initial_optimal", {}),
        ("constant_optimal", {}),
    ]
    traces = []
    for scaling, extra in strategies:
        config = IterationConfig.from_algorithm(
            "II", scaling=scaling, max_steps=args.steps, stop_mode="fixed", **extra)
        traces.append(run(g, lattice, config))
    rows = [[k] + [t.errors[k] for t in traces] for k in range(1, args.steps + 1)]
    header = ["step", "err_norm", "err_initial_bbound", "err_initial_optimal",
              "err_constant_optimal"]
    return header, rows


def exp_monster(args, lattice, g):
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


def _precision_item(spec):
    lattice, w = spec
    g = gaussian_window(lattice.L, w).astype(complex)
    fac = factorize(g, lattice)
    summary = frame_bounds(block_gram(fac, fac))
    ge = unfactorize(eig_tight(fac))
    gs = unfactorize(svd_tight(fac))
    trace = run(g, lattice, IterationConfig.from_algorithm("II", max_steps=40))
    def dln(x):
        return diagnostics.dual_lattice_norm_tight(x / np.linalg.norm(x), lattice)
    return [w, summary.ratio, dln(ge), dln(gs), dln(trace.final),
            trace.steps_taken]


def exp_precision(args, lattice, g):
    with concurrent.futures.ThreadPoolExecutor() as pool:
        rows = list(pool.map(_precision_item, [(lattice, w) for w in _W_SWEEP]))
    return ["w", "frame_bound_ratio", "eig_err", "svd_err", "iter_err",
            "iter_steps"], rows


def _numits_item(spec):
    lattice, w = spec
    g = gaussian_window(lattice.L, w).astype(complex)
    Bhat = upper_frame_bound_estimate(g, lattice)
    fac = factorize(g, lattice)
    ratio = frame_bounds(block_gram(fac, fac)).ratio
    row = [w, ratio]
    for name in _ALGOS:
        kwargs = {} if name == "I" else {"scaling": "initial", "Bhat": Bhat}
        trace = run(g, lattice, IterationConfig.from_algorithm(
            name, max_steps=60, **kwargs))
        row.append(_steps_to_converge(trace) or -1)
    return row


def exp_iterations_vs_ratio(args, lattice, g):
    with concurrent.futures.ThreadPoolExecutor() as pool:
        rows = list(pool.map(_numits_item, [(lattice, w) for w in _W_SWEEP]))
    return ["w", "frame_bound_ratio", "steps_I", "steps_II", "steps_III",
            "steps_IV", "steps_V"], rows


def _scaling_sweep_item(spec):
    lattice, g, B_best, target, b_scaled = spec
    row = [b_scaled]
    for order in (2, 3):
        config = IterationConfig(target=target, order=order, scaling="initial",
                                 Bhat=B_best / b_scaled, max_steps=80)
        trace = run(g, lattice, config)
        steps = _steps_to_converge(trace)
        if trace.converged:
            # past the sign-flip boundary the tight iteration can still halt
            # by step size, but on the wrong tight window
            flag = "wrong_limit" if trace.wrong_limit else "converged"
        else:
            flag = "diverged"
        row += [steps if steps is not None else -1, flag]
    return row


def exp_scaling_sweep(args, lattice, g):
    fac = factorize(g, lattice)
    summary = frame_bounds(block_gram(fac, fac))
    upper = 5.3 if args.target == "tight" else 2.9
    grid = np.round(np.arange(0.1, upper + 1e-9, 0.2), 10)
    specs = [(lattice, g, summary.upper, args.target, b) for b in grid]
    with concurrent.futures.ThreadPoolExecutor() as pool:
        rows = list(pool.map(_scaling_sweep_item, specs))
    header = ["B_scaled", "steps_m2", "flag_m2", "steps_m3", "flag_m3"]
    return header, rows


_FIBONACCI = ((2, 3, 216, 12, 12), (3, 5, 540, 18, 18),
              (5, 8, 640, 20, 20), (8, 13, 936, 24, 24))


def tune_width_to_ratio(lattice: GaborLattice, target_ratio: float,
                        lo: float = 1.0, hi: float = 40.0) -> float:
    """Bisect the Gaussian width until the frame bound ratio matches."""
    def ratio(w):
        g = gaussian_window(lattice.L, w).astype(complex)
        fac = factorize(g, lattice)
        return frame_bounds(block_gram(fac, fac)).ratio
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ratio(mid) < target_ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fibonacci_item(spec):
    pp, qq, L, a, b, target_ratio = spec
    lattice = derive_lattice(L, a, b)
    assert (lattice.p, lattice.q) == (pp, qq)
    w = tune_width_to_ratio(lattice, target_ratio)
    g = gaussian_window(L, w).astype(complex)
    fac = factorize(g, lattice)
    ratio = frame_bounds(block_gram(fac, fac)).ratio
    row = [pp, qq, L, a, b, w, ratio]
    for name in ("I", "II", "IV"):
        trace = run(g, lattice, IterationConfig.from_algorithm(name, max_steps=60))
        row.append(_steps_to_converge(trace) or -1)
    return row


def exp_fibonacci(args, lattice, g):
    specs = [f + (args.ratio,) for f in _FIBONACCI]
    with concurrent.futures.ThreadPoolExecutor() as pool:
        rows = list(pool.map(_fibonacci_item, specs))
    return ["p", "q", "L", "a", "b", "w", "frame_bound_ratio",
            "steps_I", "steps_II", "steps_IV"], rows


def exp_scalar_lab(args, lattice, g):
    rows = []
    for algo, xmax in (("II", 3.4), ("IV", 2.6)):
        for x in np.round(np.arange(0.1, xmax + 1e-9, 0.1), 10):
            cls = two_point_norm_scaled(float(x), args.eps, algo)
            rows.append([algo, x, args.eps, cls.value])
    return ["algo", "x", "eps", "classification"], rows


_EXPERIMENTS = {
    "convergence": (exp_convergence, True),
    "scaling-compare": (exp_scaling_compare, True),
    "monster": (exp_monster, True),
    "precision": (exp_precision, True),
    "iterations-vs-ratio": (exp_iterations_vs_ratio, True),
    "scaling-sweep": (exp_scaling_sweep, True),
    "fibonacci": (exp_fibonacci, False),
    "scalar-lab": (exp_scalar_lab, False),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {args.name!r}; choose from "
                         + ", ".join(sorted(_EXPERIMENTS)))
    fn, needs_window = _EXPERIMENTS[args.name]
    lattice = g = None
    if needs_window:
        lattice = derive_lattice(args.L, args.a, args.b)
        spec = args.window
        if args.name == "monster" and not spec.startswith("monster"):
            spec = f"monster:{args.sigma if args.sigma is not None else 6.0}"
        g = make_window(spec, lattice).astype(complex)
    header, rows = fn(args, lattice, g)
    write_csv(args.out, header, rows)
    if args.json:
        write_sidecar(args.out, args)
    print(f"experiment {args.name}: {len(rows)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabwin",
        description="Canonical tight/dual Gabor windows and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, default_window="gauss:1"):
        sp.add_argument("--L", type=int, default=432)
        sp.add_argument("--a", type=int, default=18)
        sp.add_argument("--b", type=int, default=18)
        sp.add_argument("--window", default=default_window,
                        help="gauss:<w> | sech:<w> | monster:<sigma> | file:<path>")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed echoed into reports (experiments are deterministic)")

    pc = sub.add_parser("canonical", help="compute one canonical window")
    common(pc)
    pc.add_argument("--target", choices=("tight", "dual"), default="tight")
    pc.add_argument("--method", default="iter:II",
                    help="iter:<I..V> | eig | svd | inv | ref")
    pc.add_argument("--scaling", default="norm",
                    choices=("norm", "initial", "initial-optimal",
                             "constant-optimal"))
    pc.add_argument("--Bhat", type=float, default=None)
    pc.add_argument("--steps", type=int, default=40)
    pc.add_argument("--tol", type=float, default=None)
    pc.add_argument("--out", required=True,
                    help="basename for <out>.window and <out>.report.json")
    pc.set_defaults(func=cmd_canonical)

    pe = sub.add_parser("experiment", help="run a named experiment to CSV")
    pe.add_argument("name", help="|".join(sorted(_EXPERIMENTS)))
    common(pe)
    pe.add_argument("--target", choices=("tight", "dual"), default="dual")
    pe.add_argument("--steps", type=int, default=12)
    pe.add_argument("--sigma", type=float, default=None,
                    help="monster singular value (monster experiment)")
    pe.add_argument("--ratio", type=float, default=3.0,
                    help="target frame bound ratio (fibonacci experiment)")
    pe.add_argument("--eps", type=float, default=1e-3,
                    help="measure of the second Zak level set (scalar-lab)")
    pe.add_argument("--out", required=True, help="CSV output path")
    pe.add_argument("--json", action="store_true",
                    help="write <out>.json sidecar with config and environment")
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
