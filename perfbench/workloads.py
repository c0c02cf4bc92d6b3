"""The benchmark workloads.

Each workload builds its inputs from a seed, then runs numbered ops.  An
op is timed by the caller; ``check`` verifies its output afterwards,
outside the timed region, and returns a message on failure.  Ops are run
in whole rounds (``round_len``) so that every run measures the same mix.
Op ``warmup_index`` is run once, untimed, before timing starts.

iterate    one ``run()`` to the auto stop at (8640, 72, 80), p=2, q=3.
           Algorithms cycle I..V, scalings cycle norm, initial,
           initial_optimal, constant_optimal (I uses norm only).  Most of
           the time goes to diagnostics, unfactorize and Gram calls around
           the steps, so diagnostics and run-loop changes show here.
direct     factorize one seeded window at (65536, 256, 128), p=1, q=2, then
           frame bounds, eig_tight, svd_tight, inv_dual and unfactorize of
           each.  32768 tiny blocks: zak and canonical only, no diagnostics
           and no iterations, so a change to those should not move it.
cli-paper  one in-process ``gabwin.cli.main`` command out of a pass of all
           experiments at their defaults plus ``canonical`` at L=432 for
           every method on a seeded Gaussian and a seeded sech window.
           Many small calls at L <= 936, the overhead of the CLI thread
           pools (on one core, so not their parallel speed-up), the dense
           oracle and file output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import gabwin as gw
from gabwin import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# command outputs go to a temporary directory inside the checkout, not the
# system one: the benchmark reads and writes only inside its checkout.  A
# killed run leaves a .perfbench-* directory there, which .gitignore names.
WORKDIR = Path(__file__).resolve().parent.parent

ALGORITHMS = ("I", "II", "III", "IV", "V")
SCALINGS = ("norm", "initial", "initial_optimal", "constant_optimal")

# golden CSVs: integer, flag and classification columns must match exactly;
# float columns must satisfy |x - y| <= ATOL + RTOL * max(|x|, |y|).  ATOL is
# the floor for values at machine precision (errors and dual lattice norms
# of converged windows sit between 1e-16 and 1e-12).
CSV_RTOL = 1e-6
CSV_ATOL = 1e-11
_EXACT_COLUMNS = {"step", "algo", "classification", "iter_steps",
                  "p", "q", "L", "a", "b"}

# a canonical window is at machine precision when its dual lattice norm is
# below this (the dense SVD oracle at L=432 reaches about 5e-13)
CANONICAL_DLN_MAX = 1e-11
# tolerance of the block-domain identities and of eig/svd agreement
IDENTITY_TOL = 1e-9
ITERATE_ERROR_MAX = 1e-10


def stratified_widths(rng: np.random.Generator, n: int) -> np.ndarray:
    """n widths log-uniform in [1/2, 2], one from each of n equal strata of
    log w, in shuffled order, so every seed covers the whole range."""
    u = (np.arange(n) + rng.random(n)) / n
    return rng.permutation(2.0 ** (2.0 * u - 1.0))


def _window_pool(rng, L: int, n: int):
    """n seeded windows, alternately Gaussian and sech."""
    pool = []
    for k, w in enumerate(stratified_widths(rng, n)):
        make = gw.gaussian_window if k % 2 == 0 else gw.sech_window
        pool.append(make(L, float(w)).astype(complex))
    return pool


def _rel(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


class Iterate:
    name = "iterate"
    warmup_index = 0
    round_len = len(ALGORITHMS) * len(SCALINGS)

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.lattice = gw.derive_lattice(*((432, 18, 18) if smoke else (8640, 72, 80)))
        self.windows = _window_pool(rng, self.lattice.L, 8)
        self.configs = []
        for i in range(self.round_len):
            algorithm = ALGORITHMS[i % len(ALGORITHMS)]
            scaling = "norm" if algorithm == "I" else SCALINGS[i // len(ALGORITHMS)]
            self.configs.append(gw.IterationConfig.from_algorithm(algorithm,
                                                                  scaling=scaling))

    def _inputs(self, i: int):
        # shift the window against the config cycle every round, so each
        # config meets a different window each round
        window = self.windows[(i + i // self.round_len) % len(self.windows)]
        return window, self.configs[i % self.round_len]

    def op(self, i: int):
        g, config = self._inputs(i)
        return gw.run(g, self.lattice, config)

    def check(self, i: int, trace) -> str | None:
        g, config = self._inputs(i)
        label = f"{config.algorithm_name}/{config.scaling}"
        if not trace.converged or trace.wrong_limit:
            return (f"{label}: converged={trace.converged} "
                    f"wrong_limit={trace.wrong_limit}")
        if not trace.errors[-1] <= ITERATE_ERROR_MAX:
            return f"{label}: error {trace.errors[-1]:.3e} against the reference"
        out = gw.factorize(trace.final, self.lattice)
        if config.target == "tight":
            deviation = abs(gw.frame_bounds(gw.block_gram(out, out)).ratio - 1.0)
        else:
            mixed = gw.block_gram(gw.factorize(g, self.lattice), out).blocks
            p = self.lattice.p
            kappa = np.trace(mixed, axis1=-2, axis2=-1).mean() / p
            deviation = float(np.abs(mixed - kappa * np.eye(p)).max() / abs(kappa))
        if not deviation <= IDENTITY_TOL:
            return f"{label}: block identity off by {deviation:.3e}"
        return None

    def close(self):
        pass


class Direct:
    name = "direct"
    warmup_index = 0
    round_len = 1

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.lattice = gw.derive_lattice(*((256, 16, 8) if smoke else (65536, 256, 128)))
        # one window, so every op does the same work and latency is unimodal
        make = gw.gaussian_window if rng.random() < 0.5 else gw.sech_window
        self.window = make(self.lattice.L, float(stratified_widths(rng, 1)[0])).astype(complex)

    def op(self, i: int):
        fac = gw.factorize(self.window, self.lattice)
        bounds = gw.frame_bounds(gw.block_gram(fac, fac))
        results = (gw.eig_tight(fac), gw.svd_tight(fac), gw.inv_dual(fac))
        signals = [gw.unfactorize(r) for r in results]
        return fac, bounds, results, signals

    def check(self, i: int, out) -> str | None:
        fac, bounds, (eig, svd, inv), signals = out
        if not bounds.is_frame:
            return f"not a frame: lower bound {bounds.lower:.3e}"
        if not all(np.isfinite(s).all() and len(s) == self.lattice.L for s in signals):
            return "unfactorized result is not a finite length-L signal"
        agree = _rel(eig.blocks, svd.blocks)
        if not agree <= IDENTITY_TOL:
            return f"eig_tight and svd_tight differ by {agree:.3e}"
        residual = _rel(gw.apply_block_operator(gw.block_gram(fac, fac), inv).blocks,
                        fac.blocks)
        if not residual <= IDENTITY_TOL:
            return f"inv_dual: S gamma = g off by {residual:.3e}"
        return None

    def close(self):
        pass


# experiment name in the golden directory -> argv after "experiment"
EXPERIMENTS = {
    "convergence": ["convergence"],
    "scaling-compare": ["scaling-compare"],
    "monster": ["monster", "--L", "600", "--a", "20", "--b", "20", "--sigma", "6"],
    "precision": ["precision"],
    "iterations-vs-ratio": ["iterations-vs-ratio"],
    "scaling-sweep-tight": ["scaling-sweep", "--target", "tight"],
    "scaling-sweep-dual": ["scaling-sweep", "--target", "dual"],
    "fibonacci": ["fibonacci"],
    "scalar-lab": ["scalar-lab"],
}

CANONICAL = (("iter:I", "tight"), ("iter:II", "tight"), ("iter:III", "tight"),
             ("iter:IV", "dual"), ("iter:V", "dual"), ("eig", "tight"),
             ("svd", "tight"), ("inv", "dual"), ("ref", "tight"), ("ref", "dual"))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one gabwin command in-process; returns (exit code, its output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _is_exact(column: str) -> bool:
    return column in _EXACT_COLUMNS or column.startswith(("steps_", "flag_"))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(path: Path, golden: Path) -> str | None:
    """First difference of a CSV from its golden copy, or None."""
    got, want = _read_csv(path), _read_csv(golden)
    if not got or got[0] != want[0]:
        return f"header {got[:1]} != {want[0]}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, golden has {len(want) - 1}"
    header = want[0]
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, x, y in zip(header, row, ref):
            if x == y:
                continue
            if not _is_exact(col):
                fx, fy = float(x), float(y)
                if (math.isfinite(fx) and math.isfinite(fy)
                        and abs(fx - fy) <= CSV_ATOL + CSV_RTOL * max(abs(fx), abs(fy))):
                    continue
            return f"row {r} column {col}: {x} != golden {y}"
    return None


class CliPaper:
    name = "cli-paper"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=WORKDIR))
        self.commands = []  # (argv, golden name or None, output files)
        for name, argv in EXPERIMENTS.items():
            out = self.tmp / f"{name}.csv"
            self.commands.append((["experiment", *argv, "--out", str(out)], name, [out]))
        # every method on a seeded Gaussian and a seeded sech window
        widths = iter(stratified_widths(rng, 2 * len(CANONICAL)))
        for kind in ("gauss", "sech"):
            for method, target in CANONICAL:
                out = self.tmp / f"canonical-{len(self.commands)}"
                argv = ["canonical", "--L", "432", "--a", "18", "--b", "18",
                        "--window", f"{kind}:{float(next(widths))!r}",
                        "--method", method, "--target", target, "--out", str(out)]
                files = [Path(f"{out}.report.json"), Path(f"{out}.window")]
                self.commands.append((argv, None, files))
        self.commands = [self.commands[k] for k in rng.permutation(len(self.commands))]
        self.round_len = len(self.commands)
        # warm up on a direct solve: short, and the same work for every seed
        self.warmup_index = next(k for k, (argv, _, _) in enumerate(self.commands)
                                 if "svd" in argv)

    def op(self, i: int):
        return run_cli(self.commands[i % self.round_len][0])

    def check(self, i: int, result) -> str | None:
        argv, golden, files = self.commands[i % self.round_len]
        try:
            return self._check(argv, golden, files, *result)
        finally:
            # the next pass must write its own outputs, not find these
            for f in files:
                f.unlink(missing_ok=True)

    @staticmethod
    def _check(argv, golden, files, code, output) -> str | None:
        label = " ".join(argv[:2])
        if code != 0:
            return f"{label}: exit {code}: {output.strip()[-200:]}"
        if golden is not None:
            diff = compare_csv(files[0], GOLDEN_DIR / f"{golden}.csv")
            return f"{golden}: {diff}" if diff else None
        report, window = files
        dln = json.loads(report.read_text())["result"]["dual_lattice_norm"]
        if not dln <= CANONICAL_DLN_MAX:
            return f"{label} {argv[argv.index('--method') + 1]}: dual lattice norm {dln:.3e}"
        if window.stat().st_size != 8 * 432:
            return f"{label}: window file has the wrong size"
        return None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Iterate, Direct, CliPaper)}

