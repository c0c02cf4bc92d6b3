"""gabwin benchmark.

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 14 --trace 0

Runs one workload (``iterate``, ``direct``, ``cli-paper``, or ``all``, each in
its own process) against the gabwin sources in ``src/`` of the checkout this
file sits in, with inputs drawn from ``--seed``.  Ops run in whole rounds
until ``--seconds`` of op time have passed; every op is checked after it is
timed, and a failed or wrong op counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_ms_p50,
op_ms_tail (the highest percentile with at least 10 samples beyond it),
setup_s (median of several fresh-process set-ups: interpreter start, import,
seeded inputs and one warm-up op) and peak_rss_mb.  Times are scaled to
reference machine speed (see speed.py); the raw figures are printed too.
``--trace 1`` runs the ops once untraced, then the same ops traced, and
reports per-op layer metrics (see tracing.py and costmodel.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit, fail_frac, and the environment.

``--smoke`` runs one round of every workload at a tiny size (cli-paper at
its normal size) with every correctness gate and no timing.
"""

import os

# The workload process runs on one core: one BLAS/OpenMP thread, set through
# its environment, and affinity to a single CPU, inherited by the set-up
# processes.  On a shared machine a second core adds the neighbours' noise to
# every multi-threaded command.  The CLI's thread pools keep their default
# worker count, which then shares that core: their overhead is measured, their
# parallel speed-up is not.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 170


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = os.cpu_count() or 1
    return {
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "cli_thread_pool": ("ThreadPoolExecutor default max_workers = "
                            f"min(32, cpu_count + 4) = {min(32, cpus + 4)}, unchanged"),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "cpu_count": cpus,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def tail(values):
    """Latency at the highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count).  With 10 samples or fewer no such
    percentile exists, and the maximum is reported as percentile 100."""
    s = sorted(values)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def run_ops(wl, seconds=None, count=None, tracer=None, probe=None):
    """Run ops 0, 1, ... in whole rounds until ``seconds`` of op time (or
    exactly ``count`` ops).  Returns (latencies in s, failures, coverage,
    scales): coverage is the op time covered by top-level spans when traced,
    scales the machine-speed factor of each op when a probe is given.  With
    a probe, op time is counted at reference speed, so the number of rounds
    does not follow the machine's speed."""
    latencies, failures, covered, scales = [], [], 0, []
    before = probe.measure() if probe is not None else None
    elapsed = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.round_len == 0 and elapsed >= seconds:
            break
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter_ns()
        try:
            result = wl.op(i)
        except Exception as exc:  # a failed op is counted, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        end = time.perf_counter_ns()
        if tracer is not None:
            covered += tracer.end_op(start, end)
        latencies.append((end - start) * 1e-9)
        if probe is not None:
            after = probe.measure()
            scales.append(probe.scale(before, after))
            before = after
        elapsed += latencies[-1] * (scales[-1] if scales else 1.0)
        if error is None:
            try:
                error = wl.check(i, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {i}: {error}")
        del result
        i += 1
    return latencies, failures, covered * 1e-9, scales


def make_workload(name, seed, smoke=False):
    import workloads

    return workloads.WORKLOADS[name](seed, smoke)


def setup_probe(name, seed) -> None:
    """Set up as a timed run would and print the wall-clock time when the
    first timed op could start."""
    wl = make_workload(name, seed)
    try:
        error = wl.check(wl.warmup_index, wl.op(wl.warmup_index))
        ready = time.time()
    finally:
        wl.close()
    if error is not None:
        raise SystemExit(f"warm-up op failed: {error}")
    print(repr(ready))


def measure_setup(name, seed, probe) -> tuple[list[float], list[float]]:
    """Raw and reference-speed set-up times of fresh processes."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe.measure()
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        elapsed = float(proc.stdout.split()[-1]) - start
        raw.append(elapsed)
        scaled.append(elapsed * probe.scale(before, probe.measure()))
    return raw, scaled


def end_to_end(name, seed, seconds):
    probe = speed.SpeedProbe()
    setup_raw, setup = measure_setup(name, seed, probe)
    wl = make_workload(name, seed)
    try:
        warm = wl.check(wl.warmup_index, wl.op(wl.warmup_index))
        raw, failures, _, scales = run_ops(wl, seconds, probe=probe)
    finally:
        wl.close()
    latencies = [t * f for t, f in zip(raw, scales)]
    verified = len(latencies) - len(failures)
    # the untimed warm-up op is attempted and checked like every other op
    attempted = len(latencies) + 1
    if warm is not None:
        failures.insert(0, f"warm-up: {warm}")
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "ops_per_s": (verified / sum(latencies), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "op_ms_tail_percentile": tail_pct,
        "op_samples": n,
        "fail_frac": len(failures) / attempted,
        "timed_s": sum(raw),
        "setup_s_samples": setup,
        "speed_probe_ms_median": 1e3 * statistics.median(probe.samples),
        "raw": {
            "ops_per_s": verified / sum(raw),
            "op_ms_p50": 1e3 * statistics.median(raw),
            "op_ms_tail": 1e3 * tail(raw)[0],
            "setup_s": statistics.median(setup_raw),
        },
    }
    return attempted, failures, metrics, detail


def layer_metrics(name, seed, seconds):
    import costmodel
    import tracing

    counters = {"steps": 0, "step_flops": 0.0, "step_bytes": 0.0}
    direct = {m: [0.0, 0.0] for m in ("EIG", "SVD", "INV")}

    def on_run(trace):
        steps = trace.steps_taken
        config = trace.config
        flops, nbytes = costmodel.step_cost(trace.lattice, config.algorithm_name,
                                            config.scaling)
        counters["steps"] += steps
        counters["step_flops"] += flops * steps
        counters["step_bytes"] += nbytes * steps

    def on_direct(method):
        def hook(fac):
            flops, nbytes = costmodel.direct_cost(fac.lattice, method)
            direct[method][0] += flops
            direct[method][1] += nbytes
        return hook

    methods = {"eig_tight": "EIG", "svd_tight": "SVD", "inv_dual": "INV"}
    tracer = tracing.Tracer(on_return={
        "iterations.run": on_run,
        **{f"canonical.{fn}": on_direct(m) for fn, m in methods.items()},
    })
    # the two phases run one after the other, so their times are compared
    # at reference speed
    probe = speed.SpeedProbe()
    wl = make_workload(name, seed)
    try:
        warm = wl.check(wl.warmup_index, wl.op(wl.warmup_index))
        plain, plain_failures, _, plain_scales = run_ops(wl, seconds / 2, probe=probe)
        tracer.install()
        try:
            traced, failures, covered, scales = run_ops(wl, count=len(plain),
                                                        tracer=tracer, probe=probe)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    if warm is not None:
        failures.insert(0, f"warm-up: {warm}")
    failures += plain_failures
    ops = len(traced)
    traced_s = sum(traced)
    steps = counters["steps"]

    def per_op(x):
        return x / ops

    def ratio(x, y):
        return x / y if y else 0.0

    m = {}
    for span in tracing.SPAN_NAMES:
        m[f"{span}.calls"] = (per_op(tracer.calls[span]), "calls/op")
        m[f"{span}.self_ms"] = (per_op(tracer.self_ns[span] * 1e-6), "ms/op")
    # step time: self time of run, which holds the private step kernels, plus
    # the Cholesky solves of algorithm I's steps, a traced span of their own.
    # It also holds run's untraced bookkeeping: the per-step error and norms
    # of its diagnostics record, and the Gram of g made once per run.
    step_s = 1e-9 * (tracer.self_ns["iterations.run"] + tracer.nested_ns.get(
        ("iterations.run", "canonical.cholesky_solve_blocks"), 0))
    m["iterations.steps"] = (per_op(steps), "steps/op")
    m["iterations.step_ms"] = (ratio(1e3 * step_s, steps), "ms/step")
    for span in ("zak.unfactorize", "zak.block_gram", "diagnostics.adjoint_correlations"):
        m[f"{span}.per_step"] = (ratio(tracer.calls[span], steps), "calls/step")
    m["iterations.step_flops"] = (ratio(counters["step_flops"], steps), "flop/step")
    m["iterations.step_bytes"] = (ratio(counters["step_bytes"], steps), "B/step")
    m["iterations.step_flops_per_byte"] = (
        ratio(counters["step_flops"], counters["step_bytes"]), "flop/B")
    m["iterations.step_gflops"] = (ratio(counters["step_flops"] * 1e-9, step_s),
                                   "GFLOP/s")
    for fn, method in methods.items():
        span = f"canonical.{fn}"
        calls = tracer.calls[span]
        flops, nbytes = direct[method]
        m[f"{span}.flops"] = (ratio(flops, calls), "flop/call")
        m[f"{span}.bytes"] = (ratio(nbytes, calls), "B/call")
        m[f"{span}.flops_per_byte"] = (ratio(flops, nbytes), "flop/B")
        # inclusive time: the model counts the Gram built inside the solve
        m[f"{span}.gflops"] = (ratio(flops * 1e-9, tracer.total_ns[span] * 1e-9),
                               "GFLOP/s")
    m["warnings.runtime"] = (per_op(tracer.runtime_warnings), "warnings/op")
    m["trace.unattributed_frac"] = (1.0 - covered / traced_s, "fraction")
    traced_ref_s = sum(t * f for t, f in zip(traced, scales))
    plain_ref_s = sum(t * f for t, f in zip(plain, plain_scales))
    m["trace.overhead_frac"] = (traced_ref_s / plain_ref_s - 1.0, "fraction")
    detail = {
        "traced_ops": ops,
        "traced_s": traced_s,
        "untraced_s": sum(plain),
        "traced_ref_s": traced_ref_s,
        "untraced_ref_s": plain_ref_s,
        "layer_times": "raw, not scaled to reference speed",
        "flops": "computed from flop_estimate; bytes computed from array sizes",
    }
    return ops + len(plain) + 1, failures, m, detail


def run_workload(args) -> int:
    if args.trace:
        attempted, failures, metrics, detail = layer_metrics(
            args.workload, args.seed, args.seconds)
    else:
        attempted, failures, metrics, detail = end_to_end(
            args.workload, args.seed, args.seconds)
    for failure in failures[:20]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(), **detail}))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    print(f"{args.workload} fail_frac {len(failures) / attempted:.6g} fraction "
          f"({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, combined into one result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def smoke() -> int:
    """One round of every workload at a tiny size, all gates, no timing."""
    import workloads

    failed = 0
    for name in workloads.WORKLOADS:
        wl = make_workload(name, seed=0, smoke=True)
        try:
            latencies, failures, _, _ = run_ops(wl, count=wl.round_len)
        finally:
            wl.close()
        for failure in failures:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        print(f"smoke {name}: {len(latencies)} ops, {len(failures)} failed")
        failed += len(failures)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "iterate", "direct", "cli-paper"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gabwin" / "__init__.py").is_file():
        print(f"error: gabwin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        return smoke()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
