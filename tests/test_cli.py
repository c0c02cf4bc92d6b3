import json
import sys
import warnings

import numpy as np
import pytest

import gabwin as gw
from gabwin.cli import main, tune_width_to_ratio


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_canonical_tight_iter(tmp_path):
    out = tmp_path / "tight"
    code = run_cli("canonical", "--L", 432, "--a", 18, "--b", 18,
                   "--window", "gauss:1", "--target", "tight",
                   "--method", "iter:II", "--scaling", "norm", "--out", out)
    assert code == 0
    report = json.loads((tmp_path / "tight.report.json").read_text())
    assert report["result"]["dual_lattice_norm"] < 1e-10
    assert report["iteration"]["stop_reason"] == "converged"
    win = np.fromfile(tmp_path / "tight.window", dtype="<c8")
    assert len(win) == 432


def test_canonical_svd_matches_iter(tmp_path):
    a = tmp_path / "ita"
    b = tmp_path / "svd"
    run_cli("canonical", "--window", "gauss:1", "--method", "iter:II", "--out", a)
    run_cli("canonical", "--window", "gauss:1", "--method", "svd", "--out", b)
    wa = np.fromfile(tmp_path / "ita.window", dtype="<c8")
    wb = np.fromfile(tmp_path / "svd.window", dtype="<c8")
    # normalized agreement, limited by the complex64 file quantization
    wa = wa / np.linalg.norm(wa)
    wb = wb / np.linalg.norm(wb)
    assert np.linalg.norm(wa - wb) < 2e-6


def test_canonical_dual_inv(tmp_path):
    out = tmp_path / "dual"
    code = run_cli("canonical", "--window", "gauss:1", "--target", "dual",
                   "--method", "inv", "--out", out)
    assert code == 0
    report = json.loads((tmp_path / "dual.report.json").read_text())
    assert report["result"]["wexler_raz_residual"] < 1e-10


def test_canonical_window_from_file(tmp_path):
    win = gw.sech_window(432).astype("<c8")
    path = tmp_path / "win.bin"
    win.tofile(path)
    out = tmp_path / "fromfile"
    code = run_cli("canonical", "--window", f"file:{path}",
                   "--method", "svd", "--out", out)
    assert code == 0
    report = json.loads((tmp_path / "fromfile.report.json").read_text())
    assert report["result"]["dual_lattice_norm"] < 1e-6


def test_not_a_frame_exit_code(tmp_path):
    zeros = np.zeros(432, dtype="<c8")
    path = tmp_path / "zeros.bin"
    zeros.tofile(path)
    code = run_cli("canonical", "--window", f"file:{path}",
                   "--method", "svd", "--out", tmp_path / "x")
    assert code == 2


def test_divergence_exit_code(tmp_path):
    code = run_cli("canonical", "--L", 600, "--a", 20, "--b", 20,
                   "--window", "monster:6", "--method", "iter:II",
                   "--out", tmp_path / "mon")
    assert code == 3
    report = json.loads((tmp_path / "mon.report.json").read_text())
    assert report["iteration"]["stop_reason"] == "diverging"
    assert report["result"]["dual_lattice_norm"] > 0.1


@pytest.mark.parametrize("spec", ["monster:-6", "monster:0", "gauss:nan", "sech:inf"])
def test_monster_bad_singular_value_exit_code(tmp_path, capsys, spec):
    # a window width that is not finite is an input error as well
    code = run_cli("canonical", "--L", 600, "--a", 20, "--b", 20,
                   "--window", spec, "--method", "svd",
                   "--out", tmp_path / "mon")
    assert code == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "mon.window").exists()


def test_monster_above_dense_limit(tmp_path):
    code = run_cli("canonical", "--L", 8640, "--a", 72, "--b", 80,
                   "--window", "monster:6", "--method", "svd",
                   "--out", tmp_path / "mon")
    assert code == 0
    assert (tmp_path / "mon.window").stat().st_size == 8 * 8640


def test_ref_above_dense_limit_matches_block_methods(tmp_path, monkeypatch):
    # L*N = 1.04M fiber entries, L = 8640 > the dense L <= 2048: the float64
    # windows handed to the writer agree with svd (tight) and inv (dual)
    written = []
    save = gw.cli.save_window
    monkeypatch.setattr("gabwin.cli.save_window",
                        lambda path, values: (written.append(values), save(path, values)))
    for target, method in (("tight", "ref"), ("tight", "svd"),
                           ("dual", "ref"), ("dual", "inv")):
        code = run_cli("canonical", "--L", 8640, "--a", 72, "--b", 80,
                       "--window", "gauss:1", "--target", target,
                       "--method", method, "--out", tmp_path / "c")
        assert code == 0
    for ref, block in (written[:2], written[2:]):
        assert np.linalg.norm(ref - block) < 1e-13 * np.linalg.norm(block)


def test_step_budget_exit_code(tmp_path):
    # a run that stops neither converged nor diverging writes its window
    # and report, but must not exit 0
    code = run_cli("canonical", "--method", "iter:II", "--steps", 0,
                   "--out", tmp_path / "budget")
    assert code == 4
    report = json.loads((tmp_path / "budget.report.json").read_text())
    assert report["iteration"]["stop_reason"] == "budget"
    assert report["result"]["dual_lattice_norm"] > 0.1
    assert (tmp_path / "budget.window").stat().st_size == 8 * 432


@pytest.mark.parametrize("dims,window,method,target,scaling,steps", [
    ((432, 18, 18), "gauss:1", "iter:II", "tight", "initial", 17),
    ((240, 12, 10), "gauss:0.05", "iter:V", "dual", "norm", 34)], ids=["tight", "dual"])
def test_converged_wrong_limit_exit_code(tmp_path, dims, window, method, target, scaling,
                                         steps):
    # a run that converges on a sign-flipped window writes its window and
    # report, but must not exit 0
    lattice = gw.derive_lattice(*dims)
    g = gw.cli.make_window(window, lattice).astype(complex)
    argv = ["canonical", "--L", lattice.L, "--a", lattice.a, "--b", lattice.b,
            "--window", window, "--method", method, "--target", target,
            "--scaling", scaling, "--out", tmp_path / "wrong"]
    Bhat = None
    if scaling == "initial":  # past order 2's sign-flip boundary Bhat = B/3
        fac = gw.factorize(g, lattice)
        Bhat = gw.frame_bounds(gw.block_gram(fac, fac)).upper / 3.5
        argv += ["--Bhat", Bhat]
    assert run_cli(*argv) == gw.cli.EXIT_WRONG_LIMIT == 5
    iteration = json.loads((tmp_path / "wrong.report.json").read_text())["iteration"]
    assert iteration["stop_reason"] == "converged" and iteration["steps"] == steps
    assert iteration["wrong_limit"] is True
    assert iteration["error_vs_reference"] > 1
    # a wrong limit is no multiple of the canonical window: written as it stopped
    config = gw.IterationConfig.from_algorithm(method[5:], scaling=scaling, Bhat=Bhat)
    written = np.fromfile(tmp_path / "wrong.window", dtype="<c8")
    assert np.array_equal(written, gw.run(g, lattice, config).final.astype("<c8"))


def test_loose_tol_exits_zero(tmp_path):
    # converged after 2 steps, not yet accurate, on the right branch
    code = run_cli("canonical", "--method", "iter:II", "--tol", 0.1,
                   "--out", tmp_path / "loose")
    assert code == 0
    iteration = json.loads((tmp_path / "loose.report.json").read_text())["iteration"]
    assert iteration["steps"] == 2 and iteration["wrong_limit"] is False
    assert 1e-6 < iteration["error_vs_reference"] < 1e-2


def test_window_too_wide_to_periodize_exit_code(tmp_path, capsys):
    code = run_cli("canonical", "--window", "gauss:1e300", "--out", tmp_path / "wide")
    assert code == 1
    assert "periodization shells" in capsys.readouterr().err
    assert not (tmp_path / "wide.report.json").exists()


def test_monster_overflow_bound_exit_code(tmp_path, capsys):
    # at L = 432 the largest sigma whose Gram stays finite makes a system
    # that is not a frame (exit 2); the next float up is named (exit 1)
    largest = float(np.sqrt(np.finfo(float).max / 432))
    above = float(np.nextafter(largest, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("canonical", "--window", f"monster:{largest!r}",
                       "--out", tmp_path / "top") == 2
        assert run_cli("canonical", "--window", f"monster:{above!r}",
                       "--out", tmp_path / "over") == 1
        assert run_cli("experiment", "monster", "--sigma", 1e155,
                       "--out", tmp_path / "over.csv") == 1
    err = capsys.readouterr().err
    assert f"monster singular value {above!r} overflows" in err
    assert "monster singular value 1e+155 overflows" in err
    assert not (tmp_path / "over.report.json").exists()
    assert not (tmp_path / "over.csv").exists()


@pytest.mark.parametrize("w", ["1e-300", "1e-310"])
def test_tiny_gaussian_is_not_a_frame_without_warning(tmp_path, w):
    # a spike at 0: exp(-pi t^2 / w) overflows to the 0 of the tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("canonical", "--window", f"gauss:{w}", "--out", tmp_path / "spike") == 2


@pytest.mark.parametrize("method,target", [("iter:II", "tight"), ("iter:IV", "dual")])
def test_window_beyond_complex64_is_not_written(tmp_path, capsys, method, target):
    # the run stops non_finite at an iterand whose samples complex64 cannot
    # hold: the report is written, the window is not, the exit code is the run's
    code = run_cli("canonical", "--method", method, "--target", target,
                   "--scaling", "initial", "--Bhat", 0.05, "--steps", 8,
                   "--out", tmp_path / "big")
    assert code == 3
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert report["iteration"]["stop_reason"] == "non_finite"
    assert report["result"]["window_norm"] > 1e38
    assert "largest |sample|" in capsys.readouterr().err
    assert not (tmp_path / "big.window").exists()


@pytest.mark.parametrize("method,target", [("iter:II", "tight"), ("iter:IV", "dual")])
def test_non_positive_output_lower_bound_has_no_ratio(tmp_path, method, target):
    # A^{gamma,gamma} is positive semidefinite: a lower bound <= 0 is roundoff
    # of order eps B, and B/A would be meaningless
    code = run_cli("canonical", "--method", method, "--target", target,
                   "--scaling", "initial", "--Bhat", 0.05, "--steps", 8,
                   "--out", tmp_path / "big")
    assert code == 3
    bounds = json.loads((tmp_path / "big.report.json").read_text())["result"]["frame_bounds"]
    assert bounds["A"] <= 0 < bounds["B"]
    assert bounds["ratio"] is None


def _count_zak_calls(monkeypatch):
    """Count factorize and unfactorize calls in every gabwin namespace."""
    calls = {"factorize": 0, "unfactorize": 0}
    for name in calls:
        original = getattr(gw.zak, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)
        for mod in [m for n, m in sys.modules.items() if n.startswith("gabwin")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("method,target", [("iter:II", "tight"), ("iter:IV", "dual"),
                                           ("svd", "tight"), ("inv", "dual"),
                                           ("ref", "tight"), ("ref", "dual")])
def test_canonical_report_from_output_blocks(tmp_path, monkeypatch, method, target):
    # the report is computed on the Zak blocks the command holds: no signal
    # round trip, and the values of the signal-domain diagnostics
    written = []
    save = gw.cli.save_window
    monkeypatch.setattr("gabwin.cli.save_window",
                        lambda path, values: (written.append(values), save(path, values)))
    calls = _count_zak_calls(monkeypatch)
    code = run_cli("canonical", "--window", "gauss:1", "--method", method,
                   "--target", target, "--out", tmp_path / "c")
    monkeypatch.undo()
    assert code == 0
    if method in ("svd", "inv"):
        assert calls == {"factorize": 1, "unfactorize": 1}
    else:
        assert calls["factorize"] <= 2 and calls["unfactorize"] <= 1

    lt = gw.derive_lattice(432, 18, 18)
    g, gamma = gw.gaussian_window(432).astype(complex), written[0]
    gn = gamma / np.linalg.norm(gamma)
    if target == "tight":
        dln = gw.dual_lattice_norm_tight(gn, lt)
        canonical = gn * np.sqrt(lt.density)
        wr = gw.wexler_raz_residual(canonical, canonical, lt)
    else:
        dln = gw.dual_lattice_norm_dual(g / np.linalg.norm(g), gn, lt)
        wr = gw.wexler_raz_residual(g, gamma, lt)
    fac = gw.factorize(gamma, lt)
    bounds = gw.frame_bounds(gw.block_gram(fac, fac))
    result = json.loads((tmp_path / "c.report.json").read_text())["result"]
    assert result["dual_lattice_norm"] == pytest.approx(dln, rel=0, abs=1e-13 * max(1, dln))
    assert result["wexler_raz_residual"] == pytest.approx(wr, rel=0, abs=1e-13 * max(1, wr))
    for key, value in (("A", bounds.lower), ("B", bounds.upper)):
        assert abs(result["frame_bounds"][key] - value) <= 1e-13 * bounds.upper


_ITER_RUNS = [("I", "norm")] + [(name, scaling) for name in ("II", "III", "IV", "V")
                                for scaling in ("norm", "initial", "initial-optimal",
                                                "constant-optimal")]


@pytest.mark.parametrize("dims,window", [((432, 18, 18), "gauss:1"), ((600, 20, 20), "sech:2")])
@pytest.mark.parametrize("name,scaling", _ITER_RUNS)
def test_iter_window_is_the_direct_window(tmp_path, monkeypatch, dims, window, name, scaling):
    # the written window itself, not a multiple of it: neither side normalized
    written = []
    monkeypatch.setattr("gabwin.cli.save_window", lambda path, values: written.append(values))
    target = "tight" if name in ("I", "II", "III") else "dual"
    system = [f"--{k}={v}" for k, v in zip("Lab", dims)] + ["--window", window]
    assert run_cli("canonical", *system, "--method", f"iter:{name}", "--target", target,
                   "--scaling", scaling, "--out", tmp_path / "w") == 0
    lt = gw.derive_lattice(*dims)
    fac = gw.factorize(gw.cli.make_window(window, lt).astype(complex), lt)
    direct = gw.unfactorize((gw.svd_tight if target == "tight" else gw.inv_dual)(fac))
    assert np.linalg.norm(written[0] - direct) <= 1e-12 * np.linalg.norm(direct)
    # the report sees the scale: A = B = 1, or a Wexler-Raz residual at roundoff
    result = json.loads((tmp_path / "w.report.json").read_text())["result"]
    if target == "tight":
        assert result["frame_bounds"]["A"] == pytest.approx(1.0, rel=1e-12)
        assert result["frame_bounds"]["B"] == pytest.approx(1.0, rel=1e-12)
    else:
        assert result["wexler_raz_residual"] < 1e-12


def test_dual_report_shows_the_scale_of_the_window():
    lt = gw.derive_lattice(432, 18, 18)
    fac = gw.factorize(gw.gaussian_window(432).astype(complex), lt)
    dual = gw.inv_dual(fac).blocks
    _, dln, wr = gw.diagnostics._report(fac.blocks, dual, lt, "dual")
    _, dln2, wr2 = gw.diagnostics._report(fac.blocks, 2 * dual, lt, "dual")
    assert wr < 1e-13 and wr2 == pytest.approx(1.0, rel=1e-12)
    assert dln2 == pytest.approx(dln, rel=1e-12)


def test_canonical_inv_solves_two_spectra(tmp_path, monkeypatch):
    # the input check and inv_dual's rank test read the spectrum the input's
    # Gram holds; the report solves that of the output's Gram
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (calls.append(a.shape), eigvalsh(a))[1])
    assert run_cli("canonical", "--window", "gauss:1", "--target", "dual", "--method", "inv",
                   "--out", tmp_path / "d") == 0
    assert calls == [(6, 6, 3, 3)] * 2


@pytest.mark.parametrize("option", [("--tol", 0), ("--tol", -1), ("--tol", "nan"),
                                    ("--steps", -3), ("--Bhat", "nan"),
                                    ("--scaling", "initial", "--Bhat", "inf")])
def test_bad_step_budget_or_tolerance_exit_code(tmp_path, capsys, option):
    # a tolerance, step budget or Bhat no run can use is an input error,
    # caught before any window is written
    code = run_cli("canonical", "--method", "iter:II", *option, "--out", tmp_path / "x")
    assert code == 1
    err = capsys.readouterr().err
    assert "must be" in err and option[-2].lstrip("-") in err
    assert not (tmp_path / "x.window").exists()


@pytest.mark.parametrize("scaling", ["norm", "initial-optimal", "constant-optimal"])
def test_Bhat_with_another_scaling_exit_code(tmp_path, capsys, scaling):
    # a Bhat the run would ignore is an input error, not a silent no-op
    code = run_cli("canonical", "--scaling", scaling, "--Bhat", 1e9,
                   "--out", tmp_path / "x")
    assert code == 1
    assert "takes no Bhat" in capsys.readouterr().err
    assert not (tmp_path / "x.window").exists()


def test_seed_option_removed(tmp_path, capsys):
    # a usage error exits 1, as every rejected input does (2 is not a frame)
    assert run_cli("canonical", "--seed", 5, "--out", tmp_path / "x") == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("method,target,option", [
    ("svd", "tight", ("--scaling", "initial")), ("svd", "tight", ("--Bhat", 5)),
    ("eig", "tight", ("--steps", 2)), ("inv", "dual", ("--tol", 0.1)),
    ("ref", "dual", ("--steps", -3)), ("ref", "tight", ("--Bhat", "nan"))])
def test_direct_method_rejects_iteration_options(tmp_path, capsys, method, target, option):
    # an option the method would ignore is an input error, not a silent no-op
    code = run_cli("canonical", "--method", method, "--target", target, *option,
                   "--out", tmp_path / "x")
    assert code == 1
    assert f"takes no {option[0]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_direct_method_takes_iteration_options_at_their_defaults(tmp_path):
    assert run_cli("canonical", "--method", "svd", "--scaling", "norm", "--steps", 40,
                   "--out", tmp_path / "x") == 0
    config = json.loads((tmp_path / "x.report.json").read_text())["config"]
    assert (config["scaling"], config["Bhat"], config["steps"], config["tol"]) == (
        "norm", None, 40, None)


def test_help_exits_zero(capsys):
    assert run_cli("experiment", "precision", "--help") == 0
    assert "--L" in capsys.readouterr().out


def test_wrong_method_target_pairing(tmp_path):
    code = run_cli("canonical", "--target", "dual", "--method", "svd",
                   "--out", tmp_path / "x")
    assert code == 1


def test_experiment_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli("experiment", "convergence", "--steps", 12, "--out", out)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,err_I,err_II,err_III,err_IV,err_V"
    assert len(lines) == 13
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 12
    assert max(last[1], last[2], last[3]) < 1e-12  # tight algorithms stay


@pytest.mark.parametrize("name", sorted(gw.cli._EXPERIMENTS))
def test_experiment_deterministic(tmp_path, name):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("experiment", name, "--out", a) == 0
    assert run_cli("experiment", name, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    if name != "scalar-lab":
        return
    rows = a.read_text().strip().split("\n")[1:]
    table = {(r.split(",")[0], r.split(",")[1]): r.split(",")[3] for r in rows}
    assert table[("II", "1.5")] == "both_to_one"
    assert table[("II", "2")] == "sign_flip"
    assert table[("II", "3")] == "chaotic"
    assert table[("IV", "1.3")] == "inverse_limit"
    assert table[("IV", "2")] == "negative_d"


def test_experiment_sidecar(tmp_path):
    out = tmp_path / "lab.csv"
    code = run_cli("experiment", "scalar-lab", "--out", out, "--json")
    assert code == 0
    sidecar = json.loads((tmp_path / "lab.csv.json").read_text())
    assert sidecar["command"]["name"] == "scalar-lab"
    # the options the experiment read, and no other
    assert set(sidecar["command"]) == {"command", "name", "eps", "out", "json"}
    env = sidecar["environment"]
    assert "numpy" in env
    # the keys of the benchmark's environment record
    assert set(env["blas"]) == {"name", "version"} and env["blas"]["name"]
    assert set(env["thread_env"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS"}
    assert len(env["cpu_affinity"]) >= 1 and env["cpu_count"] >= 1


def test_experiment_unknown_name(tmp_path):
    assert run_cli("experiment", "nonsense", "--out", tmp_path / "x.csv") == 1


_DEFAULTS = {"L": 432, "a": 18, "b": 18, "window": "gauss:1", "target": "dual",
             "steps": 12, "sigma": 6.0, "ratio": 3.0, "eps": 1e-3}


@pytest.mark.parametrize("name,options", [
    ("convergence", "L a b window steps"), ("scaling-compare", "L a b window steps"),
    ("monster", "L a b sigma steps"), ("precision", "L a b"),
    ("iterations-vs-ratio", "L a b"), ("scaling-sweep", "L a b window target"),
    ("fibonacci", "ratio"), ("scalar-lab", "eps")])
def test_experiment_takes_exactly_the_options_it_reads(name, options):
    # the README table: each experiment parses its own options, at these defaults
    args = gw.cli.build_parser().parse_args(["experiment", name, "--out", "x.csv"])
    read = {k: v for k, v in vars(args).items()
            if k not in ("command", "name", "out", "json", "func")}
    assert read == {k: _DEFAULTS[k] for k in options.split()}


@pytest.mark.parametrize("argv", [("precision", "--steps", 3), ("fibonacci", "--L", 600),
                                  ("monster", "--window", "monster:7"),
                                  ("scalar-lab", "--target", "tight")])
def test_experiment_rejects_an_option_it_does_not_read(tmp_path, capsys, argv):
    code = run_cli("experiment", *argv, "--out", tmp_path / "x.csv")
    assert code == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["convergence", "scaling-compare", "scaling-sweep"])
def test_experiment_not_a_frame_exit_code(tmp_path, name):
    # the spike of a tiny Gaussian width, as in canonical: exit 2, no CSV
    out = tmp_path / "spike.csv"
    assert run_cli("experiment", name, "--window", "gauss:1e-300", "--out", out) == 2
    assert not out.exists()


def test_experiment_monster(tmp_path):
    out = tmp_path / "monster.csv"
    code = run_cli("experiment", "monster", "--L", 600, "--a", 20, "--b", 20,
                   "--sigma", 6, "--steps", 12, "--out", out)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,ii_dual_lattice_norm,ii_error,iv_E,iv_F"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # II stalls at a large dual lattice norm mid-run; IV's E decays geometrically
    assert max(r[1] for r in rows[3:9]) > 0.1
    assert rows[12][3] < 0.1 * rows[0][3]


def test_experiment_scaling_compare(tmp_path):
    out = tmp_path / "scal.csv"
    code = run_cli("experiment", "scaling-compare", "--steps", 8, "--out", out)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("step,err_norm,err_initial_bbound")
    final = [float(x) for x in lines[-1].split(",")[1:]]
    assert max(final) < 1e-10


def test_experiment_scaling_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("experiment", "scaling-sweep", "--target", "dual", "--out", out)
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    for row in rows:
        b_scaled = float(row[0])
        if b_scaled > 2.05:
            assert row[2] == "diverged" and row[4] == "diverged"
        if 0.3 < b_scaled < 1.95:
            assert row[2] == "converged" and row[4] == "converged"


def test_experiment_precision(tmp_path):
    out = tmp_path / "prec.csv"
    code = run_cli("experiment", "precision", "--out", out)
    assert code == 0
    rows = [list(map(float, ln.split(",")))
            for ln in out.read_text().strip().split("\n")[1:]]
    worst = max(rows, key=lambda r: r[1])
    assert worst[1] > 1e3 and worst[2] > 10 * worst[3]  # EIG decays, SVD flat
    # narrow and wide windows pair up: ratio(w) == ratio(1/w)
    by_w = {r[0]: r[1] for r in rows}
    for w in (0.2, 0.25, 0.5):
        assert by_w[w] == pytest.approx(by_w[round(1 / w, 10)], rel=1e-9)


def test_experiment_precision_solves_one_svd_per_width(tmp_path, monkeypatch):
    # the svd_err column takes one SVD a width; the iteration's trace never
    # reads its errors, so it solves no reference of its own
    calls = []

    def counted(fac):
        calls.append(fac.lattice)
        return gw.svd_tight(fac)

    monkeypatch.setattr("gabwin.cli.svd_tight", counted)
    monkeypatch.setattr("gabwin.iterations.svd_tight", counted)
    assert run_cli("experiment", "precision", "--out", tmp_path / "prec.csv") == 0
    assert len(calls) == 17


def test_experiment_iterations_vs_ratio(tmp_path):
    out = tmp_path / "its.csv"
    code = run_cli("experiment", "iterations-vs-ratio", "--out", out)
    assert code == 0
    rows = [list(map(float, ln.split(",")))
            for ln in out.read_text().strip().split("\n")[1:]]
    by_w = {r[0]: r for r in rows}
    # well conditioned frames need few steps; counts grow with B/A
    assert by_w[1.0][2] <= 6
    assert max(r[2] for r in rows) > by_w[1.0][2]


def test_experiment_iterations_vs_ratio_factorizes_each_width_once(tmp_path, monkeypatch):
    # the five algorithms run as stacks of the 17 windows, whose ratio and
    # Bhat come from one Gram a width
    calls = _count_zak_calls(monkeypatch)
    assert run_cli("experiment", "iterations-vs-ratio", "--out", tmp_path / "its.csv") == 0
    assert calls == {"factorize": 17, "unfactorize": 0}


@pytest.mark.parametrize("target,solver,converged", [("tight", "svd_tight", 36),
                                                     ("dual", "inv_dual", 20)])
def test_experiment_scaling_sweep_solves_no_reference(
        tmp_path, monkeypatch, target, solver, converged):
    # the flag of a converged member reads wrong_limit, the sign of that
    # member's own mixed Gram: no member solves a reference, and the CSV is
    # that of a run whose solver is not watched
    argv = ("experiment", "scaling-sweep", "--target", target, "--out")
    assert run_cli(*argv, tmp_path / "plain.csv") == 0
    calls = []
    original = getattr(gw.iterations, solver)

    def counted(fac):
        calls.append(fac.blocks.shape)
        return original(fac)

    monkeypatch.setattr(f"gabwin.iterations.{solver}", counted)
    out = tmp_path / "sweep.csv"
    assert run_cli(*argv, out) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    assert sum(flag != "diverged" for row in rows for flag in row[2::2]) == converged
    assert calls == []
    assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_experiment_fibonacci(tmp_path):
    out = tmp_path / "fib.csv"
    code = run_cli("experiment", "fibonacci", "--out", out)
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 4
    assert len({r[7] for r in rows}) == 1  # steps_I identical
    assert len({r[8] for r in rows}) == 1  # steps_II identical


@pytest.mark.parametrize("ratio", ["0.5", "1.0", "nan", "inf", "1e300"])
def test_experiment_fibonacci_ratio_outside_bracket(tmp_path, capsys, ratio):
    # below the ratio of w = 1, above every finite ratio of the bracket, or nan
    out = tmp_path / "fib.csv"
    code = run_cli("experiment", "fibonacci", "--ratio", ratio, "--out", out)
    assert code == 1
    assert "is not reached by Gaussian widths" in capsys.readouterr().err
    assert not out.exists()


def test_tune_width_to_ratio_brackets_the_target():
    lattice = gw.derive_lattice(216, 12, 12)
    w = tune_width_to_ratio(lattice, 3.0)
    fac = gw.factorize(gw.gaussian_window(216, w).astype(complex), lattice)
    assert gw.frame_bounds(gw.block_gram(fac, fac)).ratio == pytest.approx(3.0, rel=1e-12)
    for ratio in (0.5, 1.0, np.nan, np.inf, 1e300):
        with pytest.raises(ValueError, match="not reached"):
            tune_width_to_ratio(lattice, ratio)


def test_tune_width_to_ratio_takes_few_evaluations(monkeypatch):
    # regula falsi on log ratio: at most 25 windows a lattice, against 60
    # bisection steps; a ratio below that of w = 1 fails at once
    calls = []
    factorize = gw.cli.factorize

    def counted(f, lattice):
        calls.append(lattice)
        return factorize(f, lattice)

    monkeypatch.setattr("gabwin.cli.factorize", counted)
    for p, q, L, a, b in gw.cli._FIBONACCI:
        lattice = gw.derive_lattice(L, a, b)
        calls.clear()
        w = tune_width_to_ratio(lattice, 3.0)
        assert len(calls) <= 25, (p, q, len(calls))
        fac = factorize(gw.gaussian_window(L, w).astype(complex), lattice)
        assert gw.frame_bounds(gw.block_gram(fac, fac)).ratio == pytest.approx(3.0, rel=1e-12)
        calls.clear()
        with pytest.raises(ValueError, match="not reached"):
            tune_width_to_ratio(lattice, 1.2)
        assert len(calls) <= 2


def test_non_finite_window_file_exit_code(tmp_path, capsys):
    win = gw.sech_window(432).astype("<c8")
    win[7] = np.nan
    path = tmp_path / "nan.bin"
    win.tofile(path)
    code = run_cli("canonical", "--window", f"file:{path}",
                   "--method", "svd", "--out", tmp_path / "x")
    assert code == 1
    assert "f[7]" in capsys.readouterr().err
    assert not (tmp_path / "x.window").exists()
