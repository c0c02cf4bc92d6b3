"""A contract sweep of ``gabwin experiment`` over its declared grammar.

Each example draws an experiment, a subset of the options it declares and,
sometimes, one option it does not declare, with values from fixed pools:
valid values, boundaries, and absurd values.  Whatever it is given, ``main``
returns a documented exit code, lets no exception or RuntimeWarning escape
(pytest turns warnings into errors), and writes the CSV, and the ``--json``
sidecar when asked, exactly when it exits 0.  Over the pools' lattices and
windows, every experiment that reads a window exits 2 ("not a frame")
wherever ``canonical --method svd`` exits 2 on it: one rule decides.
"""

import itertools
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gabwin.cli import _EXPERIMENTS, _W_SWEEP, main

# every option draws these too; as an int, all but 0 and -1 fail to parse
_ABSURD = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "abc")
# valid values and boundaries of each option.  Lattices: 17 and 10 do not
# divide 432, 24 x 24 undersamples 432 and 24 x 18 is critical, 431 is prime.
# --steps stays small: the fixed-step experiments keep every iterand.
_POOLS = {
    "--L": ("432", "600", "216", "431"),
    "--a": ("18", "20", "12", "24", "17"),
    "--b": ("18", "20", "12", "24", "10"),
    "--window": ("gauss:1", "sech:0.5", "gauss:8", "monster:6", "gauss:1e-300",
                 "gauss:1e300", "sech:nan", "monster:0", "monster:1e200",
                 "file:missing.bin", "cosine:1", ""),
    "--target": ("tight", "dual", "both"),
    "--steps": ("1", "3", "12", "40"),
    "--sigma": ("6", "0.5", "1e-300", "1e155"),
    "--ratio": ("3", "1.5", "1.0", "8"),
    "--eps": ("1e-3", "0.5", "1", "1e-300"),
}


@st.composite
def _commands(draw):
    """An experiment's argv after ``experiment``, and whether it holds an
    option the experiment does not declare."""
    name = draw(st.sampled_from(sorted(_EXPERIMENTS)))
    declared = _EXPERIMENTS[name][1]
    flags = draw(st.lists(st.sampled_from(declared), unique=True, max_size=4))
    undeclared = draw(st.none() | st.sampled_from(sorted(set(_POOLS) - set(declared))))
    if undeclared:
        flags.insert(draw(st.integers(0, len(flags))), undeclared)
    argv = [name]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_POOLS[flag]) | st.sampled_from(_ABSURD))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, undeclared is not None


def _single_options():
    """Each option of each experiment alone, at every value of its pools."""
    for name, (_, declared) in sorted(_EXPERIMENTS.items()):
        for flag in declared:
            for value in _POOLS[flag] + _ABSURD:
                yield [name, flag, value], False


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command=_commands())
def test_experiment_exit_codes_over_the_declared_grammar(command):
    argv, undeclared = command
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x.csv"
        code = main(["experiment", *argv, "--out", str(out)])
        assert code in (0, 1, 2, 3, 4, 5)
        if undeclared:
            assert code == 1
        assert out.exists() == (code == 0)
        assert Path(f"{out}.json").exists() == (code == 0 and "--json" in argv)


# random draws seldom pair one experiment with one value, so every such pair
# is an explicit example as well
for _command in _single_options():
    test_experiment_exit_codes_over_the_declared_grammar = example(command=_command)(
        test_experiment_exit_codes_over_the_declared_grammar)


def _window_options(name, window):
    """The options under which experiment ``name`` reads the window of
    canonical's ``--window window``, or None when it does not read it: its
    own --window, monster's --sigma, or, for the experiments of declared
    lattice but no window, the Gaussians of widths cli._W_SWEEP."""
    kind, _, value = window.partition(":")
    declared = _EXPERIMENTS[name][1]
    if "--window" in declared:
        return ["--window", window]
    if "--sigma" in declared:
        return ["--sigma", value] if kind == "monster" else None
    if "--L" in declared and kind == "gauss" and float(value) in _W_SWEEP:
        return []
    return None


def test_experiments_exit_2_wherever_canonical_svd_does():
    rejected = []
    with tempfile.TemporaryDirectory() as tmp:
        for L, a, b, window in itertools.product(
                _POOLS["--L"], _POOLS["--a"], _POOLS["--b"], _POOLS["--window"]):
            system = ["--L", L, "--a", a, "--b", b]
            if main(["canonical", "--method", "svd", *system, "--window", window,
                     "--out", f"{tmp}/w"]) != 2:
                continue
            rejected.append((L, a, b, window))
            for name in _EXPERIMENTS:
                options = _window_options(name, window)
                if options is not None:
                    argv = ["experiment", name, *system, *options, "--out", f"{tmp}/x.csv"]
                    assert main(argv) == 2, argv
    # the critical lattice a b = L, where a Gaussian's lower frame bound is
    # positive roundoff: the example that two rules of "not a frame" split
    assert ("432", "24", "18", "gauss:1") in rejected
