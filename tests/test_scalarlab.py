import numpy as np
import pytest

import gabwin as gw
from gabwin.scalarlab import Classification
from oracles import scalar_two_point_norm_scaled


def test_pointwise_tight_converges_below_threshold():
    for g0 in (0.5, 1.2, 1.5 * np.exp(0.7j), -1.6):
        seq = gw.pointwise_tight(g0, 200)
        assert abs(seq[-1] - np.exp(1j * np.angle(g0))) < 1e-12


def test_pointwise_tight_fixed_at_unit_modulus():
    g0 = np.exp(0.3j)
    seq = gw.pointwise_tight(g0, 5)
    assert np.allclose(seq, g0)


def test_pointwise_tight_unbounded_above_five():
    seq = gw.pointwise_tight(np.sqrt(5.2), 60)
    assert np.abs(seq).max() > 1e6


def test_pointwise_dual_converges_below_threshold():
    # real data stays converged; complex data converges and is then pushed
    # off again by roundoff (the fixed point is transversally unstable,
    # the scalar shadow of the dual iterations' post-convergence doubling)
    for G in (0.9, 1.3):
        seq = gw.pointwise_dual(G, G, 300)
        assert abs(seq[-1] - 1.0 / np.conj(G)) < 1e-12
    G = 1.2 * np.exp(0.4j)
    seq = gw.pointwise_dual(G, G, 300)
    assert np.abs(seq - 1.0 / np.conj(G)).min() < 1e-12


def test_pointwise_dual_fixed_unimodular():
    G = np.exp(0.9j)
    seq = gw.pointwise_dual(G, G, 5)
    assert np.allclose(seq, G)


def test_pointwise_dual_diverges_above_threshold():
    seq = gw.pointwise_dual(np.sqrt(2.2), np.sqrt(2.2), 80)
    assert np.abs(seq).max() > 1e6


@pytest.mark.parametrize("call", [
    lambda: gw.pointwise_tight(np.inf, 5),
    lambda: gw.pointwise_tight(complex(1.0, np.nan), 5),
    lambda: gw.pointwise_dual(np.nan, 1.0, 5),
    lambda: gw.pointwise_dual(1.0, np.inf, 5),
    lambda: gw.pointwise_tight(0.5, -1),
    lambda: gw.pointwise_dual(0.5, 0.5, -1),
], ids=["tight-inf", "tight-nan", "dual-nan", "dual-G-inf", "tight-steps", "dual-steps"])
def test_pointwise_rejects_bad_input(call):
    with pytest.raises(ValueError, match="must be finite|steps must be >= 0"):
        call()


def test_pointwise_start_beyond_escape_is_frozen():
    # no step is computed on a start past 1e12: 1e200 cubed would overflow
    assert np.array_equal(gw.pointwise_tight(1e200, 5), np.full(6, 1e200 + 0j))
    assert np.array_equal(gw.pointwise_dual(1e200, 1e200, 5), np.full(6, 1e200 + 0j))
    assert np.array_equal(gw.pointwise_tight(2e12, 0), [2e12 + 0j])
    # |Gam|^2 G overflows at step 1: frozen at the overflow, with no warning
    assert np.array_equal(gw.pointwise_dual(1e6, 1e300, 3), [1e6, -np.inf, -np.inf, -np.inf])


@pytest.mark.parametrize(
    "algo,x,expect",
    [
        ("II", 1.5, Classification.BOTH_TO_ONE),
        ("II", 2.0, Classification.SIGN_FLIP),
        ("II", 3.0, Classification.CHAOTIC),
        ("IV", 1.3, Classification.INVERSE_LIMIT),
        ("IV", 2.0, Classification.NEGATIVE_D),
    ],
)
def test_two_point_classifications(algo, x, expect):
    assert gw.two_point_norm_scaled(x, 1e-3, algo) is expect


def test_two_point_bounded_everywhere():
    for algo, xmax in (("II", 3.4), ("IV", 2.6)):
        for x in np.arange(0.2, xmax, 0.2):
            cls = gw.two_point_norm_scaled(float(x), 1e-3, algo)
            assert cls is not Classification.UNBOUNDED


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
def test_two_point_stable_across_eps(eps):
    # classification unchanged for x at distance >= 0.1 from each threshold;
    # the upper tight boundaries move with eps (the threshold margin delta(eps)) and
    # at eps = 1e-2 exceed 0.1, so those edges are pinned for eps <= 1e-3
    assert gw.two_point_norm_scaled(np.sqrt(3) - 0.1, eps, "II") is \
        Classification.BOTH_TO_ONE
    if eps <= 1e-3:
        assert gw.two_point_norm_scaled(np.sqrt(3) + 0.1, eps, "II") is \
            Classification.SIGN_FLIP
        assert gw.two_point_norm_scaled(np.sqrt(5) + 0.1, eps, "II") is \
            Classification.CHAOTIC
    assert gw.two_point_norm_scaled(np.sqrt(2) - 0.1, eps, "IV") is \
        Classification.INVERSE_LIMIT
    assert gw.two_point_norm_scaled(np.sqrt(2) + 0.1, eps, "IV") is \
        Classification.NEGATIVE_D


def test_two_point_rejects_bad_args():
    with pytest.raises(ValueError):
        gw.two_point_norm_scaled(1.0, 0.5, "III")
    with pytest.raises(ValueError):
        gw.two_point_norm_scaled(1.0, 1.5, "II")
    with pytest.raises(ValueError, match="steps"):
        gw.two_point_norm_scaled(1.0, 1e-3, "II", steps=-1)


def _cli_grid(xmax):
    return np.round(np.arange(0.1, xmax + 1e-9, 0.1), 10)


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("algo,xmax", [("II", 3.4), ("IV", 2.6)])
def test_array_recursion_matches_scalar_oracle(algo, xmax, eps):
    # the x grid of the scalar-lab experiment, one array call against one
    # Python-scalar recursion per x
    xs = _cli_grid(xmax)
    want = [scalar_two_point_norm_scaled(float(x), eps, algo) for x in xs]
    assert gw.two_point_norm_scaled(xs, eps, algo) == want


@pytest.mark.parametrize("algo,cases", [
    ("II", [(1.5, Classification.BOTH_TO_ONE), (1e200, Classification.UNBOUNDED),
            (2.0, Classification.SIGN_FLIP), (3.0, Classification.CHAOTIC),
            (0.3, Classification.BOTH_TO_ONE)]),
    ("IV", [(2.0, Classification.NEGATIVE_D), (1.3, Classification.INVERSE_LIMIT),
            (1e200, Classification.UNBOUNDED), (0.5, Classification.INVERSE_LIMIT)]),
])
def test_array_call_mixing_regimes_equals_scalar_calls(algo, cases):
    # members are independent: neighbours in another regime, or one that
    # overflows, change no member's classification (and leak no warning)
    xs = np.array([x for x, _ in cases])
    got = gw.two_point_norm_scaled(xs, 1e-3, algo)
    assert got == [gw.two_point_norm_scaled(float(x), 1e-3, algo) for x in xs]
    assert got == [cls for _, cls in cases]


def test_scalar_x_returns_one_classification():
    for x in (1.5, np.float64(1.5), np.array(1.5), 2):
        assert isinstance(gw.two_point_norm_scaled(x, 1e-3), Classification)
    assert gw.two_point_norm_scaled([1.5], 1e-3) == [Classification.BOTH_TO_ONE]
    assert gw.two_point_norm_scaled(np.array([]), 1e-3) == []


def test_two_point_overflow_is_unbounded():
    # x**2 overflows in the first step: inf, then nan, classified unbounded
    # with no warning
    for algo in ("II", "IV"):
        assert gw.two_point_norm_scaled(1e200, 1e-3, algo) is Classification.UNBOUNDED


@pytest.mark.parametrize("algo", ["II", "IV"])
@pytest.mark.parametrize("x", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_two_point_rejects_x_not_positive_and_finite(algo, x):
    # no such x has a two-point recursion: 0 divides in the IV limit test,
    # and inf or nan poisons every step
    with pytest.raises(ValueError, match="x must be positive and finite"):
        gw.two_point_norm_scaled(x, 1e-3, algo)
    with pytest.raises(ValueError, match="x must be positive and finite"):
        gw.two_point_norm_scaled(np.array([1.5, x]), 1e-3, algo)


def test_two_point_rejects_2d_x():
    with pytest.raises(ValueError, match="1-D"):
        gw.two_point_norm_scaled(np.ones((2, 2)), 1e-3)
