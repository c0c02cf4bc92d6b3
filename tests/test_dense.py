import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import gabwin as gw
from gabwin.errors import NotAFrameError
from gabwin.iterations import IterationConfig

from oracles import dense_references, normalized_singular_values, random_valid_lattice, shift_mod


def test_columns_are_tf_shifts(rng, lat144):
    g = rng.standard_normal(144) + 1j * rng.standard_normal(144)
    O = gw.synthesis_matrix(g, lat144).entries
    for m, n in [(0, 0), (3, 1), (15, 11), (7, 5)]:
        col = O[:, m + n * lat144.M]
        assert np.allclose(col, shift_mod(g, n * lat144.a, m * lat144.b))


def test_frobenius_norm(rng, lat432):
    g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    O = gw.synthesis_matrix(g, lat432).entries
    assert np.linalg.norm(O) ** 2 == pytest.approx(
        lat432.M * lat432.N * np.linalg.norm(g) ** 2, rel=1e-12)


def test_full_rank_gaussian(lat432, gauss432):
    O = gw.synthesis_matrix(gauss432, lat432).entries
    s = np.linalg.svd(O, compute_uv=False)
    assert (s > 1e-10 * s.max()).sum() == 432


def test_size_guard():
    lt = gw.derive_lattice(4096, 64, 64)
    with pytest.raises(ValueError, match="guard"):
        gw.synthesis_matrix(np.zeros(4096), lt)


def test_polynomial_functional_calculus(rng, lat144):
    # O_{phi(S) g} = phi(O O*) O for phi(s) = s and phi(s) = 3/2 - s/2
    g = rng.standard_normal(144) + 1j * rng.standard_normal(144)
    O = gw.synthesis_matrix(g, lat144).entries
    S = O @ O.conj().T
    for phi in (lambda S: S, lambda S: 1.5 * np.eye(144) - 0.5 * S):
        w = phi(S) @ g
        lhs = gw.synthesis_matrix(w, lat144).entries
        rhs = phi(S) @ O
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_reference_tight_idempotent(lat432, ref_tight432):
    again = gw.reference_tight(ref_tight432, lat432)
    assert np.linalg.norm(again - ref_tight432) < 1e-12


def test_reference_tight_properties(lat432, ref_tight432):
    gt = ref_tight432
    assert np.abs(gt.imag).max() < 1e-12
    assert np.allclose(gt.real, gt.real[(-np.arange(432)) % 432], atol=1e-10)
    # canonical tight window norm is sqrt(a b / L), forced by Wexler-Raz
    assert np.linalg.norm(gt) ** 2 == pytest.approx(lat432.density, rel=1e-12)


def test_reference_dual_wexler_raz(lat432, gauss432, ref_dual432):
    assert gw.wexler_raz_residual(gauss432, ref_dual432, lat432) < 1e-10


def test_reference_dual_inverts_frame_operator(lat432, gauss432, ref_dual432):
    S = gw.synthesis_matrix(gauss432, lat432).frame_operator()
    assert np.linalg.norm(S @ ref_dual432 - gauss432) < 1e-9


def test_reference_rejects_non_frame():
    lt = gw.derive_lattice(16, 4, 4)
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    with pytest.raises(NotAFrameError):
        gw.reference_tight(delta, lt)


def test_reference_rejects_zero_window():
    lt = gw.derive_lattice(16, 4, 4)
    for ref in (gw.reference_tight, gw.reference_dual):
        with pytest.raises(NotAFrameError):
            ref(np.zeros(16), lt)


@pytest.mark.parametrize("ref", [gw.reference_tight, gw.reference_dual,
                                 normalized_singular_values])
def test_fiber_size_guard(ref):
    # L*N = 15.7M fiber entries: refused before any work (unguarded, 17 s)
    lt = gw.derive_lattice(61440, 240, 192)
    with pytest.raises(ValueError, match=r"L\*N=15728640 > 2048\^2=4194304"):
        ref(np.zeros(61440), lt)


# The fibers against one dense SVD of O on random lattices (L <= 448) with
# Gaussian and sech windows of sigma_max / sigma_min <= 100 (frame bound
# ratio <= 1e4).  Over 2,918 such seeded cases the windows differed by at
# most 1.1e-14 (tight) and 5.7e-14 (dual) relative, the singular values by
# 5.3e-15 sigma_max, and the fiber dual's Wexler-Raz residual reached 4.9e-14.
@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), sech=st.booleans(), w=st.floats(0.1, 2.0))
def test_fibers_match_dense_oracle(seed, sech, w):
    L, a, b = random_valid_lattice(np.random.default_rng(seed))
    lt = gw.derive_lattice(L, a, b)
    g = (gw.sech_window if sech else gw.gaussian_window)(L, w).astype(complex)

    # zero samples at every time step: row j = 0 of the fiber G_0 vanishes
    holes = g.copy()
    holes[::a] = 0.0
    for ref in (gw.reference_tight, gw.reference_dual, dense_references):
        with pytest.raises(NotAFrameError):
            ref(holes, lt)

    try:
        tight, dual, sig = dense_references(g, lt)
    except NotAFrameError:
        reject()
    assume(sig[0] <= 100 * sig[-1])

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    assert rel(gw.reference_tight(g, lt), tight) < 1e-13
    assert rel(gw.reference_dual(g, lt), dual) < 1e-13
    assert np.abs(normalized_singular_values(g, lt) - sig).max() <= 1e-14 * sig[0]
    assert gw.wexler_raz_residual(g, gw.reference_dual(g, lt), lt) < 1e-12


def test_dense_imports_no_method_of_the_package():
    # the fiber oracle checks the block methods, so it may use none of them
    tree = ast.parse(Path(gw.dense.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.add(node.module)  # None for "from . import x"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "gabwin" in ast.unparse(node):
            imported.add(ast.unparse(node))
    assert imported == {"errors", "lattice"}


def test_scalar_flat_spectrum_one_step():
    cfg = IterationConfig.from_algorithm("II", max_steps=1)
    sig = np.full(24, 3.7)
    trace = gw.scalar_iteration(sig, cfg)
    assert np.allclose(trace[1], trace[1][0])


def test_scalar_converges_fast(lat432, gauss432):
    cfg = IterationConfig.from_algorithm("II", max_steps=6)
    sig = normalized_singular_values(gauss432, lat432)
    trace = gw.scalar_iteration(sig, cfg)
    final = trace[-1]
    # flat limit within a few ulps of machine precision after 6 steps
    assert np.abs(final / final.mean() - 1).max() < 1e-13


def test_scalar_dual_initial_quadratic(lat432, gauss432):
    # spectrum prescaled into (0, 2): Z-values converge to 1 quadratically
    sig = np.linalg.svd(gw.synthesis_matrix(gauss432, lat432).entries,
                        compute_uv=False)
    Bhat = (sig ** 2).max() / 1.8
    cfg = IterationConfig(target="dual", order=2, scaling="initial", Bhat=Bhat, max_steps=8)
    trace = gw.scalar_iteration(sig, cfg)
    s0 = sig / np.sqrt(Bhat)
    devs = [np.abs(s0 * trace[k] - 1.0).max() for k in range(9)]
    assert devs[7] < 1e-10
    ratios = [np.log(devs[k + 1]) / np.log(devs[k]) for k in (4, 5)]
    assert min(ratios) > 1.9
