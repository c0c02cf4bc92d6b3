import numpy as np
import pytest

import gabwin as gw
from gabwin.errors import NotAFrameError
from gabwin.iterations import IterationConfig

from oracles import shift_mod


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


def test_scalar_flat_spectrum_one_step():
    cfg = IterationConfig.from_algorithm("II")
    sig = np.full(24, 3.7)
    trace = gw.scalar_iteration(sig, cfg, steps=1)
    assert np.allclose(trace[1], trace[1][0])


def test_scalar_converges_fast(lat432, gauss432):
    cfg = IterationConfig.from_algorithm("II")
    sig = gw.normalized_singular_values(gauss432, lat432)
    trace = gw.scalar_iteration(sig, cfg, steps=6)
    final = trace[-1]
    # flat limit within a few ulps of machine precision after 6 steps
    assert np.abs(final / final.mean() - 1).max() < 1e-13


def test_scalar_dual_initial_quadratic(lat432, gauss432):
    # spectrum prescaled into (0, 2): Z-values converge to 1 quadratically
    sig = np.linalg.svd(gw.synthesis_matrix(gauss432, lat432).entries,
                        compute_uv=False)
    Bhat = (sig ** 2).max() / 1.8
    cfg = IterationConfig(target="dual", order=2, scaling="initial", Bhat=Bhat)
    trace = gw.scalar_iteration(sig, cfg, steps=8)
    s0 = sig / np.sqrt(Bhat)
    devs = [np.abs(s0 * trace[k] - 1.0).max() for k in range(9)]
    assert devs[7] < 1e-10
    ratios = [np.log(devs[k + 1]) / np.log(devs[k]) for k in (4, 5)]
    assert min(ratios) > 1.9
