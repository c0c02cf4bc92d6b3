import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gabwin as gw
from gabwin.errors import NotAFrameError
from gabwin.zak import _RANK_TOL, _block_product, _gram_blocks, _over, _plan

from oracles import (dzt_direct, dzt_indexed, einsum_block_product, einsum_gram,
                     factorize_indexed, literal_frame_operator,
                     random_valid_lattice, unfactorize_indexed)

EPS = np.finfo(float).eps


def test_dzt_impulse():
    L, K = 48, 8
    h = np.zeros(L, dtype=complex)
    h[0] = 1.0
    grid = gw.dzt(h, K)
    assert np.allclose(grid[0], np.sqrt(K / L))
    assert np.allclose(grid[1:], 0.0)


def test_dzt_unitary(rng):
    L = 120
    for K in (4, 6, 10, 24):
        h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        grid = gw.dzt(h, K)
        assert np.linalg.norm(grid) == pytest.approx(np.linalg.norm(h), rel=1e-13)


def test_dzt_rejects_bad_K():
    with pytest.raises(ValueError):
        gw.dzt(np.zeros(48), 7)


def test_dzt_quasi_periodicity(rng):
    L, K = 96, 8
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    grid = gw.dzt(h, K)
    J = L // K
    for r in range(K):
        for s in (0, 3, J - 1):
            lhs = gw.zak_extend(grid, r + K, s)
            assert lhs == pytest.approx(
                np.exp(2j * np.pi * s * K / L) * grid[r, s], rel=1e-12)
            lhs2 = gw.zak_extend(grid, r + 2 * K, s)
            assert lhs2 == pytest.approx(
                np.exp(2j * np.pi * 2 * s * K / L) * grid[r, s], rel=1e-12)


def test_zak_extend_matches_direct_sum(rng):
    L, K = 96, 12
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    grid = gw.dzt(h, K)
    for _ in range(100):
        r = int(rng.integers(-3 * L, 3 * L))
        s = int(rng.integers(-3 * L, 3 * L))
        val = gw.zak_extend(grid, r, s)
        ref = dzt_direct(h, K, r, s)
        assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_zak_extend_in_domain_identity(rng):
    L, K = 60, 6
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    grid = gw.dzt(h, K)
    rr, ss = np.meshgrid(np.arange(K), np.arange(L // K), indexing="ij")
    assert np.allclose(gw.zak_extend(grid, rr, ss), grid)


def test_factorize_unitary_over_lattices(rng):
    for (L, a, b) in [(432, 18, 18), (600, 20, 20), (144, 12, 9), (16, 4, 4),
                      (240, 12, 10)]:
        lt = gw.derive_lattice(L, a, b)
        for _ in range(100):
            f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            fac = gw.factorize(f, lt)
            assert np.linalg.norm(fac.blocks) == pytest.approx(
                np.linalg.norm(f), rel=1e-12)


def test_factorize_zero(lat432):
    fac = gw.factorize(np.zeros(432), lat432)
    assert np.all(fac.blocks == 0)


def test_factorize_critical_matches_dzt(rng):
    lt = gw.derive_lattice(16, 4, 4)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    fac = gw.factorize(f, lt)
    grid = gw.dzt(f, 4)
    # p = q = 1: each block is exactly one Zak sample on the fundamental domain
    assert np.allclose(fac.blocks[:, :, 0, 0], grid)


def test_unfactorize_roundtrip(rng, lat432, gauss432):
    f = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    for sig in (f, gauss432):
        fac = gw.factorize(sig, lat432)
        back = gw.unfactorize(fac)
        assert np.linalg.norm(back - sig) < 1e-12 * np.linalg.norm(sig)


def test_unfactorize_linearity(rng, lat432):
    f = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    h = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    Ff, Fh = gw.factorize(f, lat432), gw.factorize(h, lat432)
    combo = gw.ZakFactorization(lat432, a * Ff.blocks + b * Fh.blocks)
    assert np.allclose(gw.unfactorize(combo), a * f + b * h, atol=1e-12)


def test_block_gram_hermitian_psd(rng, lat432):
    g = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    A = gw.block_gram(gw.factorize(g, lat432), gw.factorize(g, lat432)).blocks
    asym = np.linalg.norm(A - np.conj(np.swapaxes(A, 2, 3)))
    assert asym < 1e-12 * np.linalg.norm(A)
    ev = np.linalg.eigvalsh(A)
    assert ev.min() > -1e-12 * ev.max()


def test_block_gram_identity_at_tight(lat432, gauss432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    A = gw.block_gram(fac, fac).blocks
    eye = np.broadcast_to(np.eye(lat432.p), A.shape)
    assert np.abs(A - eye).max() < 1e-10


def test_block_gram_trace_matches_dense(rng, lat144):
    g = rng.standard_normal(144) + 1j * rng.standard_normal(144)
    fac = gw.factorize(g, lat144)
    A = gw.block_gram(fac, fac).blocks
    S = gw.synthesis_matrix(g, lat144).frame_operator()
    # every block eigenvalue appears q times in the dense spectrum
    assert lat144.q * np.trace(A, axis1=2, axis2=3).sum() == pytest.approx(
        np.trace(S), rel=1e-12)


def test_apply_block_operator_identity(rng, lat432):
    f = rng.standard_normal(432) + 1j * rng.standard_normal(432)
    fac = gw.factorize(f, lat432)
    eye = np.broadcast_to(np.eye(lat432.p), (lat432.c, lat432.d, lat432.p, lat432.p)).copy()
    out = gw.apply_block_operator(gw.BlockOperator(lat432, eye), fac)
    assert np.allclose(out.blocks, fac.blocks)


def test_apply_block_operator_matches_dense(rng):
    for (L, a, b) in [(432, 18, 18), (600, 20, 20), (144, 12, 9), (240, 12, 10)]:
        lt = gw.derive_lattice(L, a, b)
        g = gw.gaussian_window(L).astype(complex)
        f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        Gg = gw.factorize(g, lt)
        A = gw.block_gram(Gg, Gg)
        out = gw.unfactorize(gw.apply_block_operator(A, gw.factorize(f, lt)))
        ref = gw.synthesis_matrix(g, lt).frame_operator() @ f
        assert np.linalg.norm(out - ref) < 1e-10 * np.linalg.norm(ref)


def test_apply_block_operator_matches_literal_sum(lat144):
    g = gw.gaussian_window(144).astype(complex)
    Gg = gw.factorize(g, lat144)
    A = gw.block_gram(Gg, Gg)
    out = gw.unfactorize(gw.apply_block_operator(A, Gg))
    ref = literal_frame_operator(g, lat144, g)
    assert np.linalg.norm(out - ref) < 1e-10 * np.linalg.norm(ref)


def test_frame_bounds_gaussian(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    s = gw.frame_bounds(gw.block_gram(fac, fac))
    assert s.ratio == pytest.approx(2.03, abs=0.01)


def test_frame_bounds_narrow_gaussian(lat432):
    g = gw.gaussian_window(432, 1 / 5).astype(complex)
    fac = gw.factorize(g, lat432)
    s = gw.frame_bounds(gw.block_gram(fac, fac))
    assert s.ratio == pytest.approx(180.8, abs=0.5)


def test_frame_bounds_tight_ratio_one(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    s = gw.frame_bounds(gw.block_gram(fac, fac))
    assert s.upper - s.lower < 1e-10
    assert s.is_frame


def test_frame_bounds_flags_non_frame():
    # a delta at p = 1 and at p = 2 (time step a > 1 misses samples)
    for L, a, b in ((16, 4, 4), (36, 4, 6)):
        lt = gw.derive_lattice(L, a, b)
        delta = np.zeros(L, dtype=complex)
        delta[0] = 1.0
        fac = gw.factorize(delta, lt)
        s = gw.frame_bounds(gw.block_gram(fac, fac))
        assert not s.is_frame, lt


def test_frame_bounds_ratio_is_inf_when_lower_is_not_positive(lat432):
    # a 5-sample box misses samples 5..17 of every time step a = 18: A = 0.0
    box = np.zeros(432, dtype=complex)
    box[:5] = 1.0
    fac = gw.factorize(box, lat432)
    s = gw.frame_bounds(gw.block_gram(fac, fac))
    assert s.lower == 0.0 and s.upper == pytest.approx(24.0)
    assert s.ratio == np.inf and not s.is_frame
    assert gw.SpectralSummary(lower=-1e-16, upper=1.0).ratio == np.inf


def test_is_frame_is_the_relative_rank_rule():
    assert not gw.SpectralSummary(lower=_RANK_TOL, upper=1.0).is_frame
    assert gw.SpectralSummary(lower=2 * _RANK_TOL, upper=1.0).is_frame
    assert gw.SpectralSummary(lower=1e-14, upper=1.0).ratio == np.inf
    # the critical lattice a b = L: a Gaussian's lower bound is positive
    # roundoff, B/A about 1e30, and every direct method rejects it
    lt = gw.derive_lattice(432, 24, 18)
    fac = gw.factorize(gw.gaussian_window(432).astype(complex), lt)
    s = gw.frame_bounds(gw.block_gram(fac, fac))
    assert s.lower > 0.0 and not s.is_frame and s.ratio == np.inf
    for method in (gw.eig_tight, gw.svd_tight, gw.inv_dual):
        with pytest.raises(NotAFrameError):
            method(fac)


def test_block_gram_is_held_per_factorization(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    A = gw.block_gram(fac, fac)
    assert gw.block_gram(fac, fac) is A
    other = gw.ZakFactorization(lat432, fac.blocks.copy())
    assert gw.block_gram(fac, other) is not A
    assert np.array_equal(gw.block_gram(fac, other).blocks, A.blocks)


@pytest.mark.parametrize("shape,s_shape", [((6, 5, 2, 3), ()), ((6, 5, 1, 2), (6, 5, 1, 1)),
                                           ((6, 5, 2, 3), (6, 5, 2, 1)),
                                           ((4, 6, 5, 2, 2), (4, 1, 1, 1, 1))])
def test_over_is_numpys_complex_by_real_quotient(shape, s_shape, rng):
    # numpy divides complex by real as a product with 1 / s: the same value,
    # the same bits on every finite nonzero part; a numpy whose division
    # loop changes fails here rather than in the golden outputs
    X = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-150, 150, shape + (2,))
    X[rng.random(X.shape) < 0.1] = 0.0
    X[rng.random(X.shape) < 0.1] = -0.0
    X = X.view(complex)[..., 0]
    s = rng.uniform(0.5, 2.0, s_shape) * 10.0 ** rng.integers(-150, 150, s_shape)
    s = np.where(rng.random(s_shape) < 0.5, -s, s)
    quotient, product = X / s, _over(X, s)
    assert np.array_equal(product, quotient)
    got, want = product.view(float), quotient.view(float)
    nonzero = np.isfinite(want) & (want != 0)
    assert nonzero.mean() > 0.7
    assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))
    out = np.empty_like(X)
    assert _over(X, s, out=out) is out and np.array_equal(out, quotient)
    # the sign of an exact zero part can differ, as the docstring says
    z = np.array([complex(-0.0, 1.0)])
    assert not np.signbit((z / 3.0).real[0]) and np.signbit(_over(z, 3.0).real[0])


def test_blocks_immutable(lat432, gauss432):
    fac = gw.factorize(gauss432, lat432)
    with pytest.raises(ValueError):
        fac.blocks[0, 0, 0, 0] = 0.0


def test_block_types_hold_one_window(lat432, gauss432):
    # a stack of windows is the run loop's, in the private kernels: the
    # public types take exactly one window's blocks and name a stack's shape
    b = gw.factorize(gauss432, lat432).blocks
    A = gw.block_gram(gw.ZakFactorization(lat432, b), gw.ZakFactorization(lat432, b)).blocks
    with pytest.raises(ValueError, match="does not match lattice"):
        gw.ZakFactorization(lat432, np.stack([b, b]))
    with pytest.raises(ValueError, match="does not match lattice"):
        gw.BlockOperator(lat432, np.stack([A, A]))
    assert gw.BlockOperator(lat432, A).blocks.shape == A.shape


def _rel_max(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def test_factorize_matches_index_map_oracle(rng):
    # same arithmetic as the index-map construction, so the same bits
    for (L, a, b) in [(240, 12, 10), (432, 18, 18), (540, 18, 18),
                      (600, 20, 20), (8640, 72, 80)]:
        lt = gw.derive_lattice(L, a, b)
        for f in (gw.gaussian_window(L).astype(complex),
                  rng.standard_normal(L) + 1j * rng.standard_normal(L)):
            blocks = factorize_indexed(f, lt)
            assert np.array_equal(gw.factorize(f, lt).blocks, blocks), (L, a, b)
            assert np.array_equal(gw.unfactorize(gw.ZakFactorization(lt, blocks)),
                                  unfactorize_indexed(blocks, lt)), (L, a, b)
            assert np.array_equal(gw.dzt(f, a), dzt_indexed(f, a)), (L, a, b)


def test_factorize_matches_index_map_oracle_random_lattices(rng):
    lattices = [(61440, 240, 192)]
    sampler = np.random.default_rng(6)
    while len(lattices) < 51:
        L, a, b = random_valid_lattice(sampler, max_factor=6)
        if L <= 2000:
            lattices.append((L, a, b))
    assert max(gw.derive_lattice(*lab).p for lab in lattices) == 5
    for (L, a, b) in lattices:
        lt = gw.derive_lattice(L, a, b)
        f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        blocks = factorize_indexed(f, lt)
        assert _rel_max(gw.factorize(f, lt).blocks, blocks) <= 1e-15, (L, a, b)
        back = gw.unfactorize(gw.ZakFactorization(lt, blocks))
        assert _rel_max(back, unfactorize_indexed(blocks, lt)) <= 1e-15, (L, a, b)


def test_plan_cache_is_read_only_and_thread_safe(rng):
    lattices = [gw.derive_lattice(*lab) for lab in
                [(432, 18, 18), (600, 20, 20), (8640, 72, 80)]]
    signals = {lt: [rng.standard_normal(lt.L) + 1j * rng.standard_normal(lt.L)
                    for _ in range(4)] for lt in lattices}

    def roundtrip(lt, f):
        fac = gw.factorize(f, lt)
        return fac.blocks, gw.unfactorize(fac)

    serial = {(lt, i): roundtrip(lt, f) for lt in lattices
              for i, f in enumerate(signals[lt])}
    for lt in lattices:
        for arr in _plan(lt):
            with pytest.raises(ValueError):
                arr[...] = 0
    _plan.cache_clear()  # the pool races to build the cached plans
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            jobs = {pool.submit(roundtrip, lt, signals[lt][i]): (lt, i)
                    for _ in range(4) for (lt, i) in serial}
            results = [(jobs[job], job.result(timeout=60)) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * len(serial)
    for key, (blocks, back) in results:
        assert np.array_equal(blocks, serial[key][0])
        assert np.array_equal(back, serial[key][1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_factorize_rejects_non_finite_samples(lat432, gauss432, bad):
    f = gauss432.copy()
    f[[7, 300]] = bad
    with pytest.raises(ValueError, match=r"f\[7\]"):
        gw.factorize(f, lat432)


def _kernel_inputs(L, a, b, seed):
    """A lattice, the blocks of a Gaussian G and a random R, and A^{G,G}."""
    lt = gw.derive_lattice(L, a, b)
    rng = np.random.default_rng(seed)
    G = gw.factorize(gw.gaussian_window(L).astype(complex), lt).blocks
    R = gw.factorize(rng.standard_normal(L) + 1j * rng.standard_normal(L), lt).blocks
    return lt, G, R, einsum_gram(G, G, lt)


def _p_le_2_lattices():
    lattices = [(240, 12, 10), (216, 12, 12), (600, 20, 20), (8640, 72, 80)]
    sampler = np.random.default_rng(9)
    while len(lattices) < 24:
        L, a, b = random_valid_lattice(sampler)
        if L <= 2000 and gw.derive_lattice(L, a, b).p <= 2:
            lattices.append((L, a, b))
    return lattices


@pytest.mark.parametrize("lab", [(432, 18, 18), (540, 18, 18)])
def test_kernels_equal_einsum_oracle_at_p_above_2(lab):
    lt, G, R, A = _kernel_inputs(*lab, seed=3)
    assert lt.p >= 3
    for X, Y in ((G, G), (R, R), (G, R)):
        assert np.array_equal(_gram_blocks(X, Y), einsum_gram(X, Y, lt))
    for X in (G, R):
        assert np.array_equal(_block_product(A, X), einsum_block_product(A, X))


def test_kernels_match_einsum_oracle_at_p_le_2():
    # per entry within 4 eps of the sum of the moduli of its terms
    lattices = _p_le_2_lattices()
    assert {gw.derive_lattice(*lab).p for lab in lattices} == {1, 2}
    for i, (L, a, b) in enumerate(lattices):
        lt, G, R, A = _kernel_inputs(L, a, b, seed=i)
        for X, Y in ((G, G), (R, R), (G, R), (R, G)):
            bound = 4 * EPS * einsum_gram(np.abs(X), np.abs(Y), lt)
            err = np.abs(_gram_blocks(X, Y) - einsum_gram(X, Y, lt))
            assert (err <= bound).all(), (L, a, b)
        for op in (A, einsum_gram(G, R, lt)):
            for X in (G, R):
                bound = 4 * EPS * einsum_block_product(np.abs(op), np.abs(X))
                err = np.abs(_block_product(op, X) - einsum_block_product(op, X))
                assert (err <= bound).all(), (L, a, b)


def test_block_gram_exactly_hermitian_at_p_le_2():
    for i, (L, a, b) in enumerate(_p_le_2_lattices()):
        lt, G, R, _ = _kernel_inputs(L, a, b, seed=i)
        for X in (G, R):
            fac = gw.ZakFactorization(lt, X)
            A = gw.block_gram(fac, fac).blocks
            assert np.array_equal(A, np.conj(np.swapaxes(A, -2, -1))), (L, a, b)


@pytest.mark.parametrize("lab", [(240, 12, 10), (600, 20, 20), (432, 18, 18)])
def test_kernels_keep_clongdouble(lab):
    lt, G, R, A = _kernel_inputs(*lab, seed=5)
    Gl, Rl, Al = (x.astype(np.clongdouble) for x in (G, R, A))
    for X, Y in ((Gl, Gl), (Gl, Rl)):
        gram = _gram_blocks(X, Y)
        assert gram.dtype == np.clongdouble
        assert np.allclose(gram, einsum_gram(X, Y, lt), rtol=0, atol=1e-14)
    product = _block_product(Al, Rl)
    assert product.dtype == np.clongdouble
    assert np.allclose(product, einsum_block_product(A, R), rtol=0, atol=1e-13)


@pytest.mark.parametrize("lab,p", [((240, 12, 10), 1), ((600, 20, 20), 2),
                                   ((432, 18, 18), 3)])
def test_kernels_take_a_leading_batch_axis(lab, p):
    # blocks stacked on a leading member axis give each member's Gram and
    # product bit for bit; the normalization cdq comes from the block shape
    lt, G, R, _ = _kernel_inputs(*lab, seed=7)
    assert lt.p == p
    H = gw.factorize(gw.sech_window(lab[0]).astype(complex), lt).blocks
    X, Y = np.stack((G, R, H)), np.stack((R, H, G))
    grams = [_gram_blocks(x, y) for x, y in zip(X, Y)]
    assert np.array_equal(_gram_blocks(X, Y), np.stack(grams))
    assert np.array_equal(_gram_blocks(X, X), np.stack([_gram_blocks(x, x) for x in X]))
    ops = np.stack(grams)
    assert np.array_equal(_block_product(ops, X),
                          np.stack([_block_product(op, x) for op, x in zip(ops, X)]))


def test_kernels_call_einsum_only_at_p_above_2(monkeypatch):
    facs = {}
    for L, a, b in ((240, 12, 10), (600, 20, 20), (432, 18, 18)):
        lt = gw.derive_lattice(L, a, b)
        g = gw.gaussian_window(L).astype(complex)
        facs[lt.p] = g, gw.factorize(g, lt)
    assert sorted(facs) == [1, 2, 3]

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    def steps(g, lattice, name, n):  # of order 3
        return gw.run(g, lattice, gw.IterationConfig.from_algorithm(
            name, stop_mode="fixed", max_steps=n))

    einsum = np.einsum
    for p, (g, fac) in facs.items():
        monkeypatch.setattr(np, "einsum", no_einsum)
        calls = [lambda: gw.block_gram(fac, fac),
                 lambda: gw.apply_block_operator(
                     gw.BlockOperator(fac.lattice, np.ones(fac.blocks.shape[:-1] + (p,))),
                     fac)]
        for call in calls:
            if p <= 2:
                call()
            else:
                with pytest.raises(AssertionError, match="einsum called"):
                    call()
        # at p = 2 a run's LQ split, made once, takes svd_tight's row inner
        # products by einsum; its steps take none
        counts = []
        for name in ("III", "V"):
            for n in (1, 3):
                calls = []
                monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a) or einsum(*a))
                steps(g, fac.lattice, name, n)
                counts.append(len(calls))
        if p == 3:
            assert counts[0] < counts[1] and counts[2] < counts[3]
        else:
            assert counts == [2 * (p == 2)] * 4


def _planar(X):
    """A copy of (..., c, d, p, q) blocks stored (p, q, ..., c, d)."""
    return np.moveaxis(np.moveaxis(X, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))


def _is_planar(X):
    return np.moveaxis(X, (-2, -1), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("lab,p", [((240, 12, 10), 1), ((600, 20, 20), 2),
                                   ((8640, 72, 80), 2)])
def test_kernels_give_the_same_bits_on_planar_blocks(lab, p):
    # every (k, l) plane is contiguous in planar storage; the outputs follow
    # the layout of the blocks X
    lt, G, R, A = _kernel_inputs(*lab, seed=11)
    assert lt.p == p and lt.q > 1
    PG, PR = _planar(G), _planar(R)
    for (X, Y), (PX, PY) in (((G, G), (PG, PG)), ((R, R), (PR, PR)), ((G, R), (PG, PR))):
        c_out, planar_out = _gram_blocks(X, Y), _gram_blocks(PX, PY)
        assert np.array_equal(planar_out, c_out)
        assert _is_planar(planar_out) and c_out.flags.c_contiguous
    for op in (A, _gram_blocks(G, R)):
        for X, PX in ((G, PG), (R, PR)):
            c_out, planar_out = _block_product(op, X), _block_product(_planar(op), PX)
            assert np.array_equal(planar_out, c_out)
            assert _is_planar(planar_out) and c_out.flags.c_contiguous


@pytest.mark.parametrize("alpha", [1e-160, 1e-200])
@pytest.mark.parametrize("lab", [(240, 12, 10), (600, 20, 20)])
def test_kernels_leak_no_runtime_warning_at_small_scales(alpha, lab):
    lt = gw.derive_lattice(*lab)
    fac = gw.factorize(alpha * gw.gaussian_window(lt.L).astype(complex), lt)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        op = gw.block_gram(fac, fac)
        gw.frame_bounds(op)
        gw.apply_block_operator(op, fac)
