import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gabwin as gw
from gabwin.canonical import _polar_2xq, cholesky_solve_blocks
from gabwin.errors import NotAFrameError
from gabwin import zak
from oracles import mpmath_polar_factor, reduce_polar_2xq

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def fac432(lat432, gauss432):
    return gw.factorize(gauss432, lat432)


@pytest.fixture(scope="module")
def dense_cases(lat432, gauss432, ref_tight432, ref_dual432):
    """(lattice, g, factorization, tight reference, dual reference) of a
    Gaussian at p = 3, 1 and 2; svd_tight takes its closed form at p = 1."""
    cases = [(lat432, gauss432, ref_tight432, ref_dual432)]
    for L, a, b in ((240, 12, 10), (600, 20, 20)):
        lt = gw.derive_lattice(L, a, b)
        g = gw.gaussian_window(L).astype(complex)
        cases.append((lt, g, gw.reference_tight(g, lt), gw.reference_dual(g, lt)))
    return [(lt, g, gw.factorize(g, lt), rt, rd) for lt, g, rt, rd in cases]


def test_eig_tight_frame_operator_is_identity(lat432, fac432):
    out = gw.eig_tight(fac432)
    A = gw.block_gram(out, out).blocks
    eye = np.broadcast_to(np.eye(lat432.p), A.shape)
    assert np.abs(A - eye).max() < 1e-8


def test_eig_tight_matches_dense_reference(dense_cases):
    for lt, _, fac, ref_tight, _ in dense_cases:
        out = gw.unfactorize(gw.eig_tight(fac))
        assert np.linalg.norm(out - ref_tight) < 1e-8, lt


def test_svd_tight_matches_dense_reference(dense_cases):
    for lt, _, fac, ref_tight, _ in dense_cases:
        out = gw.unfactorize(gw.svd_tight(fac))
        assert np.linalg.norm(out - ref_tight) < 1e-8, lt


def test_svd_tight_matches_eig(lat432, fac432):
    assert np.linalg.norm(
        gw.unfactorize(gw.svd_tight(fac432)) - gw.unfactorize(gw.eig_tight(fac432))
    ) < 1e-8


def test_svd_tight_fixed_on_tight(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    out = gw.svd_tight(fac)
    assert np.abs(out.blocks - fac.blocks).max() < 1e-12


def test_svd_tight_orbit_invariance(lat432, gauss432, fac432):
    # every window phi(S) g with positive phi shares the tight window, and
    # svd_tight must map the whole orbit to the same output
    S = gw.synthesis_matrix(gauss432, lat432).frame_operator()
    w = 1.5 * gauss432 - 0.5 * (S @ gauss432)  # phi(s) = 3/2 - s/2 > 0 here
    a = gw.unfactorize(gw.svd_tight(fac432))
    b = gw.unfactorize(gw.svd_tight(gw.factorize(w, lat432)))
    assert np.linalg.norm(a - b) < 1e-10


def test_inv_dual_wexler_raz(dense_cases):
    for lt, g, fac, _, _ in dense_cases:
        gd = gw.unfactorize(gw.inv_dual(fac))
        assert gw.wexler_raz_residual(g, gd, lt) < 1e-10, lt


def test_inv_dual_fixed_on_tight(lat432, ref_tight432):
    fac = gw.factorize(ref_tight432, lat432)
    out = gw.unfactorize(gw.inv_dual(fac))
    assert np.linalg.norm(out - ref_tight432) < 1e-12


def test_inv_dual_matches_dense_reference(dense_cases):
    for lt, _, fac, _, ref_dual in dense_cases:
        gd = gw.unfactorize(gw.inv_dual(fac))
        assert np.linalg.norm(gd - ref_dual) < 1e-9, lt


@pytest.mark.parametrize("alpha", [1e200, 1e-200, 1e-160])
def test_svd_tight_scale_covariance_p1(alpha):
    # the p = 1 closed form must not square the block entries: a norm that
    # does overflows at 1e200 and underflows below about 1e-154
    lt = gw.derive_lattice(240, 12, 10)
    g = gw.gaussian_window(240).astype(complex)
    base = gw.svd_tight(gw.factorize(g, lt)).blocks
    scaled = gw.svd_tight(gw.factorize(alpha * g, lt)).blocks
    assert np.linalg.norm(scaled - base) <= 1e-14 * np.linalg.norm(base)


@pytest.mark.parametrize("alpha", [1e-310, 2.0**-1040])
def test_svd_tight_p1_subnormal_blocks(alpha):
    # dividing by a subnormal row norm overflows unless the blocks are first
    # scaled into the normal range; the error is that of the subnormal input
    lt = gw.derive_lattice(240, 12, 10)
    g = gw.gaussian_window(240).astype(complex)
    base = gw.svd_tight(gw.factorize(g, lt)).blocks
    scaled = gw.svd_tight(gw.factorize(alpha * g, lt)).blocks
    spacing = np.finfo(float).smallest_subnormal / (alpha * np.abs(g).max())
    assert np.abs(scaled - base).max() <= 32 * spacing * np.abs(base).max()


def test_svd_tight_p1_scale_is_exact():
    # no scaled entry is subnormal, so the scale leaves every bit unchanged
    for L, a, b in ((240, 12, 10), (65536, 256, 128)):
        lt = gw.derive_lattice(L, a, b)
        for g in (gw.gaussian_window(L), gw.sech_window(L)):
            fac = gw.factorize(np.asarray(g, dtype=complex), lt)
            s = np.hypot.reduce(np.abs(fac.blocks), axis=-1, keepdims=True)
            unscaled = fac.blocks / s / np.sqrt(lt.c * lt.d * lt.q)
            assert np.array_equal(gw.svd_tight(fac).blocks, unscaled)


def test_svd_tight_p1_matches_lapack_polar_factor():
    lt = gw.derive_lattice(240, 12, 10)
    for g in (gw.gaussian_window(240), gw.sech_window(240)):
        fac = gw.factorize(np.asarray(g, dtype=complex), lt)
        U, _, Vh = np.linalg.svd(fac.blocks, full_matrices=False)
        polar = (U @ Vh) / np.sqrt(lt.c * lt.d * lt.q)
        out = gw.svd_tight(fac).blocks
        assert np.linalg.norm(out - polar) <= 1e-15 * np.linalg.norm(polar)


def _lapack_polar(blocks):
    U, _, Vh = np.linalg.svd(blocks, full_matrices=False)
    return U @ Vh


def test_svd_tight_p2_matches_lapack_polar_factor():
    for L, a, b in ((600, 20, 20), (8640, 72, 80)):
        lt = gw.derive_lattice(L, a, b)
        assert lt.p == 2
        for make in (gw.gaussian_window, gw.sech_window):
            for w in (1 / 7, 1.0, 7.0):
                fac = gw.factorize(make(L, w).astype(complex), lt)
                polar = _lapack_polar(fac.blocks) / np.sqrt(lt.c * lt.d * lt.q)
                out = gw.svd_tight(fac).blocks
                assert np.linalg.norm(out - polar) <= 2e-15 * np.linalg.norm(polar), (L, w)


@pytest.mark.parametrize("alpha", [1e200, 1e-200, 1e-160, 2.0**500, 2.0**-500])
def test_svd_tight_scale_covariance_p2(alpha):
    # products of block entries overflow at 1e200 and lose digits below
    # about 1e-154; RuntimeWarnings are errors in this suite
    lt = gw.derive_lattice(600, 20, 20)
    g = gw.gaussian_window(600).astype(complex)
    base = gw.svd_tight(gw.factorize(g, lt)).blocks
    scaled = gw.svd_tight(gw.factorize(alpha * g, lt)).blocks
    assert np.linalg.norm(scaled - base) <= 2e-15 * np.linalg.norm(base)


def test_svd_tight_p2_row_norms_give_the_bits_of_hypot_reduce():
    for L, a, b in ((600, 20, 20), (8640, 72, 80)):
        lt = gw.derive_lattice(L, a, b)
        assert lt.p == 2
        for make in (gw.gaussian_window, gw.sech_window):
            fac = gw.factorize(make(L).astype(complex), lt)
            assert np.array_equal(_polar_2xq(fac.blocks), reduce_polar_2xq(fac.blocks))


def test_frame_bounds_and_direct_methods_share_one_gram(monkeypatch):
    calls, gram_blocks = [], zak._gram_blocks

    def counted(X, Y):
        calls.append(X.shape)
        return gram_blocks(X, Y)

    monkeypatch.setattr(zak, "_gram_blocks", counted)
    for L, a, b in ((240, 12, 10), (600, 20, 20), (432, 18, 18)):
        lt = gw.derive_lattice(L, a, b)
        fac = gw.factorize(gw.gaussian_window(L).astype(complex), lt)
        calls.clear()
        gw.frame_bounds(gw.block_gram(fac, fac))
        gw.eig_tight(fac)
        gw.inv_dual(fac)
        assert calls == [fac.blocks.shape], lt


def test_frame_bounds_and_direct_methods_share_one_spectrum(monkeypatch):
    # frame_bounds, inv_dual's rank test and eig_tight's at p = 1 read the
    # eigenvalues the Gram holds; at p >= 2 eig_tight tests those of its own
    # eigh, so its result does not depend on what was read before it
    calls = {"hermitian": 0, "eigvalsh": 0}
    hermitian, eigvalsh = zak._hermitian_eigvals, np.linalg.eigvalsh

    def counted(name, fn):
        def call(blocks):
            calls[name] += 1
            return fn(blocks)
        return call

    for L, a, b in ((240, 12, 10), (600, 20, 20), (432, 18, 18)):
        lt = gw.derive_lattice(L, a, b)
        g = gw.gaussian_window(L).astype(complex)
        alone = gw.eig_tight(gw.factorize(g, lt)).blocks, gw.inv_dual(gw.factorize(g, lt)).blocks
        fac = gw.factorize(g, lt)
        with monkeypatch.context() as m:
            m.setattr(zak, "_hermitian_eigvals", counted("hermitian", hermitian))
            m.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
            calls.update(hermitian=0, eigvalsh=0)
            gw.frame_bounds(gw.block_gram(fac, fac))
            after = gw.eig_tight(fac).blocks, gw.inv_dual(fac).blocks
        assert calls == {"hermitian": 1, "eigvalsh": int(lt.p > 2)}, lt
        assert all(np.array_equal(x, y) for x, y in zip(alone, after)), lt


@pytest.mark.parametrize("dims", [(240, 12, 10), (600, 20, 20), (432, 18, 18)])
def test_direct_methods_share_the_rank_rule(dims):
    # block (0, 0) scaled by 1e-9: A/B about 1e-18, which a rule of 1e-13 on
    # the singular values (ratio about 1e-9) would pass; by 1e-5 every
    # method accepts it
    lt = gw.derive_lattice(*dims)
    blocks = gw.factorize(gw.gaussian_window(lt.L).astype(complex), lt).blocks.copy()
    for scale, frame in ((1e-9, False), (1e-5, True)):
        scaled = blocks.copy()
        scaled[0, 0] *= scale
        fac = gw.ZakFactorization(lt, scaled)
        assert gw.frame_bounds(gw.block_gram(fac, fac)).is_frame is frame
        for method in (gw.eig_tight, gw.svd_tight, gw.inv_dual):
            if frame:
                assert np.isfinite(method(fac).blocks).all()
            else:
                with pytest.raises(NotAFrameError, match="not a frame"):
                    method(fac)


def test_rank_rule_is_read_only_in_zak():
    # one rule of what is numerically a frame, SpectralSummary.is_frame in
    # zak; dense, the independent oracle, keeps its own constant
    readers = set()
    for path in Path(zak.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "_RANK_TOL" in names:
                readers.add(path.name)
    assert readers == {"zak.py", "dense.py"}
    # canonical defines no rank check: NotAFrameError is raised there only
    # for a pivot of the Cholesky solve
    tree = ast.parse(Path(gw.canonical.__file__).read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    assert not [f.name for f in functions if "check" in f.name]
    raising = {f.name for f in functions if any(isinstance(n, ast.Raise) for n in ast.walk(f))}
    assert raising == {"cholesky_solve_blocks"}


def _block_with_condition(rng, q, kappa):
    """A random complex 2 x q block with singular values 1 and 1/kappa."""
    def orthonormal(n, k):
        z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        return np.linalg.qr(z)[0]
    return orthonormal(2, 2) @ np.diag([1.0, 1.0 / kappa]) @ orthonormal(q, 2).conj().T


@pytest.mark.parametrize("q", [3, 5, 7])
def test_svd_tight_p2_matches_mpmath_on_ill_conditioned_blocks(q, rng, monkeypatch):
    # the closed form is as accurate as the problem allows: within
    # 4 eps kappa of the 50-digit polar factor (measured: 0.12 eps kappa;
    # LAPACK's U Vh reaches 0.84 eps kappa on the same blocks), with rows
    # orthonormal to working precision whatever kappa is.  The rank rule
    # refuses kappa^2 >= 1e13, so the kernel is checked past it with the
    # rule off
    with pytest.raises(NotAFrameError, match="not a frame"):
        _polar_2xq(_block_with_condition(rng, q, 1e7)[None])
    monkeypatch.setattr(zak, "_RANK_TOL", 0.0)
    for kappa in (1e2, 1e4, 1e6, 1e8, 1e10):
        blocks = np.stack([_block_with_condition(rng, q, kappa) for _ in range(3)])
        out = _polar_2xq(blocks)
        for block, got in zip(blocks, out):
            exact = mpmath_polar_factor(block)
            assert np.abs(got - exact).max() <= 4 * EPS * kappa, kappa
            assert np.abs(got @ got.conj().T - np.eye(2)).max() <= 8 * EPS, kappa


@pytest.mark.parametrize("exponent", [-1030, -1050])
def test_svd_tight_p2_subnormal_blocks(exponent, rng):
    # every entry subnormal: dividing by such a row norm overflows unless
    # the blocks are first scaled into the normal range
    blocks = np.stack([_block_with_condition(rng, 5, 10.0) for _ in range(4)])
    tiny = np.ldexp(blocks.view(float), exponent).view(complex)
    assert np.abs(tiny).max() < np.finfo(float).tiny
    kappa = np.linalg.cond(tiny).max()
    assert np.abs(_polar_2xq(tiny) - _lapack_polar(tiny)).max() <= 16 * EPS * kappa


def test_svd_tight_calls_lapack_svd_only_at_p_above_2(monkeypatch):
    facs = {}
    for L, a, b in ((240, 12, 10), (600, 20, 20), (432, 18, 18)):
        lt = gw.derive_lattice(L, a, b)
        facs[lt.p] = gw.factorize(gw.gaussian_window(L).astype(complex), lt)
    assert sorted(facs) == [1, 2, 3]

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    gw.svd_tight(facs[1])
    gw.svd_tight(facs[2])
    with pytest.raises(AssertionError, match="svd called"):
        gw.svd_tight(facs[3])


_parts = st.integers(3, 8).flatmap(lambda q: st.lists(
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    min_size=4 * q, max_size=4 * q))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(parts=_parts, exponent=st.integers(-1000, 1000), tilt=st.integers(0, 48))
def test_svd_tight_p2_property(parts, exponent, tilt):
    block = np.ldexp(np.array(parts), exponent).view(complex).reshape(1, 2, -1)
    # 2^-tilt of the second row plus the first: kappa up to about 2^48
    block[:, 1] = np.ldexp(block[:, 1].view(float), -tilt).view(complex) + block[:, 0]
    # the checks run on the block scaled by a power of two into [1/2, 1)
    # (exact), where LAPACK and the products below are clear of underflow
    unit = np.ldexp(block.view(float), -np.frexp(np.abs(block).max())[1]).view(complex)
    s = np.linalg.svd(unit, compute_uv=False)[0]
    if not s[1] ** 2 > 1.1e-13 * s[0] ** 2:
        # within 10 % of the rank threshold either outcome is right
        if s[1] ** 2 <= 0.9e-13 * s[0] ** 2:
            with pytest.raises(NotAFrameError, match="not a frame"):
                _polar_2xq(block)
        return
    out = _polar_2xq(block)[0]
    assert np.abs(out @ out.conj().T - np.eye(2)).max() <= 8 * EPS
    h = out @ unit[0].conj().T  # polar(Phi) Phi* = (Phi Phi*)^(1/2)
    assert np.abs(h - h.conj().T).max() <= 8 * EPS * s[0]
    assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() >= -8 * EPS * s[0]
    assert np.abs(out - _lapack_polar(unit)[0]).max() <= 16 * EPS * s[0] / s[1]


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_cholesky_solve_blocks_matches_solve(p, rng):
    X = rng.standard_normal((4, 3, p, p + 2)) + 1j * rng.standard_normal((4, 3, p, p + 2))
    A = X @ np.conj(np.swapaxes(X, -2, -1))
    B = rng.standard_normal((4, 3, p, 7)) + 1j * rng.standard_normal((4, 3, p, 7))
    expected = np.linalg.solve(A, B)
    out = cholesky_solve_blocks(A, B)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_cholesky_solve_blocks_rejects_indefinite(rng):
    A = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3, 3)).copy()
    A[2, 1, 1, 1] = -1.0
    with pytest.raises(NotAFrameError, match="not a frame"):
        cholesky_solve_blocks(A, rng.standard_normal((4, 3, 3, 2)))
    # a pivot that is not positive fails at p = 1 where LAPACK's factor does,
    # and a NaN, which reaches a later pivot, fails at every p
    for p, bad in ((1, 0.0), (1, -1.0), (1, np.nan), (2, np.nan), (3, np.nan)):
        A = np.broadcast_to(np.eye(p, dtype=complex), (4, 3, p, p)).copy()
        A[1, 2, p - 1, 0] = bad
        if p == 1 and not np.isnan(bad):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(A)
        with pytest.raises(NotAFrameError, match="not a frame"):
            cholesky_solve_blocks(A, rng.standard_normal((4, 3, p, 2)))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.longdouble,
                                   np.clongdouble])
def test_cholesky_solve_blocks_keeps_dtype(p, dtype, rng):
    # LAPACK has no longdouble; the blockwise factor keeps its precision
    X = rng.standard_normal((4, 3, p, p + 2)).astype(dtype)
    B = rng.standard_normal((4, 3, p, 5)).astype(dtype)
    if np.iscomplexobj(X):
        X = X + 1j * rng.standard_normal(X.shape)
        B = B + 1j * rng.standard_normal(B.shape)
    A = X @ np.conj(np.swapaxes(X, -2, -1)) + p * np.eye(p)
    out = cholesky_solve_blocks(A, B)
    assert out.dtype == dtype
    assert np.abs(A @ out - B).max() <= 64 * np.finfo(dtype).eps * np.abs(B).max()


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128])
def test_cholesky_solve_blocks_at_p_1_divides_by_the_root_of_re_a(dtype, rng):
    # bit for bit the former closed form: l = sqrt(Re a), X = (B / l) / l
    a = rng.uniform(0.1, 10.0, (40, 30, 1, 1)).astype(dtype)
    B = rng.standard_normal((40, 30, 1, 7)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.uniform(-1, 1, a.shape)
        B = B + 1j * rng.standard_normal(B.shape)
    root = np.sqrt(a.real)
    assert np.array_equal(cholesky_solve_blocks(a, B), B / root / root)


def test_cholesky_solve_blocks_accepts_planar_blocks(rng):
    X = rng.standard_normal((6, 5, 2, 3)) + 1j * rng.standard_normal((6, 5, 2, 3))
    A = X @ np.conj(np.swapaxes(X, -2, -1))

    def planar(Y):
        return np.moveaxis(np.moveaxis(Y, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))

    out = cholesky_solve_blocks(planar(A), planar(X))
    assert np.array_equal(out, cholesky_solve_blocks(A, X))
    assert np.moveaxis(out, (-2, -1), (0, 1)).flags.c_contiguous


def test_direct_methods_reject_non_frame():
    # a delta at p = 1 and at p = 2, where the rank tests take closed forms
    for L, a, b in ((16, 4, 4), (36, 4, 6)):
        lt = gw.derive_lattice(L, a, b)
        delta = np.zeros(L, dtype=complex)
        delta[0] = 1.0
        fac = gw.factorize(delta, lt)
        for fn in (gw.eig_tight, gw.svd_tight, gw.inv_dual):
            with pytest.raises(NotAFrameError, match="not a frame"):
                fn(fac)


def test_eig_degrades_svd_does_not(lat432):
    # eigenvalue inversion amplifies roundoff roughly like B/A * eps, the
    # SVD method never touches the singular values: the gap opens with B/A
    def dln_of(method, w):
        g = gw.gaussian_window(432, w).astype(complex)
        fac = gw.factorize(g, lat432)
        out = gw.unfactorize(method(fac))
        return gw.dual_lattice_norm_tight(out / np.linalg.norm(out), lat432)

    w = 1 / 7  # frame bound ratio ~ 1.9e3
    eig_err, svd_err = dln_of(gw.eig_tight, w), dln_of(gw.svd_tight, w)
    assert eig_err > 10 * svd_err
    assert svd_err < 1e-12
