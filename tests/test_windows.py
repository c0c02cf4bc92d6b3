import warnings

import numpy as np
import pytest

import gabwin as gw
from oracles import dense_monster_window


def unitary_dft(x):
    return np.fft.fft(x) / np.sqrt(len(x))


@pytest.mark.parametrize("maker", [gw.gaussian_window, gw.sech_window])
def test_unit_norm_L120(maker):
    assert np.linalg.norm(maker(120, 1.0)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("maker", [gw.gaussian_window, gw.sech_window])
@pytest.mark.parametrize("w", [0.3, 1.0, 2.5])
def test_dft_self_dual_family(maker, w):
    L = 120
    f = maker(L, w)
    fhat = unitary_dft(f.astype(complex))
    assert np.linalg.norm(fhat - maker(L, 1.0 / w)) < 1e-10


@pytest.mark.parametrize("maker", [gw.gaussian_window, gw.sech_window])
def test_even_about_zero(maker):
    L = 120
    f = maker(L, 1.0)
    assert np.allclose(f, f[(-np.arange(L)) % L])


def test_sech_positive():
    assert (gw.sech_window(120, 0.7) > 0).all()


def test_gaussian_positive_and_unit_norm_sweep():
    for L, w in [(120, 0.2), (432, 1.0), (432, 5.0), (600, 1.0)]:
        f = gw.gaussian_window(L, w)
        assert (f > 0).all()
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-10)


def test_window_rejects_bad_width():
    with pytest.raises(ValueError):
        gw.gaussian_window(120, 0.0)
    with pytest.raises(ValueError):
        gw.sech_window(120, -1.0)
    # a width that is not finite would periodize forever
    for make in (gw.gaussian_window, gw.sech_window):
        for w in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make(120, w)


@pytest.mark.parametrize("make,w", [(gw.gaussian_window, 1e12), (gw.sech_window, 1e11),
                                    (gw.gaussian_window, 1e300)])
def test_window_too_wide_to_periodize_is_named(make, w):
    # 1e12 needs about 1.8e5 shells: far past the bound, checked before summing
    with pytest.raises(ValueError, match="more than 1000 periodization shells at L = 432"):
        make(432, w)


@pytest.mark.parametrize("w", [1e-300, 1e-310])
def test_gaussian_at_tiny_width_is_a_spike(w):
    # exp(-pi t^2 / w) overflows to the 0 of the tail, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gw.gaussian_window(432, w)
    assert np.isfinite(g).all() and g[0] > 0 and not g[1:].any()


def test_monster_unmodified_is_gaussian(lat600):
    # the constructor picks the top symmetric eigenvalue, so asking for the
    # unmodified singular value must return the Gaussian itself
    g = gw.gaussian_window(600)
    O_g = gw.synthesis_matrix(g.astype(complex), lat600).entries
    sigma_j = np.linalg.svd(O_g, compute_uv=False).max()
    again = gw.monster_window(lat600, float(sigma_j))
    assert np.linalg.norm(again - g) < 1e-10


def test_monster_max_singular_exact(lat600, monster600):
    O_w = gw.synthesis_matrix(monster600, lat600).entries
    s_w = np.linalg.svd(O_w, compute_uv=False)
    assert s_w.max() == pytest.approx(6.0, abs=1e-9)


def test_monster_other_singulars_unchanged(lat600, monster600):
    g = gw.gaussian_window(600).astype(complex)
    s_g = np.sort(np.linalg.svd(gw.synthesis_matrix(g, lat600).entries,
                                compute_uv=False))
    s_w = np.sort(np.linalg.svd(gw.synthesis_matrix(monster600, lat600).entries,
                                compute_uv=False))
    # the chosen eigengroup (multiplicity q = 3) moves to 6, the rest stay
    moved = np.abs(s_w - 6.0) < 1e-9
    assert moved.sum() == lat600.q
    kept_w = s_w[~moved]
    changed = np.abs(s_g[:, None] - kept_w[None, :]).min(axis=1)
    # all but q original values are matched by an unchanged counterpart
    assert np.sort(changed)[: len(s_g) - lat600.q].max() < 1e-9


def test_monster_is_real_even(monster600):
    assert np.abs(monster600.imag).max() < 1e-12
    v = monster600.real
    assert np.allclose(v, v[(-np.arange(600)) % 600], atol=1e-10)


def test_monster_requires_frame():
    # the critically sampled Gaussian has a Zak zero, hence no frame
    lt = gw.derive_lattice(16, 4, 4)
    with pytest.raises(gw.NotAFrameError):
        gw.monster_window(lt, 6.0)


@pytest.mark.parametrize("dims", [(600, 20, 20), (432, 18, 18), (216, 12, 12),
                                  (240, 12, 10)])
def test_monster_matches_dense_oracle(dims):
    lattice = gw.derive_lattice(*dims)
    got = gw.monster_window(lattice, 6.0)
    assert np.abs(got - dense_monster_window(lattice, 6.0)).max() < 1e-12


def _block_spectrum(w, lattice):
    fac = gw.factorize(w, lattice)
    return np.sort(np.linalg.eigvalsh(gw.block_gram(fac, fac).blocks), axis=None)


@pytest.mark.parametrize("dims", [(8640, 72, 80), (61440, 240, 192)])
def test_monster_above_dense_limit(dims):
    lattice = gw.derive_lattice(*dims)
    assert lattice.L > gw.dense.DENSE_SIZE_GUARD
    w = gw.monster_window(lattice, 6.0)
    assert np.isrealobj(w)
    assert np.abs(w - w[(-np.arange(lattice.L)) % lattice.L]).max() < 1e-12
    # each block eigenvalue is a q-fold eigenvalue of S, so S has q k
    # eigenvalues 6^2: k block eigenvalues, one whole group of the
    # Gaussian's, move to 6^2 and all the others stay the Gaussian's
    ev_g = _block_spectrum(gw.gaussian_window(lattice.L), lattice)
    ev_w = _block_spectrum(w, lattice)
    moved = np.abs(ev_w - 36.0) <= 1e-9 * 36.0
    k = int(moved.sum())
    assert k >= 1
    tol = 1e-10 * ev_g[-1]
    gaps = np.diff(ev_g, prepend=-np.inf, append=np.inf)
    assert any(gaps[i] > tol and gaps[i + k] > tol
               and np.ptp(ev_g[i:i + k]) <= tol
               and np.abs(np.delete(ev_g, np.s_[i:i + k]) - ev_w[~moved]).max() <= tol
               for i in range(len(ev_g) - k + 1))


@pytest.mark.parametrize("sigma", [-6.0, 0.0, np.nan, np.inf])
def test_monster_rejects_bad_singular_value(lat600, sigma):
    with pytest.raises(ValueError, match="positive and finite"):
        gw.monster_window(lat600, sigma)


@pytest.mark.parametrize("L,a,b", [(432, 18, 18), (600, 20, 20), (240, 12, 10)])
def test_monster_rejects_an_overflowing_singular_value(L, a, b):
    # sqrt(max float / L) is the largest sigma taken, with no warning
    lattice = gw.derive_lattice(L, a, b)
    largest = np.sqrt(np.finfo(float).max / L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(gw.monster_window(lattice, largest)).all()
        with pytest.raises(ValueError, match="monster singular value .* overflows"):
            gw.monster_window(lattice, np.nextafter(largest, np.inf))
