import numpy as np
import pytest

import gabwin as gw
from gabwin.errors import InvalidLatticeError

from oracles import random_valid_lattice


@pytest.mark.parametrize(
    "L,a,b,expect",
    [
        (432, 18, 18, (24, 24, 6, 6, 3, 4)),
        (600, 20, 20, (30, 30, 10, 10, 2, 3)),
        (16, 4, 4, (4, 4, 4, 4, 1, 1)),
    ],
)
def test_derive_examples(L, a, b, expect):
    lt = gw.derive_lattice(L, a, b)
    assert (lt.M, lt.N, lt.c, lt.d, lt.p, lt.q) == expect
    assert lt.c * lt.d * lt.p * lt.q == L


def test_derive_rejects_nondivisible():
    with pytest.raises(InvalidLatticeError, match="invalid lattice"):
        gw.derive_lattice(432, 17, 18)
    with pytest.raises(InvalidLatticeError, match="invalid lattice"):
        gw.derive_lattice(432, 18, 17)


def test_derive_rejects_undersampled():
    with pytest.raises(InvalidLatticeError, match="undersampled"):
        gw.derive_lattice(16, 8, 8)


def test_lattice_invariants_random(rng):
    for _ in range(60):
        L, a, b = random_valid_lattice(rng)
        lt = gw.derive_lattice(L, a, b)
        assert lt.N * lt.a == L and lt.M * lt.b == L
        assert np.gcd(lt.p, lt.q) == 1
        assert lt.p == lt.a // lt.c == lt.b // lt.d
        assert lt.q == lt.M // lt.c == lt.N // lt.d
        assert lt.c * lt.d * lt.p * lt.q == L
        assert lt.p <= lt.q

