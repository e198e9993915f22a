import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entronet.ffield import GF, digits_of, flat_index
from entronet.netmodel import Alphabet

FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms(q):
    gf = GF(q)
    elems = list(range(q))
    rng = random.Random(q)
    sample = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(200)]
    for a, b, c in sample:
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, 0) == a and gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
    for a in elems[1:]:
        assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_nullity_and_nullspace(q):
    gf = GF(q)
    rng = random.Random(17 * q)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        r = gf.rank(M)
        ns = gf.nullspace(M)  # left kernel: v @ M = 0
        assert r + len(ns) == rows
        for v in ns:
            assert all(x == 0 for x in gf.apply(v, M))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_solve_and_represent(q):
    gf = GF(q)
    rng = random.Random(q)
    for _ in range(40):
        d, t = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randrange(q) for _ in range(t)] for _ in range(d)]
        X = [[rng.randrange(q) for _ in range(2)] for _ in range(t)]
        B = gf.matmul(A, X)
        Y = gf.solve(A, B)
        assert Y is not None and gf.matmul(A, Y) == B


@pytest.mark.parametrize("q", [2, 3])
def test_intersection_dimension_formula(q):
    gf = GF(q)
    rng = random.Random(3 * q)
    for _ in range(60):
        n = rng.randint(2, 4)
        U = gf.row_basis([[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, n))])
        V = gf.row_basis([[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, n))])
        I = gf.intersect(U, V)
        # dim(U∩V) = dim U + dim V - dim(U+V)
        assert len(I) == len(U) + len(V) - gf.rank([list(r) for r in U] + [list(r) for r in V])
        for v in I:
            assert gf.represent(U, [list(v)]) is not None
            assert gf.represent(V, [list(v)]) is not None


def test_extend_basis():
    gf = GF(2)
    B = [[1, 0, 0]]
    ext = gf.extend_basis(B, dim=3)
    assert gf.rank(B + ext) == 3
    sub = gf.extend_basis([[1, 1, 0]], space=[[1, 1, 0], [0, 0, 1]])
    assert gf.rank([[1, 1, 0]] + sub) == 2


def test_all_vectors_and_index():
    gf = GF(3)
    vecs = list(gf.all_vectors(2))
    assert len(vecs) == 9 and len(set(map(tuple, vecs))) == 9
    for i, v in enumerate(vecs):
        assert gf.vec_index(v) == i


@st.composite
def flat_indices(draw):
    """Radices and some flat indices of their product space."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=5))
    return sizes, draw(st.lists(st.integers(0, math.prod(sizes) - 1), min_size=1, max_size=20))


@given(flat_indices())
def test_digits_of_inverts_flat_index(case):
    sizes, flats = case
    digits = digits_of(np.array(flats, dtype=np.int64), sizes)
    assert all(((0 <= d) & (d < s)).all() for d, s in zip(digits, sizes))
    assert flat_index(len(flats), digits, sizes).tolist() == flats
    if sizes:
        for f in flats:
            one = digits_of(f, sizes)
            assert all(type(d) is int for d in one) and flat_index(1, one, sizes) == f
        # first coordinate most significant, as itertools.product orders tuples
        space = digits_of(np.arange(math.prod(sizes)), sizes)
        assert list(zip(*(d.tolist() for d in space))) == list(itertools.product(*map(range, sizes)))


@pytest.mark.parametrize("q, dim", [(2, 0), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_vectors_are_listed_and_decoded_in_index_order(q, dim):
    gf = GF(q)
    vecs = list(gf.all_vectors(dim))
    assert [gf.vec_index(v) for v in vecs] == list(range(q ** dim))
    alpha = Alphabet(q=q, dim=dim)
    assert all(alpha.symbol(alpha.index(v)) == v for v in vecs)
    # the image table holds the index of x @ M at the index of x
    M = [[(3 * i + j) % q for j in range(2)] for i in range(dim)]
    table = gf.image_table(M)
    assert all(table[gf.vec_index(x)] == gf.vec_index(gf.apply(x, M)) for x in vecs)


def test_unsupported_field_size():
    with pytest.raises(ValueError):
        GF(6)


def test_a_field_above_q_64_is_refused():
    with pytest.raises(ValueError, match="q = 64"):
        GF(67)
    assert 67 not in GF._cache
