import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_vectors, reference_rref
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
    vecs = list(all_vectors(3, 2))
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
    vecs = list(all_vectors(q, dim))
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


# -- the echelon routine against the list-based elimination it replaced ------


def reference_nullspace(gf, M):
    """Basis rows of {x : x @ M = 0}, from `reference_rref` of M^T."""
    n = len(M)
    if n == 0:
        return []
    MT = [[M[i][j] for i in range(n)] for j in range(len(M[0]))] if M[0] else []
    if not MT:
        return gf.identity(n)
    R, piv = reference_rref(gf, MT)
    basis = []
    for fc in [c for c in range(n) if c not in piv]:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = gf.neg(R[r][fc])
        basis.append(v)
    return basis


def reference_solve(gf, A, B):
    """X with A @ X = B from `reference_rref` of [A | B], or None."""
    n = len(A)
    m = len(A[0]) if n else 0
    k = len(B[0]) if B else 0
    R, piv = reference_rref(gf, [list(A[i]) + list(B[i]) for i in range(n)])
    X = gf.zeros(m, k)
    for r, pc in enumerate(piv):
        if pc >= m:
            return None
        X[pc] = R[r][m:]
    return X


def random_matrix(rng, q, rows, cols, rank):
    """A rows × cols matrix over GF(q) of rank at most `rank` (a product of
    random factors), with some rows and columns then set to zero."""
    gf = GF(q)
    if not rows:
        return []
    M = gf.matmul([[rng.randrange(q) for _ in range(rank)] for _ in range(rows)],
                  [[rng.randrange(q) for _ in range(cols)] for _ in range(rank)]) if rank else \
        gf.zeros(rows, cols)
    for i in rng.sample(range(rows), rng.randint(0, rows // 3)):
        M[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 3)):
        for row in M:
            row[j] = 0
    return M


@st.composite
def matrices(draw, max_dim=16):
    """(q, M): q in {2, 3, 4, 5} and a matrix up to max_dim × max_dim, empty,
    n × 0, and rank-deficient ones among them."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rank = draw(st.integers(0, min(rows, cols)))
    return q, random_matrix(random.Random(draw(st.integers(0, 2**32))), q, rows, cols, rank)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(matrices())
def test_echelon_routines_match_the_reference(case):
    q, M = case
    gf = GF(q)
    R, piv = reference_rref(gf, M)
    assert gf.rref(M) == (R, piv)
    assert gf.rank(M) == (len(piv) if M else 0)
    assert gf.row_basis(M) == ([R[i] for i in range(len(piv))] if M else [])
    assert gf.nullspace(M) == reference_nullspace(gf, M)
    T = [list(c) for c in zip(*M)]
    assert gf.nullspace(T) == reference_nullspace(gf, T)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(), st.integers(0, 4), st.integers(0, 2**32))
def test_solve_and_matmul_match_the_reference(case, k, seed):
    """B in the column space of A, or any B (mostly inconsistent)."""
    q, A = case
    gf = GF(q)
    rng = random.Random(seed)
    n, m = len(A), len(A[0]) if A else 0
    if rng.random() < 0.5:
        B = gf.matmul(A, [[rng.randrange(q) for _ in range(k)] for _ in range(m)])
    else:
        B = [[rng.randrange(q) for _ in range(k)] for _ in range(n)]
    X = gf.solve(A, B)
    assert X == reference_solve(gf, A, B)
    if X is not None and A:
        assert gf.matmul(A, X) == B
    C = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, 4))]
    brute = [[functools.reduce(gf.add, (gf.mul(c, A[i][j]) for i, c in enumerate(row)), 0)
              for j in range(m)] for row in C]
    assert gf.matmul(C, A) == brute


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(0, 2**32))
def test_image_table_matches_brute_force(q, seed):
    rng = random.Random(seed)
    gf = GF(q)
    k = rng.randint(0, max(0, int(math.log(512, q))))
    M = random_matrix(rng, q, k, rng.randint(0, 5), rng.randint(0, k))
    table = gf.image_table(M)
    assert table.dtype == np.int64 and len(table) == q ** k
    for x in all_vectors(q, k):
        assert table[gf.vec_index(x)] == gf.vec_index(gf.apply(x, M) if M else [])
