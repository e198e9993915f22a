"""Exact linear algebra over small finite fields GF(q), q <= 64.

Elements are integers 0..q-1.  For prime q they are residues; for prime
powers they encode polynomial coefficients base p, with multiplication
modulo a fixed Conway polynomial.  Vectors are tuples/lists of elements;
matrices are lists of rows; maps act on row vectors as ``y = x @ M``.

Every tuple space of the package is numbered one way, by `flat_index` and
its inverse `digits_of`: the mixed-radix index with the FIRST coordinate
most significant.  That numbers the vectors of F_q^dim (`GF.vec_index`),
the entries of a code's tables over their feeds, and the source tuples
that `evaluate_code` enumerates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exactlog import factorize

Matrix = List[List[int]]


def flat_index(n: int, digits: Sequence, sizes: Sequence[int]):
    """Mixed-radix index of n tuples given by their coordinates (arrays, or
    ints for one tuple) in radices `sizes`, first coordinate most
    significant; zeros(n) for no coordinates."""
    if not digits:
        return np.zeros(n, dtype=np.int64)
    flat = digits[0]
    for arr, s in zip(digits[1:], sizes[1:]):
        flat = flat * s + arr
    return flat


def digits_of(flat, sizes: Sequence[int]) -> list:
    """Inverse of `flat_index`: the coordinates of `flat`, an int or an
    integer array, in radices `sizes`, first coordinate first."""
    digits = []
    for s in reversed(sizes):
        flat, d = divmod(flat, s)
        digits.append(d)
    return digits[::-1]

# Conway polynomials C_{p,k}, stored as coefficient lists [c_0, ..., c_{k-1}]
# of x^k = -(c_0 + c_1 x + ... + c_{k-1} x^{k-1}), i.e. the monic polynomial
# is x^k + c_{k-1} x^{k-1} + ... + c_0.
_CONWAY = {
    4: (2, [1, 1]),          # x^2 + x + 1
    8: (2, [1, 1, 0]),       # x^3 + x + 1
    16: (2, [1, 1, 0, 0]),   # x^4 + x + 1
    32: (2, [1, 0, 1, 0, 0]),        # x^5 + x^2 + 1
    64: (2, [1, 1, 0, 1, 1, 0]),     # x^6 + x^4 + x^3 + x + 1
    9: (3, [2, 2]),          # x^2 + 2x + 2
    27: (3, [1, 2, 0]),      # x^3 + 2x + 1
    25: (5, [2, 4]),         # x^2 + 4x + 2
    49: (7, [3, 6]),         # x^2 + 6x + 3
}


class GF:
    """Arithmetic in GF(q) with dense add/mul/inverse tables."""

    _cache: dict = {}

    def __new__(cls, q: int):
        if q in cls._cache:
            return cls._cache[q]
        self = super().__new__(cls)
        self._init(q)
        cls._cache[q] = self
        return self

    def _init(self, q: int) -> None:
        if q > 64:
            raise ValueError(f"GF({q}): fields above q = 64 are not supported")
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        (p, k), = fac.items()
        self.q = q
        self.p = p
        self.deg = k
        if k == 1:
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            if q not in _CONWAY:
                raise ValueError(f"no irreducible polynomial stored for GF({q})")
            cp, coeffs = _CONWAY[q]
            assert cp == p

            # an element's base-p digits are its coefficients, constant first
            def to_poly(a: int) -> List[int]:
                return digits_of(a, [p] * k)[::-1]

            def from_poly(c: Sequence[int]) -> int:
                return flat_index(1, c[::-1], [p] * k)

            def polymul(a: int, b: int) -> int:
                pa, pb = to_poly(a), to_poly(b)
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(pa):
                    if x:
                        for j, y in enumerate(pb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for d in range(2 * k - 2, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        for j in range(k):
                            prod[d - k + j] = (prod[d - k + j] - c * coeffs[j]) % p
                return from_poly(prod[:k])

            self.add_table = [
                [from_poly([(x + y) % p for x, y in zip(to_poly(a), to_poly(b))]) for b in range(q)]
                for a in range(q)
            ]
            self.mul_table = [[polymul(a, b) for b in range(q)] for a in range(q)]
        self.neg_table = [0] * q
        for a in range(q):
            for b in range(q):
                if self.add_table[a][b] == 0:
                    self.neg_table[a] = b
                    break
        self.inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
                    break
            else:
                raise ValueError(f"GF({q}): element {a} has no inverse (bad polynomial)")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inv_table[a]

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # -- vector/matrix helpers ----------------------------------------------

    def vec_add(self, u: Sequence[int], v: Sequence[int]) -> List[int]:
        return [self.add(a, b) for a, b in zip(u, v)]

    def vec_scale(self, c: int, v: Sequence[int]) -> List[int]:
        return [self.mul(c, a) for a in v]

    def matmul(self, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
        cols = len(B[0]) if B else 0
        out = []
        for row in A:
            acc = [0] * cols
            for a, brow in zip(row, B):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = self.add(acc[j], self.mul(a, b))
            out.append(acc)
        return out

    def apply(self, x: Sequence[int], M: Sequence[Sequence[int]]) -> List[int]:
        """Row vector times matrix: y = x @ M."""
        return self.matmul([list(x)], M)[0]

    def identity(self, n: int) -> Matrix:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def zeros(self, n: int, m: int) -> Matrix:
        return [[0] * m for _ in range(n)]

    def selection(self, n: int, cols: Sequence[int]) -> Matrix:
        """The n × len(cols) matrix M with x @ M = x at `cols`."""
        M = self.zeros(n, len(cols))
        for c, r in enumerate(cols):
            M[r][c] = 1
        return M

    def rref(self, M: Sequence[Sequence[int]]) -> Tuple[Matrix, List[int]]:
        """Reduced row echelon form; returns (rref matrix, pivot columns)."""
        A = [list(r) for r in M]
        rows = len(A)
        cols = len(A[0]) if rows else 0
        pivots: List[int] = []
        r = 0
        for c in range(cols):
            pr = next((i for i in range(r, rows) if A[i][c]), None)
            if pr is None:
                continue
            A[r], A[pr] = A[pr], A[r]
            inv = self.inv(A[r][c])
            A[r] = self.vec_scale(inv, A[r])
            for i in range(rows):
                if i != r and A[i][c]:
                    f = self.neg(A[i][c])
                    A[i] = self.vec_add(A[i], self.vec_scale(f, A[r]))
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return A[:r] + A[r:], pivots

    def rank(self, M: Sequence[Sequence[int]]) -> int:
        if not M:
            return 0
        return len(self.rref(M)[1])

    def row_basis(self, M: Sequence[Sequence[int]]) -> Matrix:
        if not M:
            return []
        R, piv = self.rref(M)
        return [R[i] for i in range(len(piv))]

    def nullspace(self, M: Sequence[Sequence[int]]) -> Matrix:
        """Basis rows of {x : x @ M = 0} for an n×m matrix M."""
        n = len(M)
        if n == 0:
            return []
        # x @ M = 0  <=>  M^T x^T = 0: standard nullspace of the transpose
        MT = [[M[i][j] for i in range(n)] for j in range(len(M[0]))] if M[0] else []
        if not MT:
            return self.identity(n)
        R, piv = self.rref(MT)
        free = [c for c in range(n) if c not in piv]
        basis = []
        for fc in free:
            v = [0] * n
            v[fc] = 1
            for r, pc in enumerate(piv):
                v[pc] = self.neg(R[r][fc])
            basis.append(v)
        return basis

    def solve(self, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Optional[Matrix]:
        """Find X with A @ X = B (A: n×m, B: n×k, X: m×k), or None."""
        n = len(A)
        m = len(A[0]) if n else 0
        k = len(B[0]) if B else 0
        aug = [list(A[i]) + list(B[i]) for i in range(n)]
        R, piv = self.rref(aug)
        X = self.zeros(m, k)
        for r, pc in enumerate(piv):
            if pc >= m:
                return None  # inconsistent row
            X[pc] = R[r][m:]
        # rows of R beyond pivots are zero by construction
        return X

    def represent(self, B: Sequence[Sequence[int]], V: Sequence[Sequence[int]]) -> Optional[Matrix]:
        """Coefficients C with C @ B = V (each row of V in the row space of B)."""
        if not V:
            return []
        if not B:
            return None if any(any(r) for r in V) else [[] for _ in V]
        BT = [[B[i][j] for i in range(len(B))] for j in range(len(B[0]))]
        VT = [[V[i][j] for i in range(len(V))] for j in range(len(V[0]))]
        CT = self.solve(BT, VT)
        if CT is None:
            return None
        # verify (solve() does not check consistency of non-pivot rows)
        C = [[CT[i][j] for i in range(len(CT))] for j in range(len(CT[0]))]
        if self.matmul(C, [list(r) for r in B]) != [list(r) for r in V]:
            return None
        return C

    def extend_basis(
        self,
        base: Sequence[Sequence[int]],
        space: Optional[Sequence[Sequence[int]]] = None,
        dim: Optional[int] = None,
    ) -> Matrix:
        """Vectors extending `base` to a basis of `space` (default: the full
        ambient space), scanning candidates in order.  Returns only the new
        vectors."""
        if space is None:
            if dim is None:
                if not base:
                    raise ValueError("need dim when base is empty and no space given")
                dim = len(base[0])
            space = self.identity(dim)
        current = [list(r) for r in base]
        rk = self.rank(current)
        added = []
        for v in space:
            if self.rank(current + [list(v)]) > rk:
                current.append(list(v))
                added.append(list(v))
                rk += 1
        return added

    def intersect(
        self, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
    ) -> Matrix:
        """Basis of rowspace(A) ∩ rowspace(B)."""
        if not A or not B:
            return []
        # x = u @ A = w @ B: solve [A; -B] left-kernel and project
        n = len(A[0])
        stacked = [list(r) for r in A] + [self.vec_scale(self.neg(1), list(r)) for r in B]
        ker = self.nullspace_left_of_rows(stacked)
        out = []
        for coeff in ker:
            u = coeff[: len(A)]
            vec = [0] * n
            for c, row in zip(u, A):
                if c:
                    vec = self.vec_add(vec, self.vec_scale(c, row))
            out.append(vec)
        return self.row_basis(out)

    def nullspace_left_of_rows(self, rows: Sequence[Sequence[int]]) -> Matrix:
        """Basis of {c : c @ rows = 0} (coefficient combinations giving zero)."""
        return self.nullspace(rows)

    def all_vectors(self, dim: int):
        """All q^dim row vectors, in mixed-radix index order (last coord fastest)."""
        for idx in range(self.q ** dim):
            yield tuple(digits_of(idx, [self.q] * dim))

    def image_table(self, M: Sequence[Sequence[int]]) -> np.ndarray:
        """Index of x @ M for every x in F_q^len(M), both in `vec_index`
        order (first coordinate most significant)."""
        q = self.q
        in_dim = len(M)
        total = q ** in_dim
        digits = digits_of(np.arange(total, dtype=np.int64), [q] * in_dim)
        add = np.array(self.add_table, dtype=np.int64)
        mul = np.array(self.mul_table, dtype=np.int64)
        out = []
        for j in range(len(M[0]) if M else 0):
            acc = np.zeros(total, dtype=np.int64)
            for i in range(in_dim):
                c = M[i][j]
                if c:
                    acc = add[acc, mul[digits[i], c]]
            out.append(acc)
        return flat_index(total, out, [q] * len(out))

    def vec_index(self, v: Sequence[int]) -> int:
        idx = 0
        for x in v:
            idx = idx * self.q + x
        return idx
