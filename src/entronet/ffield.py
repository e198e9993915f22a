"""Exact linear algebra over small finite fields GF(q), q <= 64.

Elements are integers 0..q-1.  For prime q they are residues; for prime
powers they encode polynomial coefficients base p, with multiplication
modulo a fixed Conway polynomial.  Vectors are tuples/lists of elements;
matrices are lists of rows; maps act on row vectors as ``y = x @ M``.

One echelon routine, `GF.echelon`, reduces every matrix: `rref`, `rank`,
`row_basis`, `nullspace` and `solve` are built on it.  It works on packed
rows (`GF.pack`).  Over GF(2) a row of width w is one Python int whose bit
w−1−c holds column c, so the first column is the most significant bit and
the int is the row's `vec_index`; a row operation is one XOR and a pivot is
a leading bit, found by `int.bit_length`, in the style of M4RI (Albrecht &
Bard, ACM TOMS 2010).  Over other q a packed row is a tuple of elements,
eliminated through the field's add and mul tables.

Every tuple space of the package is numbered one way, by `flat_index` and
its inverse `digits_of`: the mixed-radix index with the FIRST coordinate
most significant.  That numbers the vectors of F_q^dim (`GF.vec_index`),
the entries of a code's tables over their feeds, and the source tuples
that `evaluate_code` enumerates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlog import factorize

Matrix = List[List[int]]
Row = Union[int, Tuple[int, ...]]  # a packed vector: `GF.pack`


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
        self._add_array = np.array(self.add_table, dtype=np.int64)

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

    # -- packed rows and the one echelon routine ------------------------------

    def pack(self, v: Sequence[int]) -> Row:
        """The packed form of a vector: over GF(2) an int whose bit
        len(v)−1−c holds v[c], so its index `vec_index(v)`; a tuple otherwise."""
        if self.q != 2:
            return tuple(v)
        x = 0
        for b in v:
            x = x << 1 | b
        return x

    def unpack(self, r: Row, width: int) -> List[int]:
        """The vector of length `width` that `pack` turned into `r`."""
        if self.q != 2:
            return list(r)
        return [r >> s & 1 for s in range(width - 1, -1, -1)]

    def combine(self, vectors: Sequence[Row], M: Sequence[Sequence[int]], width: int) -> List[Row]:
        """Packed Σ_i M[i][j]·vectors[i] for each column j of M, where the
        vectors have length `width`: the columns of V @ M when `vectors` are
        the packed columns of V."""
        out = []
        if self.q == 2:
            for col in zip(*M):
                x = 0
                for v, c in zip(vectors, col):
                    if c:
                        x ^= v
                out.append(x)
            return out
        add, mul = self.add_table, self.mul_table
        for col in zip(*M):
            acc = [0] * width
            for v, c in zip(vectors, col):
                if c:
                    m = mul[c]
                    acc = [add[x][m[y]] for x, y in zip(acc, v)]
            out.append(tuple(acc))
        return out

    def echelon(self, rows: Sequence[Row], width: int,
                reduced: bool = True) -> Tuple[List[Row], List[int]]:
        """The nonzero rows of the echelon form of packed `rows` of length
        `width`, in pivot order, and their pivot columns; reduced (each
        pivot 1 and alone in its column) unless `reduced` is False, when
        only the pivots are exact.

        Over GF(2) each pivot is found by `int.bit_length` and cleared by
        XOR: a row is reduced by the kept row that leads at its leading bit
        until it leads at a new bit or vanishes, and back substitution from
        the last pivot up makes the form reduced.  Over other q the rows are
        lists eliminated column by column through the add and mul tables."""
        if self.q == 2:
            lead: Dict[int, int] = {}  # bit length of a leading bit -> its row
            for r in rows:
                while r:
                    t = r.bit_length()
                    p = lead.get(t)
                    if p is None:
                        lead[t] = r
                        break
                    r ^= p
            order = sorted(lead, reverse=True)
            R = [lead[t] for t in order]
            if reduced:
                for i in range(len(R) - 1, 0, -1):
                    bit, ri = 1 << order[i] - 1, R[i]
                    for j in range(i):
                        if R[j] & bit:
                            R[j] ^= ri
            return R, [width - t for t in order]
        inv, neg, add, mul = self.inv_table, self.neg_table, self.add_table, self.mul_table
        A = [list(r) for r in rows]
        n = len(A)
        pivots: List[int] = []
        for c in range(width):
            r = len(pivots)
            pr = next((i for i in range(r, n) if A[i][c]), None)
            if pr is None:
                continue
            A[r], A[pr] = A[pr], A[r]
            row = A[r]
            if row[c] != 1:
                m = mul[inv[row[c]]]
                row = A[r] = [m[x] for x in row]
            for i in range(0 if reduced else r + 1, n):
                a = A[i][c]
                if a and i != r:
                    m = mul[neg[a]]
                    A[i] = [add[x][m[y]] for x, y in zip(A[i], row)]
            pivots.append(c)
            if r + 1 == n:
                break
        return A[:len(pivots)], pivots

    def perp(self, rows: Sequence[Row], width: int) -> List[Row]:
        """Packed basis of the vectors x of length `width` with r·x = 0 for
        every packed row r: one vector per free column fc of the reduced
        form, 1 at fc and −R[k][fc] at the k-th pivot column."""
        R, piv = self.echelon(rows, width)
        pivots = set(piv)
        free = [c for c in range(width) if c not in pivots]
        out: List[Row] = []
        if self.q == 2:
            for fc in free:
                bit = 1 << width - 1 - fc
                v = bit
                for r, pc in zip(R, piv):
                    if r & bit:
                        v |= 1 << width - 1 - pc
                out.append(v)
            return out
        neg = self.neg_table
        for fc in free:
            v = [0] * width
            v[fc] = 1
            for r, pc in zip(R, piv):
                v[pc] = neg[r[fc]]
            out.append(tuple(v))
        return out

    # -- matrix routines on the echelon routine -------------------------------

    def rref(self, M: Sequence[Sequence[int]]) -> Tuple[Matrix, List[int]]:
        """Reduced row echelon form, zero rows last; returns (rref matrix,
        pivot columns)."""
        width = len(M[0]) if M else 0
        R, piv = self.echelon([self.pack(r) for r in M], width)
        rows = [self.unpack(r, width) for r in R]
        return rows + self.zeros(len(M) - len(R), width), piv

    def rank(self, M: Sequence[Sequence[int]]) -> int:
        if not M:
            return 0
        return len(self.echelon([self.pack(r) for r in M], len(M[0]), reduced=False)[1])

    def row_basis(self, M: Sequence[Sequence[int]]) -> Matrix:
        if not M:
            return []
        width = len(M[0])
        return [self.unpack(r, width) for r in self.echelon([self.pack(r) for r in M], width)[0]]

    def nullspace(self, M: Sequence[Sequence[int]]) -> Matrix:
        """Basis rows of {x : x @ M = 0} for an n×m matrix M: `perp` of its
        columns."""
        n = len(M)
        return [self.unpack(v, n) for v in self.perp([self.pack(c) for c in zip(*M)], n)]

    def solve(self, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Optional[Matrix]:
        """Find X with A @ X = B (A: n×m, B: n×k, X: m×k), or None."""
        n = len(A)
        m = len(A[0]) if n else 0
        k = len(B[0]) if B else 0
        R, piv = self.echelon([self.pack(list(A[i]) + list(B[i])) for i in range(n)], m + k)
        X = self.zeros(m, k)
        for r, pc in zip(R, piv):
            if pc >= m:
                return None  # inconsistent row
            X[pc] = self.unpack(r, m + k)[m:]
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
        # x = u @ A = w @ B: the left kernel of [A; -B], projected through A
        neg = self.neg_table
        ker = self.nullspace_left_of_rows([list(r) for r in A] + [[neg[x] for x in r] for r in B])
        return self.row_basis(self.matmul([c[: len(A)] for c in ker], A))

    def nullspace_left_of_rows(self, rows: Sequence[Sequence[int]]) -> Matrix:
        """Basis of {c : c @ rows = 0} (coefficient combinations giving zero)."""
        return self.nullspace(rows)

    def image_table(self, M: Sequence[Sequence[int]]) -> np.ndarray:
        """Index of x @ M for every x in F_q^len(M), both in `vec_index`
        order (first coordinate most significant), built by doubling: the
        table over the last k rows is extended to the row before them by one
        block per value c of its coordinate, the table plus c times that
        row.  In characteristic 2 field addition is XOR of the element codes,
        so of whole indices, and each block is written in place into the one
        array of the final size; otherwise each output column is extended by
        gathers through the field's add table."""
        width = len(M[0]) if M else 0
        if self.p == 2:
            table = np.zeros(self.q ** len(M), dtype=np.int64)
            n = 1
            for row in reversed(M):
                for c, m in enumerate(self.mul_table[1:], 1):
                    np.bitwise_xor(table[:n], self.vec_index([m[x] for x in row]),
                                   out=table[c * n:(c + 1) * n])
                n *= self.q
            return table
        q, mul, add = self.q, self.mul_table, self._add_array
        cols = [np.zeros(1, dtype=np.int64)] * width
        for row in reversed(M):
            cols = [np.concatenate([add[mul[c][x]][col] for c in range(q)]) if x
                    else np.tile(col, q) for col, x in zip(cols, row)]
        return flat_index(q ** len(M), cols, [q] * width)

    def vec_index(self, v: Sequence[int]) -> int:
        idx = 0
        for x in v:
            idx = idx * self.q + x
        return idx
