"""Reference computations that do not use the entronet library.

Exact values are sums ``sum(c_p * log p)`` written as ``{p: Fraction(c_p)}``
with zero coefficients left out.  Their JSON form ``{"p": "c_p"}`` is the
one `LogScalar.to_json` writes, so the two can be compared directly.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Exact = Dict[int, Fraction]


# ---------------------------------------------------------------------------
# exact sums of prime logarithms


def factor(n: int) -> Dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def log_ratio(num: int, den: int = 1) -> Exact:
    """log(num / den) for positive integers."""
    out: Dict[int, Fraction] = {}
    for p, e in factor(num).items():
        out[p] = out.get(p, Fraction(0)) + e
    for p, e in factor(den).items():
        out[p] = out.get(p, Fraction(0)) - e
    return {p: c for p, c in out.items() if c}


def combine(*parts: Tuple[Fraction, Mapping[int, Fraction]]) -> Exact:
    """The exact value of sum(weight * value) over (weight, value) pairs."""
    out: Dict[int, Fraction] = {}
    for w, val in parts:
        for p, c in val.items():
            out[p] = out.get(p, Fraction(0)) + w * c
    return {p: c for p, c in out.items() if c}


def sign(val: Mapping[int, Fraction]) -> int:
    """Exact sign of sum(c_p * log p)."""
    primes = list(val)
    den = lcm(*(Fraction(c).denominator for c in val.values()))
    return _exp_sign(primes, [int(Fraction(val[p]) * den) for p in primes])


def _exp_sign(primes: Sequence[int], exps: Sequence[int]) -> int:
    """Sign of sum(e_p * log p) for integers e_p: whether the product of
    p^e_p over positive e_p exceeds the product over negative ones."""
    pos = neg = 1
    for p, e in zip(primes, exps):
        if e > 0:
            pos *= p ** e
        elif e < 0:
            neg *= p ** -e
    return (pos > neg) - (pos < neg)


def to_json(val: Mapping[int, Fraction]) -> Dict[str, str]:
    return {str(p): str(Fraction(c)) for p, c in sorted(val.items()) if c}


def from_json(obj: Mapping[str, str]) -> Exact:
    return {int(p): Fraction(c) for p, c in obj.items() if Fraction(c)}


def log2_units(c) -> Exact:
    return {2: Fraction(c)} if c else {}


# ---------------------------------------------------------------------------
# polymatroids


def is_polymatroid(values: Sequence[Mapping[int, Fraction]], n: int) -> bool:
    """Normalization, monotonicity and submodularity over every pair of
    subsets (not only the elemental family).  Values are scaled to integer
    exponent vectors over their primes first."""
    primes = sorted({p for v in values for p in v})
    den = lcm(1, *(Fraction(c).denominator for v in values for c in v.values()))
    vec = [[int(Fraction(v.get(p, 0)) * den) for p in primes] for v in values]
    if _exp_sign(primes, vec[0]) != 0:
        return False
    for a in range(1 << n):
        for b in range(1 << n):
            va, vb = vec[a], vec[b]
            if a | b == b and _exp_sign(primes, [y - x for x, y in zip(va, vb)]) < 0:
                return False
            slack = [x + y - u - w for x, y, u, w in zip(va, vb, vec[a | b], vec[a & b])]
            if _exp_sign(primes, slack) < 0:
                return False
    return True


def evaluate(terms: Mapping[Tuple[str, ...], Fraction], labels: Sequence[str],
             values: Sequence[Mapping[int, Fraction]]) -> Exact:
    """Value of sum(c * H(subset)) for a set function given by its values
    over bitmasks of `labels`."""
    pos = {lab: i for i, lab in enumerate(labels)}
    parts = []
    for subset, c in terms.items():
        mask = 0
        for lab in subset:
            mask |= 1 << pos[lab]
        parts.append((Fraction(c), values[mask]))
    return combine(*parts)


# ---------------------------------------------------------------------------
# Shannon certificates


def elemental_row(kind: str, args: Sequence[int], n: int) -> Dict[int, Fraction]:
    """The elemental inequality named by a certificate key, as {mask: coeff}
    with the row asserted >= 0: ("mono", (i,)) is H(N) - H(N - i) and
    ("submod", (i, j, a)) is H(a+i) + H(a+j) - H(a+i+j) - H(a)."""
    full = (1 << n) - 1
    row: Dict[int, Fraction] = {}

    def bump(mask: int, c: int) -> None:
        if mask:
            row[mask] = row.get(mask, Fraction(0)) + c

    if kind == "mono":
        (i,) = args
        bump(full, 1)
        bump(full & ~(1 << i), -1)
    elif kind == "submod":
        i, j, a = args
        if i == j or not (0 <= i < n and 0 <= j < n) or a & ((1 << i) | (1 << j)) or a & ~full:
            raise ValueError(f"malformed elemental key {kind}{tuple(args)}")
        bump(a | 1 << i, 1)
        bump(a | 1 << j, 1)
        bump(a | 1 << i | 1 << j, -1)
        bump(a, -1)
    else:
        raise ValueError(f"unknown elemental kind {kind!r}")
    return {m: c for m, c in row.items() if c}


def certificate_holds(terms: Mapping[Tuple[str, ...], Fraction], n: int,
                      cert: Mapping[Tuple[str, tuple], Fraction]) -> bool:
    """Check a Shannon certificate exactly: every weight is >= 0 and the
    weighted sum of the named elemental rows equals the target expression.
    Variables are indexed as `shannon_implies` documents: the expression's
    labels in sorted order, then padding variables."""
    labels = sorted({lab for subset, c in terms.items() if c for lab in subset})
    if len(labels) > n:
        return False
    pos = {lab: i for i, lab in enumerate(labels)}
    target: Dict[int, Fraction] = {}
    for subset, c in terms.items():
        mask = 0
        for lab in subset:
            mask |= 1 << pos[lab]
        if mask:
            target[mask] = target.get(mask, Fraction(0)) + Fraction(c)
    total: Dict[int, Fraction] = {}
    for (kind, args), w in cert.items():
        w = Fraction(w)
        if w < 0:
            return False
        try:
            row = elemental_row(kind, args, n)
        except (TypeError, ValueError):
            return False
        for m, c in row.items():
            total[m] = total.get(m, Fraction(0)) + w * c
    clean = lambda d: {m: c for m, c in d.items() if c}
    return clean(total) == clean(target)


# ---------------------------------------------------------------------------
# max-flow min-cut


def max_flow(edges: Iterable[Tuple[str, str, int]], source: str, sink: str) -> int:
    """Edmonds-Karp maximum flow over integer capacities (parallel edges add)."""
    cap: Dict[str, Dict[str, int]] = {}
    for u, v, c in edges:
        cap.setdefault(u, {})
        cap.setdefault(v, {})
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)
    if source not in cap or sink not in cap or source == sink:
        return 0
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def multicast_min_cut(edges: Sequence[Tuple[str, str, int]], source: str,
                      receivers: Sequence[str]) -> int:
    """Single-source multicast capacity: the smallest source-receiver cut."""
    return min(max_flow(edges, source, r) for r in receivers)


# ---------------------------------------------------------------------------
# vector spaces over a prime field


def rref(rows: Sequence[Sequence[int]], p: int) -> List[Tuple[int, ...]]:
    """Nonzero rows of the reduced row echelon form over GF(p), p prime."""
    m = [list(r) for r in rows]
    out = []
    col = 0
    width = len(m[0]) if m else 0
    while m and col < width:
        piv = next((r for r in m if r[col] % p), None)
        if piv is None:
            col += 1
            continue
        m.remove(piv)
        inv = pow(piv[col], p - 2, p)
        piv = [x * inv % p for x in piv]
        m = [[(x - r[col] * y) % p for x, y in zip(r, piv)] for r in m]
        out = [[(x - r[col] * y) % p for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return [tuple(r) for r in out if any(r)]


@lru_cache(maxsize=None)
def span(basis: Sequence[Sequence[int]], p: int, n: int) -> frozenset:
    """Every vector of the span, by enumerating coefficient tuples."""
    vecs = set()
    for coeffs in _all_vectors(p, len(basis)):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            v = [(x + c * y) % p for x, y in zip(v, row)]
        vecs.add(tuple(v))
    return frozenset(vecs)


def _all_vectors(p: int, dim: int) -> List[Tuple[int, ...]]:
    return list(product(range(p), repeat=dim))


def all_subspaces(p: int, n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every subspace of GF(p)^n as its canonical rref row basis."""
    nonzero = [v for v in _all_vectors(p, n) if any(v)]
    seen = {(): None}
    for r in range(1, n + 1):
        for combo in combinations(nonzero, r):
            basis = tuple(rref(combo, p))
            if len(basis) == r:
                seen.setdefault(basis, None)
    return list(seen)


def subspace_entropy(members: Sequence[Sequence[Sequence[int]]], p: int, n: int) -> List[int]:
    """h(alpha) = n - dim(intersection of the alpha members), in log-p units,
    for every mask alpha; intersections are taken as sets of vectors."""
    spans = [span(tuple(tuple(r) for r in b), p, n) for b in members]
    k = len(members)
    out = [0]
    for mask in range(1, 1 << k):
        common = None
        for i in range(k):
            if mask >> i & 1:
                common = spans[i] if common is None else common & spans[i]
        dim = 0
        while p ** dim < len(common):
            dim += 1
        out.append(n - dim)
    return out
