"""Entropy functions and quasi-uniform supports from finite groups,
subgroup families, finite-field subspace families, and explicit supports."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlog import ZERO, LogScalar
from .ffield import GF, Matrix, Row
from .schema import (MAX_CONE_TUPLES, ResourceError, StructuralError, check_arity, document,
                     int_rows, sym_from_json, typed)
from .setfunc import GroundSet, SetFunction


class FiniteGroup:
    """Finite group given by an explicit multiplication table over 0..n-1,
    validated exactly at every order (`_validate`)."""

    __slots__ = ("order", "table", "identity")

    def __init__(self, table: Sequence[Sequence[int]], validate: bool = True):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise StructuralError("no identity element")
        self.identity = ident
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Rows and columns are permutations, and Light's test: the g with
        (xg)y = x(gy) for all x, y are closed under the product, so one n×n
        comparison per generator decides associativity.  Each generator is
        the first element not reached by right products of the earlier ones;
        those that pass generate a group, so there are at most log2(n) + 1."""
        n = self.order
        t = np.array(self.table)
        perm = np.arange(n)
        if t.dtype.kind != "i" or (np.sort(t, axis=1) != perm).any():
            raise StructuralError("multiplication table rows must be permutations")
        if (np.sort(t, axis=0) != perm[:, None]).any():
            raise StructuralError("multiplication table columns must be permutations")
        reached = np.zeros(n, dtype=bool)
        reached[self.identity] = True
        gens: List[int] = []
        while not reached.all():
            g = int(np.argmin(reached))
            bad = np.argwhere(t[t[:, g]] != t[:, t[g]])
            if bad.size:
                x, y = bad[0].tolist()
                raise StructuralError(f"associativity fails at ({x},{g},{y})")
            gens.append(g)
            frontier = np.flatnonzero(reached)
            while frontier.size:
                products = np.unique(t[np.ix_(frontier, gens)])
                frontier = products[~reached[products]]
                reached[frontier] = True

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def is_subgroup(self, elems: FrozenSet[int]) -> bool:
        if self.identity not in elems:
            return False
        return all(self.table[a][b] in elems for a in elems for b in elems)

    def closure(self, gens: Sequence[int]) -> FrozenSet[int]:
        elems = {self.identity, *gens}
        frontier = list(elems)
        while frontier:
            new = []
            for a in list(elems):
                for b in frontier:
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in elems:
                            elems.add(c)
                            new.append(c)
            frontier = new
        return frozenset(elems)

    def cosets(self, sub: FrozenSet[int]) -> np.ndarray:
        """Index of each element's left coset of `sub`, cosets numbered in
        order of their smallest element."""
        smallest = [min(row[s] for s in sub) for row in self.table]
        return np.unique(smallest, return_inverse=True)[1]

    def all_subgroups(self) -> List[FrozenSet[int]]:
        """All subgroups: the trivial group closed under adjoining one
        element until nothing new appears (every subgroup is reached through
        a chain of one-generator extensions)."""
        found = {frozenset([self.identity])}
        frontier = list(found)
        while frontier:
            new = set()
            for sub in frontier:
                for c in range(self.order):
                    if c not in sub:
                        new.add(self.closure(list(sub) + [c]))
            frontier = list(new - found)
            found |= new
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def to_json(self) -> dict:
        return {
            "format": "group/1",
            "order": self.order,
            "identity": self.identity,
            "table": [list(r) for r in self.table],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "FiniteGroup":
        document(obj, "group/1", "a group")
        table = int_rows(obj.get("table"), "a group table")
        if any(len(row) != len(table) for row in table):
            raise StructuralError("a group table must be square")
        return cls(table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], validate=False)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    table = [
        [(g.table[a][c] * m + h.table[b][d]) for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    return FiniteGroup(table, validate=False)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements r^i s^j encoded as 2*i + j."""

    def mul(x: int, y: int) -> int:
        i1, j1 = divmod(x, 2)
        i2, j2 = divmod(y, 2)
        if j1 == 0:
            return 2 * ((i1 + i2) % n) + j2
        return 2 * ((i1 - i2) % n) + (1 - j2 if j2 else 1)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FiniteGroup(table)


def symmetric(n: int) -> FiniteGroup:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, validate=False)


def quaternion() -> FiniteGroup:
    """Quaternion group Q8: elements ±1, ±i, ±j, ±k as 0..7."""
    # encode: 0:1, 1:-1, 2:i, 3:-i, 4:j, 5:-j, 6:k, 7:-k
    base = {  # products of generators i, j, k
        ("i", "i"): ("-", "1"), ("j", "j"): ("-", "1"), ("k", "k"): ("-", "1"),
        ("i", "j"): ("+", "k"), ("j", "i"): ("-", "k"),
        ("j", "k"): ("+", "i"), ("k", "j"): ("-", "i"),
        ("k", "i"): ("+", "j"), ("i", "k"): ("-", "j"),
    }
    names = ["1", "1", "i", "i", "j", "j", "k", "k"]
    signs = [1, -1, 1, -1, 1, -1, 1, -1]

    def mul(x: int, y: int) -> int:
        nx, ny = names[x], names[y]
        s = signs[x] * signs[y]
        if nx == "1":
            nz = ny
        elif ny == "1":
            nz = nx
        else:
            sg, nz = base[(nx, ny)]
            if sg == "-":
                s = -s
        idx = {"1": 0, "i": 2, "j": 4, "k": 6}[nz]
        return idx if s > 0 else idx + 1

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup(table)


@dataclass(frozen=True)
class SubgroupFamily:
    parent: FiniteGroup
    members: Tuple[FrozenSet[int], ...]

    def __init__(self, parent: FiniteGroup, members: Sequence[Sequence[int]]):
        mem = tuple(frozenset(m) for m in members)
        for i, sub in enumerate(mem):
            if not sub <= set(range(parent.order)):
                raise StructuralError(f"member {i} has elements outside the group")
            if not parent.is_subgroup(sub):
                raise StructuralError(f"member {i} is not a subgroup (not closed or missing identity)")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", mem)

    @property
    def arity(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "format": "subgroupfamily/1",
            "group": self.parent.to_json(),
            "members": [sorted(m) for m in self.members],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SubgroupFamily":
        document(obj, "subgroupfamily/1", "a subgroup family")
        return cls(FiniteGroup.from_json(obj.get("group")), int_rows(obj.get("members"), "members"))


@dataclass(frozen=True)
class SubspaceFamily:
    q: int
    ambient_dim: int
    members: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __init__(self, q: int, ambient_dim: int, members: Sequence[Sequence[Sequence[int]]]):
        gf = GF(q)  # validates that q is a prime power
        if ambient_dim < 0:
            raise StructuralError(f"ambient dimension {ambient_dim} is negative")
        # an empty member's annihilator is the ambient_dim × ambient_dim identity
        if ambient_dim * ambient_dim > MAX_CONE_TUPLES:
            raise ResourceError(f"ambient_dim {ambient_dim}: annihilators past {MAX_CONE_TUPLES}")
        mem = []
        for i, basis in enumerate(members):
            rows = [tuple(int(x) for x in r) for r in basis]
            for r in rows:
                if len(r) != ambient_dim or any(not 0 <= x < q for x in r):
                    raise StructuralError(f"member {i}: bad basis vector {r}")
            if rows and gf.rank([list(r) for r in rows]) != len(rows):
                raise StructuralError(f"member {i}: basis is rank-deficient")
            mem.append(tuple(rows))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "members", tuple(mem))
        object.__setattr__(self, "_annihilators", {})

    @classmethod
    def _trusted(
        cls, q: int, ambient_dim: int, members: Sequence[Matrix], annihilators: Dict[int, List[Row]]
    ) -> "SubspaceFamily":
        """A family from full-rank bases over a field already built, without
        re-validating them; `annihilators` maps member indices to the packed
        columns (`GF.pack`) of known annihilators, matrices whose left
        kernel is that member."""
        out = object.__new__(cls)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "ambient_dim", ambient_dim)
        object.__setattr__(out, "members", tuple(tuple(map(tuple, m)) for m in members))
        object.__setattr__(out, "_annihilators", dict(annihilators))
        return out

    @property
    def arity(self) -> int:
        return len(self.members)

    @property
    def gf(self) -> GF:
        return GF(self.q)

    def _columns(self, i: int) -> List[Row]:
        # the packed columns of member i's annihilator, computed once per
        # member and kept with the family
        cols = self._annihilators.get(i)
        if cols is None:
            gf = self.gf
            cols = self._annihilators[i] = gf.perp([gf.pack(r) for r in self.members[i]],
                                                   self.ambient_dim)
        return cols

    def annihilator(self, i: int) -> Matrix:
        """An ambient_dim × (ambient_dim − dim V_i) matrix whose left kernel
        is member V_i: the transpose of a basis of its orthogonal complement,
        unless the family was built with one.  A fresh copy on each call."""
        n = self.ambient_dim
        cols = [self.gf.unpack(c, n) for c in self._columns(i)]
        return [[c[r] for c in cols] for r in range(n)]

    def intersection_codim(self, indices: Sequence[int]) -> int:
        """ambient_dim − dim of the intersection of the indexed members: the
        rank of the union of their annihilators' columns, whose orthogonal
        complement is that intersection."""
        rows = [c for i in indices for c in self._columns(i)]
        return len(self.gf.echelon(rows, self.ambient_dim, reduced=False)[1])

    def entropy_at(self, indices: Sequence[int]) -> LogScalar:
        """(ambient_dim - dim of the indexed intersection) * log q, from one
        rank (`intersection_codim`)."""
        if not indices:
            return ZERO
        return LogScalar.log_int(self.q) * self.intersection_codim(indices)

    def to_json(self) -> dict:
        return {
            "format": "subspacefamily/1",
            "q": self.q,
            "ambient_dim": self.ambient_dim,
            "members": [[list(r) for r in m] for m in self.members],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SubspaceFamily":
        document(obj, "subspacefamily/1", "a subspace family")
        members = typed(obj.get("members"), list, "members")
        for basis in members:
            int_rows(basis, "a member basis")
        return cls(typed(obj.get("q"), int, "q"), typed(obj.get("ambient_dim"), int, "ambient_dim"),
                   members)


@dataclass(frozen=True)
class SupportSet:
    arity: int
    alphabets: Tuple[Tuple[object, ...], ...]
    tuples: FrozenSet[tuple]

    def __init__(self, arity: int, alphabets: Sequence[Sequence[object]], tuples):
        tups = frozenset(tuple(t) for t in tuples)
        alph = tuple(tuple(a) for a in alphabets)
        members = [set(a) for a in alph]
        if not tups:
            raise StructuralError("support must be nonempty")
        if len(alph) != arity:
            raise StructuralError("need one alphabet per coordinate")
        for t in tups:
            if len(t) != arity:
                raise StructuralError(f"tuple {t} has wrong arity")
            for x, a in zip(t, members):
                if x not in a:
                    raise StructuralError(f"symbol {x!r} missing from its coordinate alphabet")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "alphabets", alph)
        object.__setattr__(self, "tuples", tups)

    def to_json(self) -> dict:
        return {
            "format": "support/1",
            "arity": self.arity,
            "alphabets": [list(a) for a in self.alphabets],
            "tuples": sorted(list(t) for t in self.tuples),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "SupportSet":
        document(obj, "support/1", "a support")

        def rows(key: str) -> list:
            return [sym_from_json(typed(x, list, f"an entry of a support's {key}"))
                    for x in typed(obj.get(key), list, f"a support's {key}")]

        return cls(typed(obj.get("arity"), int, "a support's arity"), rows("alphabets"), rows("tuples"))


def _default_ground(n: int) -> GroundSet:
    return GroundSet([str(i + 1) for i in range(n)])


def entropy_from_subgroups(fam: SubgroupFamily) -> SetFunction:
    """f(α) = log(|G| / |∩_{i∈α} G_i|)."""
    check_arity(fam.arity, "a subgroup family")
    order = fam.parent.order
    n = fam.arity
    ground = _default_ground(n)
    values = [ZERO]
    for mask in range(1, 1 << n):
        inter = None
        for i in range(n):
            if mask >> i & 1:
                inter = fam.members[i] if inter is None else inter & fam.members[i]
        values.append(LogScalar.log_fraction(order, len(inter)))
    return SetFunction(ground, values)


def entropy_from_subspaces(fam: SubspaceFamily) -> SetFunction:
    check_arity(fam.arity, "a subspace family")
    ground = _default_ground(fam.arity)
    values = [ZERO]
    for mask in range(1, 1 << fam.arity):
        idx = [i for i in range(fam.arity) if mask >> i & 1]
        values.append(fam.entropy_at(idx))
    return SetFunction(ground, values)


def coset_support(fam: Union[SubgroupFamily, SubspaceFamily]) -> SupportSet:
    """Joint support of the coset-index variables U_i: one tuple per group
    element, holding the index of its left coset of each G_i, cosets numbered
    in order of their smallest element.  A subspace family is the additive
    group of F_q^n, elements in `vec_index` order; x and y share a coset of
    V_i iff x·K_i = y·K_i for the annihilator K_i."""
    if isinstance(fam, SubspaceFamily):
        cols = []
        for i in range(fam.arity):
            ids: Dict[int, int] = {}  # image key -> coset index, by first occurrence
            keys = fam.gf.image_table(fam.annihilator(i)).tolist()
            cols.append([ids.setdefault(k, len(ids)) for k in keys])
    else:
        cols = [fam.parent.cosets(sub).tolist() for sub in fam.members]
    alphabets = [range(max(c) + 1) for c in cols]
    return SupportSet(fam.arity, alphabets, list(zip(*cols)) or [()])


@dataclass(frozen=True)
class QuasiUniformResult:
    ok: bool
    entropy: Optional[SetFunction]
    failing: Tuple[Tuple[int, ...], ...]  # coordinate index sets that fail


def support_projections(s: SupportSet):
    """The projections of a support onto every nonempty coordinate set α,
    as (syms, R, proj, failing).

    syms[c] lists the symbols that occur at coordinate c, in alphabet
    order.  R has one row per tuple, in lexicographic order, holding each
    coordinate's rank in syms.  proj[α] is (first, inv) for α given as a
    bit mask: R[first] holds one row per α-projection, in lexicographic
    order of the projections, and inv[t] is the projection index of row t.
    failing lists the coordinate sets whose projection counts differ, in
    mask order; the support is quasi-uniform iff it is empty.

    The α-projections are numbered from those of α without its last
    coordinate c, by the key (projection index) * len(syms[c]) + R[:, c],
    which stays below |support| * len(syms[c]) at any arity."""
    check_arity(s.arity, "a support")
    n = s.arity
    syms = []
    for c, alpha in enumerate(s.alphabets):
        pos = {x: k for k, x in enumerate(alpha)}
        syms.append(sorted({t[c] for t in s.tuples}, key=pos.__getitem__))
    rank = [{x: k for k, x in enumerate(col)} for col in syms]
    R = np.array(sorted(tuple(rank[c][x] for c, x in enumerate(t)) for t in s.tuples),
                 dtype=np.int64)
    proj = {}
    failing = []
    for mask in range(1, 1 << n):
        c = mask.bit_length() - 1
        rest = mask ^ (1 << c)
        key = R[:, c] if not rest else proj[rest][1] * len(syms[c]) + R[:, c]
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        proj[mask] = (first, inv)
        counts = np.bincount(inv)
        if counts.min() != counts.max():
            failing.append(tuple(i for i in range(n) if mask >> i & 1))
    return syms, R, proj, tuple(failing)


def quasi_uniform_check(s: SupportSet) -> QuasiUniformResult:
    """Every projection must be uniform on its support; if so, the entropy
    function is α ↦ log of the projected support size."""
    _, _, proj, failing = support_projections(s)
    if failing:
        return QuasiUniformResult(False, None, failing)
    values = [ZERO] + [LogScalar.log_int(len(proj[mask][0])) for mask in range(1, 1 << s.arity)]
    return QuasiUniformResult(True, SetFunction(_default_ground(s.arity), values), ())


def builtin_function(name: str, a: Union[int, Fraction] = 1) -> SetFunction:
    """Named example functions with exact printed values."""
    ground = _default_ground(4)
    if name in ("zy", "zy_counterexample"):
        a = Fraction(a)
        if a <= 0:
            raise ValueError("parameter must be positive")
        vals: Dict[tuple, Fraction] = {}
        for r in range(1, 5):
            for combo in itertools.combinations("1234", r):
                key = tuple(combo)
                if r == 1:
                    vals[key] = 2 * a
                elif r == 2:
                    vals[key] = 4 * a if set(combo) == {"3", "4"} else 3 * a
                else:
                    vals[key] = 4 * a
        return SetFunction.from_log2(ground, vals)
    if name in ("projective-plane", "projective_plane"):
        l13 = LogScalar.log_int(13)
        l6 = LogScalar.log_int(6)
        l12 = LogScalar.log_int(12)
        l4 = LogScalar.log_int(4)
        vals2: Dict[tuple, LogScalar] = {}
        for r in range(1, 5):
            for combo in itertools.combinations("1234", r):
                key = tuple(combo)
                if r == 1:
                    vals2[key] = l13
                elif r == 2:
                    if set(combo) == {"1", "2"}:
                        vals2[key] = l6 + l13
                    elif set(combo) == {"3", "4"}:
                        vals2[key] = l13 + l12
                    else:
                        vals2[key] = l13 + l4
                else:
                    vals2[key] = l13 + l12
        return SetFunction.from_dict(ground, vals2)
    raise ValueError(f"unknown builtin function {name!r}")
