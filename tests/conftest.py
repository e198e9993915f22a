"""Shared generators: group catalog, subspace enumeration, and a
rejection-sampled random-polymatroid oracle (brute-force acceptance over all
subset pairs, independent of the library's elemental reduction)."""

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from entronet.exactlog import LogScalar
from entronet.ffield import GF, digits_of
from entronet.groupchar import (
    SubgroupFamily,
    SupportSet,
    coset_support,
    cyclic,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
)
from entronet.netmodel import (
    Alphabet,
    ConnectionRequirement,
    Edge,
    LinearMap,
    Network,
    NetworkCode,
    ResourceError,
    StructuralError,
    TableMap,
    UNCAPPED,
    decoder_feeds,
    edge_feeds,
)
from entronet.setfunc import GroundSet, SetFunction

ZERO = LogScalar()


def group_catalog():
    """Named groups of order <= 24 built from the library's constructors."""
    groups = [(f"C{n}", cyclic(n)) for n in range(1, 25)]
    groups += [(f"D{n}", dihedral(n)) for n in range(3, 13)]
    groups += [("S3", symmetric(3)), ("S4", symmetric(4)), ("Q8", quaternion())]
    for dims in [
        (2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (2, 12),
        (3, 3), (4, 4), (3, 6), (2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 3, 4),
    ]:
        g = cyclic(dims[0])
        for d in dims[1:]:
            g = direct_product(g, cyclic(d))
        groups.append(("x".join(map(str, dims)), g))
    return groups


def reference_quasi_uniform_check(s):
    """Quasi-uniformity decided by counting each projection's multiplicities
    in a dict, tuple by tuple: the reference for `support_projections`.
    Returns (ok, failing coordinate sets, entropy values or None)."""
    n = s.arity
    values = [ZERO]
    failing = []
    for mask in range(1, 1 << n):
        coords = [i for i in range(n) if mask >> i & 1]
        proj = {}
        for t in s.tuples:
            key = tuple(t[c] for c in coords)
            proj[key] = proj.get(key, 0) + 1
        if len(set(proj.values())) != 1:
            failing.append(tuple(coords))
        values.append(LogScalar.log_int(len(proj)))
    return not failing, tuple(failing), None if failing else values


_SMALL_GROUPS = [(name, g) for name, g in group_catalog() if g.order <= 12]
_small_subgroups = {}


@st.composite
def supports(draw, arity=st.integers(1, 4)):
    """A support whose alphabets are shuffled and may hold unused symbols:
    either the coset support of a subgroup family, which is quasi-uniform,
    or a random set of tuples, which mostly is not."""
    n = draw(arity)
    if draw(st.booleans()):
        name, g = draw(st.sampled_from(_SMALL_GROUPS))
        subs = _small_subgroups.setdefault(name, [sorted(x) for x in g.all_subgroups()])
        base = coset_support(SubgroupFamily(g, [draw(st.sampled_from(subs)) for _ in range(n)]))
        sizes = [len(a) for a in base.alphabets]
        tuples = base.tuples
    else:
        sizes = [draw(st.integers(1, 4)) for _ in range(n)]
        tuples = draw(st.sets(st.tuples(*[st.integers(0, k - 1) for k in sizes]),
                              min_size=1, max_size=16))
    alphabets = [draw(st.permutations([f"{c}:{x}" for x in range(k + draw(st.integers(0, 2)))]))
                 for c, k in enumerate(sizes)]
    return SupportSet(n, alphabets, [tuple(f"{c}:{x}" for c, x in enumerate(t)) for t in tuples])


def chained_intersection(fam, indices):
    """Basis of the intersection of the indexed members of a subspace
    family, one `GF.intersect` per further index: the reference for
    `SubspaceFamily.intersection_codim`."""
    gf = GF(fam.q)
    it = iter(indices)
    try:
        first = next(it)
    except StopIteration:
        return gf.identity(fam.ambient_dim)
    cur = [list(r) for r in fam.members[first]]
    for i in it:
        cur = gf.intersect(cur, [list(r) for r in fam.members[i]])
    return cur


def all_vectors(q, dim):
    """All q^dim row vectors of F_q^dim, in `GF.vec_index` order (last
    coordinate fastest)."""
    for idx in range(q ** dim):
        yield tuple(digits_of(idx, [q] * dim))


def vec_add(gf, u, v):
    return [gf.add(a, b) for a, b in zip(u, v)]


def vec_scale(gf, c, v):
    return [gf.mul(c, a) for a in v]


def reference_rref(gf, M):
    """The list-based Gauss-Jordan elimination that `GF.rref` replaced, kept
    as the reference for the echelon routine: (rref matrix, pivot columns)."""
    A = [list(r) for r in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = gf.inv(A[r][c])
        A[r] = vec_scale(gf, inv, A[r])
        for i in range(rows):
            if i != r and A[i][c]:
                f = gf.neg(A[i][c])
                A[i] = vec_add(gf, A[i], vec_scale(gf, f, A[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A[:r] + A[r:], pivots


def all_subspaces(q, n):
    """Every subspace of F_q^n as a canonical (rref) row-basis tuple."""
    g = GF(q)
    seen = {(): None}
    nz = [v for v in all_vectors(q, n) if any(v)]
    for r in range(1, n + 1):
        for combo in itertools.combinations(nz, r):
            R = g.rref([list(c) for c in combo])[0]
            basis = tuple(tuple(row) for row in R if any(row))
            if len(basis) == r:
                seen.setdefault(basis, None)
    return list(seen.keys())


def brute_force_polymatroid(values, n) -> bool:
    """Independent oracle: normalization, monotonicity and submodularity
    checked over every subset pair, not just the elemental family."""
    if values[0].sign() != 0:
        return False
    for a in range(1 << n):
        for b in range(1 << n):
            if a | b == b and (values[b] - values[a]).sign() < 0:
                return False
            lhs = values[a] + values[b]
            rhs = values[a | b] + values[a & b]
            if (lhs - rhs).sign() < 0:
                return False
    return True


def random_integer_polymatroid(rng: random.Random, n: int, unit=None) -> SetFunction:
    """Rejection sampling: draw monotone integer values (in log-2 units by
    default) and accept only when the brute-force oracle passes."""
    unit = unit if unit is not None else LogScalar({2: Fraction(1)})
    labels = [str(i + 1) for i in range(n)]
    while True:
        ints = [0] * (1 << n)
        ok = True
        for mask in range(1, 1 << n):
            low = max(ints[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
            i = max(i for i in range(n) if mask >> i & 1)
            single = ints[1 << i]
            if mask == 1 << i:
                ints[mask] = rng.randint(0, 4)
            else:
                ints[mask] = rng.randint(low, ints[mask & ~(1 << i)] + single)
        values = [unit * Fraction(v) for v in ints]
        if brute_force_polymatroid(values, n):
            return SetFunction(GroundSet(labels), values)


def perturb_non_polymatroid(rng: random.Random, f: SetFunction) -> SetFunction:
    """Break exactly one elemental inequality by lifting a non-full subset
    above the full set's value (violates monotonicity at that chain)."""
    n = len(f.ground)
    unit = LogScalar({2: Fraction(1)})
    full = (1 << n) - 1
    while True:
        mask = rng.randrange(1, full)
        values = list(f.values)
        values[mask] = values[full] + unit * Fraction(1 + rng.randint(0, 3))
        g = SetFunction(f.ground, values)
        if not brute_force_polymatroid(g.values, n):
            return g


def wide_inner_code():
    """One binary session into an inner edge over F_2^40, read by a 40×1
    linear map: the cone holds 2 source tuples, the map's table 2^40."""
    net = Network(("s", "m", "r"), (Edge("e1", "s", "m", UNCAPPED), Edge("e2", "m", "r", UNCAPPED)))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    F2 = Alphabet(q=2, dim=1)
    code = NetworkCode(
        {"X": F2, "e1": Alphabet(q=2, dim=40), "e2": F2},
        {"e1": TableMap([0, 1]), "e2": LinearMap(2, [[1]] + [[0]] * 39)},
        {("r", "X"): TableMap([0, 1])},
    )
    return net, conn, code


EDGE_IDS = ["e_sa", "e_sb", "e_ac", "e_bc", "e_cd", "e_ar2", "e_br1", "e_dr1", "e_dr2"]


def butterfly():
    edges = [
        Edge("e_sa", "s", "a", UNCAPPED), Edge("e_sb", "s", "b", UNCAPPED),
        Edge("e_ac", "a", "c", UNCAPPED), Edge("e_bc", "b", "c", UNCAPPED),
        Edge("e_cd", "c", "d", UNCAPPED), Edge("e_ar2", "a", "r2", UNCAPPED),
        Edge("e_br1", "b", "r1", UNCAPPED), Edge("e_dr1", "d", "r1", UNCAPPED),
        Edge("e_dr2", "d", "r2", UNCAPPED),
    ]
    net = Network(("s", "a", "b", "c", "d", "r1", "r2"), tuple(edges))
    conn = ConnectionRequirement(
        ("X", "Y"), {"X": "s", "Y": "s"}, {"X": ("r1", "r2"), "Y": ("r1", "r2")}
    )
    return net, conn


def xor_code(middle=None):
    """Binary butterfly code; `middle` overrides the bottleneck encoder."""
    F2 = Alphabet(q=2, dim=1)
    alph = {"X": F2, "Y": F2, **{e: F2 for e in EDGE_IDS}}
    enc = {
        "e_sa": LinearMap(2, [[1], [0]]), "e_sb": LinearMap(2, [[0], [1]]),
        "e_ac": LinearMap(2, [[1]]), "e_bc": LinearMap(2, [[1]]),
        "e_cd": middle or LinearMap(2, [[1], [1]]),
        "e_ar2": LinearMap(2, [[1]]), "e_br1": LinearMap(2, [[1]]),
        "e_dr1": LinearMap(2, [[1]]), "e_dr2": LinearMap(2, [[1]]),
    }
    # decoder feed order is sorted by edge id: r1 sees (e_br1, e_dr1),
    # r2 sees (e_ar2, e_dr2)
    dec = {
        ("r1", "X"): LinearMap(2, [[1], [1]]), ("r1", "Y"): LinearMap(2, [[1], [0]]),
        ("r2", "X"): LinearMap(2, [[1], [0]]), ("r2", "Y"): LinearMap(2, [[1], [1]]),
    }
    return NetworkCode(alph, enc, dec)


def table_form(net, conn, code):
    """`code` with each `LinearMap` that reads its feeds' F_q spaces and maps
    into its alphabet replaced by its table, so that `evaluate_code` takes
    the table path; a map that fails those checks is kept, so the table
    path refuses it as the linear code is refused."""
    def tabled(m, feeds, out):
        a = code.alphabets.get(out)
        if not isinstance(m, LinearMap) or a is None or a.kind != "vector" or a.q != m.q \
                or (m.matrix and m.out_dim != a.dim):
            return m
        try:
            return TableMap(m.to_table([code.alphabets[f] for f in feeds]))
        except (KeyError, StructuralError, ResourceError):
            return m

    enc = {e.id: tabled(code.encoders[e.id], edge_feeds(net, conn, e), e.id)
           for e in net.edges if e.id in code.encoders}
    dec = {(r, s): tabled(m, decoder_feeds(net, conn, r), s) for (r, s), m in code.decoders.items()}
    return NetworkCode(code.alphabets, {**code.encoders, **enc}, dec)


def reference_verify(cert, layout, tup, failures=None) -> bool:
    """`verify_connection_constraints` as it was when it compared LogScalar
    values: every consistency pair value by value, and every clause as a sum
    of LogScalars per side, compared by `==` or by the sign of the
    difference.  The reference for the verifier on integer forms."""
    from entronet.lpbound import CoverageError, check_polymatroid, connection_clauses

    net, conn = layout.network, layout.conn
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        if failures is not None:
            failures.append(msg)

    if cert.n != layout.n:
        fail(f"certificate is for N={cert.n}, the layout has N={layout.n}")
        return False
    for tag, lw in sorted(cert.locals_.items()):
        rep = check_polymatroid(lw.func)
        if not rep.ok:
            v = rep.instances[0]
            fail(f"local {tag}: not a polymatroid ({v.family} at {v.subsets})")
    bits = {
        tag: {v: lw.func.ground.mask([lab]) for v, lab in lw.var_map.items()}
        for tag, lw in cert.locals_.items()
    }
    tags = sorted(cert.locals_)
    for x, ta in enumerate(tags):
        for tb in tags[x + 1:]:
            ba, bb = bits[ta], bits[tb]
            atoms = {}
            for v in sorted(ba.keys() & bb.keys()):
                atoms.setdefault((ba[v], bb[v]), v)
            unions = {(0, 0): ()}
            for (ma, mb), v in atoms.items():
                for (ua, ub), vs in list(unions.items()):
                    unions.setdefault((ua | ma, ub | mb), vs + (v,))
            fa, fb = cert.locals_[ta].func, cert.locals_[tb].func
            for (ua, ub), vs in unions.items():
                if fa.values[ua] != fb.values[ub]:
                    fail(f"locals {ta} and {tb} disagree on {list(vs)}")
                    break

    def find_local(varnames):
        for tag in cert.locals_:
            if all(v in bits[tag] for v in varnames):
                return cert.locals_[tag].func.values, bits[tag]
        raise CoverageError(f"no local function covers variables {list(varnames)}")

    for message, terms, rhs, sense in connection_clauses(net, conn, tup):
        values, b = find_local(list(dict.fromkeys(v for _, subset in terms for v in subset)))
        sides = ([], [rhs] if rhs else [])
        for c, subset in terms:
            mask = 0
            for v in subset:
                mask |= b[v]
            sides[c < 0].append(values[mask] * abs(c))
        lhs, rhs = (sum(side[1:], side[0]) if side else ZERO for side in sides)
        if sense == "=":
            bad = lhs != rhs
        else:
            bad = (lhs - rhs).sign() == (1 if sense == "<=" else -1)
        if bad:
            fail(message)
    return ok
