import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_subspaces,
    all_vectors,
    chained_intersection,
    group_catalog,
    reference_quasi_uniform_check,
    supports,
    vec_add,
    vec_scale,
)
from entronet.exactlog import LogScalar, log2_units
from entronet.ffield import GF
from entronet.groupchar import (
    FiniteGroup,
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    builtin_function,
    coset_support,
    cyclic,
    dihedral,
    direct_product,
    entropy_from_subgroups,
    entropy_from_subspaces,
    quasi_uniform_check,
    quaternion,
    support_projections,
    symmetric,
)
from entronet.schema import StructuralError
from entronet.setfunc import check_ingleton, check_polymatroid


def test_constructors_are_groups():
    for name, g in [("C6", cyclic(6)), ("D4", dihedral(4)), ("S3", symmetric(3)),
                    ("Q8", quaternion()), ("C2xC3", direct_product(cyclic(2), cyclic(3)))]:
        # FiniteGroup validates closure/associativity/identity/inverses on build
        assert FiniteGroup(g.table).order == g.order, name


def perturbed_cyclic(n: int):
    """The table of C_n with n/2 added (mod n) at rows {1, 1 + n/2} and
    columns {2, 2 + n/2}: still a Latin square with an identity, but
    (1·1)·1 = 3 while 1·(1·1) = 3 + n/2."""
    table = [list(row) for row in cyclic(n).table]
    h = n // 2
    for r in (1, 1 + h):
        for c in (2, 2 + h):
            table[r][c] = (table[r][c] + h) % n
    return table


def test_a_non_associative_latin_square_above_order_64_is_refused():
    with pytest.raises(StructuralError, match="associativity fails"):
        FiniteGroup(perturbed_cyclic(1000))


def test_every_catalog_group_and_s5_validate():
    for name, g in group_catalog() + [("S5", symmetric(5))]:
        assert FiniteGroup([list(row) for row in g.table]).table == g.table, name


def reduced_latin_squares(n: int):
    """Every n×n Latin square over 0..n-1 whose first row and column are
    0..n-1: every table with identity 0 whose rows and columns are
    permutations."""
    table = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [list(row) for row in table]
            return
        r, c = divmod(cell, n)
        if table[r][c] is not None:
            yield from fill(cell + 1)
            return
        used = set(table[r]) | {table[i][c] for i in range(n)}
        for x in range(n):
            if x not in used:
                table[r][c] = x
                yield from fill(cell + 1)
                table[r][c] = None

    return list(fill(0))


@pytest.mark.parametrize("n, step", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 10)])
def test_validation_accepts_exactly_the_associative_latin_squares(n, step):
    """Against the check of every triple, on every reduced Latin square of
    order at most 5 (1, 1, 1, 4 and 56 squares, of which 1, 1, 1, 4 and 6
    are associative) and every tenth of the 9,408 of order 6 (80 are
    associative).  In 280 of order 6, element 1, the first generator,
    passes Light's test and a later one fails."""
    for table in reduced_latin_squares(n)[::step]:
        associative = all(table[table[a][b]][c] == table[a][table[b][c]]
                          for a, b, c in itertools.product(range(n), repeat=3))
        try:
            FiniteGroup(table)
            accepted = True
        except StructuralError:
            accepted = False
        assert accepted == associative, table


def test_subgroup_counts_of_known_groups():
    assert len(cyclic(6).all_subgroups()) == 4        # one per divisor
    assert len(cyclic(12).all_subgroups()) == 6
    assert len(quaternion().all_subgroups()) == 6
    assert len(dihedral(4).all_subgroups()) == 10
    assert len(symmetric(4).all_subgroups()) == 30
    c2_4 = direct_product(direct_product(cyclic(2), cyclic(2)), direct_product(cyclic(2), cyclic(2)))
    assert len(c2_4.all_subgroups()) == 67            # the whole group included


def test_all_subgroups_are_subgroups():
    for name, g in [("S4", symmetric(4)), ("D6", dihedral(6))]:
        for s in g.all_subgroups():
            assert g.is_subgroup(s), name
            assert g.order % len(s) == 0  # Lagrange


def test_subgroup_entropy_formula():
    g = symmetric(3)
    subs = sorted(g.all_subgroups(), key=len)
    fam = SubgroupFamily(g, (sorted(subs[1]), sorted(subs[2])))
    f = entropy_from_subgroups(fam)
    a, b = fam.members
    inter = len(a & b)
    assert f(["1"]) == LogScalar.log_fraction(6, len(a))
    assert f(["2"]) == LogScalar.log_fraction(6, len(b))
    assert f(["1", "2"]) == LogScalar.log_fraction(6, inter)
    assert check_polymatroid(f).ok


def test_coset_support_is_quasi_uniform_across_catalog_sample():
    rng = random.Random(5)
    for name, g in rng.sample(group_catalog(), 8):
        subs = [sorted(s) for s in g.all_subgroups()]
        for _ in range(3):
            members = [rng.choice(subs), rng.choice(subs)]
            fam = SubgroupFamily(g, members)
            s = coset_support(fam)
            res = quasi_uniform_check(s)
            assert res.ok, name
            assert res.entropy.values == entropy_from_subgroups(fam).values


def test_quasi_uniform_check_rejects_non_uniform():
    # support {00,01,10}: projections are uniform but the joint is not
    s = SupportSet(2, [[0, 1], [0, 1]], [(0, 0), (0, 1), (1, 0)])
    res = quasi_uniform_check(s)
    assert not res.ok and res.failing


def test_subspace_entropy_is_rank_based():
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    f = entropy_from_subspaces(fam)
    # each variable has entropy log(q^(n - dim V_i)) = log 2
    for lab in ("1", "2", "3"):
        assert f([lab]) == log2_units(1)
    assert f(["1", "2"]) == log2_units(2)
    assert f(["1", "2", "3"]) == log2_units(2)
    assert check_polymatroid(f).ok


def test_subspace_and_subgroup_views_agree():
    for q, n in ((2, 2), (3, 2)):
        subs = all_subspaces(q, n)
        for members in itertools.islice(itertools.combinations(subs, 2), 12):
            fam = SubspaceFamily(q, n, members)
            s = coset_support(fam)
            res = quasi_uniform_check(s)
            assert res.ok
            assert res.entropy.values == entropy_from_subspaces(fam).values


def reference_coset_support(fam):
    """Scan the group elements in order and number each left coset x·G_i at
    its first encounter; a subspace family goes through the group table of
    F_q^n, elements in vector index order."""
    if isinstance(fam, SubspaceFamily):
        gf, n = fam.gf, fam.ambient_dim
        vecs = list(all_vectors(fam.q, n))
        index = {v: i for i, v in enumerate(vecs)}
        table = [[index[tuple(vec_add(gf, u, v))] for v in vecs] for u in vecs]
        members = []
        for basis in fam.members:
            span = set()
            for coeffs in all_vectors(fam.q, len(basis)):
                vec = [0] * n
                for c, row in zip(coeffs, basis):
                    vec = vec_add(gf, vec, vec_scale(gf, c, row))
                span.add(index[tuple(vec)])
            members.append(span)
        fam = SubgroupFamily(FiniteGroup(table, validate=False), members)
    g = fam.parent
    ids = [{} for _ in fam.members]
    tuples = []
    for x in range(g.order):
        row = []
        for i, sub in enumerate(fam.members):
            coset = frozenset(g.mul(x, s) for s in sub)
            row.append(ids[i].setdefault(coset, len(ids[i])))
        tuples.append(tuple(row))
    return SupportSet(fam.arity, [list(range(len(d))) for d in ids], tuples)


CATALOG = group_catalog()
_subgroups = {}
_subspaces = {}


@st.composite
def families(draw):
    arity = draw(st.integers(1, 3))
    if draw(st.booleans()):
        name, g = draw(st.sampled_from(CATALOG))
        subs = _subgroups.setdefault(name, [sorted(s) for s in g.all_subgroups()])
        return SubgroupFamily(g, [draw(st.sampled_from(subs)) for _ in range(arity)])
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3 if q < 4 else 2))
    subs = _subspaces.setdefault((q, n), all_subspaces(q, n))
    return SubspaceFamily(q, n, [draw(st.sampled_from(subs)) for _ in range(arity)])


@settings(max_examples=300, deadline=None)
@given(families())
def test_coset_support_matches_first_encounter_numbering(fam):
    assert coset_support(fam).to_json() == reference_coset_support(fam).to_json()


@pytest.mark.parametrize("q, n", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_annihilator_has_the_member_as_left_kernel(q, n):
    gf = GF(q)
    subs = all_subspaces(q, n)
    assert () in subs and any(len(s) == n for s in subs)
    fam = SubspaceFamily(q, n, subs)
    for i, basis in enumerate(subs):
        K = fam.annihilator(i)
        assert len(K) == n and all(len(row) == n - len(basis) for row in K)
        kernel = gf.nullspace(K)
        rows = [list(r) for r in basis]
        assert len(kernel) == len(basis)
        assert gf.rank(rows + kernel) == len(basis)


def test_annihilator_hands_out_copies():
    fam = SubspaceFamily(2, 2, (((1, 0),),))
    K = fam.annihilator(0)
    K[0][0] ^= 1
    assert fam.annihilator(0) != K
    assert fam.entropy_at([0]) == log2_units(1)


@st.composite
def subspace_families(draw):
    """Members from random spanning sets, the zero and the full space among
    them; index lists with repeats."""
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 4))
    gf = GF(q)
    vectors = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    members = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "full", "random"]))
        if kind == "zero":
            members.append([])
        elif kind == "full":
            members.append(gf.identity(n))
        else:
            members.append(gf.row_basis(draw(st.lists(vectors, max_size=n + 1))))
    indices = st.lists(st.integers(0, len(members) - 1), max_size=6)
    return SubspaceFamily(q, n, members), draw(indices)


@settings(max_examples=300, deadline=None)
@given(subspace_families())
def test_entropy_at_matches_the_chained_intersection(case):
    fam, idx = case
    codim = fam.ambient_dim - len(chained_intersection(fam, idx))
    assert fam.intersection_codim(idx) == codim
    assert fam.entropy_at(idx) == LogScalar.log_int(fam.q) * codim


def test_support_projection():
    s = SupportSet(3, [[0, 1], [0, 1], [0, 1]],
                   [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    syms, R, proj, failing = support_projections(s)
    first, inv = proj[0b011]  # each (U1, U2) pair once
    assert R[first][:, :2].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert inv.tolist() == [0, 1, 2, 3] and failing == ()
    res = quasi_uniform_check(s)
    assert res.ok
    assert res.entropy(["1", "2", "3"]) == log2_units(2)


@settings(max_examples=300, deadline=None)
@given(supports())
def test_quasi_uniform_check_matches_the_dict_pass(s):
    ok, failing, values = reference_quasi_uniform_check(s)
    res = quasi_uniform_check(s)
    assert (res.ok, res.failing) == (ok, failing)
    assert (res.entropy.values if res.ok else None) == values
    # every α-projection is listed once, in lexicographic order of its symbols' ranks
    syms, R, proj, _ = support_projections(s)
    for mask, (first, inv) in proj.items():
        cols = [c for c in range(s.arity) if mask >> c & 1]
        rows = list(map(tuple, R[first][:, cols].tolist()))
        assert rows == sorted(set(map(tuple, R[:, cols].tolist())))
        assert (R[first][inv][:, cols] == R[:, cols]).all()


def test_quasi_uniform_check_does_not_overflow_at_arity_5():
    """2^13 tuples (i, i, i, i, i): every projection has 2^13 classes, so a
    flat key over all five coordinates would need 2^65."""
    k = 1 << 13
    s = SupportSet(5, [range(k)] * 5, [(i,) * 5 for i in range(k)])
    res = quasi_uniform_check(s)
    assert res.ok and res.entropy.values[1:] == [LogScalar.log_int(k)] * 31


def test_json_round_trips():
    g = dihedral(4)
    subs = sorted(g.all_subgroups(), key=len)
    fam = SubgroupFamily(g, (sorted(subs[1]), sorted(subs[3])))
    assert SubgroupFamily.from_json(fam.to_json()).members == fam.members
    sf = SubspaceFamily(3, 2, (((1, 0),), ((1, 1),)))
    assert SubspaceFamily.from_json(sf.to_json()).members == sf.members
    sup = coset_support(fam)
    back = SupportSet.from_json(sup.to_json())
    assert back.tuples == sup.tuples and back.alphabets == sup.alphabets
    assert FiniteGroup.from_json(g.to_json()).table == g.table


def test_builtin_names():
    assert builtin_function("zy").ground.labels == ("1", "2", "3", "4")
    assert builtin_function("projective-plane").ground.labels == ("1", "2", "3", "4")
    with pytest.raises((KeyError, ValueError)):
        builtin_function("nope")


def test_zy_builtin_scaling():
    f1 = builtin_function("zy")
    f2 = builtin_function("zy", a=Fraction(2))
    assert f2.values[1] == f1.values[1] * Fraction(2)
