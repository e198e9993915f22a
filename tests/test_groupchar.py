import itertools
import random
from fractions import Fraction

import pytest

from conftest import all_subspaces, group_catalog
from entronet.exactlog import LogScalar, log2_units
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
    symmetric,
)
from entronet.setfunc import check_ingleton, check_polymatroid


def test_constructors_are_groups():
    for name, g in [("C6", cyclic(6)), ("D4", dihedral(4)), ("S3", symmetric(3)),
                    ("Q8", quaternion()), ("C2xC3", direct_product(cyclic(2), cyclic(3)))]:
        # FiniteGroup validates closure/associativity/identity/inverses on build
        assert FiniteGroup(g.table).order == g.order, name


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


def test_support_projection():
    s = SupportSet(3, [[0, 1], [0, 1], [0, 1]],
                   [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    p = s.project([0, 1])  # projection multiplicities
    assert p == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    res = quasi_uniform_check(s)
    assert res.ok
    assert res.entropy(["1", "2", "3"]) == log2_units(2)


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
