import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_polymatroid,
    perturb_non_polymatroid,
    random_integer_polymatroid,
)
from entronet import lpbound, setfunc
from entronet.exactlog import ZERO, LogScalar, log2_units
from entronet.groupchar import builtin_function
from entronet.setfunc import (
    ELEMENTAL_WEIGHTS,
    GroundSet,
    SetFunction,
    Violation,
    ViolationReport,
    check_ingleton,
    check_polymatroid,
    check_zhang_yeung,
    elemental_index,
)


def test_polymatroid_checker_agrees_with_brute_force():
    rng = random.Random(7)
    unit = log2_units(1)
    agree_pos = agree_neg = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        ints = [0] + [rng.randint(0, 5) for _ in range((1 << n) - 1)]
        values = [unit * Fraction(v) for v in ints]
        f = SetFunction(GroundSet([str(i + 1) for i in range(n)]), values)
        expected = brute_force_polymatroid(values, n)
        assert check_polymatroid(f).ok == expected
        agree_pos += expected
        agree_neg += not expected
    assert agree_pos > 0 and agree_neg > 0


def test_random_polymatroids_pass_and_perturbations_fail():
    rng = random.Random(11)
    for _ in range(25):
        f = random_integer_polymatroid(rng, rng.randint(2, 4))
        assert check_polymatroid(f).ok
        g = perturb_non_polymatroid(rng, f)
        rep = check_polymatroid(g)
        assert not rep.ok and rep.instances[0].slack.sign() < 0


def test_uniform_matroid_properties():
    # rank function of U_{2,4}: f(S) = min(|S|, 2) in log-2 units
    f = SetFunction.from_log2(
        "1234", {tuple(s): min(len(s), 2) for s in
                 ["1", "2", "3", "4", "12", "13", "14", "23", "24", "34",
                  "123", "124", "134", "234", "1234"]}
    )
    assert check_polymatroid(f).ok
    assert check_ingleton(f).ok
    assert check_zhang_yeung(f).ok


def test_restrict():
    f = SetFunction.from_log2("abc", {"a": 1, "b": 1, "c": 2, "ab": 2,
                                      "ac": 2, "bc": 2, "abc": 2})
    r = f.restrict("ab")
    assert r.ground.labels == ("a", "b")
    assert r(["a", "b"]) == log2_units(2)


def test_json_round_trip():
    f = builtin_function("zy")
    g = SetFunction.from_json(f.to_json())
    assert g == f
    with pytest.raises((ValueError, KeyError)):
        SetFunction.from_json({"format": "setfunction/1", "ground": ["1"], "values": {}})


def test_zy_builtin_is_polymatroid_but_not_zy():
    f = builtin_function("zy")
    assert check_polymatroid(f).ok
    rep = check_zhang_yeung(f)
    assert not rep.ok
    assert all(v.slack.sign() < 0 for v in rep.instances)


def test_projective_plane_builtin_violates_ingleton_exactly():
    f = builtin_function("projective-plane")
    assert check_polymatroid(f).ok
    rep = check_ingleton(f)
    assert not rep.ok
    expected = log2_units(3) - LogScalar({3: Fraction(2)})
    first = rep.instances[0]
    assert first.subsets == (("1",), ("2",), ("3",), ("4",))
    assert first.slack == expected


@pytest.mark.parametrize("k", range(1, 8))
def test_elemental_index_is_in_the_documented_order(k):
    """Monotonicity rows by i, then submodularity rows by i < j and, within
    each pair, a over the subsets of the other elements, largest mask
    first: the row order the LP bound and its certificates rely on."""
    full = (1 << k) - 1
    rows = [[full, 0, full & ~(1 << i), 0] for i in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        bi, bj = 1 << i, 1 << j
        for a in range(full, -1, -1):
            if not a & (bi | bj):
                rows.append([a | bi, a | bj, a | bi | bj, a])
    assert elemental_index(k).tolist() == rows
    assert ELEMENTAL_WEIGHTS == (1, 1, -1, -1)


def test_violation_report_shapes():
    g = SetFunction.from_log2("ab", {"a": 2, "b": 1, "ab": 1})
    rep = check_polymatroid(g)
    assert not rep.ok
    j = rep.to_json()
    assert j["format"] == "violationreport/1" and j["instances"]


# ---------------------------------------------------------------------------
# the vectorised kernel against the scalar per-row loops it replaced


def scalar_polymatroid(f):
    g, n, full, v = f.ground, len(f.ground), f.ground.full_mask, f.values
    out = []
    for i in range(n):
        slack = v[full] - v[full & ~(1 << i)]
        if slack.sign() < 0:
            out.append(Violation("monotonicity", (g.subset(full & ~(1 << i)), g.subset(full)), slack))
    for i, j in itertools.combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        for a in range(1 << n):
            if a & (bi | bj):
                continue
            slack = v[a | bi] + v[a | bj] - v[a | bi | bj] - v[a]
            if slack.sign() < 0:
                subsets = (g.subset(a | bi), g.subset(a | bj), g.subset(a))
                out.append(Violation("submodularity", subsets, slack))
    out.sort(key=lambda x: (x.family, x.subsets))
    return ViolationReport("polymatroid", tuple(out))


def scalar_quadruples(f, kind):
    g, v = f.ground, f.values
    out = []
    for a, b, c, d in itertools.permutations(range(len(g)), 4):
        A, B, C, D = 1 << a, 1 << b, 1 << c, 1 << d
        if kind == "ingleton":
            slack = (v[A | B] + v[A | C] + v[A | D] + v[B | C] + v[B | D]
                     - v[A] - v[B] - v[C | D] - v[A | B | C] - v[A | B | D])
        else:
            def mi(x, y):
                return v[x] + v[y] - v[x | y]

            def cmi(x, y, z):
                return v[x | z] + v[y | z] - v[x | y | z] - v[z]

            slack = mi(A, B) + mi(A, C | D) + 3 * cmi(C, D, A) + cmi(C, D, B) - 2 * mi(C, D)
        if slack.sign() < 0:
            out.append(Violation(kind, (g.subset(A), g.subset(B), g.subset(C), g.subset(D)), slack))
    return ViolationReport(kind, tuple(out))


MIXED_PRIMES = (2, 3, 5)
coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 7]))


@st.composite
def mixed_set_functions(draw):
    """A nonnegative combination of truncated modular functions
    min(|S & T|, r) over the primes 2, 3, 5 (a polymatroid), with a few
    values then moved by mixed-prime amounts.  A scale past 2**62 puts the
    kernel's integer matrix on Python ints."""
    k = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1, 1, 2**62 + 1, 3**40]))
    values = [ZERO] * (1 << k)
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.sampled_from(MIXED_PRIMES))
        t = draw(st.integers(1, (1 << k) - 1))
        r = draw(st.integers(1, k))
        c = abs(draw(coefficients)) * scale
        for m in range(1 << k):
            values[m] = values[m] + LogScalar({p: c * min(bin(m & t).count("1"), r)})
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, (1 << k) - 1))
        shift = {p: draw(coefficients) * scale for p in MIXED_PRIMES}
        values[m] = values[m] + LogScalar(shift)
    return SetFunction(GroundSet([str(i + 1) for i in range(k)]), values)


@settings(max_examples=150, deadline=None)
@given(mixed_set_functions())
def test_kernel_matches_the_scalar_loops_and_brute_force(f):
    rep = check_polymatroid(f)
    assert rep == scalar_polymatroid(f)
    assert rep.ok == brute_force_polymatroid(f.values, len(f.ground))
    if len(f.ground) >= 4:
        assert check_ingleton(f) == scalar_quadruples(f, "ingleton")
        assert check_zhang_yeung(f) == scalar_quadruples(f, "zhang-yeung")


def mixed_prime_k5():
    """Truncated modular functions over the primes 2, 3 and 5 on five
    elements, with four values moved by mixed-prime amounts."""
    values = [ZERO] * 32
    for p, t, r, c in ((2, 0b00111, 2, Fraction(3, 2)), (3, 0b11010, 1, Fraction(1)),
                       (5, 0b10101, 2, Fraction(2, 3)), (2, 0b11111, 3, Fraction(1))):
        for m in range(32):
            values[m] = values[m] + LogScalar({p: c * min(bin(m & t).count("1"), r)})
    for m, shift in ((0b01111, {2: -1, 3: Fraction(1, 2)}), (0b00011, {2: -2, 5: 1}),
                     (0b11100, {3: Fraction(-1, 3)}), (0b10011, {2: 1, 3: -1})):
        values[m] = values[m] + LogScalar(shift)
    return SetFunction([str(i + 1) for i in range(5)], values)


@pytest.mark.parametrize("name, check, count, digest", [
    ("zy", check_ingleton, 4, "603ef5ac80f342efccc275fea7d5aea1addadeae2f210ebd9fbdcb6e793f57a0"),
    ("zy", check_zhang_yeung, 4, "f2cb4ca8be396388a8230888f9bfd88e15ace40dc4fd65e20c8e69955e6d2b00"),
    ("projective-plane", check_ingleton, 4,
     "3cbf7cf305ed4d4936a1f4ca24aa74c2bd88c6369910f868f939726c4478f308"),
    ("projective-plane", check_zhang_yeung, 0,
     "db7e10f74e5718617419928e7f7be4d504198f3b5be39dd8b65242143fc8ab0c"),
    ("mixed", check_ingleton, 8, "8cc3e58caa8ce5cbdcf32d2e7f2730f874eb1cd99d689463f82be892e917e663"),
    ("mixed", check_zhang_yeung, 4, "43a1125e20bd58dd9a0f0b9b6b579be4d761c2aa8df6582ae1cd344982255413"),
])
def test_inequality_reports_are_unchanged(name, check, count, digest):
    """SHA-256 of the report JSON, recorded when the checks had their own
    term tables: the order of the violations and their slacks."""
    f = mixed_prime_k5() if name == "mixed" else builtin_function(name)
    rep = check(f)
    assert len(rep.instances) == count
    assert hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest() == digest


@settings(max_examples=100, deadline=None)
@given(mixed_set_functions())
def test_checks_flag_exactly_the_negative_instances_of_the_lp_templates(f):
    """check_ingleton and check_zhang_yeung flag the assignments at which an
    instance of the template that `lp feasible --ingleton` (or its
    Zhang–Yeung counterpart) adds is negative, with its value as slack."""
    assume(len(f.ground) >= 4)
    for check, kind, expr in ((check_ingleton, "ingleton", lpbound.ingleton_expression()),
                              (check_zhang_yeung, "zhang-yeung", lpbound.zhang_yeung_expression())):
        want = []
        for combo in itertools.permutations(f.ground.labels, 4):
            value = expr.relabel(dict(zip(expr.variables, combo))).evaluate(f)
            if value < ZERO:
                want.append(Violation(kind, tuple((x,) for x in combo), value))
        assert check(f) == ViolationReport(kind, tuple(want))


def test_lpbound_reads_the_expressions_of_setfunc():
    for name in ("InfoExpression", "ingleton_expression", "zhang_yeung_expression"):
        assert getattr(lpbound, name) is getattr(setfunc, name)
