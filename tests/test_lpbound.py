import functools
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturb_non_polymatroid, random_integer_polymatroid, reference_verify
from entronet.construct import build_gdagger, rate_capacity
from entronet.exactlog import ZERO, LogScalar, integer_form, log2_units, negative_rows
from entronet.groupchar import builtin_function
from entronet import lpbound
from entronet.lpbound import (
    CoverageError,
    ExtensionError,
    InfoExpression,
    LinearProgram,
    LocalWitness,
    WitnessCertificate,
    WitnessError,
    build_witness,
    connection_clauses,
    functional_extension,
    independent_adhesion,
    ingleton_expression,
    lp_feasible,
    shannon_implies,
    sum_extension,
    sw_extension,
    verify_connection_constraints,
    zhang_yeung_expression,
)
from entronet.netmodel import (
    ConnectionRequirement,
    Edge,
    Network,
    RateCapacityTuple,
    ResourceError,
    StructuralError,
    UNCAPPED,
)
from entronet.setfunc import ELEMENTAL_WEIGHTS, SetFunction, check_polymatroid, elemental_index


# --- extension calculus ------------------------------------------------------


def test_functional_extension_equalities():
    rng = random.Random(1)
    for _ in range(20):
        f = random_integer_polymatroid(rng, rng.randint(2, 4))
        labels = list(f.ground.labels)
        A = rng.sample(labels, rng.randint(1, len(labels)))
        g = functional_extension(f, A, name="Y")
        assert check_polymatroid(g).ok
        amask = f.ground.mask(A)
        for m in range(1 << len(labels)):
            assert g.values[m] == f.values[m]                      # restriction
            assert g(list(f.ground.subset(m)) + ["Y"]) == f.values[m | amask]


def test_sum_extension_equalities():
    rng = random.Random(2)
    for _ in range(20):
        f = random_integer_polymatroid(rng, rng.randint(2, 3))
        # adjoin an independent copy of element X to guarantee the preconditions
        x = f.ground.labels[0]
        copy = f.restrict([x])
        copy = type(copy)(["Ycopy"], copy.values)
        fp = independent_adhesion(f, copy)
        g = sum_extension(fp, x, "Ycopy", name="Z")
        assert check_polymatroid(g).ok
        assert g(["Z"]) == f([x])
        # g({Z} u B) = min(f'(B u {X,Y}), f'(B) + g(Z))
        for m in range(1 << len(fp.ground)):
            B = list(fp.ground.subset(m))
            lhs = g(B + ["Z"])
            rhs = min(fp(set(B) | {x, "Ycopy"}), fp(B) + g(["Z"]))
            assert lhs == rhs


def test_sum_extension_rejects_bad_preconditions():
    f = random_integer_polymatroid(random.Random(3), 2)
    a, b = f.ground.labels
    if f([a]) == f([b]) and f([a, b]) == f([a]) + f([b]):
        return  # rare: preconditions actually hold
    with pytest.raises(ExtensionError):
        sum_extension(f, a, b)


def test_sw_extension_equalities():
    rng = random.Random(4)
    for _ in range(20):
        f = random_integer_polymatroid(rng, rng.randint(2, 4))
        labels = list(f.ground.labels)
        X = rng.sample(labels, rng.randint(1, len(labels) - 1))
        Y = [l for l in labels if l not in X][:1]
        g = sw_extension(f, X, Y, name="Z")
        assert check_polymatroid(g).ok
        assert g(["Z"]) == f(set(X) | set(Y)) - f(Y)
        # Z is a function of X, and X is a function of {Z} u Y
        assert g(list(X) + ["Z"]) == f(X)
        assert g(set(X) | set(Y) | {"Z"}) == g(set(Y) | {"Z"})


def test_independent_adhesion_equalities():
    rng = random.Random(5)
    for _ in range(20):
        f = random_integer_polymatroid(rng, 2)
        fstar = random_integer_polymatroid(rng, 2)
        fstar = type(fstar)(["a", "b"], fstar.values)
        g = independent_adhesion(f, fstar)
        assert check_polymatroid(g).ok
        for m1 in range(4):
            for m2 in range(4):
                A = list(f.ground.subset(m1)) + list(fstar.ground.subset(m2))
                assert g(A) == f.values[m1] + fstar.values[m2]
        # the two parts are mutually independent under g
        assert g(list(f.ground.labels) + list(fstar.ground.labels)) == \
            f.values[3] + fstar.values[3]


def test_extension_name_collision():
    f = random_integer_polymatroid(random.Random(6), 2)
    with pytest.raises(ExtensionError):
        functional_extension(f, [f.ground.labels[0]], name=f.ground.labels[1])


# --- expressions -------------------------------------------------------------


def test_parse_and_round_trip():
    for text in [
        "I(1;2) >= 0",
        "H(X|Y) - H(X) <= 0",
        "2 I(3;4) - I(1;2) - I(1;3,4) - 3 I(3;4|1) - I(3;4|2) <= 0",
        "3/2 H(a) - H(a,b) + 1/2 H(b) >= 0",
    ]:
        e = InfoExpression.parse(text)
        assert InfoExpression.parse(str(e)) == e


def test_parse_rejects_equalities_and_junk():
    with pytest.raises(ValueError):
        InfoExpression.parse("H(1) = 0")
    with pytest.raises(ValueError):
        InfoExpression.parse("H(1) + >= 0")


def test_evaluate_known_values():
    f = builtin_function("projective-plane")
    ing = ingleton_expression()
    val = ing.evaluate(f)
    assert val == log2_units(3) - LogScalar({3: Fraction(2)})
    assert val.sign() < 0
    zy = zhang_yeung_expression()
    g = builtin_function("zy")
    # the builtin violates the inequality at a permuted role order
    perm = zy.relabel({"1": "3", "2": "4", "3": "1", "4": "2"})
    assert perm.evaluate(g).sign() < 0


def test_relabel_is_injective_requirement():
    e = InfoExpression.parse("I(1;2) >= 0")
    r = e.relabel({"1": "a", "2": "b"})
    assert set(r.variables) == {"a", "b"}


# --- Shannon derivability ----------------------------------------------------


def test_shannon_implies_elemental_with_certificate():
    ok, cert = shannon_implies(InfoExpression.parse("I(1;2|3) >= 0"), 3)
    assert ok and cert
    for (kind, args), w in cert.items():
        assert kind in ("mono", "submod") and w > 0


@pytest.mark.parametrize("text, cert", [
    ("I(1;2|3) >= 0", {("submod", (0, 1, 4)): 1}),
    ("H(1,2,3) - H(1) >= 0", {("mono", (1,)): 1, ("mono", (2,)): 1, ("submod", (2, 3, 1)): 1,
                              ("submod", (1, 3, 5)): 1, ("submod", (1, 2, 9)): 1}),
])
def test_shannon_implies_certificates_are_unchanged(text, cert, monkeypatch):
    """Golden certificates of the exact simplex at n = 4: the row order of
    elemental_index fixes which vertex it returns, so a reordered table
    shows here.  HiGHS may steer to another vertex, whose certificate is
    checked by its exact sum instead."""
    expr = InfoExpression.parse(text)
    ok, steered = shannon_implies(expr, 4)
    assert ok and certificate_sums_to(expr, 4, steered)
    monkeypatch.setattr(lpbound, "solve_highs", lambda lp: (None, None, None))
    ok, got = shannon_implies(expr, 4)
    assert ok and got == cert
    assert all(type(w) is Fraction for w in got.values())


def certificate_sums_to(expr, n, cert):
    """Exact check of a Shannon certificate: Fraction weights, none
    negative, whose sum of the named elemental rows is expr, with the
    variables numbered as shannon_implies numbers them."""
    labels = list(expr.variables) + [f"_v{i}" for i in range(n - len(expr.variables))]
    target = [Fraction(0)] * (1 << n)
    for c, subset in expr.terms:
        target[sum(1 << labels.index(x) for x in subset)] += c
    rows = {lpbound._elemental_key(i, row, n): row
            for i, row in enumerate(elemental_index(n).tolist())}
    total = [Fraction(0)] * (1 << n)
    for key, w in cert.items():
        if type(w) is not Fraction or w < 0:
            return False
        for mask, c in zip(rows[key], ELEMENTAL_WEIGHTS):
            total[mask] += w * c
    return total[1:] == target[1:]


def test_shannon_implies_monotonicity():
    ok, _ = shannon_implies(InfoExpression.parse("H(1,2) - H(1) >= 0"), 3)
    assert ok


def test_shannon_does_not_imply_zy_or_ingleton():
    ok, cert = shannon_implies(zhang_yeung_expression(), 4)
    assert not ok and cert is None
    ok, _ = shannon_implies(ingleton_expression(), 4)
    assert not ok


def phase1_spy(monkeypatch):
    """The number of weights (columns) of each program solve_phase1 gets."""
    calls = []

    def spy(lp, _phase1=lpbound.solve_phase1):
        calls.append(lp.num_vars)
        return _phase1(lp)

    monkeypatch.setattr(lpbound, "solve_phase1", spy)
    return calls


def test_shannon_implies_at_n7_solves_exactly_on_highs_support(monkeypatch):
    """At n = 7 the program has 679 weights; the exact simplex only ever
    sees the few that HiGHS's point uses."""
    calls = phase1_spy(monkeypatch)
    cmi = InfoExpression.parse("I(1;2|3) >= 0")
    ok, cert = shannon_implies(cmi, 7)
    assert ok and certificate_sums_to(cmi, 7, cert)
    assert shannon_implies(zhang_yeung_expression(), 7) == (False, None)
    assert len(calls) == 2 and max(calls) < 30


def perturbed(lp, how, _highs=lpbound.solve_highs):
    """HiGHS's answer with its point changed by `how`."""
    feasible, x, dual = _highs(lp)
    return feasible, how(x.copy()), dual


@pytest.mark.parametrize("how", [
    lambda x: np.where(x == x.max(), 0.0, x),  # one weight of the certificate dropped
    lambda x: x * 0.0,  # no weight at all
])
def test_shannon_implies_refuses_a_wrong_highs_point(monkeypatch, how):
    """When the columns of HiGHS's point carry no certificate, and HiGHS
    offers no dual, the exact simplex decides over every column."""
    calls = phase1_spy(monkeypatch)
    monkeypatch.setattr(lpbound, "solve_highs", lambda lp: perturbed(lp, how))
    expr = InfoExpression.parse("H(1,2,3) - H(1) >= 0")
    ok, cert = shannon_implies(expr, 4)
    every = len(elemental_index(4))
    assert ok and certificate_sums_to(expr, 4, cert)
    assert len(calls) == 2 and calls[0] < every == calls[1]
    # phase 1 over every column decided, so its vertex is the golden one
    assert cert[("submod", (1, 2, 9))] == 1


def test_shannon_implies_refuses_a_wrong_farkas_ray(monkeypatch):
    """A claimed infeasibility whose dual is no Farkas certificate leaves
    the verdict to phase 1."""
    calls = phase1_spy(monkeypatch)
    monkeypatch.setattr(lpbound, "solve_highs",
                        lambda lp: (False, None, np.ones(len(lp.rows))))
    expr = InfoExpression.parse("I(1;2|3) >= 0")
    ok, cert = shannon_implies(expr, 4)
    assert ok and certificate_sums_to(expr, 4, cert)
    assert calls == [len(elemental_index(4))]


@st.composite
def expressions(draw):
    """An expression on n = 2..5 variables: a non-negative combination of
    elemental rows (implied), or random terms with small coefficients."""
    n = draw(st.integers(2, 5))
    labels = [str(i + 1) for i in range(n)]
    terms = {}
    if draw(st.booleans()):
        table = elemental_index(n).tolist()
        for r in draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=4)):
            w = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            for mask, c in zip(table[r], ELEMENTAL_WEIGHTS):
                subset = tuple(labels[i] for i in range(n) if mask >> i & 1)
                terms[subset] = terms.get(subset, Fraction(0)) + w * c
    else:
        subsets = st.lists(st.sampled_from(labels), min_size=1, unique=True).map(tuple)
        for subset in draw(st.lists(subsets, min_size=1, max_size=5)):
            terms[subset] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return InfoExpression.from_terms(terms), n


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_steered_shannon_implies_matches_phase1(case):
    expr, n = case
    ok, cert = shannon_implies(expr, n)
    with mock.patch.object(lpbound, "solve_highs", lambda lp: (None, None, None)):
        ok1, cert1 = shannon_implies(expr, n)
    assert ok == ok1
    for c in (cert, cert1):
        assert (c is None) if not ok else certificate_sums_to(expr, n, c)


# --- LP feasibility ----------------------------------------------------------


def relay():
    net = Network(("s", "m", "r"),
                  (Edge("e1", "s", "m", UNCAPPED), Edge("e2", "m", "r", UNCAPPED)))
    conn = ConnectionRequirement(("U",), {"U": "s"}, {"U": ("r",)})
    return net, conn


def relay_tuple(lam, om=Fraction(1)):
    return RateCapacityTuple({"U": log2_units(lam)},
                             {"e1": log2_units(om), "e2": log2_units(om)})


def test_relay_thresholds_exact():
    net, conn = relay()
    for lam, expected in [(Fraction(1, 2), True), (Fraction(1), True),
                          (Fraction(1001, 1000), False), (Fraction(2), False)]:
        res = lp_feasible(net, conn, relay_tuple(lam))
        assert res.feasible == expected, lam


def test_lp_monotone_in_capacity():
    net, conn = relay()
    assert lp_feasible(net, conn, relay_tuple(Fraction(3, 2), om=Fraction(2))).feasible
    assert not lp_feasible(net, conn, relay_tuple(Fraction(3, 2), om=Fraction(1))).feasible


def test_lp_ground_cap_error_mentions_witness_path():
    lay = build_gdagger(2)
    h = random_integer_polymatroid(random.Random(7), 2)
    tup = rate_capacity(h, lay)
    with pytest.raises(ResourceError, match="witness"):
        lp_feasible(lay.network, lay.conn, tup)


@pytest.mark.parametrize("rate, feasible", [(1, True), (2, False)])
def test_lp_feasible_refuses_a_session_label_that_is_an_edge_id(rate, feasible):
    """On the chain s -> r of capacity 1 the rate-1 tuple is feasible and
    the rate-2 one is not; with the edge named like the session, both are
    refused before any LP is solved."""
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    for eid in ("e", "X"):
        net = Network(("s", "r"), (Edge(eid, "s", "r", UNCAPPED),))
        tup = RateCapacityTuple({"X": log2_units(rate)}, {eid: log2_units(1)})
        if eid == "e":
            assert lp_feasible(net, conn, tup).feasible == feasible
        else:
            with pytest.raises(StructuralError, match="also an edge id"):
                lp_feasible(net, conn, tup)


def test_lp_feasible_point_is_polymatroid():
    net, conn = relay()
    res = lp_feasible(net, conn, relay_tuple(Fraction(1)))
    assert res.feasible
    assert check_polymatroid(res.assignment).ok
    # the exact point satisfies the decode equality: H(U | e2) = 0
    g = res.assignment
    assert g(["U", "e2"]) == g(["e2"])


def test_lp_feasible_checks_a_hint_against_every_template_instance():
    """A hint that meets every connection clause but violates Ingleton on
    four of its edges is taken without the template and refused with it."""
    zy = builtin_function("zy")
    h = SetFunction(["e2", "e3", "e4", "e5"], zy.values)
    h = functional_extension(h, ["e2", "e3", "e4", "e5"], name="X")  # the session
    h = functional_extension(h, ["X"], name="e1")  # the receiver's copy of it
    net = Network(("s", "r", "t"), (Edge("e1", "s", "r", UNCAPPED),) + tuple(
        Edge(f"e{i}", "s", "t", UNCAPPED) for i in range(2, 6)))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    tup = RateCapacityTuple({"X": h(["X"])}, {})
    assert ingleton_expression(["e2", "e3", "e4", "e5"]).evaluate(h) < ZERO
    assert lp_feasible(net, conn, tup, hint=h).rounds == 0
    ing = ingleton_expression()
    res = lp_feasible(net, conn, tup, extra=[ing], hint=h)
    assert res.feasible and res.rounds > 0
    for combo in itertools.permutations(res.assignment.ground.labels, 4):
        assert ing.relabel(dict(zip(ing.variables, combo))).evaluate(res.assignment) >= ZERO


def holds_exactly(g, net, conn, tup):
    """Every connection clause holds for g in exact arithmetic."""
    for _, terms, rhs, sense in connection_clauses(net, conn, tup):
        s = (sum((g(subset) * c for c, subset in terms), ZERO) - rhs).sign()
        if (sense == "=" and s != 0) or (sense == "<=" and s > 0) or (sense == ">=" and s < 0):
            return False
    return True


def small_dags():
    one, two = log2_units(1), log2_units(2)
    net, conn = relay()
    for lam in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        yield net, conn, relay_tuple(lam)  # criterion 7's relay thresholds
    yield net, conn, relay_tuple(Fraction(3, 2), om=Fraction(2))
    diamond = Network(("s", "a", "b", "r"), (
        Edge("sa", "s", "a", UNCAPPED), Edge("sb", "s", "b", UNCAPPED),
        Edge("ar", "a", "r", UNCAPPED), Edge("br", "b", "r", UNCAPPED)))
    dconn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    for rate in (one, two, log2_units(3)):
        yield diamond, dconn, RateCapacityTuple({"X": rate}, {e.id: one for e in diamond.edges})
    # two receivers behind one bottleneck edge
    fork = Network(("s", "m", "r1", "r2"), (
        Edge("sm", "s", "m", UNCAPPED), Edge("m1", "m", "r1", UNCAPPED),
        Edge("m2", "m", "r2", UNCAPPED)))
    fconn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r1", "r2")})
    for rate in (one, two):
        yield fork, fconn, RateCapacityTuple({"X": rate}, {"sm": one, "m1": two, "m2": two})


def fallback_verdicts_match_highs(monkeypatch, **patches):
    """lp_feasible on every small DAG with the lpbound names in `patches`
    replaced: its verdicts must be those of the unpatched path, and every
    feasible point must hold exactly."""
    cases = list(small_dags())
    steered = [lp_feasible(*case) for case in cases]
    for name, value in patches.items():
        monkeypatch.setattr(lpbound, name, value)
    for case, want in zip(cases, steered):
        got = lp_feasible(*case)
        assert got.feasible == want.feasible
        for res in (got, want):
            if res.feasible:
                assert check_polymatroid(res.assignment).ok
                assert holds_exactly(res.assignment, *case)
    assert [r.feasible for r in steered] == [True, True, False, False, True,
                                             True, True, False, True, False]


def test_phase1_fallback_matches_highs(monkeypatch):
    """With HiGHS inconclusive there is no model to read a basis off, so
    the exact phase-1 simplex decides every round."""
    calls, bases = [], []

    def phase1(lp, _phase1=lpbound.solve_phase1):
        calls.append(lp)
        return _phase1(lp)

    fallback_verdicts_match_highs(monkeypatch, solve_highs=lambda lp: (None, None, None),
                                  solve_phase1=phase1,
                                  exact_point_from_basis=lambda lp, basis: bases.append(basis))
    assert len(calls) >= len(list(small_dags())) and not bases


def meets_every_row(lp, x):
    """The structural point x meets every stored row exactly: x ≥ 0, an
    equality row's residual is 0, and an inequality row's slack is ≥ 0."""
    if any(lpbound._sgn(v) < 0 for v in x.values()):
        return False
    for row, total in zip(lp.rows, lp.rhs):
        slack = [c for j, c in row.items() if j >= lp.num_vars]
        for j, c in row.items():
            if j in x:
                total = total - x[j] * c
        s = lpbound._sgn(total)
        if (s * slack[0] < 0) if slack else s != 0:
            return False
    return True


def test_basis_fallback_matches_highs(monkeypatch):
    """With no rationalized vertex, every feasible round goes through the
    basis of HiGHS's last optimum; on these programs each such basis gives
    an exact point."""
    points = []

    def basis_point(lp, basis, _exact=lpbound.exact_point_from_basis):
        points.append(_exact(lp, basis))
        assert len(basis) == len(lp.rows)
        assert points[-1] is not None and meets_every_row(lp, points[-1])
        return points[-1]

    fallback_verdicts_match_highs(monkeypatch, exact_point_from_basis=basis_point,
                                  rationalize_point=lambda xf, primes: None)
    assert points


@pytest.mark.parametrize("b, zero", [
    (Fraction(-3, 2), Fraction(0)),
    (LogScalar({2: -1, 3: Fraction(1, 2)}), ZERO),  # log(sqrt(3)/2) < 0
])
def test_linear_program_stores_rows_as_equalities_with_nonnegative_rhs(b, zero):
    lp = LinearProgram(num_vars=3)
    lp.add({0: 1, 1: -2}, zero, False)
    lp.add({0: 1, 2: 0}, zero, True)
    lp.add({1: 1, 2: Fraction(1, 2)}, b, False)
    # each inequality's slack follows the structural columns in row order;
    # the row with b < 0 is negated, slack included
    assert lp.rows == [{0: 1, 1: -2, 3: 1}, {0: 1}, {1: -1, 2: Fraction(-1, 2), 4: -1}]
    assert lp.rhs == [zero, zero, -b]
    assert lp.rhs[2] > zero
    assert lp.ncols == 5


# --- witnesses ---------------------------------------------------------------


@pytest.mark.parametrize("h, digest", [
    (SetFunction(["1", "2"], [ZERO, LogScalar({2: 1, 3: 1}),
                              LogScalar({2: Fraction(1, 2), 3: 1}), LogScalar({2: 2, 3: 1})]),
     "11847206c7024d05e10e80a83ba406f270dfb469182e7353ea0a99109341853e"),
    (SetFunction.from_log2("123", {"1": 1, "2": 1, "3": 1, "12": 2, "13": 2, "23": 2, "123": 2}),
     "b82253e86174e2cdca6d64ea91cfc29263a61f4fd73bfbf6bf662b370957cc7f"),
])
def test_build_witness_output_is_unchanged(h, digest):
    """Golden SHA-256 of the canonical certificate JSON for one N=2 and one
    N=3 polymatroid: every local, label and value stays as it was."""
    cert = build_witness(h, build_gdagger(len(h.ground)))
    blob = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest




@pytest.mark.parametrize("n", [2, 3])
def test_witness_round_trip_for_polymatroids(n):
    rng = random.Random(n)
    lay = build_gdagger(n)
    for _ in range(3):
        h = random_integer_polymatroid(rng, n)
        cert = build_witness(h, lay)
        tup = rate_capacity(h, lay)
        assert verify_connection_constraints(cert, lay, tup)
        # serialization survives the round trip
        back = WitnessCertificate.from_json(cert.to_json())
        assert verify_connection_constraints(back, lay, tup)


def test_witness_build_fails_for_non_polymatroid():
    rng = random.Random(8)
    lay = build_gdagger(2)
    h = perturb_non_polymatroid(rng, random_integer_polymatroid(rng, 2))
    with pytest.raises(WitnessError):
        build_witness(h, lay)


def test_witness_verify_fails_on_perturbed_capacity():
    rng = random.Random(9)
    lay = build_gdagger(2)
    h = random_integer_polymatroid(rng, 2)
    # ensure a strictly positive capacity exists to undercut
    cert = build_witness(h, lay)
    tup = rate_capacity(h, lay)
    positive = [e for e, v in tup.caps.items() if v.sign() > 0]
    if not positive:
        pytest.skip("degenerate polymatroid: all capacities zero")
    caps = dict(tup.caps)
    caps[positive[0]] = caps[positive[0]] * Fraction(1, 2)
    failures = []
    ok = verify_connection_constraints(cert, lay, RateCapacityTuple(tup.rates, caps),
                                       failures=failures)
    assert not ok and failures


# --- forged certificates -----------------------------------------------------


@pytest.fixture(scope="module")
def witness_n2():
    lay = build_gdagger(2)
    h = SetFunction.from_log2("12", {"1": 1, "2": 2, "12": 2})
    return lay, build_witness(h, lay), rate_capacity(h, lay)


def forge(cert, tag, values):
    lw = cert.locals_[tag]
    local = LocalWitness(SetFunction(lw.func.ground, values), lw.var_map)
    return WitnessCertificate(cert.n, {**cert.locals_, tag: local})


def test_verify_rejects_a_zeroed_sources_local(witness_n2):
    lay, cert, tup = witness_n2
    assert verify_connection_constraints(cert, lay, tup)
    values = list(cert.locals_["sources"].func.values)
    values[-1] = ZERO
    failures = []
    assert not verify_connection_constraints(forge(cert, "sources", values), lay, tup, failures)
    assert failures[0].startswith("local sources: not a polymatroid")


def test_verify_rejects_a_certificate_for_another_n(witness_n2):
    lay, cert, tup = witness_n2
    failures = []
    assert not verify_connection_constraints(WitnessCertificate(7, cert.locals_), lay, tup, failures)
    assert failures == ["certificate is for N=7, the layout has N=2"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_rejects_every_non_polymatroid_local(witness_n2, data):
    """Lift a proper subset above the full set, or push the full set below
    zero: either breaks monotonicity in whichever local is forged."""
    lay, cert, tup = witness_n2
    tag = data.draw(st.sampled_from(sorted(cert.locals_)))
    values = list(cert.locals_[tag].func.values)
    full = len(values) - 1
    m = data.draw(st.integers(1, full))
    values[m] = values[full] + log2_units(1) if m < full else -log2_units(1)
    failures = []
    assert not verify_connection_constraints(forge(cert, tag, values), lay, tup, failures)
    assert any(f.startswith(f"local {tag}: not a polymatroid") for f in failures)


def test_verify_rejects_a_doubled_independence_local(witness_n2):
    """Doubling every value keeps the independence local a polymatroid that
    meets every clause it covers, but it no longer agrees with the locals
    that share its sessions."""
    lay, cert, tup = witness_n2
    values = [v * 2 for v in cert.locals_["independence"].func.values]
    failures = []
    assert not verify_connection_constraints(forge(cert, "independence", values), lay, tup, failures)
    assert "locals independence and sources disagree on ['S[{1,2}]']" in failures
    assert all("disagree" in f for f in failures)


@functools.lru_cache(maxsize=None)
def honest_witness(n, seed):
    """The layout, certificate and tuple of a mixed-prime polymatroid."""
    lay = build_gdagger(n)
    h = mixed_polymatroid(seed, n)
    return lay, build_witness(h, lay), rate_capacity(h, lay)


def verify_outcome(verify, cert, lay, tup):
    """What a verifier returns or raises, with the failures it records."""
    failures = []
    try:
        result = verify(cert, lay, tup, failures)
    except CoverageError as exc:
        result = f"CoverageError: {exc}"
    return result, failures


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 3),
       st.sampled_from(["none", "value", "vars", "drop", "rate", "capacity", "independence"]),
       st.data())
def test_verify_on_forms_matches_the_logscalar_reference(n, seed, how, data):
    """Honest certificates, and certificates forged by changing one local
    value, retargeting or dropping one `vars` entry, perturbing a rate or a
    capacity, or doubling the independence local: the same verdict and the
    same failures, in the same order, as the per-clause LogScalar verifier."""
    lay, cert, tup = honest_witness(n, seed)
    locals_ = dict(cert.locals_)
    if how in ("value", "vars", "drop"):
        tag = data.draw(st.sampled_from(sorted(locals_)))
        lw = locals_[tag]
        if how == "value":
            values = list(lw.func.values)
            m = data.draw(st.integers(1, len(values) - 1))
            values[m] = values[m] + data.draw(st.sampled_from(
                [log2_units(1), log2_units(-1), LogScalar({3: Fraction(1, 2)}),
                 LogScalar({2: 1, 3: -1})]))
            locals_[tag] = LocalWitness(SetFunction(lw.func.ground, values), lw.var_map)
        else:
            var = data.draw(st.sampled_from(sorted(lw.var_map)))
            var_map = dict(lw.var_map)
            if how == "vars":
                var_map[var] = data.draw(st.sampled_from(lw.func.ground.labels))
            else:
                del var_map[var]
            locals_[tag] = LocalWitness(lw.func, var_map)
    elif how == "independence":
        lw = locals_["independence"]
        locals_["independence"] = LocalWitness(lw.func.scale(2), lw.var_map)
    elif how in ("rate", "capacity"):
        entries = dict(tup.rates if how == "rate" else tup.caps)
        key = data.draw(st.sampled_from(sorted(entries)))
        entries[key] = entries[key] + data.draw(st.sampled_from(
            [log2_units(Fraction(1, 3)), LogScalar({3: 1, 2: -1}), LogScalar({5: Fraction(1, 7)})]))
        if data.draw(st.booleans()):
            entries[key] = entries[key] * Fraction(1, 2)
        tup = (RateCapacityTuple(entries, tup.caps) if how == "rate"
               else RateCapacityTuple(tup.rates, entries))
    forged = WitnessCertificate(cert.n, locals_)
    got = verify_outcome(verify_connection_constraints, forged, lay, tup)
    assert got == verify_outcome(reference_verify, forged, lay, tup)
    if how == "none":
        assert got == (True, [])


MIXED_N4 = """
import json, random, sys, time
from conftest import random_integer_polymatroid
from entronet.construct import build_gdagger, rate_capacity
from entronet.exactlog import LogScalar
from entronet.lpbound import build_witness, verify_connection_constraints

lay = build_gdagger(4)
out = []
for seed in range(3):
    rng = random.Random(seed)
    h = (random_integer_polymatroid(rng, 4, LogScalar({2: 1}))
         + random_integer_polymatroid(rng, 4, LogScalar({2: -1, 3: 1})))
    start = time.perf_counter()
    cert = build_witness(h, lay)
    built = time.perf_counter()
    ok = verify_connection_constraints(cert, lay, rate_capacity(h, lay))
    out.append([ok, built - start, time.perf_counter() - built])
print(json.dumps({"runs": out, "mpmath": "mpmath" in sys.modules}))
"""


def test_mixed_prime_witness_at_n4_builds_and_verifies_without_intervals():
    """h = x·log 2 + y·log(3/2) at N=4, for three seeded pairs of integer
    polymatroids x, y: every sign is an integer comparison.  It runs in a
    fresh interpreter, since other tests import mpmath."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", MIXED_N4], cwd=tests, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    for ok, build_s, verify_s in report["runs"]:
        assert ok
        assert build_s + verify_s < 2.0, report
    assert not report["mpmath"]


# --- the exact procedures against the implementations they replaced ----------


def reference_solve_phase1(lp):
    """Exact phase-1 simplex with its own pivot and a separate objective
    dict: Dantzig's rule, Bland's rule after a long degenerate stall, ratio
    ties broken on the basis index."""
    m = len(lp.rows)
    if m == 0:
        return True, {}
    rows = [dict(row) for row in lp.rows]
    rhs = list(lp.rhs)
    art0 = lp.ncols
    basis = []
    for i in range(m):
        rows[i][art0 + i] = Fraction(1)
        basis.append(art0 + i)
    obj = {}
    for row in rows:
        for j, c in row.items():
            if j < art0:
                obj[j] = obj.get(j, Fraction(0)) + c
    obj = {j: c for j, c in obj.items() if c}
    objval = sum(rhs[1:], rhs[0])

    def pivot(r, jin):
        nonlocal objval
        prow = rows[r]
        p = prow[jin]
        if p != 1:
            rows[r] = prow = {j: c / p for j, c in prow.items()}
            rhs[r] = rhs[r] * (1 / p)
        for i in range(m):
            f = rows[i].get(jin)
            if i != r and f:
                for j, c in prow.items():
                    nv = rows[i].get(j, Fraction(0)) - f * c
                    if nv:
                        rows[i][j] = nv
                    else:
                        rows[i].pop(j, None)
                rhs[i] = rhs[i] - rhs[r] * f
        f = obj.get(jin)
        if f:
            for j, c in prow.items():
                nv = obj.get(j, Fraction(0)) - f * c
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
            objval = objval - rhs[r] * f
        basis[r] = jin

    stall, bland = 0, False
    while True:
        jin = None
        if bland:
            jin = next((j for j in sorted(obj) if j < art0 and obj[j] > 0), None)
        else:
            bestc = None
            for j, c in obj.items():
                if j < art0 and c > 0 and (bestc is None or c > bestc):
                    jin, bestc = j, c
        if jin is None:
            break
        best = None
        for i in range(m):
            a = rows[i].get(jin, Fraction(0))
            if a > 0:
                if best is None:
                    best = i
                else:
                    s = lpbound._sgn(rhs[i] * rows[best][jin] - rhs[best] * a)
                    if s < 0 or (s == 0 and basis[i] < basis[best]):
                        best = i
        degenerate = lpbound._sgn(rhs[best]) == 0
        pivot(best, jin)
        if degenerate:
            stall += 1
            bland = bland or stall > 3 * (m + 1)
        else:
            stall = 0
    if lpbound._sgn(objval) != 0:
        return False, None
    return True, {bj: rhs[i] for i, bj in enumerate(basis) if bj < lp.num_vars}


def reference_point_from_basis(lp, basis):
    """Eliminate over the square basis matrix, re-indexed by basis position,
    then check signs, artificials and every stored row exactly."""
    rows, ncols, m = lp.rows, lp.ncols, len(lp.rows)
    if m == 0:
        return {}
    cols = list(basis)
    M = []
    for i in range(m):
        row = {}
        for k, c in enumerate(cols):
            v = Fraction(int(c - ncols == i)) if c >= ncols else Fraction(rows[i].get(c, 0))
            if v:
                row[k] = v
        M.append(row)
    b = list(lp.rhs)
    where, used = [None] * m, [False] * m
    for k in range(m):
        cand = [i for i in range(m) if not used[i] and M[i].get(k)]
        if not cand:
            return None
        r = min(cand, key=lambda i: len(M[i]))
        used[r], where[k] = True, r
        p = M[r][k]
        if p != 1:
            M[r] = {j: c / p for j, c in M[r].items()}
            b[r] = b[r] * (1 / p)
        for i in range(m):
            f = M[i].get(k)
            if i != r and f:
                for j, c in M[r].items():
                    nv = M[i].get(j, Fraction(0)) - f * c
                    if nv:
                        M[i][j] = nv
                    else:
                        M[i].pop(j, None)
                b[i] = b[i] - b[r] * f
    x = {}
    for k in range(m):
        v, c = b[where[k]], cols[k]
        s = lpbound._sgn(v)
        if s < 0 or (c >= ncols and s != 0):
            return None
        if s != 0 and c < ncols:
            x[c] = v
    for row, total in zip(rows, lp.rhs):
        for j, c in row.items():
            if j in x:
                total = total - x[j] * c
        if lpbound._sgn(total) != 0:
            return None
    return {j: v for j, v in x.items() if j < lp.num_vars}


@st.composite
def program_rows(draw, nvars, logs):
    """One row (coeffs, b, equality) over nvars variables with coefficients
    in -2..2 and a right-hand side that is a Fraction or, with `logs`,
    a·log 2 + b·log 3."""
    small = st.integers(-2, 2)
    coeffs = {j: Fraction(draw(small)) for j in range(nvars)}
    if logs:
        b = LogScalar({2: draw(small), 3: Fraction(draw(small), 2)})
    else:
        b = Fraction(draw(small), draw(st.integers(1, 3)))
    return coeffs, b, draw(st.booleans())


@st.composite
def linear_programs(draw):
    """Up to 4 rows over up to 4 variables with coefficients in -2..2 and
    right-hand sides that are all Fractions or all a·log 2 + b·log 3."""
    nvars = draw(st.integers(1, 4))
    logs = draw(st.booleans())
    lp = LinearProgram(num_vars=nvars)
    for _ in range(draw(st.integers(1, 4))):
        lp.add(*draw(program_rows(nvars, logs)))
    return lp


@st.composite
def row_batches(draw):
    """2 to 4 batches of 1 to 4 rows each, drawn as `linear_programs` draws
    its rows, and their number of variables."""
    nvars = draw(st.integers(1, 4))
    logs = draw(st.booleans())
    rows = program_rows(nvars, logs)
    return nvars, draw(st.lists(st.lists(rows, min_size=1, max_size=4), min_size=2, max_size=4))


def cold_highs(lp):
    """The reference of `solve_highs`: one fresh `linprog` solve of the
    phase-1 program min Σs subject to A·x + I·s = b, x, s ≥ 0, with the
    same (feasible, x, y) contract."""
    from scipy.optimize import linprog

    m = len(lp.rows)
    if m == 0:
        return True, np.zeros(lp.num_vars), None
    A = np.zeros((m, lp.ncols + m))
    for i, row in enumerate(lp.rows):
        for j, c in row.items():
            A[i, j] = float(c)
        A[i, lp.ncols + i] = 1.0
    b = np.array([float(v) for v in lp.rhs])
    cost = np.concatenate([np.zeros(lp.ncols), np.ones(m)])
    res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        return None, None, None
    feasible = res.fun <= 1e-7
    y = None
    if not feasible:
        y = np.asarray(res.eqlin.marginals, dtype=float)
        if float(y @ b) < 0:
            y = -y
    return feasible, res.x[: lp.num_vars], y


@settings(max_examples=200, deadline=None)
@given(row_batches())
def test_incremental_solve_highs_matches_a_cold_solve(case):
    """The program's HiGHS model grows batch by batch; after each batch its
    verdict is a fresh solve's, and a feasible point meets every row drawn
    so far.  The model takes no part in == or repr."""
    nvars, batches = case
    lp, twin = LinearProgram(num_vars=nvars), LinearProgram(num_vars=nvars)
    drawn = []
    for batch in batches:
        for row in batch:
            lp.add(*row)
            twin.add(*row)
        drawn += batch
        feasible, x, y = lpbound.solve_highs(lp)
        assert feasible is not None and feasible == cold_highs(lp)[0]
        if feasible:
            assert x.min() >= -1e-6
            for coeffs, b, equality in drawn:
                gap = sum(float(c) * x[j] for j, c in coeffs.items()) - float(b)
                assert abs(gap) <= 1e-6 if equality else gap <= 1e-6
        else:
            assert float(y @ [float(v) for v in lp.rhs]) > 0
    assert lp.highs.getNumRow() == len(lp.rows)
    assert twin.highs is None and twin == lp and repr(twin) == repr(lp)


def test_lp_feasible_verdicts_match_cold_highs(monkeypatch):
    """Warm-started rounds decide as rounds solved from zero do, with and
    without the Ingleton template."""
    cases = [(*case, extra) for case in small_dags() for extra in ((), (ingleton_expression(),))]
    warm = [lp_feasible(*case).feasible for case in cases]
    monkeypatch.setattr(lpbound, "solve_highs", cold_highs)
    assert [lp_feasible(*case).feasible for case in cases] == warm


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_solve_phase1_matches_the_reference(lp):
    assert lpbound.solve_phase1(lp) == reference_solve_phase1(lp)


@settings(max_examples=400, deadline=None)
@given(linear_programs(), st.data())
def test_exact_point_from_basis_matches_the_reference(lp, data):
    """Bases drawn over the stored columns, the artificials and one column
    past them, repeats allowed, so that singular and infeasible bases and
    nonzero artificials all occur; plus the basis of HiGHS's optimum, one
    column per row, whenever HiGHS ends optimal."""
    m = len(lp.rows)
    cols = st.integers(0, lp.ncols + m)
    bases = [data.draw(st.lists(cols, min_size=m, max_size=m))]
    if lpbound.solve_highs(lp)[0] is not None:
        bases.append(lpbound.solve_float(lp)[1])
        assert len(bases[-1]) == m
    for basis in bases:
        assert lpbound.exact_point_from_basis(lp, basis) == reference_point_from_basis(lp, basis)


@st.composite
def program_pairs(draw):
    """One program drawn as `linear_programs` draws it, stored twice: with
    `int` coefficients and with the same coefficients as `Fraction`s."""
    nvars, logs = draw(st.integers(1, 4)), draw(st.booleans())
    rows = draw(st.lists(program_rows(nvars, logs), min_size=1, max_size=4))
    as_int, as_fraction = LinearProgram(num_vars=nvars), LinearProgram(num_vars=nvars)
    for coeffs, b, equality in rows:
        as_int.add({j: int(c) for j, c in coeffs.items()}, b, equality)
        as_fraction.add(coeffs, b, equality)
    return as_int, as_fraction


def exact_values(x):
    return x is None or all(type(v) in (Fraction, LogScalar) for v in x.values())


@settings(max_examples=300, deadline=None)
@given(program_pairs(), st.data())
def test_exact_solvers_agree_on_int_and_fraction_coefficients(pair, data):
    """The stored types differ, every exact result is the same and exact."""
    as_int, as_fraction = pair
    assert all(type(c) is int for row in as_int.rows for c in row.values())
    assert all(type(c) is Fraction for row in as_fraction.rows for j, c in row.items()
               if j < as_fraction.num_vars)
    got = lpbound.solve_phase1(as_int)
    assert got == lpbound.solve_phase1(as_fraction) and exact_values(got[1])
    m = len(as_int.rows)
    basis = data.draw(st.lists(st.integers(0, as_int.ncols + m), min_size=m, max_size=m))
    got = lpbound.exact_point_from_basis(as_int, basis)
    assert got == lpbound.exact_point_from_basis(as_fraction, basis) and exact_values(got)


def test_lp_feasible_adds_a_repeated_template_once():
    """Ingleton twice is Ingleton once: the same verdicts and constraint
    counts; and its 120 instances over five variables hold 30 distinct
    rows."""
    ing = ingleton_expression()
    for case in small_dags():
        once, twice = lp_feasible(*case, extra=(ing,)), lp_feasible(*case, extra=(ing, ing))
        assert (twice.feasible, twice.constraints) == (once.feasible, once.constraints)
    rows = lpbound._instantiate(ing, ["X", "sa", "sb", "ar", "br"])[2]
    assert len(rows) == 120 and len({frozenset(row.items()) for row in rows}) == 30


def all_instances_verdict(net, conn, tup, extra):
    """The reference verdict: one float LP with every connection clause,
    every instance of every template, relabelled one assignment at a time
    and repeats included, and every elemental row."""
    from scipy.optimize import linprog

    keys = list(conn.sessions) + [e.id for e in net.edges]
    k, index = len(keys), {x: i for i, x in enumerate(keys)}
    A_ub, b_ub, A_eq, b_eq = [], [], [], []

    def add(terms, rhs, sense):
        row = np.zeros((1 << k) - 1)
        for c, subset in terms:
            mask = sum(1 << index[x] for x in subset)
            if mask:
                row[mask - 1] += float(c)
        sign = -1 if sense == ">=" else 1
        A, b = (A_eq, b_eq) if sense == "=" else (A_ub, b_ub)
        A.append(sign * row)
        b.append(sign * float(rhs))

    for _, terms, rhs, sense in connection_clauses(net, conn, tup):
        add(terms, rhs, sense)
    for expr in extra:
        for combo in itertools.permutations(keys, len(expr.variables)):
            add(expr.relabel(dict(zip(expr.variables, combo))).terms, 0, ">=")
    for row in elemental_index(k).tolist():
        terms = [(c, [x for x in keys if mask >> index[x] & 1])
                 for mask, c in zip(row, ELEMENTAL_WEIGHTS)]
        add(terms, 0, ">=")
    res = linprog(np.zeros((1 << k) - 1), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq or None,
                  b_eq=b_eq or None, bounds=(0, None), method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def test_lp_feasible_verdicts_match_every_instance_added():
    for case in small_dags():
        for extra in ((), (ingleton_expression(),), (zhang_yeung_expression(),)):
            assert lp_feasible(*case, extra=extra).feasible == all_instances_verdict(*case, extra)


def mixed_polymatroid(seed, n):
    """A polymatroid in units of log 2 plus one in units of log 3/2: a sum
    of polymatroids whose values, and the rows of the minima, mix the signs
    of both primes, so that some rows reach `LogScalar.sign`."""
    rng = random.Random(seed)
    f2 = random_integer_polymatroid(rng, n, LogScalar({2: 1}))
    f3 = random_integer_polymatroid(rng, n, LogScalar({2: -1, 3: 1}))
    return f2 + f3


def adjoined_by_min(f, amask, z):
    """g({Z} ∪ B) = min(f(B ∪ A), f(B) + z), one comparison per value."""
    return f.values + [min(f.values[m | amask], f.values[m] + z) for m in range(len(f.values))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.data())
def test_sw_extension_matches_the_per_value_minimum(seed, n, data):
    f = mixed_polymatroid(seed, n)
    xm = data.draw(st.integers(1, (1 << n) - 1))
    ym = data.draw(st.integers(0, (1 << n) - 1))
    g = sw_extension(f, xm, ym, name="Z")
    assert g.values == adjoined_by_min(f, xm, f.values[xm | ym] - f.values[ym])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.data())
def test_sum_extension_matches_the_per_value_minimum(seed, n, data):
    """X and an independent copy Y of it meet the preconditions."""
    f = mixed_polymatroid(seed, n)
    x = data.draw(st.sampled_from(f.ground.labels))
    fp = independent_adhesion(f, SetFunction(["Y"], f.restrict([x]).values))
    g = sum_extension(fp, x, "Y", name="Z")
    amask = fp.ground.mask([x, "Y"])
    assert g.values == adjoined_by_min(fp, amask, fp([x]))


def assert_form_is_derived_exactly(g):
    """g's form, derived through its extensions, is the conversion of its
    values: same primes, denominator, bound and matrix, and read-only."""
    form, want = g.form, integer_form(g.values)
    assert (form.primes, form.den, form.bound) == (want.primes, want.den, want.bound)
    assert form.mat.dtype == want.mat.dtype and np.array_equal(form.mat, want.mat)
    with pytest.raises(ValueError, match="read-only"):
        form.mat[-1] = 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.sampled_from(
    ["functional", "sum", "sw", "adhesion"]), st.data())
def test_every_extension_derives_the_integer_form_of_its_values(seed, n, op, data):
    """The form, and the values read off it, equal the values built one by
    one with LogScalar arithmetic."""
    f = mixed_polymatroid(seed, n)
    labels = list(f.ground.labels)
    if op == "functional":
        amask = data.draw(st.integers(0, (1 << n) - 1))
        g = functional_extension(f, amask, name="Z")
        eager = f.values + [f.values[m | amask] for m in range(1 << n)]
    elif op == "sum":
        x = data.draw(st.sampled_from(labels))
        fp = independent_adhesion(f, SetFunction(["Y"], f.restrict([x]).values))
        assert_form_is_derived_exactly(fp)
        g = sum_extension(fp, x, "Y", name="Z")
        eager = adjoined_by_min(fp, fp.ground.mask([x, "Y"]), fp([x]))
    elif op == "sw":
        xm = data.draw(st.integers(1, (1 << n) - 1))
        ym = data.draw(st.integers(0, (1 << n) - 1))
        g = sw_extension(f, xm, ym, name="Z")
        eager = adjoined_by_min(f, xm, f.values[xm | ym] - f.values[ym])
    else:
        # a second function over other primes and denominators
        other = mixed_polymatroid(seed + 1, data.draw(st.integers(1, 2))).scale(Fraction(5, 7))
        other = SetFunction([f"o{x}" for x in other.ground.labels], other.values)
        g = independent_adhesion(f, other)
        eager = [a + b for b in other.values for a in f.values]
    assert g.values == eager
    assert_form_is_derived_exactly(g)


def test_extensions_past_int64_take_the_object_path():
    """Coefficients of 2^61 and more: every row sum of the minima pass can
    pass int64, so the pass and the derived rows run on Python ints and
    keep the per-value minima."""
    f = mixed_polymatroid(7, 3).scale(2**61)
    assert f.form.bound * 4 > np.iinfo(np.int64).max
    g = sw_extension(f, 0b011, 0b100, name="Z")
    assert g.values == adjoined_by_min(f, 0b011, f.values[0b111] - f.values[0b100])
    assert_form_is_derived_exactly(g)
    fp = independent_adhesion(f, SetFunction(["Y"], f.restrict(["1"]).values))
    g = sum_extension(fp, "1", "Y", name="Z")
    assert g.values == adjoined_by_min(fp, fp.ground.mask(["1", "Y"]), fp(["1"]))
    assert_form_is_derived_exactly(g)
    assert g.form.mat.dtype == object


@st.composite
def templates(draw):
    """An expression over up to 4 variables, with 0 to 6 terms, and the
    keys it is instantiated over, in no particular order."""
    slots = [str(i + 1) for i in range(draw(st.integers(1, 4)))]
    subsets = st.lists(st.sampled_from(slots), min_size=1, unique=True).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    expr = InfoExpression.from_terms(draw(st.dictionaries(subsets, coeffs, max_size=6)))
    pool = ["X", "U", "e1", "e10", "e2", "a", "Z", "_v"]
    return expr, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))


@settings(max_examples=150, deadline=None)
@given(templates(), st.data())
def test_instantiate_matches_relabel(case, data):
    """The rows are those of relabelling the template, term order included,
    and the integer rows flag exactly the instances that random values,
    mixing log 2 and log 3, make negative."""
    expr, keys = case
    index = {x: i for i, x in enumerate(keys)}
    masks, weights, rows = lpbound._instantiate(expr, keys)
    insts = [expr.relabel(dict(zip(expr.variables, combo)))
             for combo in itertools.permutations(keys, len(expr.variables))]
    want = [[(sum(1 << index[x] for x in s) - 1, -c) for c, s in inst.terms] for inst in insts]
    assert [list(row.items()) for row in rows] == want
    small = st.integers(-3, 3)
    values = [ZERO] + [LogScalar({2: data.draw(small), 3: data.draw(small)})
                       for _ in range(1, 1 << len(keys))]
    flagged = [r for r, _ in negative_rows(integer_form(values), masks, weights)] if weights else []
    g = SetFunction(keys, values)
    assert flagged == [p for p, inst in enumerate(insts) if inst.evaluate(g).sign() < 0]


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<rel>>=|<=|=)|(?P<op>[+-])|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<meas>[HI])\s*\(|(?P<close>\))|(?P<sep>[;|,])|(?P<name>[A-Za-z_][\w]*|\d+))"
)


def reference_parse(text):
    """The peek/index parser, in which any number token may be a label."""
    text = text.strip()
    tokens, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot tokenize")
        pos = m.end()
        kind = next(k for k in ("rel", "op", "num", "meas", "close", "sep", "name")
                    if m.group(k) is not None)
        tokens.append((kind, m.group(kind)))
    i = 0
    terms = {}

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    def add(subset, c):
        key = tuple(sorted(set(subset)))
        if key:
            terms[key] = terms.get(key, Fraction(0)) + c

    def parse_list():
        nonlocal i
        out = []
        while True:
            kind, v = peek()
            if kind not in ("name", "num"):
                raise ValueError("expected a variable name")
            out.append(v)
            i += 1
            kind, v = peek()
            if not (kind == "sep" and v == ","):
                return out
            i += 1

    def parse_side(sign):
        nonlocal i
        first = True
        while i < len(tokens):
            kind, v = peek()
            if kind == "rel":
                return
            coeff = Fraction(1)
            if kind == "op":
                coeff = Fraction(-1) if v == "-" else Fraction(1)
                i += 1
                kind, v = peek()
            elif not first:
                raise ValueError("expected '+' or '-'")
            first = False
            if kind == "num":
                nxt = tokens[i + 1] if i + 1 < len(tokens) else (None, None)
                if nxt[0] != "meas":
                    if Fraction(v) != 0:
                        raise ValueError("nonzero constants are not supported")
                    i += 1
                    continue
                coeff *= Fraction(v)
                i += 1
                kind, v = peek()
            if kind != "meas":
                raise ValueError("expected H(...) or I(...)")
            meas = v
            i += 1
            a = parse_list()
            if meas == "H":
                if peek() == ("sep", "|"):
                    i += 1
                    b = parse_list()
                    add(a + b, sign * coeff)
                    add(b, -sign * coeff)
                else:
                    add(a, sign * coeff)
            else:
                if peek() != ("sep", ";"):
                    raise ValueError("I(...) needs ';'")
                i += 1
                b = parse_list()
                c = []
                if peek() == ("sep", "|"):
                    i += 1
                    c = parse_list()
                add(a + c, sign * coeff)
                add(b + c, sign * coeff)
                add(a + b + c, -sign * coeff)
                if c:
                    add(c, -sign * coeff)
            if peek()[0] != "close":
                raise ValueError("missing ')'")
            i += 1

    parse_side(Fraction(1))
    kind, rel = peek()
    if kind == "rel":
        i += 1
        if rel == "=":
            raise ValueError("equalities are not supported")
        if rel == "<=":
            for k in terms:
                terms[k] = -terms[k]
        parse_side(Fraction(1) if rel == "<=" else Fraction(-1))
    if i != len(tokens):
        raise ValueError("trailing tokens")
    return InfoExpression.from_terms(terms)


_PIECES = ["H(", "I(", "H (", ")", ",", ";", "|", "+", "-", ">=", "<=", "=", " ", ".",
           "0", "1", "12", "00", "3/2", "0/3", "5/0", "x", "Y_1", "H", "I", "2x"]
_LABELS = ["1", "2", "3", "12", "0", "x", "Y_1", "H", "I"]
_ODD = ["1/2", "3/0", "4/0 H(1)", "2/3", ".", "=", ""]  # drawn rarely, where a label goes
_COEFFS = ["", "", "", "2 ", "3/2 ", "0 ", "00 ", "1/3", "2/4 "]


@st.composite
def expression_texts(draw):
    """Well-formed expressions, sometimes with fractions as labels, zero
    denominators or bare constants, then sometimes mutated piece by piece;
    or a plain run of pieces."""
    if not draw(st.integers(0, 3)):
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=14)))

    def label():
        return draw(st.sampled_from(_LABELS * 8 + _ODD))

    def labels():
        return ",".join(label() for _ in range(draw(st.integers(1, 3))))

    def side():
        out = ""
        for k in range(draw(st.integers(0, 3))):
            sign = draw(st.sampled_from(["+ ", "- "] + ([""] if k == 0 else [])))
            atom = draw(st.sampled_from(["H", "I"] * 6 + ["0", "0/3", "2", "5/0"]))
            if atom in "HI":
                atom += "(" + labels() + (";" + labels() if atom == "I" else "")
                atom += ("|" + labels() if draw(st.booleans()) else "") + ")"
            out += " " + sign + draw(st.sampled_from(_COEFFS)) + atom
        return out

    text = side()
    if draw(st.integers(0, 4)):
        text += " " + draw(st.sampled_from([">=", "<=", ">=", "<=", "="])) + side()
    pieces = list(text)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pos = draw(st.integers(0, len(pieces)))
        if draw(st.booleans()) and pieces:
            del pieces[min(pos, len(pieces) - 1)]
        else:
            pieces.insert(pos, draw(st.sampled_from(_PIECES)))
    return "".join(pieces)


def _parsed(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=1000, deadline=None)
@given(expression_texts())
def test_parse_matches_the_reference_parser(text):
    """Equal terms, or an error on both sides; a fraction used as a label
    is an error on the new side only."""
    try:
        got = InfoExpression.parse(text)
    except ValueError:
        got = None
    if re.search(r"[(,;|]\s*\d+/\d+", text):
        assert got is None
    else:
        assert got == _parsed(reference_parse, text)
