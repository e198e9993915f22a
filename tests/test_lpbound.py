import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturb_non_polymatroid, random_integer_polymatroid
from entronet.construct import build_gdagger, rate_capacity
from entronet.exactlog import ZERO, LogScalar, log2_units
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
    UNCAPPED,
)
from entronet.setfunc import SetFunction, check_polymatroid


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
def test_shannon_implies_certificates_are_unchanged(text, cert):
    """Golden certificates at n = 4: the row order of elemental_index fixes
    which vertex the exact simplex returns, so a reordered table shows here."""
    ok, got = shannon_implies(InfoExpression.parse(text), 4)
    assert ok and got == cert
    assert all(type(w) is Fraction for w in got.values())


def test_shannon_implies_monotonicity():
    ok, _ = shannon_implies(InfoExpression.parse("H(1,2) - H(1) >= 0"), 3)
    assert ok


def test_shannon_does_not_imply_zy_or_ingleton():
    ok, cert = shannon_implies(zhang_yeung_expression(), 4)
    assert not ok and cert is None
    ok, _ = shannon_implies(ingleton_expression(), 4)
    assert not ok


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


def test_lp_feasible_point_is_polymatroid():
    net, conn = relay()
    res = lp_feasible(net, conn, relay_tuple(Fraction(1)))
    assert res.feasible
    assert check_polymatroid(res.assignment).ok
    # the exact point satisfies the decode equality: H(U | e2) = 0
    g = res.assignment
    assert g(["U", "e2"]) == g(["e2"])


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


def test_fallback_path_matches_highs(monkeypatch):
    """With HiGHS inconclusive, every round goes through the float simplex,
    the exact basis point and, for infeasible programs, the exact phase-1
    simplex; the verdicts must be those of the HiGHS path and every
    feasible point must be exact."""
    cases = list(small_dags())
    steered = [lp_feasible(*case) for case in cases]
    points = []

    def basis_point(lp, basis, _exact=lpbound.exact_point_from_basis):
        points.append(_exact(lp, basis))
        return points[-1]

    monkeypatch.setattr(lpbound, "exact_point_from_basis", basis_point)
    monkeypatch.setattr(lpbound, "solve_highs", lambda lp: (None, None, None))
    for case, want in zip(cases, steered):
        got = lp_feasible(*case)
        assert got.feasible == want.feasible
        for res in (got, want):
            if res.feasible:
                assert check_polymatroid(res.assignment).ok
                assert holds_exactly(res.assignment, *case)
    # on these programs every basis of the float simplex gives an exact point
    assert points and all(x is not None for x in points)
    assert [r.feasible for r in steered] == [True, True, False, False, True,
                                             True, True, False, True, False]


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
