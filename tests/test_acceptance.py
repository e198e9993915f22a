"""Acceptance gate: eight criteria, each printing one pass/fail line and
enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines on success)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    all_subspaces,
    group_catalog,
    perturb_non_polymatroid,
    random_integer_polymatroid,
)
from entronet.codegen import linear_code, quasi_uniform_code
from entronet.construct import build_gdagger, capacitated_network, rate_capacity
from entronet.exactlog import LogScalar, log2_units
from entronet.groupchar import (
    SubgroupFamily,
    SubspaceFamily,
    builtin_function,
    coset_support,
    entropy_from_subgroups,
    entropy_from_subspaces,
    quasi_uniform_check,
)
from entronet.lpbound import (
    WitnessError,
    build_witness,
    functional_extension,
    independent_adhesion,
    lp_feasible,
    shannon_implies,
    sum_extension,
    sw_extension,
    verify_connection_constraints,
    zhang_yeung_expression,
)
from entronet.netmodel import (
    Alphabet,
    ConnectionRequirement,
    Edge,
    LinearMap,
    MAX_QUERY_TUPLES,
    Network,
    NetworkCode,
    RateCapacityTuple,
    UNCAPPED,
    alphabets_meet_tuple,
    evaluate_code,
    kernels_of_linear_code,
)
from entronet.setfunc import check_ingleton, check_polymatroid, check_zhang_yeung


def report(num: int, ok: bool, elapsed: float, budget: float, detail: str = ""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {verdict} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} property failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


_layouts = {}


def layout(n):
    if n not in _layouts:
        _layouts[n] = build_gdagger(n)
    return _layouts[n]


def subgroup_families():
    """Every (unordered, with repetition) pair of subgroups from the catalog
    of groups of order <= 24."""
    for name, g in group_catalog():
        subs = [sorted(s) for s in g.all_subgroups()]
        for a, b in itertools.combinations_with_replacement(range(len(subs)), 2):
            yield name, SubgroupFamily(g, (subs[a], subs[b]))


def subspace_families_q2():
    """Every SubspaceFamily with q=2, ambient n <= 3, arity N in {2,3}
    (members unordered, with repetition)."""
    for n in (1, 2, 3):
        subs = all_subspaces(2, n)
        for N in (2, 3):
            for members in itertools.combinations_with_replacement(subs, N):
                yield SubspaceFamily(2, n, members)


def run_qu_pipeline(entropy, support, lay):
    code = quasi_uniform_code(support, lay)
    tup = rate_capacity(entropy, lay)
    net = capacitated_network(lay, tup)
    ev = evaluate_code(net, lay.conn, code)
    return ev.zero_error and alphabets_meet_tuple(net, lay.conn, code, tup)


def test_criterion_1_zy_counterexample():
    t0 = time.time()
    f = builtin_function("zy")
    ok = check_polymatroid(f).ok
    rep = check_zhang_yeung(f)
    ok = ok and not rep.ok and len(rep.instances) >= 1
    implied, _ = shannon_implies(zhang_yeung_expression(), 4)
    ok = ok and not implied
    report(1, ok, time.time() - t0, 5.0,
           f"{len(rep.instances)} violations, shannon_implies={implied}")


def test_criterion_2_projective_plane_ingleton_slack():
    t0 = time.time()
    f = builtin_function("projective-plane")
    rep = check_ingleton(f)
    expected = log2_units(3) - LogScalar({3: Fraction(2)})
    hit = [v for v in rep.instances
           if v.subsets == (("1",), ("2",), ("3",), ("4",))]
    ok = (not rep.ok) and hit and hit[0].slack == expected \
        and expected.sign() < 0
    report(2, bool(ok), time.time() - t0, 5.0, "slack = 3log2 - 2log3")


def test_criterion_3_quasi_uniform_codes_admissible():
    t0 = time.time()
    count = 0
    ok = True
    lay2 = layout(2)
    for name, fam in subgroup_families():
        s = coset_support(fam)
        res = quasi_uniform_check(s)
        good = res.ok and run_qu_pipeline(res.entropy, s, lay2)
        if not good:
            ok = False
            print(f"criterion 3 failure: group {name}")
            break
        count += 1
    if ok:
        for fam in subspace_families_q2():
            s = coset_support(fam)
            res = quasi_uniform_check(s)
            good = res.ok and run_qu_pipeline(res.entropy, s, layout(fam.arity))
            if not good:
                ok = False
                print(f"criterion 3 failure: subspace family {fam.members}")
                break
            count += 1
    report(3, ok, time.time() - t0, 300.0, f"{count} families")


def criterion_4_families():
    rng = random.Random(42)
    families = []
    for q in (2, 3):
        for n in (2, 3):
            subs = all_subspaces(q, n)
            pool = [
                SubspaceFamily(q, n, members)
                for N in (2, 3)
                for members in itertools.combinations_with_replacement(subs, N)
            ]
            pool = [f for f in pool if f.intersection_codim(range(f.arity)) == n]
            families.extend(rng.sample(pool, min(15, len(pool))))
    return families


def test_criterion_4_linear_codes_and_kernel_loop():
    """Every family's code is verified, and the kernel loop runs on every
    verified family, over the tables its verification built: each variable
    tabulated over only the sessions it reads.  A subset whose sessions pass
    the oracle's query bound is not asked."""
    t0 = time.time()
    rng = random.Random(43)
    families = criterion_4_families()
    ok = True
    verified = compared = past_bound = 0
    for fam in families:
        lay = layout(fam.arity)
        h = entropy_from_subspaces(fam)
        code = linear_code(fam, lay)
        tup = rate_capacity(h, lay)
        net = capacitated_network(lay, tup)
        ev = evaluate_code(net, lay.conn, code)
        if not (ev.zero_error and alphabets_meet_tuple(net, lay.conn, code, tup)):
            ok = False
            print(f"criterion 4 failure (code): {fam.q}^{fam.ambient_dim} {fam.members}")
            break
        verified += 1
        # closing the loop: kernels of the built code reproduce the induced
        # entropy exactly (all singletons/pairs plus random larger subsets)
        ker = kernels_of_linear_code(net, lay.conn, code)
        labels = sorted(lay.conn.sessions) + sorted(e.id for e in net.edges)
        kidx = {lab: i for i, lab in enumerate(labels)}
        subsets = [[lab] for lab in labels]
        subsets += [rng.sample(labels, rng.randint(2, 6)) for _ in range(30)]
        for sel in subsets:
            if ev.oracle.tuples({s for lab in sel for s in ev.oracle.scopes[lab]}) > MAX_QUERY_TUPLES:
                past_bound += 1
                continue
            compared += 1
            induced = ev.oracle.entropy(sel)
            algebraic = ker.entropy_at([kidx[lab] for lab in sel])
            if induced != algebraic:
                ok = False
                print(f"criterion 4 failure (entropy loop): {sel}")
                break
        if not ok:
            break
    report(4, ok and verified >= 30, time.time() - t0, 300.0,
           f"{verified} families verified and kernel loops, "
           f"{compared} entropies compared, {past_bound} subsets past the query bound")


def test_criterion_5_extension_calculus():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    trials = 0
    while trials < 200 and ok:
        n = rng.randint(2, 4)
        f = random_integer_polymatroid(rng, n)
        labels = list(f.ground.labels)
        A = rng.sample(labels, rng.randint(1, n))
        g1 = functional_extension(f, A, name="_J")
        amask = f.ground.mask(A)
        ok = ok and check_polymatroid(g1).ok and all(
            g1.values[m] == f.values[m]
            and g1(list(f.ground.subset(m)) + ["_J"]) == f.values[m | amask]
            for m in range(1 << n)
        )
        X = rng.sample(labels, rng.randint(1, n - 1))
        Y = [l for l in labels if l not in X][:1]
        g2 = sw_extension(f, X, Y, name="_Z")
        ok = ok and check_polymatroid(g2).ok \
            and g2(["_Z"]) == f(set(X) | set(Y)) - f(Y) \
            and g2(list(X) + ["_Z"]) == f(X) \
            and g2(set(X) | set(Y) | {"_Z"}) == g2(set(Y) | {"_Z"})
        x = labels[0]
        cp = f.restrict([x])
        cp = type(cp)(["_c"], cp.values)
        fp = independent_adhesion(f, cp)
        ok = ok and check_polymatroid(fp).ok and all(
            fp.values[m] == f.values[m] for m in range(1 << n)
        )
        g3 = sum_extension(fp, x, "_c", name="_S")
        ok = ok and check_polymatroid(g3).ok and g3(["_S"]) == f([x])
        trials += 1
    report(5, ok and trials >= 200, time.time() - t0, 120.0, f"{trials} polymatroids")


def test_criterion_6_witness_certificates():
    t0 = time.time()
    rng = random.Random(13)
    ok = True
    built = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        lay = layout(n)
        h = random_integer_polymatroid(rng, n)
        cert = build_witness(h, lay)
        tup = rate_capacity(h, lay)
        if not verify_connection_constraints(cert, lay, tup):
            ok = False
            print(f"criterion 6 failure: witness rejected for {h.values}")
            break
        built += 1
    rejected = 0
    if ok:
        for _ in range(20):
            n = rng.randint(2, 3)
            h = perturb_non_polymatroid(rng, random_integer_polymatroid(rng, n))
            try:
                cert = build_witness(h, layout(n))
                # construction may numerically succeed only if verification
                # then rejects the induced tuple; either way it must not pass
                try:
                    tup = rate_capacity(h, layout(n))
                except Exception:
                    rejected += 1
                    continue
                if not verify_connection_constraints(cert, layout(n), tup):
                    rejected += 1
                else:
                    ok = False
                    print("criterion 6 failure: non-polymatroid certified")
                    break
            except WitnessError:
                rejected += 1
    report(6, ok and built == 50 and rejected == 20, time.time() - t0, 300.0,
           f"{built} verified, {rejected} rejected")


EDGE_IDS = ["e_sa", "e_sb", "e_ac", "e_bc", "e_cd", "e_ar2", "e_br1", "e_dr1", "e_dr2"]


def _butterfly():
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


def test_criterion_7_lp_engine_sanity():
    t0 = time.time()
    relay = Network(("s", "m", "r"),
                    (Edge("e1", "s", "m", UNCAPPED), Edge("e2", "m", "r", UNCAPPED)))
    rconn = ConnectionRequirement(("U",), {"U": "s"}, {"U": ("r",)})
    ok = True
    for lam, expected in [(Fraction(1, 2), True), (Fraction(1), True),
                          (Fraction(3, 2), False), (Fraction(2), False)]:
        tup = RateCapacityTuple({"U": log2_units(lam)},
                                {"e1": log2_units(1), "e2": log2_units(1)})
        if lp_feasible(relay, rconn, tup).feasible != expected:
            ok = False
            print(f"criterion 7 failure: relay threshold at {lam}")

    net, conn = _butterfly()
    F2 = Alphabet(q=2, dim=1)
    code = NetworkCode(
        {"X": F2, "Y": F2, **{e: F2 for e in EDGE_IDS}},
        {
            "e_sa": LinearMap(2, [[1], [0]]), "e_sb": LinearMap(2, [[0], [1]]),
            "e_ac": LinearMap(2, [[1]]), "e_bc": LinearMap(2, [[1]]),
            "e_cd": LinearMap(2, [[1], [1]]),
            "e_ar2": LinearMap(2, [[1]]), "e_br1": LinearMap(2, [[1]]),
            "e_dr1": LinearMap(2, [[1]]), "e_dr2": LinearMap(2, [[1]]),
        },
        {
            ("r1", "X"): LinearMap(2, [[1], [1]]), ("r1", "Y"): LinearMap(2, [[1], [0]]),
            ("r2", "X"): LinearMap(2, [[1], [0]]), ("r2", "Y"): LinearMap(2, [[1], [1]]),
        },
    )
    ev = evaluate_code(net, conn, code)
    ok = ok and ev.zero_error
    one = log2_units(1)
    tup = RateCapacityTuple({"X": one, "Y": one}, {e: one for e in EDGE_IDS})
    ok = ok and alphabets_meet_tuple(net, conn, code, tup)
    # achievability implies LP feasibility; the code's induced entropy is the
    # exactly verified feasible point
    res = lp_feasible(net, conn, tup, ground_cap=11,
                      hint=ev.oracle.to_setfunction(max_ground=14))
    ok = ok and res.feasible
    report(7, ok, time.time() - t0, 60.0, "relay thresholds + butterfly")


def test_criterion_8_quasi_uniform_closure():
    t0 = time.time()
    ok = True
    count = 0
    for name, fam in subgroup_families():
        s = coset_support(fam)
        res = quasi_uniform_check(s)
        if not (res.ok and res.entropy.values == entropy_from_subgroups(fam).values):
            ok = False
            print(f"criterion 8 failure: group {name}")
            break
        count += 1
    if ok:
        for fam in itertools.chain(subspace_families_q2(), criterion_4_families()):
            s = coset_support(fam)
            res = quasi_uniform_check(s)
            if not (res.ok and res.entropy.values == entropy_from_subspaces(fam).values):
                ok = False
                print(f"criterion 8 failure: family {fam.members}")
                break
            count += 1
    report(8, ok, time.time() - t0, 60.0, f"{count} supports")
