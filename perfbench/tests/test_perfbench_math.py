"""Percentiles, spread, self time, max-flow, certificates and the exact
polymatroid oracle of the benchmark."""

import random
import statistics
from fractions import Fraction

import pytest

from perfbench import gen, oracles, stats
from perfbench.spans import Tracer, self_times


def test_percentile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile(range(1, 101), 90) == pytest.approx(90.1)


def test_spread_uses_exclusive_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.spread([2.0] * 10) == 0.0


def test_self_time_on_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_records_nesting_and_restores():
    class Box:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    tracer = Tracer()
    tracer.patch(Box, "inner", tracer.wrap("inner", vars(Box)["inner"]))
    tracer.patch(Box, "outer", tracer.wrap("outer", vars(Box)["outer"],
                                           lambda c, args, r: c.__setitem__("results", r)))
    with tracer.span("root"):
        assert Box().outer(3) == 8
    tracer.restore()
    assert [tracer.names[i] for i in tracer.name] == ["root", "outer", "inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert tracer.counters["results"] == 8
    assert all(t >= 0 for t in tracer.self_times())
    assert Box.inner.__name__ == "inner" and not hasattr(Box.inner, "__wrapped__")


def test_max_flow_on_hand_built_graphs():
    # two disjoint paths of capacity 2 and 3, plus a cross edge that adds 1
    edges = [("s", "a", 2), ("a", "t", 2), ("s", "b", 4), ("b", "t", 3), ("b", "a", 5)]
    assert oracles.max_flow(edges, "s", "t") == 5
    diamond = edges + [("a", "t", 1)]  # parallel edges add up
    assert oracles.max_flow(diamond, "s", "t") == 6
    assert oracles.max_flow([("s", "a", 3)], "s", "t") == 0  # unreachable sink
    # butterfly with unit edges: each receiver has min-cut 2
    butterfly = [("s", "a", 1), ("s", "b", 1), ("a", "c", 1), ("b", "c", 1), ("c", "d", 1),
                 ("a", "r2", 1), ("b", "r1", 1), ("d", "r1", 1), ("d", "r2", 1)]
    assert oracles.multicast_min_cut(butterfly, "s", ["r1", "r2"]) == 2
    assert oracles.multicast_min_cut(butterfly + [("s", "r1", 4)], "s", ["r1", "r2"]) == 2


def test_certificate_checker_accepts_the_true_sum_and_rejects_tampering():
    # I(1;2|3) = H(13) + H(23) - H(123) - H(3), elemental row submod(0, 1, {3})
    terms = {("1", "3"): Fraction(1), ("2", "3"): Fraction(1), ("1", "2", "3"): Fraction(-1),
             ("3",): Fraction(-1)}
    good = {("submod", (0, 1, 0b100)): Fraction(1)}
    assert oracles.certificate_holds(terms, 3, good)
    assert not oracles.certificate_holds(terms, 3, {("submod", (0, 1, 0b100)): Fraction(2)})
    assert not oracles.certificate_holds(terms, 3, {("submod", (0, 2, 0b010)): Fraction(1)})
    assert not oracles.certificate_holds(terms, 3, {**good, ("mono", (0,)): Fraction(-1)})
    assert not oracles.certificate_holds(terms, 3, {("submod", (0, 0, 0)): Fraction(1)})
    # a zero-weight extra row changes nothing
    assert oracles.certificate_holds(terms, 3, {**good, ("mono", (1,)): Fraction(0)})


def test_certificate_from_the_library_checks_and_tampered_copy_fails():
    from entronet.lpbound import InfoExpression, shannon_implies

    item = gen._implied_item(random.Random(5), 4)
    terms = {tuple(k): Fraction(v) for k, v in item["expect"]["terms"]}
    implied, cert = shannon_implies(InfoExpression.parse(item["input"]["text"]), 4)
    assert implied and oracles.certificate_holds(terms, 4, cert)
    key = next(iter(cert))
    tampered = dict(cert)
    tampered[key] = cert[key] + Fraction(1, 2)
    assert not oracles.certificate_holds(terms, 4, tampered)


def test_exact_sign_and_brute_force_polymatroid():
    assert oracles.sign({2: Fraction(3), 3: Fraction(-2)}) < 0  # 8 < 9
    assert oracles.sign({2: Fraction(2), 3: Fraction(-1)}) > 0  # 4 > 3
    assert oracles.sign({2: Fraction(1, 2), 3: Fraction(-1, 3)}) < 0  # 2^3 < 3^2
    assert oracles.sign({}) == 0
    two = oracles.log2_units
    assert oracles.is_polymatroid([two(0), two(1), two(1), two(2)], 2)
    assert not oracles.is_polymatroid([two(0), two(1), two(1), two(3)], 2)  # not submodular
    assert not oracles.is_polymatroid([two(0), two(2), two(1), two(1)], 2)  # not monotone


def test_generated_inputs_repeat_and_carry_their_verdicts():
    for workload in gen.PATTERN:
        first = gen.items(workload, 7, blocks=1)
        assert gen.digest(first) == gen.digest(gen.items(workload, 7, blocks=1))
        assert gen.digest(first) != gen.digest(gen.items(workload, 8, blocks=1))
    perturbed = [i for i in gen.items("witness", 3, blocks=1) if i["kind"] == "perturbed"]
    assert perturbed and not any(i["expect"]["polymatroid"] for i in perturbed)


def test_violating_polymatroids_violate_their_templates():
    labels = ["1", "2", "3", "4", "5"]
    order = ["4", "1", "5", "2"]
    for template, pair in ((gen.INGLETON, order[2:]), (gen.ZHANG_YEUNG, order[:2])):
        terms = gen._template_terms(template, dict(zip("abcd", order)))
        h = gen.zy_polymatroid(labels, order, pair)
        assert oracles.is_polymatroid(h, 5)
        assert oracles.sign(oracles.evaluate(terms, labels, h)) < 0


def test_subgroup_enumeration_is_complete():
    counts = {name: len(gen.subgroups(name)) for name in ("S4", "D4", "Q8", "A4", "2x2x2x2")}
    assert counts == {"S4": 30, "D4": 10, "Q8": 6, "A4": 10, "2x2x2x2": 67}
