import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (EDGE_IDS, all_subspaces, butterfly, chained_intersection, table_form,
                      wide_inner_code, xor_code)
from entronet import netmodel
from entronet.codegen import linear_code
from entronet.construct import build_gdagger
from entronet.exactlog import (SIGN_BIT_CAP, ZERO, LogScalar, entropy_of_counts, log2_units,
                               log_int_sign)
from entronet.ffield import GF
from entronet.groupchar import SubspaceFamily, entropy_from_subspaces
from entronet.netmodel import (
    Alphabet,
    ConnectionRequirement,
    Edge,
    EntropyOracle,
    LinearMap,
    Network,
    NetworkCode,
    RateCapacityTuple,
    ResourceError,
    MAX_CONE_TUPLES,
    StructuralError,
    TableMap,
    UNCAPPED,
    alphabets_meet_tuple,
    check_admissible,
    evaluate_code,
    kernels_of_linear_code,
    to_dot,
)


def test_butterfly_xor_is_zero_error():
    net, conn = butterfly()
    res = evaluate_code(net, conn, xor_code())
    assert res.zero_error and not res.failing_inputs


def test_butterfly_forwarding_only_x_fails():
    net, conn = butterfly()
    res = evaluate_code(net, conn, xor_code(middle=LinearMap(2, [[1], [0]])))
    assert not res.zero_error
    assert res.failing_inputs
    # some failing input is reported with its receiver and session
    src, r, s = res.failing_inputs[0]
    assert r in ("r1", "r2") and s in ("X", "Y") and len(src) == 2


def test_admissibility_thresholds():
    net, conn = butterfly()
    code = xor_code()
    one = log2_units(1)
    tup = RateCapacityTuple({"X": one, "Y": one}, {e: one for e in EDGE_IDS})
    assert check_admissible(net, conn, code, tup)
    # doubling a rate demand makes the same code inadmissible
    tup2 = RateCapacityTuple({"X": one * Fraction(2), "Y": one}, {e: one for e in EDGE_IDS})
    assert not check_admissible(net, conn, code, tup2)
    # halving the bottleneck capacity also fails
    caps = {e: one for e in EDGE_IDS}
    caps["e_cd"] = one * Fraction(1, 2)
    assert not check_admissible(net, conn, code, RateCapacityTuple({"X": one, "Y": one}, caps))


def test_induced_entropy_of_xor_code():
    net, conn = butterfly()
    res = evaluate_code(net, conn, xor_code())
    h = res.induced
    one = log2_units(1)
    assert h(["X"]) == one and h(["Y"]) == one
    assert h(["X", "Y"]) == one * Fraction(2)
    assert h(["e_cd"]) == one
    assert h(["X", "Y", "e_cd"]) == one * Fraction(2)  # e_cd = X + Y


def test_evaluation_is_refused_when_its_scope_tables_pass_the_cap(monkeypatch):
    net, conn = butterfly()
    # the linear xor code builds no table, so its tables are read off its
    # table form, which is tabulated
    res = evaluate_code(net, conn, table_form(net, conn, xor_code()))
    # e_cd reads both sessions, so its scope holds 2 * 2 tuples
    assert res.oracle.scopes["e_cd"] == ("X", "Y")
    assert res.oracle.tuples(res.oracle.scopes["e_cd"]) == len(res.oracle.arrays["e_cd"]) == 4
    # two 2-entry session tables and nine 4-entry edge tables: 40 entries,
    # while every demand's union holds 4 tuples
    assert sum(len(a) for a in res.oracle.arrays.values()) == 40
    monkeypatch.setattr(netmodel, "MAX_CONE_TUPLES", 40)
    assert evaluate_code(net, conn, xor_code()).zero_error
    monkeypatch.setattr(netmodel, "MAX_CONE_TUPLES", 39)
    with pytest.raises(ResourceError, match="scope tables of 40 entries"):
        evaluate_code(net, conn, xor_code())


# three variables over four outcomes whose joint has counts {2, 1, 1}: a
# mixed-radix code over alphabets of 2^31 * 2^34 * 2^34 would wrap in int64
WIDE = {"x": [2**30, 0, 2**30, 0], "y": [0] * 4, "z": [0, 2**33, 0, 0]}
WIDE_SIZES = {"x": 2**31, "y": 2**34, "z": 2**34}


def one_scope(arrays, sizes, total):
    """An oracle whose variables all read one session t of `total` symbols."""
    return EntropyOracle(arrays, {**sizes, "t": total}, {k: ("t",) for k in arrays})


def test_oracle_codes_of_wide_alphabets_do_not_wrap():
    arrays = {k: np.array(v, dtype=np.int64) for k, v in WIDE.items()}
    oracle = one_scope(arrays, WIDE_SIZES, 4)
    assert oracle.entropy(["x", "y", "z"]) == log2_units(Fraction(3, 2))
    assert oracle.entropy(["z", "x"]) == log2_units(Fraction(3, 2))


def test_evaluate_code_oracle_on_wide_edge_alphabets():
    """X reaches r on e0; e1..e3 carry WIDE to a node nobody decodes at."""
    net = Network(("s", "r", "u"), [Edge("e0", "s", "r", UNCAPPED)] + [
        Edge(f"e{i}", "s", "u", UNCAPPED) for i in (1, 2, 3)])
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    four = Alphabet(symbols=range(4))
    alph = {"X": four, "e0": four}
    enc = {"e0": TableMap(range(4))}
    for i, key in zip((1, 2, 3), "xyz"):
        alph[f"e{i}"] = Alphabet(q=2, dim=WIDE_SIZES[key].bit_length() - 1)
        enc[f"e{i}"] = TableMap(WIDE[key])
    ev = evaluate_code(net, conn, NetworkCode(alph, enc, {("r", "X"): TableMap(range(4))}))
    assert ev.zero_error
    assert ev.oracle.entropy(["e1", "e2", "e3"]) == log2_units(Fraction(3, 2))
    assert ev.induced(["e1", "e2", "e3", "e0"]) == log2_units(2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_entropy_matches_counting_tuples(data):
    total = data.draw(st.integers(1, 12))
    sizes = {k: data.draw(st.sampled_from([1, 3, 2**31, 2**34, 2**62 + 1, 2**70]))
             for k in "abcd"}
    arrays = {k: data.draw(st.lists(st.integers(0, min(n, 2**63) - 1),
                                    min_size=total, max_size=total))
              for k, n in sizes.items()}
    keys = data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6))
    oracle = one_scope({k: np.array(v, dtype=np.int64) for k, v in arrays.items()},
                       sizes, total)
    tuples = Counter(tuple(arrays[k][t] for k in keys) for t in range(total))
    assert oracle.entropy(keys) == entropy_of_counts(tuples.values())


def test_the_cap_bounds_each_cone_enumeration():
    """Y reaches r only through a constant edge, so r's tables are small but
    its cone holds both sessions: 2^26 source tuples, past the cap."""
    net = Network(("s", "t", "r"), (Edge("ex", "s", "r", UNCAPPED), Edge("ey", "t", "r", UNCAPPED)))
    conn = ConnectionRequirement(("X", "Y"), {"X": "s", "Y": "t"}, {"X": ("r",), "Y": ("r",)})
    big = Alphabet(symbols=range(1 << 13))
    code = NetworkCode(
        {"X": big, "Y": big, "ex": big, "ey": Alphabet(symbols=[0])},
        {"ex": TableMap(list(range(1 << 13))), "ey": TableMap([0] * (1 << 13))},
        {("r", "X"): TableMap(list(range(1 << 13))), ("r", "Y"): TableMap([0] * (1 << 13))},
    )
    assert (1 << 26) > MAX_CONE_TUPLES
    with pytest.raises(ResourceError):
        evaluate_code(net, conn, code)


def test_the_cap_is_checked_before_any_table_is_built(monkeypatch):
    """A 2^25-symbol vector session is refused before its linear encoder
    would be tabulated over 2^25 inputs."""
    def refuse(self, M):
        raise AssertionError("a table was built")

    monkeypatch.setattr(GF, "image_table", refuse)
    net = Network(("s", "r"), (Edge("e", "s", "r", UNCAPPED),))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    vec = Alphabet(q=2, dim=25)
    ident = LinearMap(2, [[int(i == j) for j in range(25)] for i in range(25)])
    code = NetworkCode({"X": vec, "e": vec}, {"e": ident}, {("r", "X"): ident})
    with pytest.raises(ResourceError):
        evaluate_code(net, conn, code)


def test_a_linear_table_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    def refuse(self, M):
        raise AssertionError(f"a table of {2 ** len(M)} entries was asked for")

    monkeypatch.setattr(GF, "image_table", refuse)
    with pytest.raises(ResourceError, match="linear map"):
        evaluate_code(*wide_inner_code())


@pytest.mark.parametrize("table", [[0, 1, 1], [0, 1, 1, 0, 1], [0, 1, 2, 0], [0, 1, -1, 0]])
def test_a_table_off_its_feed_domain_or_alphabet_is_refused(table):
    # e_cd reads e_ac and e_bc: four feed tuples into a binary alphabet
    with pytest.raises(StructuralError, match="encoder for e_cd"):
        evaluate_code(*butterfly(), xor_code(middle=TableMap(table)))


def test_kernels_of_xor_code():
    net, conn = butterfly()
    ker = kernels_of_linear_code(net, conn, xor_code())
    # variables ordered sessions then edges, both sorted
    labels = sorted(["X", "Y"]) + sorted(EDGE_IDS)
    i = labels.index("e_cd")
    # global map of the middle edge is [1 1]^T: kernel is <(1,1)>
    assert ker.members[i] == ((1, 1),)
    ix, iy = labels.index("X"), labels.index("Y")
    assert ker.members[ix] == ((0, 1),)  # X = first source coordinate
    assert ker.members[iy] == ((1, 0),)


def test_kernel_annihilators_of_a_map_with_dependent_columns():
    """The middle map [1 1; 1 1] has rank 1: its kernel is <(1,1)>, and the
    annihilator still has one column per dimension it removes."""
    net, conn = butterfly()
    ker = kernels_of_linear_code(net, conn, xor_code(LinearMap(2, [[1, 1], [1, 1]])))
    i = (sorted(["X", "Y"]) + sorted(EDGE_IDS)).index("e_cd")
    assert ker.members[i] == ((1, 1),)
    assert ker.annihilator(i) == [[1], [1]]
    assert ker.entropy_at([i]) == log2_units(1)


def test_cycle_detection_and_validation():
    with pytest.raises(StructuralError):
        Network(("a", "b"), (Edge("e1", "a", "b", UNCAPPED), Edge("e2", "b", "a", UNCAPPED))).edges_topo()
    net, conn = butterfly()
    conn.validate_against(net)
    bad = ConnectionRequirement(("X",), {"X": "nowhere"}, {"X": ("r1",)})
    with pytest.raises(StructuralError):
        bad.validate_against(net)


def session_named_like_its_edge(eid="X"):
    """The chain s -> r over edge `eid` with session X, and a code whose edge
    sends 0 whatever X is while the decoder reads the edge as X."""
    net = Network(("s", "r"), (Edge(eid, "s", "r", UNCAPPED),))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    bit = Alphabet(symbols=[0, 1])
    code = NetworkCode({"X": bit, eid: bit}, {eid: TableMap([0, 0])},
                       {("r", "X"): TableMap([0, 1])})
    return net, conn, code


def test_a_session_label_that_is_an_edge_id_is_refused():
    assert not evaluate_code(*session_named_like_its_edge("e")).zero_error
    with pytest.raises(StructuralError, match="session label X is also an edge id"):
        evaluate_code(*session_named_like_its_edge())


def test_decoder_tables_are_checked_like_encoder_tables():
    net, conn = butterfly()
    code = xor_code()
    code.decoders[("r1", "X")] = TableMap([0, 1])  # r1 reads two bits: 4 entries
    with pytest.raises(StructuralError, match="decoder for session X at receiver r1"):
        evaluate_code(net, conn, code)
    code.decoders[("r1", "X")] = TableMap([0, 1, 2, 0])  # X has 2 symbols
    with pytest.raises(StructuralError, match="outside its alphabet"):
        evaluate_code(net, conn, code)


@pytest.mark.parametrize("obj", [
    {"kind": "table", "table": [0, 1.7, 1, 0]},  # would truncate to 1
    {"kind": "table", "table": [0, "1", 1, 0]},
    {"kind": "table", "table": [[0, 1], [1, 0]]},
    {"kind": "linear", "q": 2, "matrix": [[1], [1, 0]]},  # ragged
    {"kind": "linear", "q": 2, "matrix": [[5], [1]]},
    {"kind": "linear", "q": 2, "matrix": [[-1], [1]]},  # would read as 1
    {"kind": "linear", "q": 2, "matrix": [[1.0], [1]]},
])
def test_code_from_json_rejects_a_malformed_map(obj):
    doc = xor_code().to_json()
    assert evaluate_code(*butterfly(), NetworkCode.from_json(doc)).zero_error
    doc["encoders"]["e_cd"] = obj
    with pytest.raises(StructuralError):
        NetworkCode.from_json(doc)


@pytest.mark.parametrize("middle, alphabet", [
    (LinearMap(2, [[1, 1], [1, 1]]), Alphabet(q=2, dim=1)),  # two outputs into F_2^1
    (LinearMap(2, [[1], [1]]), Alphabet(q=3, dim=1)),
    (LinearMap(2, [[1], [1]]), Alphabet(symbols=[0, 1])),
])
def test_a_linear_map_must_map_into_its_alphabet(middle, alphabet):
    net, conn = butterfly()
    code = xor_code(middle)
    code.alphabets["e_cd"] = alphabet
    with pytest.raises(StructuralError, match="encoder for e_cd"):
        evaluate_code(net, conn, code)


def test_from_function_puts_the_first_feed_most_significant():
    syms = Alphabet(symbols=["u", "v", "w"])
    vecs = Alphabet(q=2, dim=2)
    out = Alphabet(symbols=list(range(12)))
    tm = TableMap.from_function(lambda a, v: 4 * "uvw".index(a) + 2 * v[0] + v[1], [syms, vecs], out)
    assert tm.table.tolist() == list(range(12))


# --- differential test of the cone evaluation against every source tuple ---


@st.composite
def random_codes(draw):
    """A random DAG on nodes n0 < n1 < ... (edges only go up), 1-3 sessions
    with random origins and receivers (which may miss a session's origin),
    random encoder tables, and decoders that are either random or the best
    possible table perturbed at one entry."""
    k = draw(st.integers(2, 5))
    nodes = [f"n{i}" for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=7))
    ids = draw(st.permutations(range(len(chosen))))  # ids sort apart from topo order
    edges = [Edge(f"e{ids[m]}", nodes[i], nodes[j], UNCAPPED) for m, (i, j) in enumerate(chosen)]
    sess = ["A", "B", "C"][: draw(st.integers(1, 3))]
    origin = {s: draw(st.sampled_from(nodes)) for s in sess}
    receivers = {s: draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True))
                 for s in sess}
    size = {s: draw(st.integers(1, 3)) for s in sess}
    size.update({e.id: draw(st.integers(1, 3)) for e in edges})
    alph = {key: Alphabet(symbols=[(key, i) for i in range(n)]) for key, n in size.items()}

    def feeds(node):
        return ([s for s in sess if origin[s] == node]
                + sorted(e.id for e in edges if e.head == node))

    def domain(node):
        n = 1
        for f in feeds(node):
            n *= size[f]
        return n

    enc = {e.id: TableMap(draw(st.lists(st.integers(0, size[e.id] - 1),
                                        min_size=domain(e.tail), max_size=domain(e.tail))))
           for e in edges}
    spec = (nodes, edges, sess, origin, feeds)
    partial = NetworkCode(alph, enc, {})
    dec = {}
    for s in sess:
        for r in receivers[s]:
            if draw(st.booleans()):
                table = draw(st.lists(st.integers(0, size[s] - 1),
                                      min_size=domain(r), max_size=domain(r)))
            else:
                table = [0] * domain(r)
                for src in itertools.product(*(range(size[t]) for t in sess)):
                    table[reference_values(spec, partial, src)[("in", r)]] = src[sess.index(s)]
                if draw(st.booleans()):
                    at = draw(st.integers(0, domain(r) - 1))
                    table[at] = draw(st.integers(0, size[s] - 1))
            dec[(r, s)] = TableMap(table)
    net = Network(nodes, edges)
    conn = ConnectionRequirement(sess, origin, receivers)
    return net, conn, NetworkCode(alph, enc, dec), spec


def reference_values(spec, code, src):
    """Walk one full source tuple (symbol indices, sessions in order)
    through the tables: edge values, and each node's flat decoder input
    under the key ("in", node)."""
    nodes, edges, sess, origin, feeds = spec
    values = dict(zip(sess, src))

    def flat(node):
        i = 0
        for f in feeds(node):
            i = i * code.alphabets[f].size + values[f]
        return i

    for e in sorted(edges, key=lambda e: nodes.index(e.tail)):
        values[e.id] = int(code.encoders[e.id].table[flat(e.tail)])
    for node in nodes:
        values[("in", node)] = flat(node)
    return values


def reference_cone(spec, node):
    """`node` and every node with a path into it."""
    nodes, edges = spec[0], spec[1]
    cone = {node}
    for e in sorted(edges, key=lambda e: -nodes.index(e.head)):
        if e.head in cone:
            cone.add(e.tail)
    return cone


def reference_wrong(spec, code, src):
    """(receiver, session) pairs decoded wrongly on source tuple `src`."""
    sess = spec[2]
    values = reference_values(spec, code, src)
    return {(r, s) for (r, s), m in code.decoders.items()
            if m.table[values[("in", r)]] != src[sess.index(s)]}


@settings(max_examples=300, deadline=None)
@given(random_codes())
def test_cone_evaluation_matches_every_source_tuple(case):
    """The verdict and each reported input against every source tuple; and
    under caps just below and at the largest demand's union (the sessions
    originating in the receiver's cone, plus the demanded one) and the
    entries of all scope tables, evaluation is refused exactly when one of
    them passes the cap, and reports the same inputs when it is not."""
    net, conn, code, spec = case
    sess = spec[2]
    res = evaluate_code(net, conn, code)
    every = itertools.product(*(range(code.alphabets[s].size) for s in sess))
    assert res.zero_error == (not any(reference_wrong(spec, code, src) for src in every))
    assert bool(res.failing_inputs) == (not res.zero_error)
    for src_symbols, r, s in res.failing_inputs:
        src = tuple(code.alphabets[t].index(x) for t, x in zip(sess, src_symbols))
        assert (r, s) in reference_wrong(spec, code, src)
        # sessions the receiver neither sees nor decodes are reported at
        # their first symbol
        cone = reference_cone(spec, r)
        assert all(i == 0 for t, i in zip(sess, src)
                   if spec[3][t] not in cone and r not in conn.receivers[t])

    def tuples(sessions):
        return math.prod(code.alphabets[t].size for t in sessions)

    unions = [{t for t in sess if spec[3][t] in reference_cone(spec, r)} | {s}
              for s in sess for r in conn.receivers[s]]
    largest = max(tuples(u) for u in unions)
    entries = sum(tuples(reference_scope(spec, k)) for k in sess + [e.id for e in spec[1]])
    for bound in {largest - 1, largest, entries - 1, entries}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netmodel, "MAX_CONE_TUPLES", bound)
            if largest > bound or entries > bound:
                with pytest.raises(ResourceError):
                    evaluate_code(net, conn, code)
            else:
                assert evaluate_code(net, conn, code).failing_inputs == res.failing_inputs


def reference_scope(spec, key):
    """The sessions `key` reads: a session itself, and for an edge those
    originating at its tail or at a node with a path into the tail."""
    _, edges, sess, origin, _ = spec
    edge = next((e for e in edges if e.id == key), None)
    if edge is None:
        return {key}
    cone = reference_cone(spec, edge.tail)
    return {s for s in sess if origin[s] in cone}


@settings(max_examples=300, deadline=None)
@given(random_codes(), st.one_of(st.just(1 << 20), st.integers(1, 27)), st.data())
def test_scoped_oracle_matches_counting_every_source_tuple(case, bound, data):
    """H(sel) counted over the sessions that `sel` reads equals H(sel)
    counted over every source tuple, for keys in any receiver's cone or in
    none.  Each array holds one value per tuple of its scope, and under a
    query bound of `bound` a query whose sessions pass it is refused."""
    net, conn, code, spec = case
    sess, edges = spec[2], spec[1]
    size = {k: a.size for k, a in code.alphabets.items()}
    every = [reference_values(spec, code, src)
             for src in itertools.product(*(range(size[s]) for s in sess))]
    labels = sess + [e.id for e in edges]
    scope = {k: reference_scope(spec, k) for k in labels}

    def tuples(sessions):
        return math.prod(size[s] for s in sessions)

    oracle = evaluate_code(net, conn, code).oracle
    assert {k: set(oracle.scopes[k]) for k in labels} == scope
    assert all(len(oracle.arrays[k]) == tuples(scope[k]) for k in labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "MAX_QUERY_TUPLES", bound)
        for _ in range(5):
            sel = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=5))
            if tuples(set().union(*(scope[k] for k in sel))) > bound:
                with pytest.raises(ResourceError):
                    oracle.entropy(sel)
            else:
                counts = Counter(tuple(v[k] for k in sel) for v in every)
                assert oracle.entropy(sel) == entropy_of_counts(counts.values())


def test_table_map_round_trip():
    a2 = Alphabet(symbols=["u", "v"])
    tm = TableMap.from_function(lambda x, y: "u" if x == y else "v", [a2, a2], a2)
    assert tm.table.shape == (4,)
    j = tm.to_json()
    assert j["kind"] == "table"


def test_json_round_trips():
    net, conn = butterfly()
    assert Network.from_json(net.to_json()).to_json() == net.to_json()
    assert ConnectionRequirement.from_json(conn.to_json()).to_json() == conn.to_json()
    code = xor_code()
    code2 = NetworkCode.from_json(code.to_json())
    assert code2.to_json() == code.to_json()
    res = evaluate_code(net, conn, code2)
    assert res.zero_error
    one = log2_units(1)
    tup = RateCapacityTuple({"X": one, "Y": one}, {e: one for e in EDGE_IDS})
    assert RateCapacityTuple.from_json(tup.to_json()) == tup
    assert tup.cap("uncapacitated-edge") is UNCAPPED


def test_to_dot_renders_all_parts():
    net, conn = butterfly()
    dot = to_dot(net, conn)
    assert dot.startswith("digraph")
    for node in net.nodes:
        assert f'"{node}"' in dot
    assert "e_cd" in dot


def reference_alphabets_meet_tuple(net, conn, code, tup):
    """The LogScalar formulation: log|A| minus the capacity or rate, its
    sign decided by comparing the two products at any size."""
    def sign(x):
        den = math.lcm(*(q.denominator for q in x.terms.values()))
        pos = neg = 1
        for p, q in x.terms.items():
            a = q.numerator * (den // q.denominator)
            if a > 0:
                pos *= p**a
            else:
                neg *= p**-a
        return (pos > neg) - (pos < neg)

    for e in net.edges:
        cap = tup.cap(e.id)
        if cap is not UNCAPPED and sign(code.alphabets[e.id].log_size() - cap) > 0:
            return False
    return all(sign(code.alphabets[s].log_size() - tup.rates.get(s, ZERO)) >= 0
               for s in conn.sessions)


@st.composite
def alphabet_bounds(draw, size):
    """A nonnegative bound near log(size): (1/k)·log(size^k + delta), whose
    primes are those of size^k + delta; log 2 and log 3 with either sign; or
    round(den·log2(size) + delta)/den · log 2 with den past the bit cap."""
    kind = draw(st.sampled_from(["near", "mixed", "past-cap"]))
    delta = draw(st.integers(-2, 2))
    if kind == "near":
        k = draw(st.integers(1, 4))
        return LogScalar.log_int(max(1, size**k + delta)) * Fraction(1, k)
    if kind == "mixed":
        x = LogScalar({2: Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7))),
                       3: Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7)))})
        return x if x.sign() >= 0 else -x
    den = draw(st.integers(SIGN_BIT_CAP, 2 * SIGN_BIT_CAP))
    return log2_units(Fraction(max(0, round(den * math.log2(size)) + delta), den))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_alphabets_meet_tuple_matches_the_logscalar_formulation(data):
    """One session X on one edge e: the rate of X and the capacity of e are
    fractional, mixed-prime, exactly log|A| or just either side of it."""
    net = Network(["s", "r"], [Edge("e", "s", "r", UNCAPPED)])
    conn = ConnectionRequirement(["X"], {"X": "s"}, {"X": ["r"]})
    alphabets = {}
    for key in ("X", "e"):
        if data.draw(st.booleans()):
            alphabets[key] = Alphabet(symbols=range(data.draw(st.integers(1, 40))))
        else:
            alphabets[key] = Alphabet(q=data.draw(st.sampled_from([2, 3, 5])),
                                      dim=data.draw(st.integers(1, 4)))
    code = NetworkCode(alphabets, {}, {})
    lam = data.draw(alphabet_bounds(alphabets["X"].size))
    caps = {"e": data.draw(alphabet_bounds(alphabets["e"].size))} if data.draw(st.booleans()) else {}
    tup = RateCapacityTuple({"X": lam}, caps)
    assert alphabets_meet_tuple(net, conn, code, tup) == \
        reference_alphabets_meet_tuple(net, conn, code, tup)


# --- once per distinct (alphabet size, capacity) pair ---


def per_edge_alphabets_meet_tuple(net, conn, code, tup):
    """`alphabets_meet_tuple` with one `log_int_sign` per capacitated edge."""
    for e in net.edges:
        cap = tup.cap(e.id)
        if cap is not UNCAPPED and log_int_sign(code.alphabets[e.id].size, cap) > 0:
            return False
    return all(log_int_sign(code.alphabets[s].size, tup.rates.get(s, ZERO)) >= 0
               for s in conn.sessions)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_alphabets_meet_tuple_compares_each_distinct_pair_once(data):
    """Up to 12 parallel edges whose alphabets and capacities repeat, with
    fractional and mixed-prime capacities and rates, and a zero capacity
    on an id that names no edge, which is ignored: the verdict of the
    per-edge form, with one comparison per distinct pair and session."""
    k = data.draw(st.integers(1, 12))
    net = Network(["s", "r"], [Edge(f"e{i}", "s", "r", UNCAPPED) for i in range(k)])
    conn = ConnectionRequirement(["X", "Y"], {"X": "s", "Y": "s"}, {"X": ["r"], "Y": ["r"]})
    pool = [Alphabet(symbols=range(data.draw(st.integers(1, 40)))) if data.draw(st.booleans())
            else Alphabet(q=data.draw(st.sampled_from([2, 3, 5])), dim=data.draw(st.integers(1, 4)))
            for _ in range(data.draw(st.integers(1, 3)))]
    alphabets = {key: data.draw(st.sampled_from(pool))
                 for key in ["X", "Y"] + [e.id for e in net.edges]}
    bounds = [data.draw(alphabet_bounds(data.draw(st.sampled_from(pool)).size))
              for _ in range(data.draw(st.integers(1, 3)))]
    caps = {e.id: data.draw(st.sampled_from(bounds)) for e in net.edges if data.draw(st.booleans())}
    caps["nowhere"] = ZERO
    rates = {s: data.draw(alphabet_bounds(alphabets[s].size)) for s in ("X", "Y")}
    code = NetworkCode(alphabets, {}, {})
    tup = RateCapacityTuple(rates, caps)
    calls = []

    def counted(size, bound):
        calls.append((size, bound))
        return log_int_sign(size, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "log_int_sign", counted)
        got = alphabets_meet_tuple(net, conn, code, tup)
    assert got == per_edge_alphabets_meet_tuple(net, conn, code, tup) == \
        reference_alphabets_meet_tuple(net, conn, code, tup)
    # each distinct edge pair once, then each session once, until one fails
    pairs = {(alphabets[e].size, c) for e, c in caps.items() if e != "nowhere"}
    assert len(calls) == len(pairs) + 2 if got else len(calls) <= len(pairs) + 2


# --- differential test of the global-map path against the table path ---


_GDAGGER = {}
_SUBSPACES = {}


def _q_butterfly(q, rng):
    """The butterfly code over F_q with e_cd = aX + bY for random nonzero a
    and b, and each receiver solving for the session it lacks."""
    gf = GF(q)
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    binary = xor_code()
    F = Alphabet(q=q, dim=1)
    enc = {e: LinearMap(q, m.matrix) for e, m in binary.encoders.items()}
    enc["e_cd"] = LinearMap(q, [[a], [b]])
    # r1 reads (e_br1, e_dr1) = (Y, aX + bY), r2 reads (e_ar2, e_dr2) = (X, aX + bY)
    dec = {
        ("r1", "X"): LinearMap(q, [[gf.mul(gf.inv(a), gf.neg(b))], [gf.inv(a)]]),
        ("r1", "Y"): LinearMap(q, [[1], [0]]),
        ("r2", "X"): LinearMap(q, [[1], [0]]),
        ("r2", "Y"): LinearMap(q, [[gf.mul(gf.inv(b), gf.neg(a))], [gf.inv(b)]]),
    }
    return NetworkCode({k: F for k in binary.alphabets}, enc, dec)


def _random_matrix(rng, q, rows, cols):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _random_butterfly(q, rng):
    """Random dims 0..2 on every session and edge, and random matrices of
    the shapes they imply."""
    net, conn = butterfly()
    alph = {k: Alphabet(q=q, dim=rng.randint(0, 2)) for k in ["X", "Y"] + EDGE_IDS}

    def shaped(feeds, out):
        return LinearMap(q, _random_matrix(rng, q, sum(alph[f].dim for f in feeds), alph[out].dim))

    enc = {e.id: shaped(netmodel.edge_feeds(net, conn, e), e.id) for e in net.edges}
    dec = {(r, s): shaped(netmodel.decoder_feeds(net, conn, r), s) for r, s in conn.demands()}
    return NetworkCode(alph, enc, dec)


@st.composite
def linear_codes(draw):
    """A linear code over q in {2, 3, 4, 5}: on the butterfly, the q-ary
    butterfly code or one of random dimensions (0-dim alphabets included);
    on G†(2) or G†(3), `linear_code` of a random family with a zero
    intersection.  Then at most one change: a decoder or an encoder
    replaced by a random matrix of its shape, an alphabet's dimension
    moved by one, or a row dropped from or added to a map."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    rng = draw(st.randoms(use_true_random=False))
    where = draw(st.sampled_from(["G3", "G2", "random butterfly", "butterfly"]))
    if where.endswith("butterfly"):
        net, conn = butterfly()
        code = _q_butterfly(q, rng) if where == "butterfly" else _random_butterfly(q, rng)
    else:
        N = int(where[1])
        n = draw(st.integers(1, 2 if q <= 3 or N == 2 else 1))
        subs = _SUBSPACES.setdefault((q, n), all_subspaces(q, n))
        fam = SubspaceFamily(q, n, [draw(st.sampled_from(subs)) for _ in range(N)])
        assume(not chained_intersection(fam, range(N)))
        lay = _GDAGGER.setdefault(N, build_gdagger(N))
        net, conn = lay.network, lay.conn
        code = linear_code(fam, lay)
    change = draw(st.sampled_from(["none", "decoder", "encoder", "out_dim", "in_dim"]))
    if change in ("decoder", "encoder", "in_dim"):
        maps = {"decoder": code.decoders, "encoder": code.encoders}.get(change) \
            or draw(st.sampled_from([code.encoders, code.decoders]))
        key = draw(st.sampled_from(sorted(maps)))
        m = maps[key]
        if change == "in_dim":
            rows = [list(r) for r in m.matrix]
            if rows and draw(st.booleans()):
                rows = rows[:-1]
            else:
                rows += _random_matrix(rng, q, 1, m.out_dim)
            maps[key] = LinearMap(q, rows)
        else:
            maps[key] = LinearMap(q, _random_matrix(rng, q, m.in_dim, m.out_dim))
    elif change == "out_dim":
        key = draw(st.sampled_from(sorted(code.alphabets)))
        a = code.alphabets[key]
        dim = max(0, a.dim + draw(st.sampled_from([-1, 1])))
        code.alphabets = {**code.alphabets, key: Alphabet(q=q, dim=dim)}
    return net, conn, code


def _outcome(net, conn, code):
    try:
        return evaluate_code(net, conn, code)
    except (StructuralError, ResourceError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _entropy(oracle, sel):
    try:
        return oracle.entropy(sel).to_json()
    except ResourceError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(linear_codes(), st.data())
def test_global_maps_decide_as_the_tables_do(case, data):
    """A linear code and its table form (`table_form`), which takes the
    table path: the same verdict and failing inputs, or the same refusal,
    under the default cap or a small one; and the same entropies on random
    subsets, or the same refusal, under the default query bound or a small
    one.  A zero-error linear code under the default cap builds no table."""
    net, conn, code = case
    ref = table_form(net, conn, code)
    bound = data.draw(st.one_of(st.just(MAX_CONE_TUPLES), st.integers(1, 3000)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "MAX_CONE_TUPLES", bound)
        got, want = _outcome(net, conn, code), _outcome(net, conn, ref)
    if isinstance(got, str) and "linear map tables" in got:
        return  # the table form holds fewer LinearMaps, so this cap counts fewer entries
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert (got.zero_error, got.failing_inputs) == (want.zero_error, want.failing_inputs)
    if got.zero_error and bound == MAX_CONE_TUPLES:
        assert not got.oracle.arrays
    labels = list(conn.sessions) + [e.id for e in net.edges]
    query_bound = data.draw(st.one_of(st.just(1 << 20), st.integers(1, 700)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "MAX_QUERY_TUPLES", query_bound)
        for _ in range(6):
            sel = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=5))
            assert _entropy(got.oracle, sel) == _entropy(want.oracle, sel)


def test_a_zero_error_linear_code_builds_no_table(monkeypatch):
    """Evaluating the linear code of three lines of F_2^2 on G†(3) and
    reading its session entropies asks `GF.image_table` for nothing; with
    one decoder changed the same code is tabulated."""
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    lay = build_gdagger(3)
    code = linear_code(fam, lay)
    calls = []
    image_table = GF.image_table
    monkeypatch.setattr(GF, "image_table", lambda self, M: calls.append(M) or image_table(self, M))
    ev = evaluate_code(lay.network, lay.conn, code)
    assert ev.zero_error and not ev.oracle.arrays
    h = entropy_from_subspaces(fam)
    assert [ev.oracle.entropy([lay.session_labels[m]]) for m in range(1, 8)] == h.values[1:]
    assert calls == []
    key = sorted(code.decoders)[0]
    m = code.decoders[key]
    code.decoders[key] = LinearMap(2, [[0] * m.out_dim for _ in range(m.in_dim)])
    assert not evaluate_code(lay.network, lay.conn, code).zero_error
    assert calls


def test_a_map_with_no_input_rows_is_the_zero_map_into_its_alphabet():
    """e0 leaves a node with no feeds, so its encoder has no rows and sends
    the zero vector of F_3^2; r reads it before e1, which carries X.  The
    global maps keep e0's two zero columns, so the decoder reading e1 holds
    without a table, and the entropies are those of the table form."""
    net = Network(("s", "z", "r"), (Edge("e0", "z", "r", UNCAPPED), Edge("e1", "s", "r", UNCAPPED)))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    code = NetworkCode(
        {"X": Alphabet(q=3, dim=1), "e0": Alphabet(q=3, dim=2), "e1": Alphabet(q=3, dim=1)},
        {"e0": LinearMap(3, []), "e1": LinearMap(3, [[1]])},
        {("r", "X"): LinearMap(3, [[0], [0], [1]])},
    )
    ev = evaluate_code(net, conn, code)
    assert ev.zero_error and not ev.oracle.arrays
    ref = evaluate_code(net, conn, table_form(net, conn, code))
    assert ref.zero_error and ref.oracle.arrays
    for sel in (["e0"], ["e1"], ["e0", "e1"], ["X", "e0"]):
        assert ev.oracle.entropy(sel) == ref.oracle.entropy(sel)
