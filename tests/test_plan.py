"""The structure a network shares with its capacitated copies, and the plan
`evaluate_code` keeps on it for one connection requirement."""

import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_subspaces, chained_intersection, random_integer_polymatroid
from entronet import netmodel
from entronet.cli import run
from entronet.codegen import linear_code, quasi_uniform_code
from entronet.construct import build_gdagger, capacitated_network, rate_capacity
from entronet.groupchar import SubspaceFamily, coset_support, entropy_from_subspaces
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
    check_admissible,
    edge_feeds,
    evaluate_code,
    kernels_of_linear_code,
)

_LAYOUTS = {}
_SUBSPACES = {}


def layout(N):
    return _LAYOUTS.setdefault(N, build_gdagger(N))


def outcome(net, conn, code):
    try:
        ev = evaluate_code(net, conn, code)
    except (StructuralError, ResourceError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return (ev.zero_error, ev.failing_inputs), ev.oracle


def entropy(oracle, sel):
    try:
        return oracle.entropy(sel).to_json()
    except ResourceError as exc:
        return str(exc)


@st.composite
def layout_codes(draw):
    """On G†(2) or G†(3): the quasi-uniform code of a random q=2 subspace
    family's coset support, or the linear code of a random family over
    q in {2, 3} with a zero intersection; the tuple of the family's entropy
    function; and at most one decoder entry changed (a table entry or a
    matrix entry, moved by one modulo its range)."""
    N = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["qu", "linear"]))
    q = 2 if kind == "qu" else draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3 if q == 2 else 2))
    subs = _SUBSPACES.setdefault((q, n), all_subspaces(q, n))
    fam = SubspaceFamily(q, n, [draw(st.sampled_from(subs)) for _ in range(N)])
    lay = layout(N)
    if kind == "qu":
        code = quasi_uniform_code(coset_support(fam), lay)
    else:
        assume(not chained_intersection(fam, range(N)))
        code = linear_code(fam, lay)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(code.decoders)))
        m = code.decoders[key]
        if isinstance(m, TableMap):
            table = m.table.copy()
            i = draw(st.integers(0, len(table) - 1))
            table[i] = (table[i] + 1) % code.alphabets[key[1]].size
            code.decoders[key] = TableMap(table)
        elif m.matrix and m.out_dim:
            rows = [list(r) for r in m.matrix]
            i, j = draw(st.integers(0, m.in_dim - 1)), draw(st.integers(0, m.out_dim - 1))
            rows[i][j] = (rows[i][j] + 1) % q
            code.decoders[key] = LinearMap(q, rows)
    return lay, code, rate_capacity(entropy_from_subspaces(fam), lay), kind


@settings(derandomize=True, max_examples=120, deadline=None)
@given(layout_codes(), st.data())
def test_a_capacitated_copy_is_the_network_built_from_its_edges(case, data):
    """`capacitated_network`, which shares the layout's structure and kept
    plan, against a network built afresh from the same edges, evaluated
    under a copy of the requirement: the same network, verdict, failing
    inputs, entropies on random subsets and, for a linear code, kernels."""
    lay, code, tup, kind = case
    shared = capacitated_network(lay, tup)
    fresh = Network(lay.network.nodes,
                    [Edge(e.id, e.tail, e.head, tup.cap(e.id)) for e in lay.network.edges])
    conn = ConnectionRequirement.from_json(lay.conn.to_json())
    assert shared.to_json() == fresh.to_json()
    assert shared.edges_topo() == fresh.edges_topo()
    for node in lay.network.nodes:
        assert shared.in_edges(node) == fresh.in_edges(node)
    got, oracle = outcome(shared, lay.conn, code)
    want, ref = outcome(fresh, conn, code)
    assert got == want
    if oracle is not None:
        labels = list(conn.sessions) + [e.id for e in fresh.edges]
        for _ in range(5):
            sel = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=5))
            assert entropy(oracle, sel) == entropy(ref, sel)
    if kind == "linear" and isinstance(got, tuple) and got[0]:
        assert (kernels_of_linear_code(shared, lay.conn, code).members
                == kernels_of_linear_code(fresh, conn, code).members)


def two_origins():
    """s -> r over e1 and t -> r over e2, each edge forwarding its tail's one
    bit, and decoders reading X off e1 and Y off e2 (r's feeds are (e1, e2)).
    Under `right` X starts at s and Y at t, so the code is zero-error; under
    `swapped` they start the other way round, so both demands fail."""
    net = Network(("s", "t", "r"), (Edge("e1", "s", "r", UNCAPPED), Edge("e2", "t", "r", UNCAPPED)))
    right = ConnectionRequirement(("X", "Y"), {"X": "s", "Y": "t"}, {"X": ("r",), "Y": ("r",)})
    swapped = ConnectionRequirement(("X", "Y"), {"X": "t", "Y": "s"}, {"X": ("r",), "Y": ("r",)})
    bit = Alphabet(symbols=[0, 1])
    code = NetworkCode({k: bit for k in ("X", "Y", "e1", "e2")},
                       {"e1": TableMap([0, 1]), "e2": TableMap([0, 1])},
                       {("r", "X"): TableMap([0, 0, 1, 1]), ("r", "Y"): TableMap([0, 1, 0, 1])})
    return net, right, swapped, code


def test_one_network_under_two_requirements_gets_each_its_own_verdict():
    net, right, swapped, code = two_origins()
    nowhere = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("nowhere",)})
    want = {id(c): outcome(Network.from_json(net.to_json()), c, code)[0] for c in (right, swapped)}
    assert want[id(right)] == (True, [])
    assert not want[id(swapped)][0] and want[id(swapped)][1]
    for _ in range(3):
        for conn in (right, swapped, nowhere, right, right, swapped):
            if conn is nowhere:
                with pytest.raises(StructuralError, match="receiver nowhere"):
                    evaluate_code(net, conn, code)
                continue
            assert outcome(net, conn, code)[0] == want[id(conn)]
            assert edge_feeds(net, conn, net.edge("e1")) == (("X",) if conn is right else ("Y",))


def test_one_plan_serves_every_capacitated_copy_of_a_layout(monkeypatch):
    built = []

    class Spy(netmodel._Plan):
        def __init__(self, net, conn):
            built.append(conn)
            super().__init__(net, conn)

    monkeypatch.setattr(netmodel, "_Plan", Spy)
    lay = build_gdagger(2)
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),)))
    code = quasi_uniform_code(coset_support(fam), lay)
    rng = random.Random(7)
    for _ in range(50):
        tup = rate_capacity(random_integer_polymatroid(rng, 2), lay)
        net = capacitated_network(lay, tup)
        assert evaluate_code(net, lay.conn, code).zero_error
        check_admissible(net, lay.conn, code, tup)
    assert built == [lay.conn]


# ---------------------------------------------------------------------------
# the order in which maps are refused


def qu_code():
    """The quasi-uniform code of two lines of F_2^2 on G†(2) (every map a
    table into a symbol alphabet), and its encoders in check order."""
    lay = layout(2)
    code = quasi_uniform_code(coset_support(SubspaceFamily(2, 2, (((1, 0),), ((0, 1),)))), lay)
    return lay, code, [e.id for e in lay.network.edges_topo()]


def plant(code, where, fault):
    """Break the encoder of edge `where`, or the decoder `where` = (r, s),
    and return the message `evaluate_code` refuses it with."""
    maps, out, what = ((code.decoders, where[1], f"decoder for session {where[1]} at receiver {where[0]}")
                       if isinstance(where, tuple) else (code.encoders, where, f"encoder for {where}"))
    table = maps[where].table.tolist()
    if fault == "linear":
        maps[where] = LinearMap(2, [[1]])
        return f"{what} does not map into the alphabet of {out}"
    if fault in ("alphabet size", "negative"):
        table[len(table) // 2] = code.alphabets[out].size if fault == "alphabet size" else -1
        maps[where] = TableMap(table)
        return f"{what} writes outside its alphabet"
    maps[where] = TableMap(table + [0] if fault == "length" else [])
    return f"{what} has {len(table) + 1 if fault == 'length' else 0} entries, expected {len(table)}"


FAULTS = ["alphabet size", "negative", "length", "empty", "linear"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.one_of(st.none(), st.lists(st.integers(-3, 2**62), max_size=15)), max_size=12))
def test_table_maxima_are_taken_in_full_batches_under_the_bound(bound, tables):
    """Each nonempty table's largest entry in the unsigned view (a negative
    entry reads as at least 2^63), None for an empty table or a LinearMap
    (drawn as None).  Tables are joined in order, each batch filled until
    the next table would pass the bound; a table over it is never joined."""
    maps = [LinearMap(2, [[1]]) if t is None else TableMap(t) for t in tables]
    joined = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def concatenate(self, arrays, axis=None):
            joined.append([a.size for a in arrays])
            return np.concatenate(arrays, axis=axis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "_MAX_BATCH", bound)
        mp.setattr(netmodel, "np", Spy())
        tops = netmodel._table_maxima(maps)
    assert tops == [max(x % 2**64 for x in t) if t else None for t in tables]
    assert [k for batch in joined for k in batch] == [len(t) for t in tables if t and len(t) <= bound]
    assert all(sum(batch) <= bound for batch in joined)
    for batch, after in zip(joined, joined[1:]):
        assert sum(batch) + after[0] > bound


@pytest.mark.parametrize("batch", [1, 5, netmodel._MAX_BATCH])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("position", ["first", "middle", "last", "decoder"])
def test_a_bad_map_is_refused_with_its_message(monkeypatch, batch, fault, position):
    """One bad map among the encoders or at a decoder; table maxima taken in
    batches of one entry, a few entries, or the default."""
    monkeypatch.setattr(netmodel, "_MAX_BATCH", batch)
    lay, code, order = qu_code()
    where = {"first": order[0], "middle": order[len(order) // 2], "last": order[-1],
             "decoder": sorted(code.decoders)[len(code.decoders) // 2]}[position]
    message = plant(code, where, fault)
    with pytest.raises(StructuralError) as exc:
        evaluate_code(lay.network, lay.conn, code)
    assert str(exc.value) == message


@pytest.mark.parametrize("batch", [1, 5, netmodel._MAX_BATCH])
@pytest.mark.parametrize("faults", [("alphabet size", "length"), ("empty", "negative"),
                                    ("linear", "alphabet size"), ("negative", "linear")])
@pytest.mark.parametrize("positions", [(0, -1), (1, 2), (-2, "decoder")])
def test_of_two_bad_maps_the_earlier_is_named(monkeypatch, batch, faults, positions):
    monkeypatch.setattr(netmodel, "_MAX_BATCH", batch)
    lay, code, order = qu_code()
    first, second = [sorted(code.decoders)[0] if p == "decoder" else order[p] for p in positions]
    message = plant(code, first, faults[0])
    plant(code, second, faults[1])
    with pytest.raises(StructuralError) as exc:
        evaluate_code(lay.network, lay.conn, code)
    assert str(exc.value) == message


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("position", ["first", "last", "decoder"])
def test_code_verify_exits_2_on_a_bad_map(tmp_path, capsys, fault, position):
    """A negative entry is refused when the bundle is read; every other bad
    map by `evaluate_code`, whose message is printed."""
    lay, code, order = qu_code()
    where = {"first": order[0], "last": order[-1], "decoder": sorted(code.decoders)[0]}[position]
    message = plant(code, where, fault)
    h = entropy_from_subspaces(SubspaceFamily(2, 2, (((1, 0),), ((0, 1),))))
    tup = rate_capacity(h, lay)
    bundle = {"format": "codebundle/1", "n": 2, "network": capacitated_network(lay, tup).to_json(),
              "conn": lay.conn.to_json(), "code": code.to_json(), "tuple": tup.to_json()}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    assert run(["code", "verify", str(path)]) == 2
    if fault != "negative":
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("faults", [("length", "alphabet size"), ("linear", "empty")])
def test_decoders_are_checked_union_by_union(faults):
    """Demands that read the same sessions are checked together, in the
    order of their first appearance among the sorted demands.  On G†(2)
    the S[{1,2}] decoder at T1[{2}].rx reads what T0[{1,2}].rx's does, so
    it is checked before the S[{1}] decoder at T0[{1}].rx, which sorts
    before it."""
    lay, code, _ = qu_code()
    plant(code, ("T0[{1}].rx", "S[{1}]"), faults[0])
    message = plant(code, ("T1[{2}].rx", "S[{1,2}]"), faults[1])
    with pytest.raises(StructuralError) as exc:
        evaluate_code(lay.network, lay.conn, code)
    assert str(exc.value) == message
