import pytest

from conftest import random_integer_polymatroid
import random

from entronet.construct import (
    NegativeCapacityError,
    build_gdagger,
    capacitated_network,
    rate_capacity,
)
from entronet.exactlog import ZERO, log2_units
from entronet.groupchar import (SubgroupFamily, SubspaceFamily, SupportSet, builtin_function, cyclic,
                                entropy_from_subgroups, entropy_from_subspaces, quasi_uniform_check)
from entronet.netmodel import UNCAPPED
from entronet.schema import MAX_ARITY, ResourceError
from entronet.setfunc import SetFunction


@pytest.mark.parametrize("n", [2, 3])
def test_layout_well_formed(n):
    lay = build_gdagger(n)
    net, conn = lay.network, lay.conn
    conn.validate_against(net)
    assert len(conn.sessions) == (1 << n) - 1
    # acyclic by construction
    order = net.edges_topo()
    assert len(order) == len(net.edges)
    # every session label indexes a nonempty subset of 1..n
    for mask in range(1, 1 << n):
        assert lay.session_labels[mask] in conn.sessions
    # each subnet exposes its role edges in the network
    ids = {e.id for e in net.edges}
    for sub in lay.subnets:
        for eid in sub.role_edges.values():
            assert eid in ids


def test_rate_capacity_is_linear_in_h():
    lay = build_gdagger(2)
    rng = random.Random(3)
    h = random_integer_polymatroid(rng, 2)
    tup1 = rate_capacity(h, lay)
    tup2 = rate_capacity(h.scale(2), lay)
    for s, v in tup1.rates.items():
        assert tup2.rates[s] == v * 2
    for e, v in tup1.caps.items():
        assert tup2.caps[e] == v * 2


def test_rate_capacity_rejects_negative_entries():
    lay = build_gdagger(2)
    # strictly non-monotone function drives some capacity negative
    h = SetFunction.from_log2("12", {"1": 3, "2": 1, "12": 1})
    with pytest.raises(NegativeCapacityError):
        rate_capacity(h, lay)


def test_capacitated_network_caps_match_tuple():
    lay = build_gdagger(2)
    rng = random.Random(5)
    h = random_integer_polymatroid(rng, 2)
    tup = rate_capacity(h, lay)
    net = capacitated_network(lay, tup)
    for e in net.edges:
        if e.id in tup.caps:
            assert e.cap == tup.caps[e.id]
        else:
            assert e.cap is UNCAPPED


def test_rates_come_from_h_singletons():
    lay = build_gdagger(3)
    rng = random.Random(9)
    h = random_integer_polymatroid(rng, 3)
    tup = rate_capacity(h, lay)
    # the session for subset alpha carries rate determined by h
    # at least: every rate non-negative and zero only when h is degenerate
    for s, v in tup.rates.items():
        assert v.sign() >= 0


def test_layout_grows_with_n():
    e2 = len(build_gdagger(2).network.edges)
    e3 = len(build_gdagger(3).network.edges)
    assert e3 > e2 > 0


@pytest.mark.parametrize("n", [2, 3])
def test_layout_names_its_fans_and_relays(n):
    """Every edge out of the distribution node is a fan of V[j] for the j
    the layout records, and every type-2 subnet names both relays of its
    session."""
    lay = build_gdagger(n)
    net = lay.network
    out_of_dist = {e.id: e for e in net.edges if e.tail == "dist"}
    assert set(lay.fans) == set(out_of_dist)
    for eid, j in lay.fans.items():
        assert 1 <= j <= n and eid.startswith(f"fan[{lay.v_edges[j]}->")
    for sub in lay.subnets:
        if sub.kind == 2:
            origin = lay.conn.origin[lay.session_labels[sub.alpha]]
            assert net.edge(sub.role_edges["Sa>n1"]).tail == origin
            assert net.edge(sub.role_edges["Sa>rxU"]).tail == origin
            assert net.edge(sub.role_edges["Sa>n1"]).head == net.edge(sub.role_edges["W"]).tail
            assert net.edge(sub.role_edges["Sa>rxU"]).head == net.edge(sub.role_edges["W'"]).head


def test_the_arity_cap_admits_n_5_and_refuses_past_max_arity():
    assert len(build_gdagger(5).conn.sessions) == 31
    build_gdagger(MAX_ARITY)
    with pytest.raises(ResourceError, match="over the cap"):
        build_gdagger(MAX_ARITY + 1)
    # a family or support past the cap is refused before its 2^N subsets
    wide = MAX_ARITY + 1
    assert entropy_from_subspaces(SubspaceFamily(2, 1, [[[1]]] * MAX_ARITY)).values[-1] == ZERO
    with pytest.raises(ResourceError):
        entropy_from_subspaces(SubspaceFamily(2, 1, [[[1]]] * wide))
    with pytest.raises(ResourceError):
        entropy_from_subgroups(SubgroupFamily(cyclic(2), [[0]] * wide))
    with pytest.raises(ResourceError):
        quasi_uniform_check(SupportSet(wide, [[0]] * wide, [(0,) * wide]))
