"""The fixed multicast network built from a set function over N elements.

The topology and connection requirement depend only on N; the rate-capacity
tuple M(h) = (λ(h), ω(h)) is a linear function of h.  Subnetworks:

  sources  — the joint session S[N] feeds N capacitated edges V[1..N] into a
             distribution node, which fans each V[j] out on uncapacitated
             edges to every consumer;
  type 0   — per nonempty α: one edge W of capacity h(α) from the S[α]
             origin to a receiver demanding S[α];
  type 1   — per nonempty α: a direct edge W (capacity h(N)-h(α)) from the
             S[N] origin to a receiver demanding S[N], plus an intermediate
             node collecting V_α and forwarding W' (capacity h(α));
  type 2   — per (α, i) with α proper and i outside α: node n1 gets V_α and
             S[α] and emits W (capacity h(α)) through an uncapacitated
             relay split to both receivers; the upper receiver also gets
             S[α] and W' (capacity h(N)-h(α)) from the S[N] origin and
             demands S[N]; node n2 gets V_α plus one copy of V_i and emits
             W'' (capacity h(α∪i)-h(i)) to n3, which gets the second copy
             of V_i and emits W* (capacity h(α)) to the lower receiver,
             which demands S[α].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactlog import ZERO, LogScalar
from .netmodel import (
    UNCAPPED,
    ConnectionRequirement,
    Edge,
    NegativeCapacityError,  # noqa: F401  raised by rate_capacity, through RateCapacityTuple
    Network,
    RateCapacityTuple,
)
from .setfunc import SetFunction


def _aset(mask: int, n: int) -> Tuple[int, ...]:
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def _alabel(mask: int, n: int) -> str:
    return "{" + ",".join(str(i) for i in _aset(mask, n)) + "}"


@dataclass(frozen=True)
class Subnet:
    kind: int  # 0, 1, or 2
    alpha: int  # subset bitmask over 1..N
    i: Optional[int]  # type-2 extra element (1-based), else None
    role_edges: Dict[str, str]  # role name -> edge id
    receivers: Dict[str, str]  # receiver node -> demanded session label


@dataclass(frozen=True)
class GDaggerLayout:
    n: int
    network: Network
    conn: ConnectionRequirement
    session_labels: Dict[int, str]  # alpha mask -> session label
    v_edges: Dict[int, str]  # j (1-based) -> edge id
    subnets: Tuple[Subnet, ...]
    fans: Dict[str, int]  # fan edge id -> j (1-based) of the V[j] it forwards


def session_label(mask: int, n: int) -> str:
    return f"S[{_alabel(mask, n)}]"


def build_gdagger(N: int) -> GDaggerLayout:
    if N < 1:
        raise ValueError("N must be at least 1")
    full = (1 << N) - 1
    nodes: List[str] = []
    edges: List[Edge] = []
    sessions: List[str] = []
    origin: Dict[str, str] = {}
    receivers: Dict[str, List[str]] = {}
    session_labels: Dict[int, str] = {}
    subnets: List[Subnet] = []

    def add_node(name: str) -> str:
        nodes.append(name)
        return name

    # session origins
    for mask in range(1, full + 1):
        lab = session_label(mask, N)
        session_labels[mask] = lab
        sessions.append(lab)
        origin[lab] = add_node(f"o[{_alabel(mask, N)}]")
        receivers[lab] = []
    o_full = origin[session_labels[full]]

    # sources part: V[j] edges into the distribution node
    dist = add_node("dist")
    v_edges: Dict[int, str] = {}
    fan_requests: List[Tuple[int, str]] = []  # (j, consumer node)
    for j in range(1, N + 1):
        eid = f"V[{j}]"
        v_edges[j] = eid
        edges.append(Edge(eid, o_full, dist, ZERO))  # capacity filled by rate_capacity

    def request_fans(js: List[int], node: str) -> None:
        for j in js:
            fan_requests.append((j, node))

    for mask in range(1, full + 1):
        alab = _alabel(mask, N)
        alpha_js = list(_aset(mask, N))
        # type 0
        rx0 = add_node(f"T0[{alab}].rx")
        w0 = f"T0[{alab}].W"
        edges.append(Edge(w0, origin[session_labels[mask]], rx0, ZERO))
        receivers[session_labels[mask]].append(rx0)
        subnets.append(
            Subnet(0, mask, None, {"W": w0}, {rx0: session_labels[mask]})
        )
        # type 1
        rx1 = add_node(f"T1[{alab}].rx")
        mid = add_node(f"T1[{alab}].mid")
        w1 = f"T1[{alab}].W"
        w1p = f"T1[{alab}].W'"
        edges.append(Edge(w1, o_full, rx1, ZERO))
        edges.append(Edge(w1p, mid, rx1, ZERO))
        request_fans(alpha_js, mid)
        receivers[session_labels[full]].append(rx1)
        subnets.append(
            Subnet(1, mask, None, {"W": w1, "W'": w1p}, {rx1: session_labels[full]})
        )
        # type 2
        if mask != full:
            for i in range(1, N + 1):
                if mask >> (i - 1) & 1:
                    continue
                tag = f"T2[{alab},{i}]"
                n1 = add_node(f"{tag}.n1")
                n2 = add_node(f"{tag}.n2")
                n3 = add_node(f"{tag}.n3")
                split = add_node(f"{tag}.split")
                rxu = add_node(f"{tag}.rxU")
                rxl = add_node(f"{tag}.rxL")
                o_alpha = origin[session_labels[mask]]
                w = f"{tag}.W"
                wu = f"{tag}.W>U"
                wl = f"{tag}.W>L"
                wp = f"{tag}.W'"
                wpp = f"{tag}.W''"
                ws = f"{tag}.W*"
                sa_n1 = f"{tag}.Sa>n1"
                sa_rxu = f"{tag}.Sa>rxU"
                edges.append(Edge(sa_n1, o_alpha, n1, UNCAPPED))
                edges.append(Edge(sa_rxu, o_alpha, rxu, UNCAPPED))
                edges.append(Edge(w, n1, split, ZERO))
                edges.append(Edge(wu, split, rxu, UNCAPPED))
                edges.append(Edge(wl, split, rxl, UNCAPPED))
                edges.append(Edge(wp, o_full, rxu, ZERO))
                edges.append(Edge(wpp, n2, n3, ZERO))
                edges.append(Edge(ws, n3, rxl, ZERO))
                request_fans(alpha_js, n1)
                request_fans(alpha_js + [i], n2)
                request_fans([i], n3)
                receivers[session_labels[full]].append(rxu)
                receivers[session_labels[mask]].append(rxl)
                subnets.append(
                    Subnet(
                        2,
                        mask,
                        i,
                        {"Sa>n1": sa_n1, "Sa>rxU": sa_rxu, "W": w, "W>U": wu,
                         "W>L": wl, "W'": wp, "W''": wpp, "W*": ws},
                        {rxu: session_labels[full], rxl: session_labels[mask]},
                    )
                )

    fans: Dict[str, int] = {}
    for j, node in fan_requests:
        eid = f"fan[V[{j}]->{node}]"
        fans[eid] = j
        edges.append(Edge(eid, dist, node, UNCAPPED))

    # placeholder zero capacities on role edges become real values in
    # rate_capacity; the Network object itself stores UNCAPPED vs capped only
    net = Network(nodes, [
        Edge(e.id, e.tail, e.head, e.cap if e.cap is UNCAPPED else ZERO) for e in edges
    ])
    conn = ConnectionRequirement(sessions, origin, receivers)
    conn.validate_against(net)
    return GDaggerLayout(N, net, conn, session_labels, v_edges, tuple(subnets), fans)


def rate_capacity(h: SetFunction, layout: GDaggerLayout) -> RateCapacityTuple:
    """λ(S[α]) = h(α); capacities of the role edges as linear forms in h.
    An h that is not monotone enough gives a negative entry, and
    `RateCapacityTuple` raises NegativeCapacityError."""
    N = layout.n
    if len(h.ground) != N:
        raise ValueError(f"set function has {len(h.ground)} elements, layout expects {N}")
    full = (1 << N) - 1

    def hv(mask: int) -> LogScalar:
        return h.values[mask]

    rates = {layout.session_labels[m]: hv(m) for m in range(1, full + 1)}
    caps: Dict[str, LogScalar] = {}
    for j in range(1, N + 1):
        caps[layout.v_edges[j]] = hv(1 << (j - 1))
    for sub in layout.subnets:
        a = sub.alpha
        if sub.kind == 0:
            caps[sub.role_edges["W"]] = hv(a)
        elif sub.kind == 1:
            caps[sub.role_edges["W"]] = hv(full) - hv(a)
            caps[sub.role_edges["W'"]] = hv(a)
        else:
            ib = 1 << (sub.i - 1)
            caps[sub.role_edges["W"]] = hv(a)
            caps[sub.role_edges["W'"]] = hv(full) - hv(a)
            caps[sub.role_edges["W''"]] = hv(a | ib) - hv(ib)
            caps[sub.role_edges["W*"]] = hv(a)
    return RateCapacityTuple(rates, caps)


def capacitated_network(layout: GDaggerLayout, tup: RateCapacityTuple) -> Network:
    """The layout's network with the tuple's capacities written onto edges."""
    edges = [
        Edge(e.id, e.tail, e.head, tup.cap(e.id))
        for e in layout.network.edges
    ]
    return Network(layout.network.nodes, edges)
