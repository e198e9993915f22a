"""Directed acyclic networks, connection requirements, network codes, and
zero-error evaluation.  A wholly linear code is decided by its global maps,
one composition per edge, with each decoder checked as a matrix identity
and entropies read as ranks; any other code, and a linear one that fails,
is tabulated, each variable once over the sessions it reads, and each
decoder is checked on those tables (`evaluate_code`).

Conventions:
  - An edge's encoder reads, in canonical order, the sessions originating at
    its tail node (sorted by label) followed by the tail's in-edges (sorted
    by edge id).  A decoder at a receiver reads the sessions originating
    there followed by the receiver's in-edges, same ordering.
  - Lookup tables are dense arrays over the flat feed-domain index
    (`ffield.flat_index`: the FIRST feed most significant).
  - Linear maps act on row vectors: y = x @ M over GF(q).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlog import ZERO, LogScalar, entropy_of_histogram, log_int_sign
from .ffield import GF, Matrix, Row, digits_of, flat_index
from .groupchar import SubspaceFamily
from .schema import (MAX_CONE_TUPLES, ResourceError, StructuralError, document, int_rows,
                     sym_from_json, sym_to_json, typed)
from .setfunc import GroundSet, SetFunction


class _Uncapped:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNCAPPED"


UNCAPPED = _Uncapped()

Capacity = Union[LogScalar, _Uncapped]


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    cap: Capacity


class _Topology:
    """The structure of a network, which its capacities do not change:
    node labels, the position of each edge id, the in-edge ids of each node
    (sorted by id) and the edge positions in topological order (`topo_order`,
    ties by edge id), checked and computed once.  `plan` is the one kept
    `_Plan`, with the connection requirement it was built for."""

    __slots__ = ("nodes", "pos", "in_ids", "order", "plan")

    def __init__(self, nodes: Sequence[str], edges: Sequence[Edge]):
        self.nodes = tuple(str(n) for n in nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise StructuralError("duplicate node labels")
        self.pos = {e.id: i for i, e in enumerate(edges)}
        if len(self.pos) != len(edges):
            raise StructuralError("duplicate edge ids")
        in_ids: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for e in edges:
            if e.tail not in in_ids or e.head not in in_ids:
                raise StructuralError(f"edge {e.id} references unknown node")
            in_ids[e.head].append(e.id)
        self.in_ids = {n: tuple(sorted(ids)) for n, ids in in_ids.items()}
        rank = {n: i for i, n in enumerate(topo_order(self.nodes, edges))}  # raises on cycles
        self.order = tuple(sorted(range(len(edges)), key=lambda i: (rank[edges[i].tail], edges[i].id)))
        self.plan: Optional[Tuple[ConnectionRequirement, _Plan]] = None


class Network:
    """Nodes and directed edges, each edge with a capacity or UNCAPPED.

    Its structure is checked and computed once (`_Topology`: unique labels,
    known ends, no cycle, in-edges and topological order), and the copies
    `with_caps` makes share it, and with it the plan `evaluate_code` keeps
    for a connection requirement.  A Network is treated as immutable."""

    def __init__(self, nodes: Sequence[str], edges: Sequence[Edge]):
        self.edges = tuple(edges)
        self._topo = _Topology(nodes, self.edges)
        self.nodes = self._topo.nodes
        self._in: Optional[Dict[str, Tuple[Edge, ...]]] = None

    def with_caps(self, caps: Sequence[Capacity]) -> "Network":
        """This network with edge i's capacity `caps[i]`: the structure is
        shared, not checked again."""
        net = object.__new__(Network)
        net.edges = tuple(e if c is e.cap else Edge(e.id, e.tail, e.head, c)
                          for e, c in zip(self.edges, caps, strict=True))
        net._topo, net.nodes, net._in = self._topo, self.nodes, None
        return net

    def edge(self, eid: str) -> Edge:
        return self.edges[self._topo.pos[eid]]

    def in_edges(self, node: str) -> Tuple[Edge, ...]:
        """The node's in-edges, sorted by id (built once per network)."""
        if self._in is None:
            self._in = {n: tuple(self.edge(i) for i in ids) for n, ids in self._topo.in_ids.items()}
        return self._in.get(node, ())

    def edges_topo(self) -> List[Edge]:
        return [self.edges[i] for i in self._topo.order]

    def to_json(self) -> dict:
        return {
            "format": "network/1",
            "nodes": list(self.nodes),
            "edges": [
                {
                    "id": e.id,
                    "tail": e.tail,
                    "head": e.head,
                    "cap": None if e.cap is UNCAPPED else e.cap.to_json(),
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Network":
        document(obj, "network/1", "a network")
        edges = []
        for d in typed(obj.get("edges"), list, "a network's edges"):
            typed(d, Mapping, "an edge")
            ends = [typed(d.get(k), str, f"an edge's {k}") for k in ("id", "tail", "head")]
            cap = d.get("cap")
            edges.append(Edge(*ends, UNCAPPED if cap is None else LogScalar.from_json(cap)))
        return cls(typed(obj.get("nodes"), list, "a network's nodes"), edges)


def topo_order(nodes: Sequence[str], edges: Sequence[Edge]) -> List[str]:
    """Topological node order, stable by label among ready nodes."""
    indeg = {n: 0 for n in nodes}
    out: Dict[str, List[str]] = {n: [] for n in nodes}
    for e in edges:
        indeg[e.head] += 1
        out[e.tail].append(e.head)
    ready = [n for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(nodes):
        raise StructuralError("network contains a cycle")
    return order


class ConnectionRequirement:
    """The sessions, each with its origin node and its receivers.  Treated as
    immutable: `evaluate_code` keeps a plan built for this very object on
    the network's structure and reuses it while the object is the same."""

    def __init__(
        self,
        sessions: Sequence[str],
        origin: Mapping[str, str],
        receivers: Mapping[str, Sequence[str]],
    ):
        self.sessions = tuple(sorted(str(s) for s in sessions))
        if len(set(self.sessions)) != len(self.sessions):
            raise StructuralError("duplicate session labels")
        self.origin = {s: origin[s] for s in self.sessions}
        self.receivers = {s: tuple(sorted(receivers[s])) for s in self.sessions}
        self._by_origin: Dict[str, List[str]] = {}
        for s in self.sessions:
            if not self.receivers[s]:
                raise StructuralError(f"session {s} has no receivers")
            self._by_origin.setdefault(self.origin[s], []).append(s)

    def validate_against(self, net: Network) -> None:
        nodeset = set(net.nodes)
        edge_ids = {e.id for e in net.edges}
        for s in self.sessions:
            # sessions and edges are variables of one namespace
            if s in edge_ids:
                raise StructuralError(f"session label {s} is also an edge id")
            if self.origin[s] not in nodeset:
                raise StructuralError(f"origin of session {s} not in network")
            for r in self.receivers[s]:
                if r not in nodeset:
                    raise StructuralError(f"receiver {r} of session {s} not in network")

    def sessions_at(self, node: str) -> List[str]:
        return list(self._by_origin.get(node, ()))

    def demands(self) -> List[Tuple[str, str]]:
        """(receiver node, session) pairs, sorted."""
        out = []
        for s in self.sessions:
            for r in self.receivers[s]:
                out.append((r, s))
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "format": "connection/1",
            "sessions": list(self.sessions),
            "origin": dict(self.origin),
            "receivers": {s: list(r) for s, r in self.receivers.items()},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ConnectionRequirement":
        document(obj, "connection/1", "a connection requirement")
        sessions = typed(obj.get("sessions"), list, "sessions")
        origin = typed(obj.get("origin"), Mapping, "origin")
        receivers = typed(obj.get("receivers"), Mapping, "receivers")
        for s in map(str, sessions):  # the labels the constructor keeps
            typed(origin.get(s), str, f"the origin of {s}")
            for r in typed(receivers.get(s), list, f"the receivers of {s}"):
                typed(r, str, f"a receiver of {s}")
        return cls(sessions, origin, receivers)


class Alphabet:
    """Either an explicit symbol list or an F_q vector space (q, dim)."""

    __slots__ = ("kind", "symbols", "q", "dim", "_index")

    def __init__(self, symbols: Optional[Sequence[object]] = None, q: Optional[int] = None, dim: Optional[int] = None):
        if symbols is not None:
            self.kind = "symbols"
            self.symbols = tuple(symbols)
            if not self.symbols:
                raise StructuralError("alphabet must be nonempty")
            if len(set(self.symbols)) != len(self.symbols):
                raise StructuralError("alphabet symbols must be distinct")
            self.q = None
            self.dim = None
            self._index = {s: i for i, s in enumerate(self.symbols)}
        else:
            typed(q, int, "a vector alphabet's q")
            typed(dim, int, "a vector alphabet's dim")
            if q < 2 or dim < 0:
                raise StructuralError(f"vector alphabet needs q >= 2 and dim >= 0, got {q}, {dim}")
            self.kind = "vector"
            self.q = q
            self.dim = dim
            self.symbols = None
            self._index = None

    @property
    def size(self) -> int:
        """The number of symbols; past `_CODE_LIMIT`, a ResourceError decided
        for F_q^dim by q^dim >= 2^(dim·(bit_length(q) − 1)) before the power."""
        if self.kind == "symbols":
            return len(self.symbols)
        if (self.dim * (self.q.bit_length() - 1) >= _CODE_LIMIT.bit_length()
                or (size := self.q ** self.dim) > _CODE_LIMIT):
            raise ResourceError(f"the alphabet F_{self.q}^{self.dim} has more than 2^62 symbols")
        return size

    def index(self, symbol) -> int:
        if self.kind == "symbols":
            return self._index[symbol]
        return GF(self.q).vec_index(symbol)

    def symbol(self, idx: int):
        if self.kind == "symbols":
            return self.symbols[idx]
        return tuple(digits_of(idx, [self.q] * self.dim))

    def log_size(self) -> LogScalar:
        return LogScalar.log_int(self.size)

    def to_json(self) -> dict:
        if self.kind == "symbols":
            return {"kind": "symbols", "symbols": [sym_to_json(s) for s in self.symbols]}
        return {"kind": "vector", "q": self.q, "dim": self.dim}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Alphabet":
        if typed(obj, Mapping, "an alphabet").get("kind") == "symbols":
            return cls(symbols=sym_from_json(typed(obj.get("symbols"), list, "symbols")))
        return cls(q=obj.get("q"), dim=obj.get("dim"))

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.kind == other.kind
            and self.symbols == other.symbols
            and self.q == other.q
            and self.dim == other.dim
        )


class TableMap:
    """Dense lookup table over the flat feed-domain index."""

    __slots__ = ("table",)

    def __init__(self, table: Sequence[int]):
        self.table = np.asarray(table, dtype=np.int64)

    @classmethod
    def from_function(cls, fn, feed_alphabets: Sequence[Alphabet], out_alphabet: Alphabet) -> "TableMap":
        # itertools.product varies its last factor fastest: first feed most significant
        symbols = [[a.symbol(i) for i in range(a.size)] for a in feed_alphabets]
        return cls([out_alphabet.index(fn(*syms)) for syms in itertools.product(*symbols)])

    def to_json(self) -> dict:
        return {"kind": "table", "table": self.table.tolist()}


class LinearMap:
    """F_q matrix acting on the concatenated feed vector: y = x @ M.  The
    matrix is kept as immutable rows, and its table once `to_table` has
    built it."""

    __slots__ = ("q", "matrix", "_table")

    def __init__(self, q: int, matrix: Sequence[Sequence[int]]):
        self.q = q
        self.matrix = tuple(tuple(r) for r in matrix)
        self._table: Optional[np.ndarray] = None

    @property
    def in_dim(self) -> int:
        return len(self.matrix)

    @property
    def out_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def check_feeds(self, feed_alphabets: Sequence[Alphabet]) -> int:
        """The dimension of the concatenated feeds, which must be F_q vector
        spaces whose dimensions add up to `in_dim`."""
        in_dim = 0
        for a in feed_alphabets:
            if a.kind != "vector" or a.q != self.q:
                raise StructuralError("linear encoder requires F_q vector feeds over the same q")
            in_dim += a.dim
        if in_dim != self.in_dim:
            raise StructuralError(
                f"linear map expects input dim {self.in_dim}, feeds provide {in_dim}"
            )
        return in_dim

    def to_table(self, feed_alphabets: Sequence[Alphabet]) -> np.ndarray:
        """Dense output-index table over the flat feed domain, read-only:
        built once (`GF.image_table`), with the feeds (`check_feeds`) and
        the cap checked on every call."""
        in_dim = self.check_feeds(feed_alphabets)
        if self.q ** in_dim > MAX_CONE_TUPLES:
            raise ResourceError(
                f"linear map over F_{self.q}^{in_dim} needs a table of "
                f"{self.q ** in_dim} entries, over the cap {MAX_CONE_TUPLES}"
            )
        # each vector alphabet indexes base q, first coordinate first, so the
        # flat feed index is the index of the concatenated feed vector
        if self._table is None:
            self._table = GF(self.q).image_table(self.matrix)
            self._table.flags.writeable = False
        return self._table

    def to_json(self) -> dict:
        return {"kind": "linear", "q": self.q, "matrix": [list(r) for r in self.matrix]}


EncoderMap = Union[TableMap, LinearMap]


def _map_from_json(obj: Mapping) -> EncoderMap:
    """A table of integers, or an F_q matrix whose rows have one length and
    whose entries lie in 0..q-1; anything else is a StructuralError."""
    kind = typed(obj, Mapping, "a map").get("kind")
    if kind == "table":
        table = typed(obj.get("table"), list, "a table map")
        if any(type(x) is not int or not 0 <= x < 1 << 63 for x in table):
            raise StructuralError("a table map is a list of integers in 0..2^63-1")
        return TableMap(table)
    if kind == "linear":
        q = typed(obj.get("q"), int, "a linear map's q")
        matrix = int_rows(obj.get("matrix"), "a linear map's matrix")
        if len({len(r) for r in matrix}) > 1:
            raise StructuralError("a linear map's matrix is a list of rows of one length")
        if any(not 0 <= c < q for r in matrix for c in r):
            raise StructuralError(f"a linear map over F_{q} has integer entries in 0..q-1")
        return LinearMap(q, matrix)
    raise StructuralError(f"unknown map kind {kind!r:.40}")


class NetworkCode:
    def __init__(
        self,
        alphabets: Mapping[str, Alphabet],
        encoders: Mapping[str, EncoderMap],
        decoders: Mapping[Tuple[str, str], EncoderMap],
    ):
        self.alphabets = dict(alphabets)
        self.encoders = dict(encoders)
        self.decoders = dict(decoders)

    def is_linear(self) -> Optional[int]:
        """The common q if every alphabet is a vector space and every map is
        linear; otherwise None."""
        qs = set()
        for a in self.alphabets.values():
            if a.kind != "vector":
                return None
            qs.add(a.q)
        for m in list(self.encoders.values()) + list(self.decoders.values()):
            if not isinstance(m, LinearMap):
                return None
            qs.add(m.q)
        if len(qs) != 1:
            return None
        return qs.pop()

    def to_json(self) -> dict:
        return {
            "format": "code/1",
            "alphabets": {k: a.to_json() for k, a in sorted(self.alphabets.items())},
            "encoders": {e: m.to_json() for e, m in sorted(self.encoders.items())},
            "decoders": [
                {"receiver": r, "session": s, "map": m.to_json()}
                for (r, s), m in sorted(self.decoders.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "NetworkCode":
        document(obj, "code/1", "a network code")
        alph = {k: Alphabet.from_json(v)
                for k, v in typed(obj.get("alphabets"), Mapping, "alphabets").items()}
        enc = {e: _map_from_json(m) for e, m in typed(obj.get("encoders"), Mapping, "encoders").items()}
        dec = {}
        for d in typed(obj.get("decoders"), list, "decoders"):
            typed(d, Mapping, "a decoder")
            key = tuple(typed(d.get(k), str, f"a decoder's {k}") for k in ("receiver", "session"))
            dec[key] = _map_from_json(d.get("map"))
        return cls(alph, enc, dec)


class NegativeCapacityError(ValueError):
    """A rate or capacity entry has negative sign."""


class RateCapacityTuple:
    def __init__(self, rates: Mapping[str, LogScalar], caps: Mapping[str, LogScalar]):
        self.rates = dict(rates)
        self.caps = dict(caps)  # only capacitated edges appear
        for k, v in list(self.rates.items()) + list(self.caps.items()):
            if v.sign() < 0:
                raise NegativeCapacityError(f"entry for {k!r} is negative")

    def cap(self, edge_id: str) -> Capacity:
        return self.caps.get(edge_id, UNCAPPED)

    def __eq__(self, other):
        return (
            isinstance(other, RateCapacityTuple)
            and self.rates == other.rates
            and self.caps == other.caps
        )

    def to_json(self) -> dict:
        return {
            "format": "ratecap/1",
            "rates": {s: v.to_json() for s, v in sorted(self.rates.items())},
            "caps": {e: v.to_json() for e, v in sorted(self.caps.items())},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RateCapacityTuple":
        document(obj, "ratecap/1", "a rate-capacity tuple")
        return cls(
            {s: LogScalar.from_json(v) for s, v in typed(obj.get("rates"), Mapping, "rates").items()},
            {e: LogScalar.from_json(v) for e, v in typed(obj.get("caps"), Mapping, "caps").items()},
        )


def edge_feeds(net: Network, conn: ConnectionRequirement, edge: Edge) -> Tuple[str, ...]:
    """Canonical feed keys of an edge encoder: tail-origin sessions, then
    tail in-edges (read from the kept `_Plan`)."""
    return _plan(net, conn).feeds[edge.tail]


def decoder_feeds(net: Network, conn: ConnectionRequirement, node: str) -> Tuple[str, ...]:
    """Canonical feed keys of a decoder at `node`, ordered as `edge_feeds`."""
    return _plan(net, conn).feeds.get(node, ())


class _Plan:
    """What `evaluate_code` reads of a network's structure and a connection
    requirement, and of no code; built by `_plan` once the requirement has
    passed `validate_against`:

      feeds         each node's feed keys: the sessions originating there,
                    then its in-edge ids, each sorted
      tails         each edge tail with its out-edge ids, in topological order
      scopes        each session's and edge's scope: the sessions, in session
                    order, that its tail's feeds read (a session's is itself)
      node_scope    the scope of each tail and receiver, read the same way
      scope_counts  each distinct scope of `scopes` with its multiplicity
      sessions      the requirement's sessions, sorted
      keys          the sessions, then the edge ids in network order
      demands       the sorted (receiver, session) pairs
      groups        (union, demands) for the demands of each union, the
                    sessions a receiver's feeds read plus the one it decodes,
                    in order of first appearance among `demands`
      checks        the demands in the order of `groups`
      slots         (name, feeds, output key) of each encoder in the order of
                    `tails`, then of each decoder of `checks`: the order in
                    which maps are checked"""

    def __init__(self, net: Network, conn: ConnectionRequirement):
        conn.validate_against(net)
        self.sessions = sess = conn.sessions
        self.feeds = {n: tuple(conn.sessions_at(n)) + ids for n, ids in net._topo.in_ids.items()}
        self.scopes: Dict[str, Tuple[str, ...]] = {s: (s,) for s in sess}
        self.node_scope: Dict[str, Tuple[str, ...]] = {}

        def visit(node: str) -> None:
            reads = {s for f in self.feeds[node] for s in self.scopes[f]}
            self.node_scope[node] = tuple(s for s in sess if s in reads)

        tails: Dict[str, List[str]] = {}
        for e in net.edges_topo():
            tails.setdefault(e.tail, []).append(e.id)
        self.tails = tuple((tail, tuple(ids)) for tail, ids in tails.items())
        for tail, ids in self.tails:  # a tail's in-edges come before it
            visit(tail)
            for eid in ids:
                self.scopes[eid] = self.node_scope[tail]
        self.scope_counts = tuple(Counter(self.scopes.values()).items())
        self.keys = sess + tuple(e.id for e in net.edges)
        self.demands = tuple(conn.demands())
        groups: Dict[Tuple[str, ...], List[Tuple[str, str]]] = {}
        for r, s in self.demands:
            if r not in self.node_scope:
                visit(r)
            scope = self.node_scope[r]
            union = scope if s in scope else tuple(t for t in sess if t in scope or t == s)
            groups.setdefault(union, []).append((r, s))
        self.groups = tuple((union, tuple(checks)) for union, checks in groups.items())
        self.checks = tuple(d for _, checks in self.groups for d in checks)
        self.slots = tuple(
            [(f"encoder for {eid}", self.feeds[tail], eid) for tail, ids in self.tails for eid in ids]
            + [(f"decoder for session {s} at receiver {r}", self.feeds[r], s) for r, s in self.checks])


def _plan(net: Network, conn: ConnectionRequirement) -> _Plan:
    """The plan of `net`'s structure under `conn`: the one kept on the
    structure if it was built for this very `conn` object, else a new one,
    which replaces it."""
    topo = net._topo
    kept = topo.plan
    if kept is None or kept[0] is not conn:
        kept = topo.plan = (conn, _Plan(net, conn))
    return kept[1]


_CODE_LIMIT = 1 << 62  # largest radix product a mixed-radix int64 code may reach
_BINCOUNT_SPAN = 4  # bincount counts a code whose radix product is at most this many times its length
MAX_QUERY_TUPLES = 1 << 20  # source tuples one EntropyOracle query may count over


def _ranks(a: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of `a`, and their number."""
    values, ranks = np.unique(a, return_inverse=True)
    return ranks, len(values)


class EntropyOracle:
    """Exact entropies of the session and edge variables, with the sessions
    independent and uniform, read off the tables `evaluate_code` checked
    the code on.

    Each variable k is one array over the tuples of its scope `scopes[k]`,
    the sessions it reads, numbered by `flat_index` over the scope in that
    order.  H(keys) is counted over the tuples of the union U of the keys'
    scopes alone: counting over every source tuple multiplies each count by
    the product of the alphabet sizes of the sessions outside U, and the
    entropy of a count histogram does not change when every count is
    scaled by one factor.  A query whose U has more than `MAX_QUERY_TUPLES`
    tuples raises ResourceError, and no array a query allocates is longer.

    An oracle of a wholly linear code that `evaluate_code` found zero-error
    keeps no arrays but the global maps of its variables, as packed columns
    over the stacked source space (`_keep_columns`): H(keys) is then r·log q
    for r the rank of the union of the keys' columns (Li, Yeung & Cai,
    "Linear network coding", IEEE Trans. IT 49(2), 2003), and log q^r is
    built once per rank."""

    def __init__(self, arrays: Mapping[str, np.ndarray], sizes: Mapping[str, int],
                 scopes: Mapping[str, Sequence[str]]):
        self.arrays = dict(arrays)
        self.sizes = dict(sizes)
        self.scopes = {k: tuple(scope) for k, scope in scopes.items()}
        self.ground = GroundSet(sorted(self.scopes))
        self._digits: Dict[Tuple[str, ...], Dict[str, np.ndarray]] = {}
        self._columns: Optional[Tuple[GF, int, Mapping[str, List[Row]]]] = None
        self._logs: Dict[int, LogScalar] = {}

    def _keep_columns(self, gf: GF, width: int, columns: Mapping[str, List[Row]]) -> "EntropyOracle":
        """Answer by rank: `columns` holds the packed global columns of each
        variable, vectors of length `width` over `gf`."""
        self._columns = (gf, width, columns)
        return self

    def tuples(self, scope: Sequence[str]) -> int:
        return math.prod(self.sizes[s] for s in scope)

    def over(self, key: str, union: Tuple[str, ...]) -> np.ndarray:
        """The values of `key` on the tuples of `union`, a superset of its
        scope: its array gathered through the flat index of each tuple's
        restriction to the scope (the digits of each union are kept)."""
        scope = self.scopes[key]
        if scope == union:
            return self.arrays[key]
        n = self.tuples(union)
        digits = self._digits.get(union)
        if digits is None:
            digits = self._digits[union] = dict(zip(union, digits_of(
                np.arange(n, dtype=np.int64), [self.sizes[s] for s in union])))
        flat = flat_index(n, [digits[s] for s in scope], [self.sizes[s] for s in scope])
        return self.arrays[key][flat]

    def index(self, feeds: Sequence[str], union: Tuple[str, ...]) -> np.ndarray:
        """The flat index of the values of `feeds` on the tuples of `union`,
        the row each tuple reads of a table over the feeds' domain."""
        return flat_index(self.tuples(union), [self.over(f, union) for f in feeds],
                          [self.sizes[f] for f in feeds])

    def entropy(self, keys: Sequence[str]) -> LogScalar:
        """H(keys) over the tuples of the union U of their scopes: the
        values of `keys` are numbered by one mixed-radix int64 code, and the
        entropy is that of the code's count histogram (`entropy_of_histogram`,
        one term per distinct count).  Before a step whose radix product
        could pass 2^62, the running code, and if need be the operand, is
        replaced by the rank of its value among its distinct values, which
        keeps the partition and so the counts.  The counts come from
        `np.bincount` when the code's radix product is at most
        `_BINCOUNT_SPAN` times the tuples of U, and from `np.unique`
        otherwise.  An oracle that keeps global columns answers by one rank
        instead, after the same bound on U."""
        keys = list(keys)
        if not keys:
            return ZERO
        union = self.scopes[keys[0]]
        if len(keys) > 1:
            reads = {s for k in keys for s in self.scopes[k]}
            union = tuple(sorted(reads))
        n = self.tuples(union)
        if n > MAX_QUERY_TUPLES:
            raise ResourceError(
                f"entropy of {keys} needs {n} source tuples, over the bound {MAX_QUERY_TUPLES}"
            )
        if self._columns is not None:
            gf, width, columns = self._columns
            rank = len(gf.echelon([c for k in keys for c in columns[k]], width, reduced=False)[1])
            log = self._logs.get(rank)
            if log is None:
                log = self._logs[rank] = LogScalar.log_int(gf.q ** rank)
            return log
        code, card = None, 1
        for k in keys:
            arr, size = self.over(k, union), self.sizes[k]
            if code is None:
                code, card = arr, size
                continue
            if card * size > _CODE_LIMIT:
                code, card = _ranks(code)
            if card * size > _CODE_LIMIT:
                arr, size = _ranks(arr)
            code = code * size + arr
            card *= size
        if card <= min(_BINCOUNT_SPAN * n, MAX_QUERY_TUPLES):
            counts = np.bincount(code)
            counts = counts[counts.nonzero()]
        else:
            counts = np.unique(code, return_counts=True)[1]
        if counts.min() == counts.max():  # uniform, as the law of a linear code is
            return LogScalar.log_int(len(counts))
        values, times = np.unique(counts, return_counts=True)
        return entropy_of_histogram(dict(zip(values.tolist(), times.tolist())))

    def to_setfunction(self, max_ground: int = 14) -> SetFunction:
        n = len(self.ground)
        if n > max_ground:
            raise ResourceError(
                f"ground of size {n} too large to materialize; query entropies on demand"
            )
        values = [ZERO]
        for mask in range(1, 1 << n):
            values.append(self.entropy(self.ground.subset(mask)))
        return SetFunction(self.ground, values)


@dataclass
class EvaluationResult:
    """Verdict of `evaluate_code`, and the oracle that decided it: over the
    tables of its variables, each tabulated once over the tuples of its
    scope, or over their global maps when a wholly linear code is
    zero-error."""

    zero_error: bool
    failing_inputs: List[tuple]
    oracle: EntropyOracle = field(repr=False)

    @property
    def induced(self) -> SetFunction:
        return self.oracle.to_setfunction()


def _check_map(m: EncoderMap, what: str, feeds: Sequence[str], out: str,
               alphabets: Mapping[str, Alphabet], sizes: Mapping[str, int],
               top: Optional[int]) -> None:
    """A TableMap must cover exactly its feed domain and write inside the
    alphabet of `out`; a LinearMap must map into the vector space that is
    the alphabet of `out` and read F_q vector feeds of its input dimension
    (`LinearMap.check_feeds`).  `sizes` holds the size of each alphabet, and
    `top` the largest entry of a nonempty table (`_table_maxima`)."""
    if not isinstance(m, TableMap):
        a = alphabets[out]
        if a.kind != "vector" or a.q != m.q or (m.matrix and m.out_dim != a.dim):
            raise StructuralError(f"{what} does not map into the alphabet of {out}")
        m.check_feeds([alphabets[f] for f in feeds])
        return
    dom = 1
    for f in feeds:
        dom *= sizes[f]
    if len(m.table) != dom:
        raise StructuralError(f"{what} has {len(m.table)} entries, expected {dom}")
    if top is not None and top >= sizes[out]:
        raise StructuralError(f"{what} writes outside its alphabet")


_MAX_BATCH = 1 << 16  # table entries `_table_maxima` copies into one batch


def _table_maxima(maps: Sequence[EncoderMap]) -> List[Optional[int]]:
    """The largest entry of each nonempty TableMap's table, in the unsigned
    view, where a negative entry reads as at least 2^63; None for any other
    map.  Tables are concatenated in batches of at most `_MAX_BATCH`
    entries, each reduced by one `np.maximum.reduceat`; a larger table is
    reduced alone, in place."""
    tops: List[Optional[int]] = [None] * len(maps)
    batches: List[List[int]] = []
    room = 0  # entries the last batch can still take
    for i, m in enumerate(maps):
        k = m.table.size if isinstance(m, TableMap) else 0
        if not k:
            continue
        if k > _MAX_BATCH:
            tops[i] = int(m.table.view(np.uint64).max())
            continue
        if k > room:
            batches.append([])
            room = _MAX_BATCH
        batches[-1].append(i)
        room -= k
    for batch in batches:
        tables = [maps[i].table for i in batch]
        starts = list(itertools.accumulate((t.size for t in tables[:-1]), initial=0))
        joined = np.concatenate(tables, axis=None).view(np.uint64)
        for i, top in zip(batch, np.maximum.reduceat(joined, starts).tolist()):
            tops[i] = top
    return tops


def _table(m: EncoderMap, feeds: Sequence[str], alphabets: Mapping[str, Alphabet]) -> np.ndarray:
    """Dense table of a map that `_check_map` passed."""
    return m.table if isinstance(m, TableMap) else m.to_table([alphabets[f] for f in feeds])


def _global_columns(plan: _Plan, code: NetworkCode, gf: GF) -> Tuple[int, Dict[str, List[Row]]]:
    """D, the dimension of the stacked source space F_q^D (sessions in
    order), and the packed columns (`GF.pack`) of the global map of each
    session and edge: a session's are unit vectors, and an edge's column j
    is the combination of its feeds' columns that column j of its encoder
    matrix selects (`_global_image`), tail by tail in the plan's
    topological order."""
    sess = plan.sessions
    D = sum(code.alphabets[s].dim for s in sess)
    unit = [gf.pack(r) for r in gf.identity(D)]
    cols: Dict[str, List[Row]] = {}
    off = 0
    for s in sess:
        d = code.alphabets[s].dim
        cols[s] = unit[off:off + d]
        off += d
    for tail, ids in plan.tails:  # a tail's in-edges come before it
        feed = [c for f in plan.feeds[tail] for c in cols[f]]
        for eid in ids:
            cols[eid] = _global_image(gf, code.encoders[eid], feed, D, code.alphabets, eid)
    return D, cols


def _global_image(gf: GF, m: LinearMap, feed: List[Row], width: int,
                  alphabets: Mapping[str, Alphabet], out: str) -> List[Row]:
    """The packed columns of the global map of `m` applied to feeds with
    packed global columns `feed`: one `GF.combine`; a map with no input
    rows is the zero map into the alphabet of `out`."""
    if m.matrix:
        return gf.combine(feed, m.matrix, width)
    return [gf.pack([0] * width)] * alphabets[out].dim


REPORT_LIMIT = 50  # failing inputs evaluate_code reports


def evaluate_code(net: Network, conn: ConnectionRequirement, code: NetworkCode) -> EvaluationResult:
    """Check every decoder on every source tuple it can see.

    What depends on `net`'s structure and `conn` alone (`_Plan`: the check
    of `conn` against `net`, feeds, scopes, out-edges by tail in topological
    order, and demands grouped by union) is built once and kept on the
    structure, which the copies `capacitated_network` makes of one layout
    share; a different `conn` object replaces it.  `net` and `conn` are
    treated as immutable.  Every check of `code` runs on every call.

    A session's scope is itself, and an edge's scope is the union of its
    feeds' scopes, in session order: the sessions originating in its tail's
    ancestor cone.  A demand (r, s) is checked over the tuples of its
    union: the sessions that r's decoder feeds read, plus s.  Sessions are
    independent and the decoder reads nothing outside that union, so this
    verdict equals that of checking every source tuple.

    `MAX_CONE_TUPLES` caps the tuples of each demand's union, the entries
    of all scope tables together and those of all linear map tables
    together, each checked before any map is checked or any table built.
    Only the alphabets of sessions and edges are sized (`Alphabet.size`).
    Every encoder, in topological order, and then every decoder, in the
    order below, is checked against its feeds and its alphabet
    (`_check_map`) before any table is built, and the first that fails is
    named; the largest entry of every table is found first, in batched
    passes (`_table_maxima`).

    Which path decides:
      - A wholly linear code (`NetworkCode.is_linear`) whose global maps
        hold at most `MAX_CONE_TUPLES` entries together (D per column, for
        F_q^D the stacked source space) is first decided by those maps
        (Koetter & Médard, "An algebraic approach to network coding",
        IEEE/ACM Trans. Networking 11(5), 2003): each edge's is composed
        once, in topological order (`_global_columns`), and a demand
        (r, s) holds iff r's decoder applied to the global maps of its
        feeds is the global map of s, an exact identity of packed columns.
        If every demand holds the code is zero-error, no table is built,
        and the result's `oracle` answers entropies by rank.
      - Any other code, and a linear code with a failing demand, is
        tabulated, so a failure is reported from the tables: each variable
        once, in topological order, over the tuples of its scope, and each
        decoder is checked on those tables; the `oracle` keeps them.

    Each entry of `failing_inputs` is (source tuple over all sessions,
    receiver, session), at most `REPORT_LIMIT` of them; demands that share
    a union are checked together, in the order of their first appearance
    among the sorted demands, and a session outside the failing demand's
    union is reported at its first symbol."""
    plan = _plan(net, conn)
    for e in net.edges:
        if e.id not in code.encoders:
            raise StructuralError(f"no encoder for edge {e.id}")
        if e.id not in code.alphabets:
            raise StructuralError(f"no alphabet for edge {e.id}")
    for s in conn.sessions:
        if s not in code.alphabets:
            raise StructuralError(f"no alphabet for session {s}")

    sess = plan.sessions
    sizes = {k: code.alphabets[k].size for k in plan.keys}
    for r, s in plan.demands:
        if (r, s) not in code.decoders:
            raise StructuralError(f"no decoder for session {s} at receiver {r}")

    oracle = EntropyOracle({}, sizes, plan.scopes)
    for union, _ in plan.groups:
        n = oracle.tuples(union)
        if n > MAX_CONE_TUPLES:
            raise ResourceError(f"source-tuple space of size {n} exceeds the cap {MAX_CONE_TUPLES}")
    entries = sum(m * oracle.tuples(scope) for scope, m in plan.scope_counts)
    if entries > MAX_CONE_TUPLES:
        raise ResourceError(f"scope tables of {entries} entries exceed the cap {MAX_CONE_TUPLES}")
    # each LinearMap keeps its table, so their entries are capped together
    linear = {id(m): m for m in itertools.chain(code.encoders.values(), code.decoders.values())
              if isinstance(m, LinearMap)}
    entries = sum(m.q ** m.in_dim for m in linear.values())
    if entries > MAX_CONE_TUPLES:
        raise ResourceError(f"linear map tables of {entries} entries exceed the cap {MAX_CONE_TUPLES}")

    maps = ([code.encoders[eid] for _, ids in plan.tails for eid in ids]
            + [code.decoders[d] for d in plan.checks])
    for m, top, (what, feeds, out) in zip(maps, _table_maxima(maps), plan.slots):
        _check_map(m, what, feeds, out, code.alphabets, sizes, top)

    # the global maps hold D entries per column: capped together like the tables
    q = code.is_linear()
    if q is not None and (sum(code.alphabets[s].dim for s in sess)
                          * sum(code.alphabets[k].dim for k in sizes) <= MAX_CONE_TUPLES):
        gf = GF(q)
        D, cols = _global_columns(plan, code, gf)
        if all(_global_image(gf, code.decoders[(r, s)], [c for f in plan.feeds[r] for c in cols[f]],
                             D, code.alphabets, s) == cols[s] for r, s in plan.checks):
            return EvaluationResult(True, [], oracle._keep_columns(gf, D, cols))

    for s in sess:
        oracle.arrays[s] = np.arange(sizes[s], dtype=np.int64)
    for tail, ids in plan.tails:
        feeds = plan.feeds[tail]
        rows = oracle.index(feeds, plan.node_scope[tail])
        for eid in ids:
            oracle.arrays[eid] = _table(code.encoders[eid], feeds, code.alphabets)[rows]

    failing: List[tuple] = []
    for union, checks in plan.groups:
        for r, s in checks:
            table = _table(code.decoders[(r, s)], plan.feeds[r], code.alphabets)
            bad = np.flatnonzero(table[oracle.index(plan.feeds[r], union)] != oracle.over(s, union))
            if bad.size:
                values = {t: oracle.over(t, union) for t in union}
                for b in bad[: max(0, REPORT_LIMIT - len(failing))]:
                    src = tuple(code.alphabets[t].symbol(int(values[t][b]) if t in values else 0)
                                for t in sess)
                    failing.append((src, r, s))
    # a failing demand reports at least one input while fewer than REPORT_LIMIT are held
    return EvaluationResult(not failing, failing, oracle)


def check_admissible(
    net: Network,
    conn: ConnectionRequirement,
    code: NetworkCode,
    tup: RateCapacityTuple,
) -> bool:
    """Zero-error, log|A_e| <= ω_e on capacitated edges, log|A_s| >= λ_s."""
    result = evaluate_code(net, conn, code)
    return result.zero_error and alphabets_meet_tuple(net, conn, code, tup)


def alphabets_meet_tuple(
    net: Network, conn: ConnectionRequirement, code: NetworkCode, tup: RateCapacityTuple
) -> bool:
    """log|A_e| <= ω_e on capacitated edges and log|A_s| >= λ_s: the part of
    admissibility that does not need the code evaluated.  Each comparison
    is one of integers, |A|^d against a product of prime powers, for d the
    denominator of the capacity or rate
    (:func:`~entronet.exactlog.log_int_sign`), made once per distinct pair
    of alphabet size and capacity over the edges."""
    met = set()
    for e in net.edges:
        cap = tup.cap(e.id)
        if cap is UNCAPPED:
            continue
        pair = (code.alphabets[e.id].size, cap)
        if pair not in met:
            if log_int_sign(*pair) > 0:
                return False
            met.add(pair)
    for s in conn.sessions:
        lam = tup.rates.get(s, ZERO)
        if log_int_sign(code.alphabets[s].size, lam) < 0:
            return False
    return True


def kernels_of_linear_code(
    net: Network, conn: ConnectionRequirement, code: NetworkCode
) -> SubspaceFamily:
    """Compose local encoder matrices along topological order to get global
    maps from the stacked source space F_q^D, and return their kernels,
    indexed by sessions (sorted) then edges (sorted).

    A global map M is kept as its packed columns, composed by
    `_global_columns` as `evaluate_code` composes them.  Each kernel
    is `GF.perp` of those columns, one per distinct global map, a full-rank
    basis, so the family is built without re-validating it.  When the
    columns are independent they are kept as the member's annihilator, and
    `entropy_at` on the family is one rank of the union of such columns."""
    q = code.is_linear()
    if q is None:
        raise ValueError("code is not linear over a common field")
    gf = GF(q)
    D, cols = _global_columns(_plan(net, conn), code, gf)

    keys = list(conn.sessions) + sorted(e.id for e in net.edges)
    kernels: Dict[tuple, Matrix] = {}
    members: List[Matrix] = []
    independent: Dict[int, list] = {}
    for i, k in enumerate(keys):
        key = tuple(cols[k])
        basis = kernels.get(key)
        if basis is None:
            basis = kernels[key] = [gf.unpack(v, D) for v in gf.perp(cols[k], D)]
        members.append(basis)
        # a map with independent columns is an annihilator of its kernel
        if len(basis) + len(cols[k]) == D:
            independent[i] = cols[k]
    return SubspaceFamily._trusted(q, D, members, independent)


def to_dot(net: Network, conn: ConnectionRequirement | None = None) -> str:
    """DOT export: open circles for session origins, double circles for
    receivers, solid points otherwise; capacities as edge labels."""
    origins = set()
    receivers = set()
    annot: Dict[str, List[str]] = {}
    if conn is not None:
        for s in conn.sessions:
            origins.add(conn.origin[s])
            annot.setdefault(conn.origin[s], []).append(f"O:{s}")
            for r in conn.receivers[s]:
                receivers.add(r)
                annot.setdefault(r, []).append(f"D:{s}")
    lines = ["digraph network {", "  rankdir=LR;"]
    for n in net.nodes:
        label = n
        if n in annot:
            label += "\\n" + ",".join(annot[n])
        if n in origins:
            lines.append(f'  "{n}" [shape=circle, label="{label}"];')
        elif n in receivers:
            lines.append(f'  "{n}" [shape=doublecircle, label="{label}"];')
        else:
            lines.append(f'  "{n}" [shape=point, label=""];')
    for e in net.edges:
        cap = "" if e.cap is UNCAPPED else _logscalar_text(e.cap)
        lines.append(f'  "{e.tail}" -> "{e.head}" [label="{e.id}{": " + cap if cap else ""}"];')
    lines.append("}")
    return "\n".join(lines)


def _logscalar_text(x: LogScalar) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for p, qq in sorted(x.terms.items()):
        parts.append(f"{qq}·log{p}")
    return " + ".join(parts).replace("+ -", "- ")
