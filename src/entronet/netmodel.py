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


class Network:
    def __init__(self, nodes: Sequence[str], edges: Sequence[Edge]):
        self.nodes = tuple(str(n) for n in nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise StructuralError("duplicate node labels")
        nodeset = set(self.nodes)
        self.edges = tuple(edges)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate edge ids")
        for e in self.edges:
            if e.tail not in nodeset or e.head not in nodeset:
                raise StructuralError(f"edge {e.id} references unknown node")
        self._by_id = {e.id: e for e in self.edges}
        self._in: Dict[str, List[Edge]] = {n: [] for n in self.nodes}
        for e in sorted(self.edges, key=lambda e: e.id):
            self._in[e.head].append(e)
        self._topo = topo_order(self)  # raises on cycles
        self._topo_pos = {n: i for i, n in enumerate(self._topo)}

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def in_edges(self, node: str) -> List[Edge]:
        return list(self._in.get(node, ()))

    def edges_topo(self) -> List[Edge]:
        return sorted(self.edges, key=lambda e: (self._topo_pos[e.tail], e.id))

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


def topo_order(net: Network) -> List[str]:
    """Topological node order, stable by label among ready nodes."""
    indeg = {n: 0 for n in net.nodes}
    out: Dict[str, List[str]] = {n: [] for n in net.nodes}
    for e in net.edges:
        indeg[e.head] += 1
        out[e.tail].append(e.head)
    ready = [n for n in net.nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(net.nodes):
        raise StructuralError("network contains a cycle")
    return order


class ConnectionRequirement:
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


def edge_feeds(net: Network, conn: ConnectionRequirement, edge: Edge) -> List[str]:
    """Canonical feed keys of an edge encoder: tail-origin sessions, then
    tail in-edges."""
    return conn.sessions_at(edge.tail) + [e.id for e in net.in_edges(edge.tail)]

def decoder_feeds(net: Network, conn: ConnectionRequirement, node: str) -> List[str]:
    return conn.sessions_at(node) + [e.id for e in net.in_edges(node)]


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


def _check_map(m: EncoderMap, what: str, feeds: List[str], out: str,
               alphabets: Mapping[str, Alphabet], sizes: Mapping[str, int]) -> None:
    """A TableMap must cover exactly its feed domain and write inside the
    alphabet of `out`; a LinearMap must map into the vector space that is
    the alphabet of `out` and read F_q vector feeds of its input dimension
    (`LinearMap.check_feeds`).  `sizes` holds the size of each alphabet."""
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
    # a negative entry reads as at least 2^63 in the unsigned view
    if len(m.table) and m.table.view(np.uint64).max() >= sizes[out]:
        raise StructuralError(f"{what} writes outside its alphabet")


def _table(m: EncoderMap, feeds: List[str], alphabets: Mapping[str, Alphabet]) -> np.ndarray:
    """Dense table of a map that `_check_map` passed."""
    return m.table if isinstance(m, TableMap) else m.to_table([alphabets[f] for f in feeds])


def _global_columns(net: Network, conn: ConnectionRequirement, code: NetworkCode,
                    gf: GF) -> Tuple[int, Dict[str, List[Row]]]:
    """D, the dimension of the stacked source space F_q^D (sessions in
    order), and the packed columns (`GF.pack`) of the global map of each
    session and edge: a session's are unit vectors, and an edge's column j
    is the combination of its feeds' columns that column j of its encoder
    matrix selects (`_global_image`), in topological order."""
    sess = conn.sessions
    D = sum(code.alphabets[s].dim for s in sess)
    unit = [gf.pack(r) for r in gf.identity(D)]
    cols: Dict[str, List[Row]] = {}
    off = 0
    for s in sess:
        d = code.alphabets[s].dim
        cols[s] = unit[off:off + d]
        off += d
    feeds: Dict[str, List[Row]] = {}  # a tail's in-edges come before it
    for e in net.edges_topo():
        feed = feeds.get(e.tail)
        if feed is None:
            feed = feeds[e.tail] = [c for f in edge_feeds(net, conn, e) for c in cols[f]]
        cols[e.id] = _global_image(gf, code.encoders[e.id], feed, D, code.alphabets, e.id)
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
    (`_check_map`) before any table is built.

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
    conn.validate_against(net)
    for e in net.edges:
        if e.id not in code.encoders:
            raise StructuralError(f"no encoder for edge {e.id}")
        if e.id not in code.alphabets:
            raise StructuralError(f"no alphabet for edge {e.id}")
    for s in conn.sessions:
        if s not in code.alphabets:
            raise StructuralError(f"no alphabet for session {s}")

    sess = list(conn.sessions)
    sizes = {k: code.alphabets[k].size for k in sess + [e.id for e in net.edges]}
    # the edges out of a node and the node's decoders read the node's feeds,
    # and so the sessions those feeds read: the node's scope
    scopes: Dict[str, Tuple[str, ...]] = {s: (s,) for s in sess}
    node_feeds: Dict[str, List[str]] = {}
    node_scope: Dict[str, Tuple[str, ...]] = {}

    def visit(node: str) -> None:
        node_feeds[node] = decoder_feeds(net, conn, node)
        reads = {s for f in node_feeds[node] for s in scopes[f]}
        node_scope[node] = tuple(s for s in sess if s in reads)

    out_edges: Dict[str, List[Edge]] = {}
    for e in net.edges_topo():
        out_edges.setdefault(e.tail, []).append(e)
    for tail, edges in out_edges.items():  # a tail's in-edges come before it
        visit(tail)
        for e in edges:
            scopes[e.id] = node_scope[tail]
    groups: Dict[Tuple[str, ...], List[Tuple[str, str]]] = {}
    for r, s in conn.demands():
        if (r, s) not in code.decoders:
            raise StructuralError(f"no decoder for session {s} at receiver {r}")
        if r not in node_scope:
            visit(r)
        scope = node_scope[r]
        union = scope if s in scope else tuple(t for t in sess if t in scope or t == s)
        groups.setdefault(union, []).append((r, s))

    oracle = EntropyOracle({}, sizes, scopes)
    for union in groups:
        n = oracle.tuples(union)
        if n > MAX_CONE_TUPLES:
            raise ResourceError(f"source-tuple space of size {n} exceeds the cap {MAX_CONE_TUPLES}")
    entries = sum(m * oracle.tuples(scope) for scope, m in Counter(scopes.values()).items())
    if entries > MAX_CONE_TUPLES:
        raise ResourceError(f"scope tables of {entries} entries exceed the cap {MAX_CONE_TUPLES}")
    # each LinearMap keeps its table, so their entries are capped together
    linear = {id(m): m for m in itertools.chain(code.encoders.values(), code.decoders.values())
              if isinstance(m, LinearMap)}
    entries = sum(m.q ** m.in_dim for m in linear.values())
    if entries > MAX_CONE_TUPLES:
        raise ResourceError(f"linear map tables of {entries} entries exceed the cap {MAX_CONE_TUPLES}")

    demands = [d for checks in groups.values() for d in checks]
    for tail, edges in out_edges.items():
        for e in edges:
            _check_map(code.encoders[e.id], f"encoder for {e.id}", node_feeds[tail], e.id,
                       code.alphabets, sizes)
    for r, s in demands:
        _check_map(code.decoders[(r, s)], f"decoder for session {s} at receiver {r}",
                   node_feeds[r], s, code.alphabets, sizes)

    # the global maps hold D entries per column: capped together like the tables
    q = code.is_linear()
    if q is not None and (sum(code.alphabets[s].dim for s in sess)
                          * sum(code.alphabets[k].dim for k in sizes) <= MAX_CONE_TUPLES):
        gf = GF(q)
        D, cols = _global_columns(net, conn, code, gf)
        if all(_global_image(gf, code.decoders[(r, s)], [c for f in node_feeds[r] for c in cols[f]],
                             D, code.alphabets, s) == cols[s] for r, s in demands):
            return EvaluationResult(True, [], oracle._keep_columns(gf, D, cols))

    for s in sess:
        oracle.arrays[s] = np.arange(sizes[s], dtype=np.int64)
    for tail, edges in out_edges.items():
        rows = oracle.index(node_feeds[tail], node_scope[tail])
        for e in edges:
            oracle.arrays[e.id] = _table(code.encoders[e.id], node_feeds[tail], code.alphabets)[rows]

    failing: List[tuple] = []
    for union, checks in groups.items():
        for r, s in checks:
            table = _table(code.decoders[(r, s)], node_feeds[r], code.alphabets)
            bad = np.flatnonzero(table[oracle.index(node_feeds[r], union)] != oracle.over(s, union))
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
    D, cols = _global_columns(net, conn, code, gf)

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
