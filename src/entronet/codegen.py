"""Constructive achievability: zero-error network codes on the fixed network
from quasi-uniform supports and from subspace families, plus the underlying
compression primitives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .construct import GDaggerLayout
from .ffield import GF, Matrix, digits_of, flat_index
from .groupchar import SubspaceFamily, SupportSet, support_projections
from .netmodel import Alphabet, LinearMap, NetworkCode, TableMap, edge_feeds


# ---------------------------------------------------------------------------
# side-information compression over a quasi-uniform pair support


def _side_info(u: np.ndarray, nu: int, v: np.ndarray, nv: int):
    """Side-information coding of u (in 0..nu-1) given v (in 0..nv-1) over
    distinct pairs (u[t], v[t]): each pair's w, the rank of its u among the
    u paired with its v, and the table over (w, v) that gives u back.  On a
    quasi-uniform support every v is paired with equally many u, so the
    table has no gaps."""
    n = len(u)
    order = np.argsort(flat_index(n, [v, u], [nv, nu]))
    w = np.empty(n, dtype=np.int64)
    w[order] = np.arange(n) - np.searchsorted(v[order], v[order])
    table = np.zeros(n, dtype=np.int64)
    table[flat_index(n, [w, v], [n // nv, nv])] = u
    return w, table


# ---------------------------------------------------------------------------
# Theorem-1-style code from a quasi-uniform support


def quasi_uniform_code(s: SupportSet, layout: GDaggerLayout) -> NetworkCode:
    """Zero-error code on the fixed network whose role-edge alphabets meet
    the capacities of the support's entropy function with equality.

    The joint session is identified with the support itself; every other
    session is a fresh uniform index.  Type-1/2 compression uses slice
    indices; the type-2 bottleneck carries the index of V_α plus the session
    index modulo the projected support size.

    Every table is gathered from the rank matrix R of the support and its
    projections (`support_projections`).  A table over fan feeds is 0 off
    the support.
    """
    N = s.arity
    full = (1 << N) - 1
    syms, R, proj, failing = support_projections(s)
    sizes = [len(col) for col in syms]
    mf = len(R)

    def coords(mask: int) -> List[int]:
        return [c for c in range(N) if mask >> c & 1]

    def symbols(mask: int, rows: np.ndarray) -> List[tuple]:
        """The symbols of each row of R in `rows` at the coordinates of `mask`."""
        cols = coords(mask)
        return [tuple(syms[c][row[c]] for c in cols) for row in R[rows].tolist()]

    if failing:
        raise ValueError(f"support is not quasi-uniform (failing coordinates {failing})")
    if N != layout.n:
        raise ValueError(f"support arity {N} does not match layout N={layout.n}")
    net, conn = layout.network, layout.conn

    alphabets: Dict[str, Alphabet] = {}
    sess_full = layout.session_labels[full]
    alphabets[sess_full] = Alphabet(symbols=symbols(full, np.arange(mf)))
    for mask in range(1, full):
        alphabets[layout.session_labels[mask]] = Alphabet(symbols=range(len(proj[mask][0])))
    encoders: Dict[str, TableMap] = {}
    decoders: Dict[Tuple[str, str], TableMap] = {}

    def set_encoder(eid: str, out_alpha: Alphabet, table: np.ndarray) -> None:
        alphabets[eid] = out_alpha
        encoders[eid] = TableMap(table.reshape(-1))

    def on_fans(eid: str, values: np.ndarray) -> np.ndarray:
        """Table over the fan feeds of `eid`, giving each support row's value."""
        cols = [layout.fans[f] - 1 for f in edge_feeds(net, conn, net.edge(eid)) if f in layout.fans]
        table = np.zeros(int(np.prod([sizes[c] for c in cols])), dtype=np.int64)
        table[flat_index(mf, [R[:, c] for c in cols], [sizes[c] for c in cols])] = values
        return table

    # sources part: V[j] edges carry coordinate j; fans forward one V value
    v_cols = [j - 1 for _, j in sorted((e, j) for j, e in layout.v_edges.items())]
    v_sizes = [sizes[c] for c in v_cols]
    digits = digits_of(np.arange(int(np.prod(v_sizes)), dtype=np.int64), v_sizes)
    for j in range(1, N + 1):
        set_encoder(layout.v_edges[j], Alphabet(symbols=syms[j - 1]), R[:, j - 1])
    for eid, j in layout.fans.items():
        set_encoder(eid, alphabets[layout.v_edges[j]], digits[v_cols.index(j - 1)])

    for sub in layout.subnets:
        a = sub.alpha
        sess_a = layout.session_labels[a]
        first_a, inv_a = proj[a]
        ma = len(first_a)
        ident = np.arange(ma)
        if sub.kind == 0:
            set_encoder(sub.role_edges["W"], alphabets[sess_a], ident)
            (rx,) = sub.receivers
            decoders[(rx, sess_a)] = TableMap(ident)
            continue
        # W: rank of the support tuple within its α-slice; the inverse reads
        # the tuple back from (W, index of V_α)
        w, from_slice = _side_info(np.arange(mf), mf, inv_a, ma)
        slice_alpha = Alphabet(symbols=range(mf // ma))
        va_alpha = Alphabet(symbols=symbols(a, first_a))
        if sub.kind == 1:
            set_encoder(sub.role_edges["W"], slice_alpha, w)
            set_encoder(sub.role_edges["W'"], va_alpha, on_fans(sub.role_edges["W'"], inv_a))
            (rx,) = sub.receivers
            decoders[(rx, sess_full)] = TableMap(from_slice)  # feeds: W, W'
            continue
        # type 2
        for role in ("Sa>n1", "Sa>rxU"):
            set_encoder(sub.role_edges[role], alphabets[sess_a], ident)
        # n1 feeds: Sa>n1 first, then fans of V_α
        va = on_fans(sub.role_edges["W"], inv_a)
        set_encoder(sub.role_edges["W"], alphabets[sess_a], (ident[:, None] + va) % ma)
        for role in ("W>U", "W>L"):
            set_encoder(sub.role_edges[role], alphabets[sess_a], ident)
        set_encoder(sub.role_edges["W'"], slice_alpha, w)
        # W'': rank of V_α among the α-projections seen with V_i (n2 feeds:
        # fans of V_{α∪i}); W* inverts it (n3 feeds: W'', then the fan of V_i)
        mi = sizes[sub.i - 1]
        first_ai, inv_ai = proj[a | 1 << (sub.i - 1)]
        w2, wstar = _side_info(inv_a[first_ai], ma, R[first_ai, sub.i - 1], mi)
        set_encoder(
            sub.role_edges["W''"],
            Alphabet(symbols=range(len(wstar) // mi)),
            on_fans(sub.role_edges["W''"], w2[inv_ai]),
        )
        set_encoder(sub.role_edges["W*"], va_alpha, wstar)
        for rx, dem in sub.receivers.items():
            if dem == sess_full:
                # feeds: Sa>rxU, W', W>U; the slice of V_α = W - S_α
                s, wp, x = digits_of(np.arange(ma * mf), [ma, mf // ma, ma])
                table = from_slice[flat_index(ma * mf, [wp, (x - s) % ma], [mf // ma, ma])]
            else:
                # feeds: W*, W>L; S_α = W - V_α
                v, x = digits_of(np.arange(ma * ma), [ma, ma])
                table = (x - v) % ma
            decoders[(rx, dem)] = TableMap(table)

    return NetworkCode(alphabets, encoders, decoders)


# ---------------------------------------------------------------------------
# linear compression (two linear views of a common source)


@dataclass(frozen=True)
class LinearCompression:
    """W = a @ W_matrix, the output of T1 at the columns `picks`, with
    T1(a) = W @ rec_from_W + T2(a) @ rec_from_T2 and
    dim W = rank [T2 | T1] − rank T2."""

    q: int
    W_matrix: Matrix  # domain -> W
    picks: List[int]  # the columns of T1 that W carries
    rec_from_W: Matrix  # W -> T1-output component
    rec_from_T2: Matrix  # T2-output -> T1-output component

    @property
    def out_dim(self) -> int:
        return len(self.picks)


def linear_compress(q: int, T1: Matrix, T2: Matrix) -> LinearCompression:
    """One elimination of [T2 | T1]: W is T1 at its pivot columns past T2.
    Every column of the stack is the combination of its pivot columns given
    by its column of the reduced form, which gives both reconstructions."""
    if len(T1) != len(T2):
        raise ValueError("T1 and T2 must share the domain dimension")
    gf = GF(q)
    t1, t2 = (len(T[0]) if T else 0 for T in (T1, T2))
    R, piv = gf.rref([list(b) + list(a) for a, b in zip(T1, T2)])
    picks = [c - t2 for c in piv if c >= t2]
    rec_t2 = gf.zeros(t2, t1)
    for r, c in enumerate(piv):
        if c < t2:
            rec_t2[c] = R[r][t2:]
    rec_w = [R[r][t2:] for r, c in enumerate(piv) if c >= t2]
    W = [[row[c] for c in picks] for row in T1]
    return LinearCompression(q, W, picks, rec_w, rec_t2)


def _neg(gf: GF, M: Matrix) -> Matrix:
    return [[gf.neg(x) for x in row] for row in M]


def linear_code(fam: SubspaceFamily, layout: GDaggerLayout) -> NetworkCode:
    """Linear zero-error code: the designated edge maps f_j have kernel V_j,
    and sessions are uniform F_q vectors.  G[α] is the α-stack (x ↦ x·f_j
    for j ∈ α, in element order) at its pivot columns: S[α], W' and the
    type-2 W carry x·G[α], and every compression is `linear_compress`
    against it."""
    N = layout.n
    if fam.arity != N:
        raise ValueError(f"family arity {fam.arity} does not match layout N={N}")
    gf = fam.gf
    q = fam.q
    n = fam.ambient_dim
    full = (1 << N) - 1

    # f_j with left kernel V_j
    f = {j: fam.annihilator(j - 1) for j in range(1, N + 1)}
    cdim = {j: n - len(fam.members[j - 1]) for j in range(1, N + 1)}

    def elems(mask: int) -> List[int]:
        return [j for j in range(1, N + 1) if mask >> (j - 1) & 1]

    width: Dict[int, int] = {}
    piv: Dict[int, List[int]] = {}
    G: Dict[int, Matrix] = {}
    for mask in range(1, full + 1):
        stack = [[x for j in elems(mask) for x in f[j][r]] for r in range(n)]
        width[mask] = sum(cdim[j] for j in elems(mask))
        piv[mask] = gf.rref(stack)[1]
        G[mask] = [[row[c] for c in piv[mask]] for row in stack]
    if len(piv[full]) != n:
        raise ValueError("subspaces must intersect only at the zero vector")
    comp = {a: linear_compress(q, gf.identity(n), G[a]) for a in range(1, full + 1)}

    alphabets: Dict[str, Alphabet] = {}
    encoders: Dict[str, LinearMap] = {}
    decoders: Dict[Tuple[str, str], LinearMap] = {}
    sess_full = layout.session_labels[full]
    alphabets[sess_full] = Alphabet(q=q, dim=n)
    for mask in range(1, full):
        alphabets[layout.session_labels[mask]] = Alphabet(q=q, dim=len(piv[mask]))

    def set_encoder(eid: str, out_dim: int, matrix: Matrix) -> None:
        alphabets[eid] = Alphabet(q=q, dim=out_dim)
        encoders[eid] = LinearMap(q, matrix)

    for j in range(1, N + 1):
        set_encoder(layout.v_edges[j], cdim[j], f[j])
    # fan feeds: every V edge, in edge-id order
    v_order = sorted(range(1, N + 1), key=layout.v_edges.get)
    for eid, j in layout.fans.items():
        start = sum(cdim[k] for k in v_order[: v_order.index(j)])
        set_encoder(eid, cdim[j], gf.selection(width[full], range(start, start + cdim[j])))

    for sub in layout.subnets:
        a = sub.alpha
        sess_a = layout.session_labels[a]
        dp = len(piv[a])
        ident = gf.identity(dp)
        if sub.kind == 0:
            set_encoder(sub.role_edges["W"], dp, ident)
            (rx,) = sub.receivers
            decoders[(rx, sess_a)] = LinearMap(q, ident)
            continue
        c1 = comp[a]
        # mid and n1 feeds hold the α-stack: fans of V_α in element order
        stack_sel = gf.selection(width[a], piv[a])
        if sub.kind == 1:
            set_encoder(sub.role_edges["W"], c1.out_dim, c1.W_matrix)
            set_encoder(sub.role_edges["W'"], dp, stack_sel)
            (rx,) = sub.receivers
            # rx feeds: W then W' = x·G[α]
            decoders[(rx, sess_full)] = LinearMap(q, c1.rec_from_W + c1.rec_from_T2)
            continue
        # type 2
        for role in ("Sa>n1", "Sa>rxU", "W>U", "W>L"):
            set_encoder(sub.role_edges[role], dp, ident)
        # n1 feeds: Sa>n1, then the α-stack; W = S_α + x·G[α]
        set_encoder(sub.role_edges["W"], dp, ident + stack_sel)
        set_encoder(sub.role_edges["W'"], c1.out_dim, c1.W_matrix)
        # n2 feeds: fans of V_{α∪i} in element order; W'' is x·G[α] at the
        # picks of its compression against f_i, each a column of the α-stack
        c2 = linear_compress(q, G[a], f[sub.i])
        at, off = [], 0
        for j in sorted(elems(a) + [sub.i]):
            if j != sub.i:
                at += range(off, off + cdim[j])
            off += cdim[j]
        set_encoder(sub.role_edges["W''"], c2.out_dim,
                    gf.selection(off, [at[piv[a][c]] for c in c2.picks]))
        # n3 feeds: W'' then the fan of V_i; W* = x·G[α]
        set_encoder(sub.role_edges["W*"], dp, c2.rec_from_W + c2.rec_from_T2)
        for rx, dem in sub.receivers.items():
            if dem == sess_full:
                # feeds: Sa>rxU, W', W>U; x·G[α] = W − S_α
                dec = _neg(gf, c1.rec_from_T2) + c1.rec_from_W + c1.rec_from_T2
            else:
                # feeds: W*, W>L; S_α = W − W*
                dec = _neg(gf, ident) + ident
            decoders[(rx, dem)] = LinearMap(q, dec)

    return NetworkCode(alphabets, encoders, decoders)
