"""Constructive achievability: zero-error network codes on the fixed network
from quasi-uniform supports and from subspace families, plus the underlying
compression primitives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
        feeds = edge_feeds(net, conn, net.edge(eid))
        cols = [layout.fans[f] - 1 for f in feeds if f in layout.fans]
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
    """W = a @ W_matrix is a function of T1(a) with
    T1(a) = W @ rec_from_W + T2(a) @ rec_from_T2, and
    dim W = dim ker(T2) - dim (ker(T1) ∩ ker(T2))."""

    q: int
    W_matrix: Matrix  # domain -> W
    via_T1: Matrix  # T1-output -> W  (W = T1(a) @ via_T1)
    rec_from_W: Matrix  # W -> T1-output component
    rec_from_T2: Matrix  # T2-output -> T1-output component

    @property
    def out_dim(self) -> int:
        return len(self.W_matrix[0]) if self.W_matrix else 0


def linear_compress(q: int, T1: Matrix, T2: Matrix) -> LinearCompression:
    """Decompose the domain as (B1∩B2) ⊕ W1 ⊕ W2 ⊕ W0 with B1 = ker T1 =
    (B1∩B2)⊕W1 and B2 = ker T2 = (B1∩B2)⊕W2; W carries the W2-coordinates."""
    gf = GF(q)
    if len(T1) != len(T2):
        raise ValueError("T1 and T2 must share the domain dimension")
    d = len(T1)
    B1 = gf.nullspace(T1)
    B2 = gf.nullspace(T2)
    I = gf.intersect(B1, B2) if B1 and B2 else []
    W1 = gf.extend_basis(I, space=B1) if B1 else []
    W2 = gf.extend_basis(I, space=B2) if B2 else []
    W0 = gf.extend_basis([list(r) for r in I] + W1 + W2, dim=d)
    P = [list(r) for r in I] + W1 + W2 + W0
    # x = c @ P  =>  c = x @ P^{-1}, where P @ P^{-1} = I
    Pinv = gf.solve(P, gf.identity(d))
    if Pinv is None:
        raise RuntimeError("change-of-basis matrix is singular")  # unreachable
    ni, n1, n2 = len(I), len(W1), len(W2)
    Wmat = [[Pinv[r][ni + n1 + c] for c in range(n2)] for r in range(d)]
    t1cols = len(T1[0]) if T1 else 0
    via = gf.solve(T1, Wmat)
    if via is None or gf.matmul(T1, via) != Wmat:
        raise RuntimeError("W is not expressible through T1")  # unreachable
    rec_w = gf.matmul(W2, T1) if W2 else []
    W0proj = [[Pinv[r][ni + n1 + n2 + c] for c in range(len(W0))] for r in range(d)]
    Q = gf.matmul(W0proj, gf.matmul(W0, T1)) if W0 else gf.zeros(d, t1cols)
    t2cols = len(T2[0]) if T2 and T2[0] else 0
    if t2cols == 0:
        # T2 is the zero map, so B2 is everything and the residual vanishes
        if any(any(x != 0 for x in row) for row in Q):
            raise RuntimeError("T2 cannot recover the residual component")  # unreachable
        rec_t2 = []
    else:
        rec_t2 = gf.solve(T2, Q)
        if rec_t2 is None or gf.matmul(T2, rec_t2) != Q:
            raise RuntimeError("T2 cannot recover the residual component")  # unreachable
    return LinearCompression(q, Wmat, via, rec_w, rec_t2)


def _hstack(gf: GF, blocks: Sequence[Matrix], rows: int) -> Matrix:
    out = [[] for _ in range(rows)]
    for b in blocks:
        for r in range(rows):
            out[r].extend(b[r] if b else [])
    return out


def _neg(gf: GF, M: Matrix) -> Matrix:
    return [[gf.neg(x) for x in row] for row in M]


def linear_code(fam: SubspaceFamily, layout: GDaggerLayout) -> NetworkCode:
    """Linear zero-error code: the designated edge maps f_j have kernel V_j;
    sessions are uniform F_q vectors; compression via linear_compress."""
    N = layout.n
    if fam.arity != N:
        raise ValueError(f"family arity {fam.arity} does not match layout N={N}")
    if fam.intersection_codim(range(N)) != fam.ambient_dim:
        raise ValueError("subspaces must intersect only at the zero vector")
    gf = fam.gf
    q = fam.q
    n = fam.ambient_dim
    full = (1 << N) - 1

    # f_j with left kernel V_j
    f = {j: fam.annihilator(j - 1) for j in range(1, N + 1)}
    cdim = {j: n - len(fam.members[j - 1]) for j in range(1, N + 1)}

    def elems(mask: int) -> List[int]:
        return [j for j in range(1, N + 1) if mask >> (j - 1) & 1]

    F: Dict[int, Matrix] = {}
    dprime: Dict[int, int] = {}
    sel: Dict[int, Matrix] = {}  # stack-output -> d' selected coordinates
    expand: Dict[int, Matrix] = {}  # selected -> full stack
    for mask in range(1, full + 1):
        js = elems(mask)
        Fm = _hstack(gf, [f[j] for j in js], n)
        F[mask] = Fm
        R, piv = gf.rref(Fm)
        dp = len(piv)
        dprime[mask] = dp
        width = len(Fm[0]) if Fm[0] is not None else 0
        S = gf.zeros(width, dp)
        for c, col in enumerate(piv):
            S[col][c] = 1
        sel[mask] = S
        expand[mask] = [R[r] for r in range(dp)]

    alphabets: Dict[str, Alphabet] = {}
    encoders: Dict[str, LinearMap] = {}
    decoders: Dict[Tuple[str, str], LinearMap] = {}
    sess_full = layout.session_labels[full]
    alphabets[sess_full] = Alphabet(q=q, dim=n)
    for mask in range(1, full):
        alphabets[layout.session_labels[mask]] = Alphabet(q=q, dim=dprime[mask])

    def set_encoder(eid: str, out_dim: int, matrix: Matrix) -> None:
        alphabets[eid] = Alphabet(q=q, dim=out_dim)
        encoders[eid] = LinearMap(q, matrix)

    for j in range(1, N + 1):
        set_encoder(layout.v_edges[j], cdim[j], f[j])
    v_order = sorted(layout.v_edges.values())
    v_elem = {layout.v_edges[j]: j for j in range(1, N + 1)}
    total_c = sum(cdim[j] for j in range(1, N + 1))
    v_offset = {}
    off = 0
    for eid in v_order:
        v_offset[v_elem[eid]] = off
        off += cdim[v_elem[eid]]
    for eid, j in layout.fans.items():
        M = gf.zeros(total_c, cdim[j])
        for r in range(cdim[j]):
            M[v_offset[j] + r][r] = 1
        set_encoder(eid, cdim[j], M)

    for sub in layout.subnets:
        a = sub.alpha
        js = elems(a)
        sess_a = layout.session_labels[a]
        dp = dprime[a]
        if sub.kind == 0:
            set_encoder(sub.role_edges["W"], dp, gf.identity(dp))
            (rx,) = sub.receivers
            decoders[(rx, sess_a)] = LinearMap(q, gf.identity(dp))
            continue
        comp = linear_compress(q, gf.identity(n), F[a])
        wdim = n - dp
        if sub.kind == 1:
            set_encoder(sub.role_edges["W"], wdim, comp.W_matrix)
            # mid feeds: fans of V_α in element order; W' = selected coords
            set_encoder(sub.role_edges["W'"], dp, sel[a])
            (rx,) = sub.receivers
            # rx feeds: W then W'; S_N = w @ rec_W + (w' @ expand) @ rec_T2
            dec = comp.rec_from_W + gf.matmul(expand[a], comp.rec_from_T2)
            decoders[(rx, sess_full)] = LinearMap(q, dec)
            continue
        # type 2
        i = sub.i
        for role in ("Sa>n1", "Sa>rxU"):
            set_encoder(sub.role_edges[role], dp, gf.identity(dp))
        # n1 feeds: Sa>n1 (dp) then fans of V_α (stack); W = s + stack@sel
        Wenc = [row[:] for row in gf.identity(dp)] + [row[:] for row in sel[a]]
        set_encoder(sub.role_edges["W"], dp, Wenc)
        for role in ("W>U", "W>L"):
            set_encoder(sub.role_edges[role], dp, gf.identity(dp))
        set_encoder(sub.role_edges["W'"], wdim, comp.W_matrix)
        # n2 feeds: fans of V_{α∪i} in element order; W'' via compression of
        # the α-stack against f_i, expressed through the feed blocks
        comp2 = linear_compress(q, F[a], f[i])
        w2dim = comp2.out_dim
        order = sorted(set(js) | {i})
        feed_width = sum(cdim[j] for j in order)
        M2 = gf.zeros(feed_width, w2dim)
        row_in_alpha = 0
        off = 0
        for j in order:
            if j != i:
                for r in range(cdim[j]):
                    M2[off + r] = comp2.via_T1[row_in_alpha + r][:]
                row_in_alpha += cdim[j]
            off += cdim[j]
        set_encoder(sub.role_edges["W''"], w2dim, M2)
        # n3 feeds: W'' then fan of V_i; W* = (stack reconstruction) @ sel
        rec = gf.matmul(comp2.rec_from_W, sel[a]) + gf.matmul(comp2.rec_from_T2, sel[a])
        set_encoder(sub.role_edges["W*"], dp, rec)
        for rx, dem in sub.receivers.items():
            if dem == sess_full:
                # feeds: Sa>rxU (dp), W' (wdim), W>U (dp)
                ER = gf.matmul(expand[a], comp.rec_from_T2)
                dec = _neg(gf, ER) + comp.rec_from_W + ER
                decoders[(rx, sess_full)] = LinearMap(q, dec)
            else:
                # feeds: W* (dp), W>L (dp); S_α = W - W*
                dec = _neg(gf, gf.identity(dp)) + gf.identity(dp)
                decoders[(rx, sess_a)] = LinearMap(q, dec)

    return NetworkCode(alphabets, encoders, decoders)
