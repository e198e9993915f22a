"""Constructive achievability: zero-error network codes on the fixed network
from quasi-uniform supports and from subspace families, plus the underlying
compression primitives and group-coset encoding."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .construct import GDaggerLayout
from .exactlog import LogScalar
from .ffield import GF, Matrix
from .groupchar import (
    FiniteGroup,
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    quasi_uniform_check,
)
from .netmodel import (
    Alphabet,
    ConnectionRequirement,
    LinearMap,
    Network,
    NetworkCode,
    TableMap,
    decoder_feeds,
    edge_feeds,
)


# ---------------------------------------------------------------------------
# side-information compression over a quasi-uniform pair support


@dataclass(frozen=True)
class SideInfoCode:
    """Zero-error description of U1 when the decoder knows U2, at alphabet
    size |Ω(U1,U2)| / |Ω(U2)| (an integer by quasi-uniformity)."""

    alphabet_size: int
    encoder: Mapping[tuple, int]  # (u1, u2) -> slice index
    decoder: Mapping[Tuple[int, object], object]  # (w, u2) -> u1


def side_info_encoder(s: SupportSet) -> SideInfoCode:
    if s.arity != 2:
        raise ValueError("side-information coding works on a pair support")
    res = quasi_uniform_check(s)
    if not res.ok:
        raise ValueError(f"support is not quasi-uniform (failing coordinates {res.failing})")
    pos = [{x: i for i, x in enumerate(a)} for a in s.alphabets]
    slices: Dict[object, List[object]] = {}
    for u1, u2 in s.tuples:
        slices.setdefault(u2, []).append(u1)
    m = None
    encoder = {}
    decoder = {}
    for u2, lst in slices.items():
        lst.sort(key=lambda x: pos[0][x])
        if m is None:
            m = len(lst)
        elif m != len(lst):  # cannot happen for quasi-uniform supports
            raise ValueError("slice sizes differ; support is not quasi-uniform")
        for w, u1 in enumerate(lst):
            encoder[(u1, u2)] = w
            decoder[(w, u2)] = u1
    return SideInfoCode(m, encoder, decoder)


# ---------------------------------------------------------------------------
# Theorem-1-style code from a quasi-uniform support


class _Proj:
    """Sorted projections of a support and slice-index compression tables."""

    def __init__(self, s: SupportSet):
        self.s = s
        self.pos = [{x: i for i, x in enumerate(a)} for a in s.alphabets]
        self._cache: Dict[Tuple[int, ...], List[tuple]] = {}

    def key(self, coords: Sequence[int], t: tuple) -> tuple:
        return tuple(t[c] for c in coords)

    def sorted_proj(self, coords: Tuple[int, ...]) -> List[tuple]:
        if coords not in self._cache:
            seen = {self.key(coords, t) for t in self.s.tuples}
            self._cache[coords] = sorted(
                seen, key=lambda p: tuple(self.pos[c][x] for c, x in zip(coords, p))
            )
        return self._cache[coords]

    def index(self, coords: Tuple[int, ...]) -> Dict[tuple, int]:
        return {p: i for i, p in enumerate(self.sorted_proj(coords))}

    def slices(
        self, coords_a: Tuple[int, ...], coords_b: Tuple[int, ...]
    ) -> Dict[tuple, List[tuple]]:
        """For each b-projection value, the sorted list of a-projections
        compatible with it (within the joint a∪b projection)."""
        out: Dict[tuple, set] = {}
        for t in self.s.tuples:
            out.setdefault(self.key(coords_b, t), set()).add(self.key(coords_a, t))
        return {
            b: sorted(v, key=lambda p: tuple(self.pos[c][x] for c, x in zip(coords_a, p)))
            for b, v in out.items()
        }


def quasi_uniform_code(s: SupportSet, layout: GDaggerLayout) -> NetworkCode:
    """Zero-error code on the fixed network whose role-edge alphabets meet
    the capacities of the support's entropy function with equality.

    The joint session is identified with the support itself; every other
    session is a fresh uniform index.  Type-1/2 compression uses slice
    indices; the type-2 bottleneck carries the index of V_α plus the session
    index modulo the projected support size.
    """
    res = quasi_uniform_check(s)
    if not res.ok:
        raise ValueError(f"support is not quasi-uniform (failing coordinates {res.failing})")
    N = layout.n
    if s.arity != N:
        raise ValueError(f"support arity {s.arity} does not match layout N={N}")
    net, conn = layout.network, layout.conn
    P = _Proj(s)
    full = (1 << N) - 1

    def coords(mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(N) if mask >> i & 1)

    m = {mask: len(P.sorted_proj(coords(mask))) for mask in range(1, full + 1)}

    omega_full = P.sorted_proj(coords(full))
    alphabets: Dict[str, Alphabet] = {}
    sess_full = layout.session_labels[full]
    alphabets[sess_full] = Alphabet(symbols=omega_full)
    for mask in range(1, full):
        alphabets[layout.session_labels[mask]] = Alphabet(symbols=list(range(m[mask])))

    encoders: Dict[str, TableMap] = {}
    decoders: Dict[Tuple[str, str], TableMap] = {}

    def set_encoder(eid: str, out_alpha: Alphabet, fn) -> None:
        alphabets[eid] = out_alpha
        feeds = edge_feeds(net, conn, net.edge(eid))
        encoders[eid] = TableMap.from_function(fn, [alphabets[f] for f in feeds], out_alpha)

    def set_decoder(node: str, sess: str, fn) -> None:
        feeds = decoder_feeds(net, conn, node)
        decoders[(node, sess)] = TableMap.from_function(
            fn, [alphabets[f] for f in feeds], alphabets[sess]
        )

    # sources part: V[j] edges carry coordinate j; fans forward one V value
    coord_alpha = {
        j: Alphabet(symbols=[p[0] for p in P.sorted_proj((j - 1,))]) for j in range(1, N + 1)
    }
    for j in range(1, N + 1):
        set_encoder(layout.v_edges[j], coord_alpha[j], lambda t, j=j: t[j - 1])
    v_order = sorted(layout.v_edges.values())
    for eid, j in layout.fans.items():
        jpos = v_order.index(layout.v_edges[j])
        set_encoder(eid, coord_alpha[j], lambda *vs, jpos=jpos: vs[jpos])

    for sub in layout.subnets:
        a = sub.alpha
        ca = coords(a)
        sess_a = layout.session_labels[a]
        idx_a = P.index(ca)
        sorted_a = P.sorted_proj(ca)
        ma = m[a]
        if sub.kind == 0:
            set_encoder(sub.role_edges["W"], alphabets[sess_a], lambda sv: sv)
            (rx,) = sub.receivers
            set_decoder(rx, sess_a, lambda w: w)
            continue
        if sub.kind == 1:
            # W: slice index of the full tuple given its α-projection
            slc = P.slices(coords(full), ca)
            set_encoder(
                sub.role_edges["W"],
                Alphabet(symbols=list(range(m[full] // ma))),
                lambda t, slc=slc, ca=ca: slc[P.key(ca, t)].index(t),
            )
            # W': the α-projection sent uncoded (feeds = fans of V_α, j-sorted)
            set_encoder(
                sub.role_edges["W'"],
                Alphabet(symbols=sorted_a),
                lambda *vs, idx_a=idx_a, sorted_a=sorted_a: (
                    tuple(vs) if tuple(vs) in idx_a else sorted_a[0]
                ),
            )
            (rx,) = sub.receivers
            set_decoder(
                rx, sess_full, lambda w, va, slc=slc: slc[va][w]
            )
            continue
        # type 2
        i = sub.i
        cai = coords(a | (1 << (i - 1)))
        slc1 = P.slices(coords(full), ca)  # for W'
        slc2 = P.slices(ca, (i - 1,))  # for W'' / W*
        mai = m[a | (1 << (i - 1))]
        mi = m[1 << (i - 1)]
        for role in ("Sa>n1", "Sa>rxU"):
            set_encoder(sub.role_edges[role], alphabets[sess_a], lambda sv: sv)
        # n1 feeds: Sa>n1 first, then fans of V_α in j order
        set_encoder(
            sub.role_edges["W"],
            Alphabet(symbols=list(range(ma))),
            lambda sv, *vs, idx_a=idx_a, ma=ma: (idx_a.get(tuple(vs), 0) + sv) % ma,
        )
        for role in ("W>U", "W>L"):
            set_encoder(sub.role_edges[role], alphabets[sub.role_edges["W"]], lambda w: w)
        set_encoder(
            sub.role_edges["W'"],
            Alphabet(symbols=list(range(m[full] // ma))),
            lambda t, slc1=slc1, ca=ca: slc1[P.key(ca, t)].index(t),
        )
        # n2 feeds: fans of V_{α∪i} in element order
        apos = [sorted(set(ca) | {i - 1}).index(c) for c in ca]
        ipos = sorted(set(ca) | {i - 1}).index(i - 1)
        def w2_fn(*vs, slc2=slc2, apos=apos, ipos=ipos):
            lst = slc2.get((vs[ipos],), ())
            va = tuple(vs[p] for p in apos)
            return lst.index(va) if va in lst else 0

        set_encoder(
            sub.role_edges["W''"],
            Alphabet(symbols=list(range(mai // mi))),
            w2_fn,
        )
        # n3 feeds: W'' first, then the fan of V_i
        def wstar_fn(wpp, vi, slc2=slc2, sorted_a=sorted_a):
            lst = slc2.get((vi,), ())
            return lst[wpp] if wpp < len(lst) else sorted_a[0]

        set_encoder(sub.role_edges["W*"], Alphabet(symbols=sorted_a), wstar_fn)
        for rx, dem in sub.receivers.items():
            if dem == sess_full:
                # feeds: Sa>rxU, W', W>U
                set_decoder(
                    rx,
                    sess_full,
                    lambda sv, wp, w, sorted_a=sorted_a, ma=ma, slc1=slc1: slc1[
                        sorted_a[(w - sv) % ma]
                    ][wp],
                )
            else:
                # feeds: W*, W>L
                set_decoder(
                    rx,
                    sess_a,
                    lambda va, w, idx_a=idx_a, ma=ma: (w - idx_a[va]) % ma,
                )

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
    if fam.intersection_basis(range(N)):
        raise ValueError("subspaces must intersect only at the zero vector")
    gf = fam.gf
    q = fam.q
    n = fam.ambient_dim
    full = (1 << N) - 1

    # f_j with left kernel V_j (double annihilator)
    f: Dict[int, Matrix] = {}
    cdim: Dict[int, int] = {}
    for j in range(1, N + 1):
        B = [list(r) for r in fam.members[j - 1]]
        if B:
            BT = [[B[i][c] for i in range(len(B))] for c in range(n)]
            K = gf.nullspace(BT)
        else:
            K = gf.identity(n)
        # f_j = K^T (n x dim V_j^perp); its left kernel is V_j
        f[j] = [[K[r][c] for r in range(len(K))] for c in range(n)]
        cdim[j] = len(K)

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

    def stack_positions(mask: int, order_elems: List[int]) -> List[Tuple[int, int]]:
        """(offset within the feed concat, element) for each element of the
        given feed element order."""
        out = []
        off = 0
        for j in order_elems:
            out.append((off, j))
            off += cdim[j]
        return out

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


# ---------------------------------------------------------------------------
# group network codes: coset-intersection encoding


class GroupCodeError(ValueError):
    pass


def group_code_encode(
    G: FiniteGroup,
    assignment: Mapping[str, FrozenSet[int]],
    net: Network,
    conn: ConnectionRequirement,
) -> NetworkCode:
    """Every session/edge carries the index of the left coset of its assigned
    subgroup; each edge forwards the coset of G_e containing the intersection
    of its feeds' cosets.  Raises GroupCodeError naming a witness combination
    when some reachable intersection is empty or straddles cosets of G_e."""
    for key in list(conn.sessions) + [e.id for e in net.edges]:
        if key not in assignment:
            raise GroupCodeError(f"no subgroup assigned to {key!r}")
        sub = frozenset(assignment[key])
        if not G.is_subgroup(sub):
            raise GroupCodeError(f"assignment for {key!r} is not a subgroup")

    cosets: Dict[str, List[FrozenSet[int]]] = {}
    elem_coset: Dict[str, List[int]] = {}
    for key, sub in assignment.items():
        sub = frozenset(sub)
        lst: List[FrozenSet[int]] = []
        emap = [None] * G.order
        for x in range(G.order):
            if emap[x] is None:
                cs = frozenset(G.mul(x, s) for s in sub)
                idx = len(lst)
                lst.append(cs)
                for y in cs:
                    emap[y] = idx
        cosets[key] = lst
        elem_coset[key] = emap  # element -> coset index

    alphabets = {key: Alphabet(symbols=list(range(len(cosets[key])))) for key in cosets}
    sess = list(conn.sessions)
    sizes = [len(cosets[s]) for s in sess]
    enc_entries: Dict[str, Dict[int, int]] = {e.id: {} for e in net.edges}
    dec_entries: Dict[Tuple[str, str], Dict[int, int]] = {}
    for r, sdem in conn.demands():
        dec_entries[(r, sdem)] = {}

    feed_cache = {e.id: edge_feeds(net, conn, e) for e in net.edges}
    dec_feed_cache = {(r, sdem): decoder_feeds(net, conn, r) for r, sdem in conn.demands()}

    for combo in itertools.product(*(range(k) for k in sizes)):
        inter = None
        for s, ci in zip(sess, combo):
            inter = cosets[s][ci] if inter is None else inter & cosets[s][ci]
        if not inter:
            continue  # unreachable source tuple; table entries default to 0
        values = dict(zip(sess, combo))
        for e in net.edges_topo():
            feeds = feed_cache[e.id]
            fi = None
            for fkey in feeds:
                cs = cosets[fkey][values[fkey]]
                fi = cs if fi is None else fi & cs
            if not fi:
                raise GroupCodeError(
                    f"edge {e.id}: empty feed intersection at source combination {combo}"
                )
            out = {elem_coset[e.id][x] for x in fi}
            if len(out) != 1:
                raise GroupCodeError(
                    f"edge {e.id}: feed intersection straddles cosets at {combo}"
                )
            values[e.id] = out.pop()
            flat = 0
            for fkey in feeds:
                flat = flat * len(cosets[fkey]) + values[fkey]
            enc_entries[e.id][flat] = values[e.id]
        for (r, sdem) in dec_entries:
            feeds = dec_feed_cache[(r, sdem)]
            fi = None
            for fkey in feeds:
                cs = cosets[fkey][values[fkey]]
                fi = cs if fi is None else fi & cs
            flat = 0
            for fkey in feeds:
                flat = flat * len(cosets[fkey]) + values[fkey]
            if fi:
                out = {elem_coset[sdem][x] for x in fi}
                if len(out) == 1:
                    dec_entries[(r, sdem)][flat] = out.pop()

    encoders = {}
    for e in net.edges:
        feeds = feed_cache[e.id]
        dom = 1
        for fkey in feeds:
            dom *= len(cosets[fkey])
        table = [enc_entries[e.id].get(i, 0) for i in range(dom)]
        encoders[e.id] = TableMap(table)
    decoders = {}
    for (r, sdem), entries in dec_entries.items():
        feeds = dec_feed_cache[(r, sdem)]
        dom = 1
        for fkey in feeds:
            dom *= len(cosets[fkey])
        decoders[(r, sdem)] = TableMap([entries.get(i, 0) for i in range(dom)])
    return NetworkCode(alphabets, encoders, decoders)
