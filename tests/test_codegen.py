import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_subspaces, chained_intersection, reference_quasi_uniform_check, supports
from entronet.codegen import (
    GroupCodeError,
    group_code_encode,
    linear_code,
    linear_compress,
    quasi_uniform_code,
    side_info_encoder,
)
from entronet.construct import build_gdagger, capacitated_network, rate_capacity
from entronet.exactlog import LogScalar
from entronet.ffield import GF
from entronet.groupchar import (
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    coset_support,
    cyclic,
    dihedral,
    direct_product,
    entropy_from_subspaces,
    quasi_uniform_check,
    symmetric,
)
from entronet.netmodel import (
    Alphabet,
    ConnectionRequirement,
    Edge,
    Network,
    NetworkCode,
    TableMap,
    MAX_CONE_TUPLES,
    UNCAPPED,
    alphabets_meet_tuple,
    decoder_feeds,
    edge_feeds,
    evaluate_code,
    kernels_of_linear_code,
)


def full_pipeline_qu(fam, n):
    lay = build_gdagger(n)
    s = coset_support(fam)
    res = quasi_uniform_check(s)
    assert res.ok
    code = quasi_uniform_code(s, lay)
    tup = rate_capacity(res.entropy, lay)
    net = capacitated_network(lay, tup)
    ev = evaluate_code(net, lay.conn, code)
    return ev.zero_error and alphabets_meet_tuple(net, lay.conn, code, tup)


def test_quasi_uniform_code_subgroups_z2z2():
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    fam = SubgroupFamily(g, (subs[0], subs[1]))
    assert full_pipeline_qu(fam, 2)


def test_quasi_uniform_code_subgroups_s3_n3():
    g = symmetric(3)
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    fam = SubgroupFamily(g, subs[:3])
    assert full_pipeline_qu(fam, 3)


@pytest.mark.parametrize("support, digest", [
    (coset_support(SubgroupFamily(symmetric(3), ([0, 1], [0, 3, 4]))),
     "25bcb62320e48cf3118c6ca26d6a0a09a817e9957fb58fa13864b3d14d0b54d4"),
    (coset_support(SubspaceFamily(2, 3, (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)), ((1, 1, 1),)))),
     "df67b213ab24e32293e254d7aa563dede7ec20b023bbfbec721f8ee559023915"),
    # shuffled alphabets, each with an unused symbol
    (SupportSet(2, [("z", "b", "a"), (7, 2, 0, 5, 1)], [("b", 2), ("b", 0), ("a", 1), ("a", 7)]),
     "0a7b3521187d9f1581c7c14152cd30ebc06c4a2535db49466353753bd72bfc56"),
])
def test_quasi_uniform_code_output_is_unchanged(support, digest):
    """Golden SHA-256 of the canonical code JSON: every alphabet, its symbol
    order and every table entry stay as they were."""
    code = quasi_uniform_code(support, build_gdagger(support.arity))
    blob = json.dumps(code.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_linear_code_three_lines_f2():
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    lay = build_gdagger(3)
    h = entropy_from_subspaces(fam)
    code = linear_code(fam, lay)
    tup = rate_capacity(h, lay)
    net = capacitated_network(lay, tup)
    ev = evaluate_code(net, lay.conn, code)
    assert ev.zero_error
    assert alphabets_meet_tuple(net, lay.conn, code, tup)
    # the kernel loop returns the session/edge kernels as subspaces
    ker = kernels_of_linear_code(net, lay.conn, code)
    assert ker.q == 2


_subspace_pool = {}
_layouts = {}


@st.composite
def kernel_families(draw):
    """The kernel family of the linear code of a random family with a zero
    intersection, and index lists over it."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    N = draw(st.sampled_from([2, 3]))
    subs = _subspace_pool.setdefault((q, n), all_subspaces(q, n))
    fam = SubspaceFamily(q, n, [draw(st.sampled_from(subs)) for _ in range(N)])
    assume(not chained_intersection(fam, range(N)))
    lay = _layouts.setdefault(N, build_gdagger(N))
    code = linear_code(fam, lay)
    net = capacitated_network(lay, rate_capacity(entropy_from_subspaces(fam), lay))
    ker = kernels_of_linear_code(net, lay.conn, code)
    indices = st.lists(st.integers(0, ker.arity - 1), min_size=1, max_size=8)
    return ker, draw(st.lists(indices, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(kernel_families())
def test_kernel_family_annihilators_and_entropies(case):
    ker, index_lists = case
    gf = GF(ker.q)
    D = ker.ambient_dim
    # annihilators as the family was built, before entropy_at fills any in
    for i, basis in enumerate(ker.members):
        K = ker.annihilator(i)
        assert len(K) == D and all(len(row) == D - len(basis) for row in K)
        kernel = gf.nullspace(K)
        assert len(kernel) == len(basis)
        assert gf.rank([list(r) for r in basis] + kernel) == len(basis)
    for idx in index_lists:
        codim = D - len(chained_intersection(ker, idx))
        assert ker.entropy_at(idx) == LogScalar.log_int(ker.q) * codim


def test_linear_code_rejects_nontrivial_intersection():
    fam = SubspaceFamily(2, 2, (((1, 0),), ((1, 0),)))
    with pytest.raises(ValueError):
        linear_code(fam, build_gdagger(2))


def test_linear_code_with_full_space_member():
    # a full-space kernel means that variable is constant; still zero-error
    subs = all_subspaces(2, 3)
    full = max(subs, key=len)
    line = next(s for s in subs if len(s) == 1)
    plane = next(s for s in subs if len(s) == 2)
    fam = SubspaceFamily(2, 3, (line, plane, full))
    if fam.intersection_codim(range(3)) == 3:
        lay = build_gdagger(3)
        code = linear_code(fam, lay)
        tup = rate_capacity(entropy_from_subspaces(fam), lay)
        net = capacitated_network(lay, tup)
        ev = evaluate_code(net, lay.conn, code)
        assert ev.zero_error and alphabets_meet_tuple(net, lay.conn, code, tup)


def test_linear_code_past_the_joint_space_cap():
    """3^19 joint source tuples: only the receiver cones are enumerated, and
    each fits under the cap."""
    fam = SubspaceFamily(3, 3, ((), ((0, 0, 1),), ((0, 1, 0),)))
    lay = build_gdagger(3)
    code = linear_code(fam, lay)
    tup = rate_capacity(entropy_from_subspaces(fam), lay)
    net = capacitated_network(lay, tup)
    total = 1
    for s in lay.conn.sessions:
        total *= code.alphabets[s].size
    assert total == 3 ** 19 and total > MAX_CONE_TUPLES
    ev = evaluate_code(net, lay.conn, code)
    assert ev.zero_error and ev.oracle is None
    assert alphabets_meet_tuple(net, lay.conn, code, tup)


@pytest.mark.parametrize("support", [
    SupportSet(2, [[0, 1], [0, 1]], [(0, 0), (0, 1), (1, 0)]),
    SupportSet(3, [[0, 1]] * 3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]),
])
def test_quasi_uniform_code_rejects_what_quasi_uniform_check_rejects(support):
    failing = quasi_uniform_check(support).failing
    assert failing
    with pytest.raises(ValueError, match=re.escape(f"(failing coordinates {failing})")):
        quasi_uniform_code(support, build_gdagger(support.arity))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_linear_compress_reconstruction_identity(q):
    gf = GF(q)
    rng = random.Random(q * 13)
    for _ in range(30):
        d = rng.randint(1, 4)
        t1, t2 = rng.randint(0, 3), rng.randint(0, 3)
        T1 = [[rng.randrange(q) for _ in range(t1)] for _ in range(d)]
        T2 = [[rng.randrange(q) for _ in range(t2)] for _ in range(d)]
        comp = linear_compress(q, T1, T2)
        for x in gf.all_vectors(d):
            w = gf.apply(x, comp.W_matrix) if comp.out_dim else []
            y1 = gf.apply(x, T1) if t1 else []
            y2 = gf.apply(x, T2) if t2 else []
            # W is a function of T1(x)
            if comp.out_dim and t1:
                assert gf.apply(y1, comp.via_T1) == w
            # T1(x) is reconstructed from W and T2(x)
            part_w = gf.apply(w, comp.rec_from_W) if comp.out_dim else [0] * t1
            part_2 = gf.apply(y2, comp.rec_from_T2) if t2 and comp.rec_from_T2 else [0] * t1
            if t1:
                assert [gf.add(a, b) for a, b in zip(part_w, part_2)] == y1
        # dim W = dim ker T2 - dim(ker T1 ∩ ker T2)
        B1, B2 = gf.nullspace(T1), gf.nullspace(T2)
        I = gf.intersect(B1, B2) if B1 and B2 else []
        assert comp.out_dim == len(B2) - len(I)


def test_side_info_encoder_round_trip():
    g = direct_product(cyclic(2), cyclic(4))
    subs = [sorted(s) for s in g.all_subgroups()]
    rng = random.Random(2)
    for _ in range(10):
        fam = SubgroupFamily(g, (rng.choice(subs), rng.choice(subs)))
        s = coset_support(fam)
        sic = side_info_encoder(s)
        for u1, u2 in s.tuples:
            w = sic.encoder[(u1, u2)]
            assert w < sic.alphabet_size
            assert sic.decoder[(w, u2)] == u1


def reference_side_info_encoder(s):
    """The side-information code built slice by slice: the U1 values seen
    with each U2, sorted by alphabet position and numbered in that order."""
    ok, failing, _ = reference_quasi_uniform_check(s)
    if not ok:
        raise ValueError(f"support is not quasi-uniform (failing coordinates {failing})")
    pos = {x: i for i, x in enumerate(s.alphabets[0])}
    slices = {}
    for u1, u2 in s.tuples:
        slices.setdefault(u2, []).append(u1)
    encoder, decoder = {}, {}
    for u2, lst in slices.items():
        for w, u1 in enumerate(sorted(lst, key=pos.__getitem__)):
            encoder[(u1, u2)] = w
            decoder[(w, u2)] = u1
    return len(lst), encoder, decoder


@settings(max_examples=200, deadline=None)
@given(supports(arity=st.just(2)))
@example(SupportSet(2, [[0, 1], [0, 1]], [(0, 0), (0, 1), (1, 0)]))
def test_side_info_encoder_matches_the_slice_construction(s):
    try:
        expected = reference_side_info_encoder(s)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            side_info_encoder(s)
        return
    sic = side_info_encoder(s)
    assert (sic.alphabet_size, sic.encoder, sic.decoder) == expected


def butterfly():
    edges = [
        Edge("e_sa", "s", "a", UNCAPPED), Edge("e_sb", "s", "b", UNCAPPED),
        Edge("e_ac", "a", "c", UNCAPPED), Edge("e_bc", "b", "c", UNCAPPED),
        Edge("e_cd", "c", "d", UNCAPPED), Edge("e_ar2", "a", "r2", UNCAPPED),
        Edge("e_br1", "b", "r1", UNCAPPED), Edge("e_dr1", "d", "r1", UNCAPPED),
        Edge("e_dr2", "d", "r2", UNCAPPED),
    ]
    net = Network(("s", "a", "b", "c", "d", "r1", "r2"), tuple(edges))
    conn = ConnectionRequirement(
        ("X", "Y"), {"X": "s", "Y": "s"}, {"X": ("r1", "r2"), "Y": ("r1", "r2")}
    )
    return net, conn


def test_group_code_on_butterfly_reproduces_xor_behaviour():
    # Z2 x Z2 with the two axis subgroups on the sides and the diagonal in
    # the middle: the classic XOR arrangement
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    axis = [s for s in subs if 1 in s or 2 in s]
    diag = next(s for s in subs if s not in axis)
    net, conn = butterfly()
    assignment = {
        "X": axis[0], "Y": axis[1],
        "e_sa": axis[0], "e_sb": axis[1],
        "e_ac": axis[0], "e_bc": axis[1],
        "e_cd": diag,
        "e_ar2": axis[0], "e_br1": axis[1],
        "e_dr1": diag, "e_dr2": diag,
    }
    code = group_code_encode(g, assignment, net, conn)
    res = evaluate_code(net, conn, code)
    assert res.zero_error
    # alphabets have the coset counts: index 2 everywhere
    for k, a in code.alphabets.items():
        assert a.size == 2


def test_group_code_straddle_raises():
    # an edge assigned a subgroup finer than what its feeds determine
    # cannot pick a single coset: construction must fail loudly
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    trivial = [0]
    net, conn = butterfly()
    assignment = {
        "X": subs[0], "Y": subs[1],
        "e_sa": subs[0], "e_sb": subs[1],
        "e_ac": trivial,  # finer than the incoming coset information
        "e_bc": subs[1], "e_cd": subs[0],
        "e_ar2": subs[0], "e_br1": subs[1],
        "e_dr1": subs[0], "e_dr2": subs[0],
    }
    with pytest.raises(GroupCodeError):
        group_code_encode(g, assignment, net, conn)


def reference_group_code_encode(G, assignment, net, conn):
    """The per-combination construction: every source combination with a
    nonempty coset intersection is propagated through the network edge by
    edge."""
    for key in list(conn.sessions) + [e.id for e in net.edges]:
        if key not in assignment:
            raise GroupCodeError(f"no subgroup assigned to {key!r}")
        if not G.is_subgroup(frozenset(assignment[key])):
            raise GroupCodeError(f"assignment for {key!r} is not a subgroup")
    cosets, elem_coset = {}, {}
    for key, sub in assignment.items():
        lst, emap = [], [None] * G.order
        for x in range(G.order):
            if emap[x] is None:
                cs = frozenset(G.mul(x, s) for s in frozenset(sub))
                for y in cs:
                    emap[y] = len(lst)
                lst.append(cs)
        cosets[key], elem_coset[key] = lst, emap

    def flat_of(feeds, values):
        flat = 0
        for f in feeds:
            flat = flat * len(cosets[f]) + values[f]
        return flat

    def meet(feeds, values):
        fi = None
        for f in feeds:
            cs = cosets[f][values[f]]
            fi = cs if fi is None else fi & cs
        return fi

    sess = list(conn.sessions)
    feeds = {e.id: edge_feeds(net, conn, e) for e in net.edges}
    dec_feeds = {d: decoder_feeds(net, conn, d[0]) for d in conn.demands()}
    enc = {e.id: {} for e in net.edges}
    dec = {d: {} for d in conn.demands()}
    for combo in itertools.product(*(range(len(cosets[s])) for s in sess)):
        values = dict(zip(sess, combo))
        if not meet(sess, values):
            continue
        for e in net.edges_topo():
            fi = meet(feeds[e.id], values)
            if not fi:
                raise GroupCodeError(f"edge {e.id}: empty feed intersection at {combo}")
            out = {elem_coset[e.id][x] for x in fi}
            if len(out) != 1:
                raise GroupCodeError(f"edge {e.id}: feed intersection straddles cosets at {combo}")
            values[e.id] = out.pop()
            enc[e.id][flat_of(feeds[e.id], values)] = values[e.id]
        for (r, s), entries in dec.items():
            fi = meet(dec_feeds[(r, s)], values)
            out = {elem_coset[s][x] for x in fi} if fi else set()
            if len(out) == 1:
                entries[flat_of(dec_feeds[(r, s)], values)] = out.pop()

    def table(entries, fds):
        dom = 1
        for f in fds:
            dom *= len(cosets[f])
        return TableMap([entries.get(i, 0) for i in range(dom)])

    return NetworkCode(
        {key: Alphabet(symbols=list(range(len(cs)))) for key, cs in cosets.items()},
        {e: table(entries, feeds[e]) for e, entries in enc.items()},
        {d: table(entries, dec_feeds[d]) for d, entries in dec.items()},
    )


GROUPS = [cyclic(4), cyclic(6), direct_product(cyclic(2), cyclic(2)), symmetric(3), dihedral(4)]
SUBGROUPS = [sorted(frozenset(s) for s in g.all_subgroups()) for g in GROUPS]


@st.composite
def group_networks(draw):
    """A random DAG (an edge may have no feeds) with up to three sessions,
    and a subgroup for every session and edge.  Half of the edges get a
    subgroup containing the meet of their feeds' subgroups, so that some
    codes exist."""
    k = draw(st.integers(0, len(GROUPS) - 1))
    G, subs = GROUPS[k], SUBGROUPS[k]
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = [(a, b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6))
    edges = [Edge(f"e{i}", nodes[a], nodes[b], UNCAPPED) for i, (a, b) in enumerate(chosen)]
    net = Network(nodes, edges)
    sessions = [f"S{i}" for i in range(draw(st.integers(0, 3)))]
    conn = ConnectionRequirement(
        sessions,
        {s: draw(st.sampled_from(nodes)) for s in sessions},
        {s: draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True))
         for s in sessions},
    )
    assignment = {s: draw(st.sampled_from(subs)) for s in sessions}
    for e in net.edges_topo():
        meet = frozenset(range(G.order))
        for f in edge_feeds(net, conn, e):
            meet &= assignment[f]
        above = [h for h in subs if meet <= h]
        assignment[e.id] = draw(st.sampled_from(above if draw(st.booleans()) else subs))
    return G, assignment, net, conn


@settings(max_examples=300, deadline=None)
@given(group_networks())
def test_group_code_matches_the_per_combination_construction(case):
    G, assignment, net, conn = case
    try:
        expected = reference_group_code_encode(G, assignment, net, conn).to_json()
    except GroupCodeError:
        with pytest.raises(GroupCodeError):
            group_code_encode(G, assignment, net, conn)
        return
    assert group_code_encode(G, assignment, net, conn).to_json() == expected
