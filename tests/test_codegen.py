import hashlib
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_subspaces, chained_intersection, reference_quasi_uniform_check, supports
from entronet.codegen import _side_info, linear_code, linear_compress, quasi_uniform_code
from entronet.construct import build_gdagger, capacitated_network, rate_capacity
from entronet.exactlog import ZERO, LogScalar
from entronet.ffield import GF, flat_index
from entronet.groupchar import (
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    coset_support,
    cyclic,
    direct_product,
    entropy_from_subspaces,
    quasi_uniform_check,
    support_projections,
    symmetric,
)
from entronet.netmodel import (
    MAX_CONE_TUPLES,
    ResourceError,
    alphabets_meet_tuple,
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


@st.composite
def zero_meet_families(draw):
    """A random subspace family whose members intersect only at 0: ambient
    dimension up to 3 over F_2 and F_3, up to 2 over F_4 and F_5."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 3 if q <= 3 else 2))
    N = draw(st.sampled_from([2, 3]))
    subs = _subspace_pool.setdefault((q, n), all_subspaces(q, n))
    fam = SubspaceFamily(q, n, [draw(st.sampled_from(subs)) for _ in range(N)])
    assume(not chained_intersection(fam, range(N)))
    return fam


@settings(max_examples=100, deadline=None)
@given(zero_meet_families())
def test_every_linear_code_is_zero_error_and_tight(fam):
    """The code is zero-error, and every alphabet meets M(h) with equality:
    log|A| is the capacity of each capacitated edge and the rate of each
    session."""
    lay = _layouts.setdefault(fam.arity, build_gdagger(fam.arity))
    code = linear_code(fam, lay)
    tup = rate_capacity(entropy_from_subspaces(fam), lay)
    net = capacitated_network(lay, tup)
    assert evaluate_code(net, lay.conn, code).zero_error
    assert alphabets_meet_tuple(net, lay.conn, code, tup)
    for key, bound in [*tup.caps.items(), *tup.rates.items()]:
        assert code.alphabets[key].log_size() == bound


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
    each fits under the cap.  The oracle tabulates each variable over the
    sessions it reads, so it answers though the joint space passes a chunk."""
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
    assert ev.zero_error
    assert alphabets_meet_tuple(net, lay.conn, code, tup)
    ker = kernels_of_linear_code(net, lay.conn, code)
    sess = sorted(lay.conn.sessions)
    edges = sorted(e.id for e in net.edges)
    labels = sess + edges
    # independent sessions: their entropies add up to H(all sessions)
    assert sum((ev.oracle.entropy([s]) for s in sess), ZERO) == ker.entropy_at(range(len(sess)))
    # edges that read one session and edges that read two
    picked = [e for e in edges if len(ev.oracle.scopes[e]) == 1][::20]
    picked += [e for e in edges if len(ev.oracle.scopes[e]) == 2][::5]
    assert len(picked) >= 6
    for sel in [[s] for s in sess] + [[e] for e in picked] + [picked[:2], sess[:2]]:
        assert ev.oracle.entropy(sel) == ker.entropy_at([labels.index(k) for k in sel])
    with pytest.raises(ResourceError):
        ev.oracle.entropy(sess)  # all 3^19 tuples


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
            # W is T1(x) at the picked columns
            assert w == [y1[c] for c in comp.picks]
            # T1(x) is reconstructed from W and T2(x)
            part_w = gf.apply(w, comp.rec_from_W) if comp.out_dim else [0] * t1
            part_2 = gf.apply(y2, comp.rec_from_T2) if t2 and comp.rec_from_T2 else [0] * t1
            if t1:
                assert [gf.add(a, b) for a, b in zip(part_w, part_2)] == y1
        # dim W = dim ker T2 - dim(ker T1 ∩ ker T2)
        B1, B2 = gf.nullspace(T1), gf.nullspace(T2)
        I = gf.intersect(B1, B2) if B1 and B2 else []
        assert comp.out_dim == len(B2) - len(I)


def reference_side_info(s):
    """The side-information code built slice by slice: the U1 values seen
    with each U2, sorted by alphabet position and numbered in that order."""
    pos = {x: i for i, x in enumerate(s.alphabets[0])}
    slices = {}
    for u1, u2 in s.tuples:
        slices.setdefault(u2, []).append(u1)
    return {(u1, u2): w for u2, lst in slices.items()
            for w, u1 in enumerate(sorted(lst, key=pos.__getitem__))}


@settings(max_examples=200, deadline=None)
@given(supports(arity=st.just(2)))
@example(SupportSet(2, [[0, 1], [0, 1]], [(0, 0), (0, 1), (1, 0)]))
def test_side_info_matches_the_slice_construction(s):
    """On the rank matrix of a quasi-uniform pair support, each pair's w is
    the rank of its u within the slice of its v, and the table over (w, v)
    gives u back."""
    syms, R, _, failing = support_projections(s)
    ok, expected_failing, _ = reference_quasi_uniform_check(s)
    assert failing == expected_failing
    if not ok:
        return
    u, v = R[:, 0], R[:, 1]
    nv = len(syms[1])
    w, table = _side_info(u, len(syms[0]), v, nv)
    encoder = reference_side_info(s)
    assert w.tolist() == [encoder[(syms[0][a], syms[1][b])] for a, b in R.tolist()]
    assert w.max() < len(R) // nv
    assert table[flat_index(len(R), [w, v], [len(R) // nv, nv])].tolist() == u.tolist()
