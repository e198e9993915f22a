"""Workload inputs made from the seed alone, without the entronet library.

Every item is a JSON-serializable dict with a `kind`, the raw `input` the
library will receive, and the `expect`ed verdict worked out here with the
reference computations in `oracles`.  A workload's item list is a fixed
number of blocks; each block follows the workload's `PATTERN`, a list of
strata, and the seed picks the instance inside every stratum.  Stratifying
this way keeps the cost mix of every seed alike, so medians of different
seeds can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, List, Sequence, Tuple

from perfbench import oracles

BLOCKS = 50  # items per list = BLOCKS * len(PATTERN); runs should not exhaust it

# ---------------------------------------------------------------------------
# finite groups as Cayley tables


def _perm_group(gens: Sequence[Tuple[int, ...]]) -> List[List[int]]:
    """Cayley table of the permutation group generated by `gens`."""
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    index = {ident: 0}
    for a in elems:  # grows while iterating: closure under right multiplication
        for g in gens:
            c = tuple(a[x] for x in g)
            if c not in index:
                index[c] = len(elems)
                elems.append(c)
    return [[index[tuple(a[x] for x in b)] for b in elems] for a in elems]


def _cyclic(n: int) -> List[List[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral(n: int) -> List[List[int]]:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return _perm_group([rot, ref])


def _symmetric(n: int) -> List[List[int]]:
    return _perm_group([tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])])


def _alternating4() -> List[List[int]]:
    return _perm_group([(1, 2, 0, 3), (1, 0, 3, 2)])


def _quaternion() -> List[List[int]]:
    # elements (sign, unit) with units 1, i, j, k; index = 4 * (sign < 0) + unit
    unit_mul = {  # (a, b) -> (sign, unit) of a * b
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = []
    for x in range(8):
        row = []
        for y in range(8):
            s, u = unit_mul[(x % 4, y % 4)]
            neg = (s < 0) ^ (x >= 4) ^ (y >= 4)
            row.append(4 * neg + u)
        table.append(row)
    return table


def _direct(g: List[List[int]], h: List[List[int]]) -> List[List[int]]:
    m = len(h)
    return [
        [g[a // m][b // m] * m + h[a % m][b % m] for b in range(len(g) * m)]
        for a in range(len(g) * m)
    ]


@lru_cache(maxsize=None)
def group_catalog() -> Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]:
    """Named groups of order <= 24."""
    groups = [(f"C{n}", _cyclic(n)) for n in range(2, 25)]
    groups += [(f"D{n}", _dihedral(n)) for n in range(3, 13)]
    groups += [("S4", _symmetric(4)), ("A4", _alternating4()), ("Q8", _quaternion())]
    for dims in [(2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (3, 6),
                 (2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 2, 2, 2)]:
        t = _cyclic(dims[0])
        for d in dims[1:]:
            t = _direct(t, _cyclic(d))
        groups.append(("x".join(map(str, dims)), t))
    groups.append(("Q8x3", _direct(_quaternion(), _cyclic(3))))
    return tuple((name, tuple(tuple(r) for r in t)) for name, t in groups)


def _closure(table, elems) -> frozenset:
    out = set(elems) | {0}
    frontier = list(out)
    while frontier:
        new = []
        for a in list(out):
            for b in frontier:
                for c in (table[a][b], table[b][a]):
                    if c not in out:
                        out.add(c)
                        new.append(c)
        frontier = new
    return frozenset(out)


@lru_cache(maxsize=None)
def subgroups(name: str) -> Tuple[Tuple[int, ...], ...]:
    """Every subgroup, by adjoining one element at a time until nothing new
    appears (element 0 is the identity of every catalog table)."""
    table = dict(group_catalog())[name]
    found = {frozenset([0])}
    frontier = list(found)
    while frontier:
        new = []
        for sub in frontier:
            for g in range(len(table)):
                if g not in sub:
                    c = _closure(table, sub | {g})
                    if c not in found:
                        found.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s)))


def group_entropy(order: int, members: Sequence[Sequence[int]]) -> List[oracles.Exact]:
    """h(alpha) = log(|G| / |intersection of the alpha members|)."""
    sets = [frozenset(m) for m in members]
    out = [{}]
    for mask in range(1, 1 << len(sets)):
        common = frozenset.intersection(*(s for i, s in enumerate(sets) if mask >> i & 1))
        out.append(oracles.log_ratio(order, len(common)))
    return out


# ---------------------------------------------------------------------------
# subspace families


@lru_cache(maxsize=None)
def subspace_pool(q: int, n: int, N: int, trivial_meet: bool) -> Dict[int, List[tuple]]:
    """Ordered N-member families of subspaces of GF(q)^n, keyed by the total
    entropy sum_alpha h(alpha) in log-q units, which is log_q of the number
    of source tuples a code built from the family enumerates."""
    subs = oracles.all_subspaces(q, n)
    out: Dict[int, List[tuple]] = {}
    for members in product(subs, repeat=N):
        h = oracles.subspace_entropy(members, q, n)
        if trivial_meet and h[-1] != n:
            continue
        out.setdefault(sum(h), []).append(members)
    return out


def _subspace_item(rng: random.Random, kind: str, q: int, dims: Sequence[int], N: int,
                   total: Tuple[int, int], trivial_meet: bool) -> dict:
    """A family whose total entropy lies in the closed range `total`."""
    choices = [(n, t) for n in dims for t in subspace_pool(q, n, N, trivial_meet)
               if total[0] <= t <= total[1]]
    n, t = rng.choice(sorted(choices))
    members = rng.choice(subspace_pool(q, n, N, trivial_meet)[t])
    h = oracles.subspace_entropy(members, q, n)
    inp = {"q": q, "ambient_dim": n, "members": [[list(r) for r in m] for m in members]}
    if kind == "linear":
        inp["subsets_seed"] = rng.randrange(1 << 31)  # random label subsets to compare
    return {
        "kind": kind,
        "input": inp,
        "expect": {"entropy": [oracles.to_json({q: Fraction(v)} if v else {}) for v in h]},
    }


# ---------------------------------------------------------------------------
# polymatroids


def random_polymatroid(rng: random.Random, n: int) -> List[int]:
    """Rejection sampling: monotone integer values (log-2 units) with
    positive singletons, kept only when the brute-force check accepts them.
    (Zero values make an item several times cheaper, so allowing them would
    make the cost mix depend on the seed.)"""
    while True:
        ints = [0] * (1 << n)
        for mask in range(1, 1 << n):
            top = max(i for i in range(n) if mask >> i & 1)
            if mask == 1 << top:
                ints[mask] = rng.randint(1, 4)
            else:
                low = max(ints[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
                ints[mask] = rng.randint(low, ints[mask & ~(1 << top)] + ints[1 << top])
        if oracles.is_polymatroid([oracles.log2_units(v) for v in ints], n):
            return ints


def perturb(rng: random.Random, ints: List[int], n: int) -> List[int]:
    """Break the polymatroid axioms: either lift a proper subset above the
    full set (monotonicity) or lift the full set above the sum of the
    singletons (submodularity)."""
    full = (1 << n) - 1
    while True:
        out = list(ints)
        if rng.random() < 0.5:
            out[rng.randrange(1, full)] = ints[full] + rng.randint(1, 4)
        else:
            out[full] = sum(ints[1 << i] for i in range(n)) + rng.randint(1, 4)
        if not oracles.is_polymatroid([oracles.log2_units(v) for v in out], n):
            return out


def _setfunction_item(kind: str, values: Sequence[oracles.Exact], n: int) -> dict:
    return {
        "kind": kind,
        "input": {"n": n, "values": [oracles.to_json(v) for v in values]},
        "expect": {"polymatroid": oracles.is_polymatroid(values, n)},
    }


# ---------------------------------------------------------------------------
# information expressions

INGLETON = "I({a};{b}|{c}) + I({a};{b}|{d}) + I({c};{d}) - I({a};{b}) >= 0"
ZHANG_YEUNG = "2 I({c};{d}) - I({a};{b}) - I({a};{c},{d}) - 3 I({c};{d}|{a}) - I({c};{d}|{b}) <= 0"


def _cmi_terms(a, b, c, w) -> Dict[Tuple[str, ...], Fraction]:
    """w * I(a;b|c) = w * (H(ac) + H(bc) - H(abc) - H(c))."""
    out: Dict[Tuple[str, ...], Fraction] = {}
    for subset, s in ((a + c, 1), (b + c, 1), (a + b + c, -1), (c, -1)):
        key = tuple(sorted(set(subset)))
        if key:
            out[key] = out.get(key, Fraction(0)) + w * s
    return out


def _template_terms(template: str, labels: Dict[str, str]) -> Dict[Tuple[str, ...], Fraction]:
    """Terms of INGLETON or ZHANG_YEUNG as `expr >= 0`."""
    a, b, c, d = (labels[k] for k in "abcd")
    parts = {
        INGLETON: [((a,), (b,), (c,), 1), ((a,), (b,), (d,), 1), ((c,), (d,), (), 1),
                   ((a,), (b,), (), -1)],
        ZHANG_YEUNG: [((c,), (d,), (), -2), ((a,), (b,), (), 1), ((a,), (c, d), (), 1),
                      ((c,), (d,), (a,), 3), ((c,), (d,), (b,), 1)],
    }[template]
    out: Dict[Tuple[str, ...], Fraction] = {}
    for x, y, z, w in parts:
        for k, v in _cmi_terms(list(x), list(y), list(z), Fraction(w)).items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def zy_polymatroid(labels: Sequence[str], four: Sequence[str],
                   pair: Sequence[str]) -> List[oracles.Exact]:
    """A polymatroid on the variables `four` (log-2 units): singletons 2,
    pairs 3 except `pair` = 4, larger sets 4; other labels add nothing.
    With `pair` = {c, d} it violates Ingleton, with `pair` = {a, b} it
    violates Zhang-Yeung."""
    pos = {lab: i for i, lab in enumerate(labels)}
    special = (1 << pos[pair[0]]) | (1 << pos[pair[1]])
    core = 0
    for lab in four:
        core |= 1 << pos[lab]
    out = []
    for mask in range(1 << len(labels)):
        m = mask & core
        size = bin(m).count("1")
        val = {0: 0, 1: 2, 2: 4 if m == special else 3}.get(size, 4)
        out.append(oracles.log2_units(val))
    return out


def _text(terms_list) -> str:
    """Expression text for a list of (weight, a, b, c) conditional mutual
    informations, asserted >= 0."""
    parts = []
    for w, a, b, c in terms_list:
        atom = f"I({','.join(a)};{','.join(b)}" + (f"|{','.join(c)})" if c else ")")
        parts.append(("" if w == 1 else f"{w} ") + atom)
    return " + ".join(parts) + " >= 0"


def _implied_item(rng: random.Random, n: int) -> dict:
    labels = [str(i + 1) for i in range(n)]
    cmis = []
    terms: Dict[Tuple[str, ...], Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        perm = rng.sample(labels, n)
        a, b = [perm[0]], [perm[1]]
        c = sorted(perm[2:2 + rng.randint(0, n - 2)])
        w = rng.randint(1, 3)
        cmis.append((w, a, b, c))
        for k, v in _cmi_terms(a, b, c, Fraction(w)).items():
            terms[k] = terms.get(k, Fraction(0)) + v
    return {
        "kind": "implies",
        "input": {"text": _text(cmis), "n": n},
        "expect": {"implied": True,
                   "terms": [[list(k), str(v)] for k, v in sorted(terms.items()) if v]},
    }


def _non_implied_item(rng: random.Random, n: int, template: str) -> dict:
    labels = [str(i + 1) for i in range(n)]
    order = rng.sample(labels, 4)
    mapping = dict(zip("abcd", order))
    terms = _template_terms(template, mapping)
    pair = order[2:] if template == INGLETON else order[:2]
    witness = zy_polymatroid(labels, order, pair)
    # a polymatroid on which the inequality fails proves it is not implied
    if not (oracles.is_polymatroid(witness, n)
            and oracles.sign(oracles.evaluate(terms, labels, witness)) < 0):
        raise AssertionError(f"no violating polymatroid for {template} at {order}")
    return {
        "kind": "implies",
        "input": {"text": template.format(**mapping), "n": n},
        "expect": {"implied": False},
    }


# ---------------------------------------------------------------------------
# single-session networks for the LP bound


def _dag_pair(rng: random.Random, num_edges: int, ingleton: bool) -> List[dict]:
    """A random DAG with source n0, one or two receivers and integer log-2
    capacities, twice: at the multicast min-cut rate (feasible) and half a
    unit above it (infeasible)."""
    num_nodes = rng.randint(3, min(5, num_edges + 1))
    nodes = [f"n{i}" for i in range(num_nodes)]
    pairs = [(i, i + 1) for i in range(num_nodes - 1)]  # a path reaches every node
    while len(pairs) < num_edges:
        pairs.append(tuple(sorted(rng.sample(range(num_nodes), 2))))
    edges = [(nodes[i], nodes[j], rng.randint(1, 3)) for i, j in pairs]
    receivers = sorted({nodes[-1], rng.choice(nodes[1:])})
    cut = oracles.multicast_min_cut(edges, nodes[0], receivers)
    return [
        {
            "kind": "feasible",
            "input": {
                "nodes": nodes,
                "edges": [[f"e{k}", u, v, c] for k, (u, v, c) in enumerate(edges)],
                "source": nodes[0],
                "receivers": receivers,
                "rate": str(rate),
                "ingleton": ingleton,
            },
            "expect": {"feasible": feasible, "min_cut": cut},
        }
        for rate, feasible in ((Fraction(cut), True), (cut + Fraction(1, 2), False))
    ]


# ---------------------------------------------------------------------------
# workload patterns: one entry per item of a block


def _qu_group(rng: random.Random) -> dict:
    name, table = rng.choice(group_catalog())
    subs = subgroups(name)
    members = [list(rng.choice(subs)) for _ in range(2)]
    h = group_entropy(len(table), members)
    return {
        "kind": "group",
        "input": {"group": name, "table": [list(r) for r in table], "members": members},
        "expect": {"entropy": [oracles.to_json(v) for v in h]},
    }


def _qu_subspace(N: int, total: Tuple[int, int]):
    return lambda rng: _subspace_item(rng, "subspace", 2, (1, 2, 3), N, total, False)


def _linear(q: int, dims: Tuple[int, ...], N: int, total: Tuple[int, int]):
    return lambda rng: _subspace_item(rng, "linear", q, dims, N, total, True)


def _witness_poly(n: int):
    def make(rng: random.Random) -> dict:
        ints = random_polymatroid(rng, n)
        return _setfunction_item("polymatroid", [oracles.log2_units(v) for v in ints], n)
    return make


def _witness_perturbed(n: int):
    def make(rng: random.Random) -> dict:
        ints = perturb(rng, random_polymatroid(rng, n), n)
        return _setfunction_item("perturbed", [oracles.log2_units(v) for v in ints], n)
    return make


MIXED_GROUPS = ("S4", "D6", "A4", "D12")


def _witness_mixed(rng: random.Random) -> dict:
    """Entropy of a subgroup pair of a group whose order has two prime
    factors, so values mix log 2 and log 3."""
    while True:
        name = rng.choice(MIXED_GROUPS)
        subs = subgroups(name)
        members = [rng.choice(subs) for _ in range(2)]
        h = group_entropy(len(dict(group_catalog())[name]), members)
        if any(len(v) == 2 for v in h):
            return _setfunction_item("group-entropy", h, 2)


def _lp_implied(n: int):
    return lambda rng: _implied_item(rng, n)


def _lp_non_implied(n: int):
    return lambda rng: _non_implied_item(rng, n, rng.choice((INGLETON, ZHANG_YEUNG)))


def _lp_dag(num_edges: int, ingleton: bool):
    return lambda rng: _dag_pair(rng, num_edges, ingleton)


def _interleave(strata):
    """One block: each (count, make) stratum spread evenly over the block,
    so that a run that stops inside a block still sees the block's mix."""
    slots = [((j + 0.5) / count, k, make)
             for k, (count, make) in enumerate(strata) for j in range(count)]
    return [make for _, _, make in sorted(slots, key=lambda s: s[:2])]


# Strata are chosen so that the median and the 90th percentile of item
# time fall inside a stratum of similar items, not on the edge between two.
# Ranges of total entropy are log_q(source tuples).
PATTERN = {
    "qu-codes": _interleave([
        (5, _qu_group),
        (2, _qu_subspace(2, (0, 12))),
        (5, _qu_subspace(3, (0, 10))),
        (4, _qu_subspace(3, (11, 13))),
        (3, _qu_subspace(3, (15, 15))),
        (1, _qu_subspace(3, (16, 16))),
    ]),
    "linear-codes": _interleave([
        (3, _linear(2, (2, 3), 2, (0, 9))),
        (2, _linear(3, (2,), 2, (0, 6))),
        (1, _linear(3, (3,), 2, (6, 8))),
        (5, _linear(2, (2,), 3, (8, 10))),
        (3, _linear(2, (2, 3), 3, (11, 13))),
        (2, _linear(3, (2,), 3, (8, 8))),
        (3, _linear(2, (3,), 3, (14, 14))),
        (1, _linear(3, (2,), 3, (10, 10))),
    ]),
    "witness": _interleave([
        (2, _witness_perturbed(2)),
        (3, _witness_perturbed(3)),
        (14, _witness_poly(2)),
        (1, _witness_mixed),
    ]),
    "lp": _interleave([
        (2, _lp_implied(4)),
        (1, _lp_non_implied(4)),
        (1, _lp_dag(3, False)),
        (1, _lp_dag(4, False)),
        (6, _lp_implied(5)),
        (1, _lp_non_implied(5)),
        (1, _lp_dag(4, True)),
        (2, _lp_dag(5, True)),
    ]),
}


def items(workload: str, seed: int, blocks: int = BLOCKS) -> List[dict]:
    """The seeded item list of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    out: List[dict] = []
    for _ in range(blocks):
        for make in PATTERN[workload]:
            made = make(rng)
            out.extend(made if isinstance(made, list) else [made])
    return out


def digest(item_list: Sequence[dict]) -> str:
    """SHA-256 of the canonical JSON of an item list."""
    blob = json.dumps(item_list, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
