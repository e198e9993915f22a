"""Set-up and items of each workload, run through the public entronet API,
and the check of every verdict against the expectation from `gen`.

Library calls go through module attributes looked up at call time (such as
`en.evaluate_code`), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Optional

from perfbench import gen, oracles

WORKLOADS = ("qu-codes", "linear-codes", "witness", "lp")

# build_gdagger(N) for the N values each workload's items use
N_VALUES = {"qu-codes": (2, 3), "linear-codes": (2, 3), "witness": (2, 3), "lp": ()}


class Context:
    """The imported library and the layouts built during set-up."""

    def __init__(self, en, layouts: Dict[int, object]):
        self.en = en
        self.layouts = layouts


def setup(workload: str, tracer=None) -> Context:
    """Import entronet, build the fixed networks and warm the lazy caches
    (the first HiGHS call imports scipy; GF(q) builds its tables once)."""
    import entronet as en

    if tracer is not None:
        from perfbench import layers

        layers.install(tracer, en)
    layouts = {N: en.build_gdagger(N) for N in N_VALUES[workload]}
    if workload in ("qu-codes", "linear-codes"):
        for q in (2, 3):
            en.ffield.GF(q)
    if workload in ("witness", "lp"):
        en.LogScalar({2: 1, 3: -1}).sign()  # first interval evaluation
    if workload == "lp":
        net = en.Network(["s", "r"], [en.Edge("e", "s", "r", en.log2_units(1))])
        conn = en.ConnectionRequirement(["X"], {"X": "s"}, {"X": ["r"]})
        tup = en.RateCapacityTuple({"X": en.log2_units(1)}, {"e": en.log2_units(1)})
        en.lp_feasible(net, conn, tup)
    return Context(en, layouts)


# ---------------------------------------------------------------------------
# item runners: each returns a JSON-able verdict


def _qu_code(ctx: Context, inp: dict, family) -> dict:
    en = ctx.en
    lay = ctx.layouts[family.arity]
    support = en.coset_support(family)
    qu = en.quasi_uniform_check(support)
    if not qu.ok:
        return {"quasi_uniform": False}
    code = en.quasi_uniform_code(support, lay)
    tup = en.rate_capacity(qu.entropy, lay)
    net = en.capacitated_network(lay, tup)
    ev = en.evaluate_code(net, lay.conn, code)
    return {
        "quasi_uniform": True,
        "zero_error": ev.zero_error,
        "admissible": en.check_admissible(net, lay.conn, code, tup),
        "entropy": [v.to_json() for v in qu.entropy.values],
    }


def run_group(ctx: Context, inp: dict) -> dict:
    groupchar = ctx.en.groupchar
    family = groupchar.SubgroupFamily(groupchar.FiniteGroup(inp["table"]), inp["members"])
    return _qu_code(ctx, inp, family)


def run_subspace(ctx: Context, inp: dict) -> dict:
    family = ctx.en.SubspaceFamily(inp["q"], inp["ambient_dim"], inp["members"])
    return _qu_code(ctx, inp, family)


def run_linear(ctx: Context, inp: dict) -> dict:
    en = ctx.en
    family = en.SubspaceFamily(inp["q"], inp["ambient_dim"], inp["members"])
    lay = ctx.layouts[family.arity]
    h = en.entropy_from_subspaces(family)
    code = en.linear_code(family, lay)
    tup = en.rate_capacity(h, lay)
    net = en.capacitated_network(lay, tup)
    ev = en.evaluate_code(net, lay.conn, code)
    admissible = en.check_admissible(net, lay.conn, code, tup)
    kernels = en.kernels_of_linear_code(net, lay.conn, code)
    # the kernel family is indexed by sessions (sorted), then edges (sorted)
    labels = sorted(lay.conn.sessions) + sorted(e.id for e in net.edges)
    index = {lab: i for i, lab in enumerate(labels)}
    rng = random.Random(inp["subsets_seed"])
    subsets = [[lab] for lab in labels]
    subsets += [rng.sample(labels, rng.randint(2, 6)) for _ in range(20)]
    mismatches = [
        sel for sel in subsets
        if ev.oracle.entropy(sel) != kernels.entropy_at([index[lab] for lab in sel])
    ]
    masks = range(1, 1 << family.arity)
    pairs = [rng.sample(list(masks), 2) for _ in range(3)]
    return {
        "zero_error": ev.zero_error,
        "admissible": admissible,
        "kernel_mismatches": mismatches,
        "family_entropy": [v.to_json() for v in h.values],
        "session_entropy": [{}] + [
            ev.oracle.entropy([lay.session_labels[m]]).to_json() for m in masks
        ],
        "session_pairs": [
            [a, b, ev.oracle.entropy([lay.session_labels[a], lay.session_labels[b]]).to_json()]
            for a, b in pairs
        ],
    }


def run_setfunction(ctx: Context, inp: dict) -> dict:
    en = ctx.en
    n = inp["n"]
    lay = ctx.layouts[n]
    values = [en.LogScalar.from_json(v) for v in inp["values"]]
    h = en.SetFunction([str(i + 1) for i in range(n)], values)
    try:
        cert = en.build_witness(h, lay)
        tup = en.rate_capacity(h, lay)
        return {"verdict": "verified" if en.verify_connection_constraints(cert, lay, tup)
                else "refused"}
    except en.lpbound.WitnessError:
        return {"verdict": "witness_error"}
    except en.construct.NegativeCapacityError:
        return {"verdict": "negative_capacity"}


def run_implies(ctx: Context, inp: dict) -> dict:
    en = ctx.en
    expr = en.lpbound.InfoExpression.parse(inp["text"])
    implied, cert = en.shannon_implies(expr, inp["n"])
    return {
        "implied": implied,
        "certificate": sorted([kind, list(args), str(w)] for (kind, args), w in (cert or {}).items()),
    }


def run_feasible(ctx: Context, inp: dict) -> dict:
    en = ctx.en
    edges = [en.Edge(eid, u, v, en.log2_units(c)) for eid, u, v, c in inp["edges"]]
    net = en.Network(inp["nodes"], edges)
    conn = en.ConnectionRequirement(["X"], {"X": inp["source"]}, {"X": inp["receivers"]})
    tup = en.RateCapacityTuple({"X": en.log2_units(Fraction(inp["rate"]))},
                               {eid: en.log2_units(c) for eid, _, _, c in inp["edges"]})
    extra = ()
    if inp["ingleton"]:
        # a template over placeholder variables 1..4; lp_feasible instantiates
        # it over every injective assignment of the network variables
        extra = (en.lpbound.InfoExpression.parse(gen.INGLETON.format(a=1, b=2, c=3, d=4)),)
    return {"feasible": en.lp_feasible(net, conn, tup, extra=extra).feasible}


RUNNERS = {
    "group": run_group,
    "subspace": run_subspace,
    "linear": run_linear,
    "polymatroid": run_setfunction,
    "perturbed": run_setfunction,
    "group-entropy": run_setfunction,
    "implies": run_implies,
    "feasible": run_feasible,
}


def run_item(ctx: Context, item: dict) -> dict:
    return RUNNERS[item["kind"]](ctx, item["input"])


# ---------------------------------------------------------------------------
# verdict checks: None when the verdict is right, else what is wrong


def check(item: dict, verdict: dict) -> Optional[str]:
    kind, expect = item["kind"], item["expect"]
    if kind in ("group", "subspace"):
        if not verdict.get("quasi_uniform"):
            return "support not quasi-uniform"
        if not (verdict["zero_error"] and verdict["admissible"]):
            return "code not zero-error and admissible"
        if verdict["entropy"] != expect["entropy"]:
            return "entropy differs from the reference"
        return None
    if kind == "linear":
        if not (verdict["zero_error"] and verdict["admissible"]):
            return "code not zero-error and admissible"
        if verdict["kernel_mismatches"]:
            return f"oracle and kernel entropies differ on {verdict['kernel_mismatches'][:3]}"
        if verdict["family_entropy"] != expect["entropy"]:
            return "entropy_from_subspaces differs from the reference"
        if verdict["session_entropy"] != expect["entropy"]:
            return "induced session entropies differ from the reference"
        ref = [oracles.from_json(v) for v in expect["entropy"]]
        for a, b, got in verdict["session_pairs"]:
            if oracles.from_json(got) != oracles.combine((1, ref[a]), (1, ref[b])):
                return "independent sessions do not add up"
        return None
    if kind in ("polymatroid", "perturbed", "group-entropy"):
        verified = verdict["verdict"] == "verified"
        if verified != expect["polymatroid"]:
            return f"verdict {verdict['verdict']} for polymatroid={expect['polymatroid']}"
        return None
    if kind == "implies":
        if verdict["implied"] != expect["implied"]:
            return f"implied={verdict['implied']}, expected {expect['implied']}"
        if expect["implied"]:
            terms = {tuple(k): Fraction(v) for k, v in expect["terms"]}
            cert = {(kind_, tuple(args)): Fraction(w) for kind_, args, w in verdict["certificate"]}
            if not oracles.certificate_holds(terms, item["input"]["n"], cert):
                return "certificate does not sum to the expression"
        return None
    if kind == "feasible":
        if verdict["feasible"] != expect["feasible"]:
            return f"feasible={verdict['feasible']} against min-cut {expect['min_cut']}"
        return None
    return f"unknown item kind {kind!r}"
