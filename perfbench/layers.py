"""Which entronet calls the traced run wraps, the work each one counts, and
the per-layer metrics computed from the recorded spans.

Span names are the metric prefixes of `layers.json`: `<prefix>.calls` is the
number of spans of that name and `<prefix>.self_s` their summed self time;
every other per-layer metric is a counter filled by a hook below.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.spans import Tracer

LAYERS_FILE = Path(__file__).with_name("layers.json")

# matrix-level GF methods; scalar ops (add, mul, inv, ...) are not traced
GF_METHODS = ("matmul", "apply", "identity", "zeros", "rref", "rank", "row_basis", "nullspace",
              "solve", "represent", "extend_basis", "intersect", "nullspace_left_of_rows")

# routines that can end an lp_feasible call, by the counter they feed
DECIDERS = {
    "lpbound.farkas": "lpbound.decided.farkas",
    "lpbound.rationalize": "lpbound.decided.rationalized",
    "lpbound.exact_basis": "lpbound.decided.basis",
    "lpbound.solve_phase1": "lpbound.decided.phase1",
}


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in `layers.json` order."""
    layers = json.loads(LAYERS_FILE.read_text())["layers"]
    return [(m["name"], m["unit"]) for layer in layers for m in layer["metrics"]]


# ---------------------------------------------------------------------------
# counting hooks: hook(counters, args, result)


def _rows(c, args, result):
    n = len(args[0].ground)
    c["setfunc.check_polymatroid.rows"] += n + n * (n - 1) // 2 * (1 << max(n - 2, 0))


def _support_tuples(c, args, result):
    c["groupchar.support_tuples"] += len(result.tuples)


def _table_entries(c, args, result):
    c["netmodel.tablemap.entries"] += len(result.table)


def _extension_values(c, args, result):
    c["lpbound.extension.values"] += len(result.values)


def _lp_result(c, args, result):
    c["lpbound.lp_feasible.rounds"] += result.rounds
    c["lpbound.lp_feasible.rows"] += result.constraints


def _interval(c, args, result):
    coeffs = args[0].terms.values()
    if any(q > 0 for q in coeffs) and any(q < 0 for q in coeffs):
        c["exactlog.sign.interval_calls"] += 1


class _Tuples:
    """source_tuples: product of the session alphabet sizes, the space an
    exhaustive evaluation enumerates.  cone_tuples: the same product per
    demand over only the sessions whose origins reach the receiver."""

    def __init__(self) -> None:
        self._cones: Dict[tuple, List[Tuple[str, ...]]] = {}

    def cones(self, net, conn) -> List[Tuple[str, ...]]:
        key = (tuple((e.tail, e.head) for e in net.edges),
               tuple(sorted(conn.origin.items())), tuple(conn.demands()))
        if key not in self._cones:
            preds: Dict[str, List[str]] = {}
            for e in net.edges:
                preds.setdefault(e.head, []).append(e.tail)
            out = []
            for receiver, _ in conn.demands():
                seen = {receiver}
                todo = [receiver]
                while todo:
                    for t in preds.get(todo.pop(), ()):
                        if t not in seen:
                            seen.add(t)
                            todo.append(t)
                out.append(tuple(s for s in conn.sessions if conn.origin[s] in seen))
            self._cones[key] = out
        return self._cones[key]

    def __call__(self, c, args, result):
        net, conn, code = args[:3]
        size = {s: code.alphabets[s].size for s in conn.sessions}
        total = 1
        for s in conn.sessions:
            total *= size[s]
        c["netmodel.evaluate_code.source_tuples"] += total
        for cone in self.cones(net, conn):
            prod = 1
            for s in cone:
                prod *= size[s]
            c["netmodel.evaluate_code.cone_tuples"] += prod


# ---------------------------------------------------------------------------
# installing the wrappers


def _rebind(tracer: Tracer, original, replacement) -> None:
    """Replace every binding of `original` in the entronet modules, so a
    name imported into another module (lpbound's check_polymatroid) is
    traced too."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "entronet" or modname.startswith("entronet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, replacement)


def install(tracer: Tracer, en) -> None:
    """Wrap the traced entronet functions and methods; `tracer.restore()`
    undoes it."""
    exactlog, setfunc, groupchar, ffield = en.exactlog, en.setfunc, en.groupchar, en.ffield
    construct, codegen, netmodel, lpbound = en.construct, en.codegen, en.netmodel, en.lpbound
    functions = [
        (setfunc.check_polymatroid, "setfunc.check_polymatroid", _rows),
        (groupchar.coset_support, "groupchar.coset_support", _support_tuples),
        (groupchar.quasi_uniform_check, "groupchar.quasi_uniform_check", None),
        (groupchar.entropy_from_subgroups, "groupchar.entropy", None),
        (groupchar.entropy_from_subspaces, "groupchar.entropy", None),
        (construct.build_gdagger, "construct.build_gdagger", None),
        (construct.rate_capacity, "construct.rate_capacity", None),
        (codegen.quasi_uniform_code, "codegen.quasi_uniform_code", None),
        (codegen.linear_code, "codegen.linear_code", None),
        (netmodel.evaluate_code, "netmodel.evaluate_code", _Tuples()),
        (netmodel.check_admissible, "netmodel.check_admissible", None),
        (netmodel.kernels_of_linear_code, "netmodel.kernels", None),
        (lpbound.build_witness, "lpbound.build_witness", None),
        (lpbound.functional_extension, "lpbound.extension", _extension_values),
        (lpbound.sum_extension, "lpbound.extension", _extension_values),
        (lpbound.sw_extension, "lpbound.extension", _extension_values),
        (lpbound.independent_adhesion, "lpbound.extension", _extension_values),
        (lpbound.verify_connection_constraints, "lpbound.verify", None),
        (lpbound.lp_feasible, "lpbound.lp_feasible", _lp_result),
        (lpbound.shannon_implies, "lpbound.shannon_implies", None),
        (lpbound.solve_highs, "lpbound.solve_highs", None),
        (lpbound.solve_phase1, "lpbound.solve_phase1", None),
        (lpbound.farkas_verified, "lpbound.farkas", None),
        (lpbound.rationalize_point, "lpbound.rationalize", None),
        (lpbound.solve_float, "lpbound.solve_float", None),
        (lpbound.exact_point_from_basis, "lpbound.exact_basis", None),
    ]
    for fn, name, hook in functions:
        _rebind(tracer, fn, tracer.wrap(name, fn, hook))

    methods = [
        (exactlog.LogScalar, "sign", "exactlog.sign", _interval),
        (netmodel.EntropyOracle, "entropy", "netmodel.oracle.entropy", None),
        (netmodel.LinearMap, "to_table", "netmodel.linearmap.to_table", None),
    ] + [(ffield.GF, m, "ffield", None) for m in GF_METHODS]
    for cls, attr, name, hook in methods:
        tracer.patch(cls, attr, tracer.wrap(name, vars(cls)[attr], hook))
    from_function = vars(netmodel.TableMap)["from_function"].__func__
    tracer.patch(netmodel.TableMap, "from_function",
                 classmethod(tracer.wrap("netmodel.tablemap", from_function, _table_entries)))
    for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        fn = vars(exactlog.LogScalar)[attr]
        tracer.patch(exactlog.LogScalar, attr, tracer.count("exactlog.arith.calls", fn))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of `layers.json` except trace.overhead; a layer
    the run never entered reads 0."""
    own = tracer.self_times()
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
    counters = dict(tracer.counters)
    for key in DECIDERS.values():
        counters.setdefault(key, 0)
    for key, n in deciders(tracer).items():
        counters[DECIDERS[key]] += n
    out: Dict[str, float] = {}
    for name, _ in per_layer_metrics():
        if name in counters:
            out[name] = counters[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name != "trace.overhead":
            out[name] = 0
    return out


def deciders(tracer: Tracer) -> Dict[str, int]:
    """For each lp_feasible span, the deciding routine: the last child span
    among those that can end the call (every return path of lp_feasible
    follows its deciding routine's call)."""
    lp = tracer.name_id("lpbound.lp_feasible")
    ids = {tracer.name_id(k): k for k in DECIDERS}
    last: Dict[int, int] = {}
    for i, nid in enumerate(tracer.name):
        p = tracer.parent[i]
        if nid in ids and p >= 0 and tracer.name[p] == lp:
            last[p] = i  # spans are stored in start order
    out: Dict[str, int] = {}
    for i in last.values():
        key = ids[tracer.name[i]]
        out[key] = out.get(key, 0) + 1
    return out
