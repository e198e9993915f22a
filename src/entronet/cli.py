"""Command-line interface: property checks, entropy computation, network
construction, code building/verification, LP feasibility, and witness
certificates.  Exit codes: 0 = property holds / success, 1 = property fails,
2 = usage or structural error."""

from __future__ import annotations

import argparse
import json
import sys

from .construct import build_gdagger, capacitated_network, rate_capacity
from .codegen import linear_code, quasi_uniform_code
from .exactlog import ZERO
from .groupchar import (
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    builtin_function,
    coset_support,
    entropy_from_subgroups,
    entropy_from_subspaces,
    quasi_uniform_check,
)
from .lpbound import (
    InfoExpression,
    WitnessCertificate,
    build_witness,
    ingleton_expression,
    lp_feasible,
    shannon_implies,
    verify_connection_constraints,
)
from .netmodel import (
    ConnectionRequirement,
    Network,
    NetworkCode,
    RateCapacityTuple,
    alphabets_meet_tuple,
    evaluate_code,
    to_dot,
)
from .schema import ResourceError, document
from .setfunc import SetFunction, check_ingleton, check_polymatroid, check_zhang_yeung


class UsageError(Exception):
    pass


def _read(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_check(args) -> int:
    f = SetFunction.from_json(_read(args.file))
    checker = {"poly": check_polymatroid, "ingleton": check_ingleton, "zy": check_zhang_yeung}[args.kind]
    rep = checker(f)
    report = {"format": "report/1", "check": args.kind, "ok": rep.ok, "violations": rep.to_json()}
    lines = [f"{args.kind}: {'PASS' if rep.ok else 'FAIL'} ({len(rep.instances)} violations)"]
    for v in rep.instances[:10]:
        lines.append(f"  {v.family} at {v.subsets}: slack {v.slack!r}")
    _emit(report, args.json, lines)
    return 0 if rep.ok else 1


def cmd_group(args) -> int:
    fam = SubgroupFamily.from_json(_read(args.file))
    if args.what == "entropy":
        f = entropy_from_subgroups(fam)
        _emit(f.to_json(), args.json, [json.dumps(f.to_json(), sort_keys=True)])
    else:
        s = coset_support(fam)
        _emit(s.to_json(), args.json, [json.dumps(s.to_json(), sort_keys=True)])
    return 0


def cmd_subspace(args) -> int:
    fam = SubspaceFamily.from_json(_read(args.file))
    f = entropy_from_subspaces(fam)
    _emit(f.to_json(), args.json, [json.dumps(f.to_json(), sort_keys=True)])
    return 0


def cmd_qu(args) -> int:
    s = SupportSet.from_json(_read(args.file))
    res = quasi_uniform_check(s)
    report = {
        "format": "report/1",
        "check": "quasi-uniform",
        "ok": res.ok,
        "failing": [list(t) for t in res.failing],
        "entropy": res.entropy.to_json() if res.entropy is not None else None,
    }
    lines = [f"quasi-uniform: {'PASS' if res.ok else 'FAIL'}"]
    if not res.ok:
        lines.append(f"  failing coordinate sets: {[list(t) for t in res.failing]}")
    _emit(report, args.json, lines)
    return 0 if res.ok else 1


def cmd_construct(args) -> int:
    layout = build_gdagger(args.n)
    net = layout.network
    if args.h:
        h = SetFunction.from_json(_read(args.h))
        tup = rate_capacity(h, layout)
        net = capacitated_network(layout, tup)
        report = {"format": "gdagger/1", "n": args.n, "network": net.to_json(),
                  "conn": layout.conn.to_json(), "tuple": tup.to_json()}
    else:
        report = {"format": "gdagger/1", "n": args.n, "network": net.to_json(),
                  "conn": layout.conn.to_json()}
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(to_dot(net, layout.conn))
        except OSError as exc:
            raise UsageError(f"cannot write {args.dot}: {exc.strerror}")
    lines = [f"fixed network for N={args.n}: {len(net.nodes)} nodes, {len(net.edges)} edges, "
             f"{len(layout.conn.sessions)} sessions"]
    if args.dot:
        lines.append(f"DOT written to {args.dot}")
    _emit(report, args.json, lines)
    return 0


def cmd_code_build(args) -> int:
    obj = _read(args.input)
    layout = build_gdagger(args.n)
    if args.kind == "linear":
        code = linear_code(SubspaceFamily.from_json(obj), layout)
    elif document(obj, ("support/1", "subgroupfamily/1"), "a support") == "support/1":
        code = quasi_uniform_code(SupportSet.from_json(obj), layout)
    else:
        code = quasi_uniform_code(coset_support(SubgroupFamily.from_json(obj)), layout)
    # h(α) = log |A_{S_α}|: F_q^n modulo ∩_{i∈α} V_i for a linear code, and
    # the support's projection onto α for a quasi-uniform one
    h = SetFunction([str(i + 1) for i in range(args.n)], [ZERO] + [
        code.alphabets[layout.session_labels[mask]].log_size() for mask in range(1, 1 << args.n)
    ])
    tup = rate_capacity(h, layout)
    net = capacitated_network(layout, tup)
    bundle = {
        "format": "codebundle/1",
        "n": args.n,
        "network": net.to_json(),
        "conn": layout.conn.to_json(),
        "code": code.to_json(),
        "tuple": tup.to_json(),
    }
    print(json.dumps(bundle, indent=None if args.json else 2, sort_keys=True))
    return 0


def cmd_code_verify(args) -> int:
    if args.conn is None:
        bundle = _read(args.net)
        document(bundle, "codebundle/1", "a code bundle")
        net = Network.from_json(bundle.get("network"))
        conn = ConnectionRequirement.from_json(bundle.get("conn"))
        code = NetworkCode.from_json(bundle.get("code"))
        tup = RateCapacityTuple.from_json(bundle.get("tuple"))
    else:
        net = Network.from_json(_read(args.net))
        conn = ConnectionRequirement.from_json(_read(args.conn))
        code = NetworkCode.from_json(_read(args.code))
        tup = RateCapacityTuple.from_json(_read(args.tuple))
    result = evaluate_code(net, conn, code)
    admissible = result.zero_error and alphabets_meet_tuple(net, conn, code, tup)
    report = {
        "format": "report/1",
        "check": "code",
        "zero_error": result.zero_error,
        "admissible": admissible,
        "failing_inputs": [
            {"sources": list(map(str, src)), "receiver": r, "session": s}
            for src, r, s in result.failing_inputs[:10]
        ],
    }
    lines = [f"zero-error: {'PASS' if result.zero_error else 'FAIL'}",
             f"admissible: {'PASS' if admissible else 'FAIL'}"]
    _emit(report, args.json, lines)
    return 0 if admissible else 1


def cmd_lp_feasible(args) -> int:
    net = Network.from_json(_read(args.net))
    conn = ConnectionRequirement.from_json(_read(args.conn))
    tup = RateCapacityTuple.from_json(_read(args.tuple))
    extra = [ingleton_expression()] if args.ingleton else []
    res = lp_feasible(net, conn, tup, extra=extra, ground_cap=args.cap)
    report = {"format": "report/1", "check": "lp", "feasible": res.feasible,
              "rounds": res.rounds, "constraints": res.constraints}
    _emit(report, args.json, [f"LP{'-Ingleton' if args.ingleton else ''} bound: "
                              f"{'feasible' if res.feasible else 'infeasible'}"])
    return 0 if res.feasible else 1


def cmd_lp_implies(args) -> int:
    expr = InfoExpression.parse(_read_text(args.expr))
    ok, cert = shannon_implies(expr, args.n)
    report = {"format": "report/1", "check": "shannon-implies", "implied": ok,
              "certificate": [
                  {"kind": k, "args": list(a), "weight": str(w)} for (k, a), w in (cert or {}).items()
              ]}
    lines = [f"Shannon-implied on {args.n} variables: {'YES' if ok else 'NO'}"]
    if ok:
        lines += [f"  {k}{a}: weight {w}" for (k, a), w in cert.items()]
    _emit(report, args.json, lines)
    return 0 if ok else 1


def cmd_witness_build(args) -> int:
    h = SetFunction.from_json(_read(args.file))
    layout = build_gdagger(args.n)
    cert = build_witness(h, layout)
    print(json.dumps(cert.to_json(), indent=None if args.json else 2, sort_keys=True))
    return 0


def cmd_witness_verify(args) -> int:
    cert = WitnessCertificate.from_json(_read(args.cert))
    tup = RateCapacityTuple.from_json(_read(args.tuple))
    # the layout over N elements has one session, so one rate, per nonempty
    # subset; N comes from the tuple, never from the certificate under test
    count = len(tup.rates)
    n = (count + 1).bit_length() - 1
    if count < 1 or count != (1 << n) - 1:
        raise UsageError(f"the tuple has {count} rates; the network over N elements has 2^N - 1")
    layout = build_gdagger(n)
    failures = []
    ok = verify_connection_constraints(cert, layout, tup, failures=failures)
    report = {"format": "report/1", "check": "witness", "ok": ok, "failures": failures}
    lines = [f"witness: {'PASS' if ok else 'FAIL'}"] + [f"  {f}" for f in failures[:10]]
    _emit(report, args.json, lines)
    return 0 if ok else 1


def cmd_builtin(args) -> int:
    f = builtin_function(args.name)
    print(json.dumps(f.to_json(), indent=None if args.json else 2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entronet",
        description="Entropy functions, the multicast duality network, "
        "constructive codes, and LP outer bounds with exact arithmetic.",
    )
    p.add_argument("--json", action="store_true", help="emit structured JSON reports")
    # the same flag after the subcommand; with no default of its own it
    # leaves the global value in place when absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit structured JSON reports")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", parents=[common], help="check a set function against an inequality family")
    c.add_argument("kind", choices=["poly", "ingleton", "zy"])
    c.add_argument("file", help="set function JSON ('-' for stdin)")
    c.set_defaults(fn=cmd_check)

    g = sub.add_parser("group", parents=[common], help="entropy/support from a subgroup family")
    g.add_argument("what", choices=["entropy", "support"])
    g.add_argument("file")
    g.set_defaults(fn=cmd_group)

    s = sub.add_parser("subspace", parents=[common], help="entropy from a subspace family")
    s.add_argument("what", choices=["entropy"])
    s.add_argument("file")
    s.set_defaults(fn=cmd_subspace)

    q = sub.add_parser("qu", parents=[common], help="quasi-uniformity check of a joint support")
    q.add_argument("what", choices=["check"])
    q.add_argument("file")
    q.set_defaults(fn=cmd_qu)

    cg = sub.add_parser("construct", parents=[common], help="build the fixed duality network")
    cg.add_argument("what", choices=["gdagger"])
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--h", help="set function JSON for the rate-capacity map")
    cg.add_argument("--dot", help="write a DOT rendering to this path")
    cg.set_defaults(fn=cmd_construct)

    cd = sub.add_parser("code", help="build or verify a network code")
    cdsub = cd.add_subparsers(dest="codecmd", required=True)
    cb = cdsub.add_parser("build", parents=[common])
    cb.add_argument("kind", choices=["qu", "linear"])
    cb.add_argument("input", help="support/subgroup-family or subspace-family JSON")
    cb.add_argument("--n", type=int, required=True)
    cb.set_defaults(fn=cmd_code_build)
    cv = cdsub.add_parser("verify", parents=[common])
    cv.add_argument("net", help="network JSON, or a single codebundle JSON")
    cv.add_argument("conn", nargs="?")
    cv.add_argument("code", nargs="?")
    cv.add_argument("tuple", nargs="?")
    cv.set_defaults(fn=cmd_code_verify)

    lp = sub.add_parser("lp", help="LP outer bound / Shannon derivability")
    lpsub = lp.add_subparsers(dest="lpcmd", required=True)
    lf = lpsub.add_parser("feasible", parents=[common])
    lf.add_argument("net")
    lf.add_argument("conn")
    lf.add_argument("tuple")
    lf.add_argument("--ingleton", action="store_true")
    lf.add_argument("--cap", type=int, default=10)
    lf.set_defaults(fn=cmd_lp_feasible)
    li = lpsub.add_parser("implies", parents=[common])
    li.add_argument("expr", help="expression text file ('-' for stdin)")
    li.add_argument("--n", type=int, required=True)
    li.set_defaults(fn=cmd_lp_implies)

    w = sub.add_parser("witness", help="build/verify connection-constraint certificates")
    wsub = w.add_subparsers(dest="wcmd", required=True)
    wb = wsub.add_parser("build", parents=[common])
    wb.add_argument("file", help="set function JSON")
    wb.add_argument("--n", type=int, required=True)
    wb.set_defaults(fn=cmd_witness_build)
    wv = wsub.add_parser("verify", parents=[common])
    wv.add_argument("cert")
    wv.add_argument("tuple")
    wv.set_defaults(fn=cmd_witness_verify)

    b = sub.add_parser("builtin", parents=[common], help="print a named builtin set function")
    b.add_argument("name", choices=["zy", "projective-plane"])
    b.set_defaults(fn=cmd_builtin)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ResourceError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
