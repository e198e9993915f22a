import copy
import functools
import hashlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import butterfly, wide_inner_code, xor_code
from entronet.cli import run
from entronet.construct import build_gdagger, rate_capacity
from entronet.exactlog import log2_units
from entronet.groupchar import (
    SubgroupFamily,
    SubspaceFamily,
    SupportSet,
    builtin_function,
    coset_support,
    cyclic,
    direct_product,
    symmetric,
)
from entronet.lpbound import build_witness
from entronet.netmodel import (
    Alphabet,
    ConnectionRequirement,
    Edge,
    Network,
    NetworkCode,
    RateCapacityTuple,
    TableMap,
    UNCAPPED,
)
from entronet.setfunc import SetFunction


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def zy_path(tmp_path):
    return write(tmp_path, "zy.json", builtin_function("zy").to_json())


def test_check_exit_codes(tmp_path, zy_path, capsys):
    assert run(["check", "poly", zy_path]) == 0
    assert run(["check", "zy", zy_path]) == 1
    assert run(["check", "poly", str(tmp_path / "missing.json")]) == 2
    out = capsys.readouterr()
    assert "PASS" in out.out and "FAIL" in out.out


def test_json_reports(zy_path, capsys):
    assert run(["check", "zy", zy_path, "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["format"] == "report/1" and rep["ok"] is False


def report_commands(tmp_path, capsys):
    """(argv, exit code) of a `check`, a `qu check`, an `lp implies` and a
    `witness verify` that print a report."""
    h_path = write(tmp_path, "h.json", SetFunction.from_log2("12", {"1": 1, "2": 2, "12": 2}).to_json())
    assert run(["witness", "build", h_path, "--n", "2"]) == 0
    cert_path = write(tmp_path, "cert.json", json.loads(capsys.readouterr().out))
    assert run(["construct", "gdagger", "--n", "2", "--h", h_path, "--json"]) == 0
    tup_path = write(tmp_path, "tup.json", json.loads(capsys.readouterr().out)["tuple"])
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(x) for x in g.all_subgroups() if len(x) == 2]
    fam_path = write(tmp_path, "fam.json", SubgroupFamily(g, (subs[0], subs[1])).to_json())
    assert run(["group", "support", fam_path, "--json"]) == 0
    sup_path = write(tmp_path, "sup.json", json.loads(capsys.readouterr().out))
    expr_path = tmp_path / "e.txt"
    expr_path.write_text("I(1;2) >= 0\n")
    return [
        (["check", "zy", write(tmp_path, "zy.json", builtin_function("zy").to_json())], 1),
        (["qu", "check", sup_path], 0),
        (["lp", "implies", str(expr_path), "--n", "3"], 0),
        (["witness", "verify", cert_path, tup_path], 0),
    ]


@pytest.mark.parametrize("position", ["global", "subcommand"])
def test_json_flag_works_before_and_after_the_subcommand(tmp_path, capsys, position):
    for argv, code in report_commands(tmp_path, capsys):
        argv = ["--json"] + argv if position == "global" else argv + ["--json"]
        assert run(argv) == code
        assert json.loads(capsys.readouterr().out)["format"] == "report/1"


def test_stdin_dash(monkeypatch, capsys):
    doc = json.dumps(builtin_function("projective-plane").to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(["check", "ingleton", "-"]) == 1


def test_builtin_pipes_into_check(monkeypatch, capsys):
    assert run(["builtin", "projective-plane"]) == 0
    doc = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(["check", "poly", "-"]) == 0


def test_group_and_qu_flow(tmp_path, capsys):
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    fam_path = write(tmp_path, "fam.json", SubgroupFamily(g, (subs[0], subs[1])).to_json())
    assert run(["group", "entropy", fam_path, "--json"]) == 0
    ent = json.loads(capsys.readouterr().out)
    assert ent["format"] == "setfunction/1"
    assert run(["group", "support", fam_path, "--json"]) == 0
    sup_doc = capsys.readouterr().out
    sup_path = tmp_path / "sup.json"
    sup_path.write_text(sup_doc)
    assert run(["qu", "check", str(sup_path)]) == 0


def test_construct_and_witness_flow(tmp_path, capsys):
    g = direct_product(cyclic(2), cyclic(2))
    subs = [sorted(s) for s in g.all_subgroups() if len(s) == 2]
    fam_path = write(tmp_path, "fam.json", SubgroupFamily(g, (subs[0], subs[1])).to_json())
    assert run(["group", "entropy", fam_path, "--json"]) == 0
    h_path = tmp_path / "h.json"
    h_path.write_text(capsys.readouterr().out)

    dot_path = tmp_path / "g.dot"
    assert run(["construct", "gdagger", "--n", "2", "--h", str(h_path),
                "--dot", str(dot_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "gdagger/1" and "tuple" in doc
    assert dot_path.read_text().startswith("digraph")
    tup_path = write(tmp_path, "tup.json", doc["tuple"])

    assert run(["witness", "build", str(h_path), "--n", "2"]) == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(capsys.readouterr().out)
    assert run(["witness", "verify", str(cert_path), tup_path]) == 0


def test_witness_verify_takes_n_from_the_tuple(tmp_path, capsys, monkeypatch):
    h_path = write(tmp_path, "h.json", SetFunction.from_log2("12", {"1": 1, "2": 2, "12": 2}).to_json())
    assert run(["witness", "build", h_path, "--n", "2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert run(["construct", "gdagger", "--n", "2", "--h", h_path, "--json"]) == 0
    tup = json.loads(capsys.readouterr().out)["tuple"]
    tup_path = write(tmp_path, "tup.json", tup)

    built = []

    def spy(n):
        built.append(n)
        if n != 2:
            raise AssertionError(f"layout for N={n} built from the certificate")
        return build_gdagger(n)

    monkeypatch.setattr("entronet.cli.build_gdagger", spy)
    forged = write(tmp_path, "forged.json", {**cert, "n": 40})
    assert run(["witness", "verify", forged, tup_path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        "certificate is for N=40, the layout has N=2"]
    assert built == [2]
    # a tuple whose rate count is not 2^N - 1 fits no layout
    del tup["rates"][next(iter(tup["rates"]))]
    assert run(["witness", "verify", forged, write(tmp_path, "short.json", tup)]) == 2
    assert built == [2]


def test_code_build_and_verify_bundle(tmp_path, capsys):
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    fam_path = write(tmp_path, "sfam.json", fam.to_json())
    assert run(["code", "build", "linear", fam_path, "--n", "3"]) == 0
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(capsys.readouterr().out)
    assert run(["code", "verify", str(bundle_path)]) == 0
    bundle = json.loads(bundle_path.read_text())
    paths = [write(tmp_path, f"{k}.json", bundle[k])
             for k in ("network", "conn", "code", "tuple")]
    assert run(["code", "verify", *paths]) == 0


def qu_families():
    """A Z2xZ2 family at N=2 and three transposition subgroups of S3 at N=3."""
    z2z2 = direct_product(cyclic(2), cyclic(2))
    pairs = [sorted(s) for s in z2z2.all_subgroups() if len(s) == 2]
    s3 = symmetric(3)
    transpositions = [sorted(s) for s in s3.all_subgroups() if len(s) == 2]
    return [(SubgroupFamily(z2z2, pairs[:2]), 2), (SubgroupFamily(s3, transpositions), 3)]


@pytest.mark.parametrize("case,digest", zip(qu_families(), [
    "4d96c0aff629122d9156828fb1b1822d0d2282f90d7338161195604c026e1fb5",
    "41edcc9d708fbeaf3ff7af63248c16d279f6dc3a1946bb49cd9a20ab8276a138",
]))
def test_code_build_qu_bundle_is_unchanged(tmp_path, capsys, case, digest):
    """The bundle's SHA-256, as built when h came from `quasi_uniform_check`."""
    fam, n = case
    assert run(["code", "build", "qu", write(tmp_path, "fam.json", fam.to_json()),
                "--n", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case,digest", zip([
    (SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),))), 3),
    (SubspaceFamily(3, 2, (((1, 2),), ((0, 1),))), 2),
    (SubspaceFamily(4, 3, (((1, 0, 0), (0, 1, 0)), ((0, 0, 1),), ((1, 2, 3),))), 3),
], [
    "eb9e38d0711915d4fad56f98da815f92541a701ac6e139899cfe60f84348a9e8",
    "eea4b0dfc3f453bfb74d4d6447ce55115ab5352530ab23cee001bcf9326f3668",
    "a7bedcdb18579f252cb5fc0d93a18698b4f4a146d59a6e66ffbd874c104b352d",
]))
def test_code_build_linear_bundle_is_unchanged(tmp_path, capsys, case, digest):
    """The bundle's SHA-256, as built when h came from `entropy_from_subspaces`."""
    fam, n = case
    assert run(["code", "build", "linear", write(tmp_path, "fam.json", fam.to_json()),
                "--n", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_code_build_qu_projects_the_support_once(tmp_path, capsys, monkeypatch):
    import entronet.groupchar as groupchar

    calls = []

    def spy(s, _project=groupchar.support_projections):
        calls.append(s)
        return _project(s)

    monkeypatch.setattr("entronet.groupchar.support_projections", spy)
    monkeypatch.setattr("entronet.codegen.support_projections", spy)
    fam, n = qu_families()[1]
    assert run(["code", "build", "qu", write(tmp_path, "fam.json", fam.to_json()),
                "--n", str(n)]) == 0
    assert len(calls) == 1


def test_code_build_qu_on_a_support_that_is_not_quasi_uniform_exits_2(tmp_path, capsys):
    support = SupportSet(2, [[0, 1], [0, 1]], [(0, 0), (0, 1), (1, 0)])
    assert run(["code", "build", "qu", write(tmp_path, "sup.json", support.to_json()),
                "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_code_verify_evaluates_the_code_once(tmp_path, capsys, monkeypatch):
    import entronet.netmodel as netmodel

    calls = []

    def spy(*args, _evaluate=netmodel.evaluate_code, **kwargs):
        calls.append(args)
        return _evaluate(*args, **kwargs)

    monkeypatch.setattr("entronet.netmodel.evaluate_code", spy)
    monkeypatch.setattr("entronet.cli.evaluate_code", spy)
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    assert run(["code", "build", "linear", write(tmp_path, "sfam.json", fam.to_json()),
                "--n", "3"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 0
    assert len(calls) == 1
    capsys.readouterr()
    # a rate above the session's alphabet size fails admissibility, not zero error
    rates = bundle["tuple"]["rates"]
    rates[min(rates)] = log2_units(3).to_json()
    assert run(["code", "verify", "--json", write(tmp_path, "high.json", bundle)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["zero_error"] and not report["admissible"]
    assert len(calls) == 2


def failing_butterfly():
    """The binary butterfly whose decoder for X at r1 reads e_dr1 = X + Y
    alone: it is wrong whenever Y = 1."""
    net, conn = butterfly()
    code = xor_code()
    code.decoders[("r1", "X")] = TableMap([0, 1, 0, 1])
    return net, conn, code


def failing_fork():
    """X (three symbols) at s reaches a, b and c; Y at t reaches b alone.
    Every decoder is wrong somewhere, and a and c see only X while b sees
    both sessions."""
    net = Network(("s", "t", "a", "b", "c"), (
        Edge("e1", "s", "a", UNCAPPED), Edge("e2", "s", "b", UNCAPPED),
        Edge("e3", "t", "b", UNCAPPED), Edge("e4", "s", "c", UNCAPPED)))
    conn = ConnectionRequirement(("X", "Y"), {"X": "s", "Y": "t"},
                                 {"X": ("a", "b", "c"), "Y": ("b",)})
    uvw, bit = Alphabet(symbols=["u", "v", "w"]), Alphabet(symbols=[0, 1])
    ident = TableMap([0, 1, 2])
    code = NetworkCode(
        {"X": uvw, "Y": bit, "e1": uvw, "e2": uvw, "e3": bit, "e4": uvw},
        {"e1": ident, "e2": ident, "e3": TableMap([0, 1]), "e4": ident},
        # b reads (e2, e3): six feed tuples, e2 most significant
        {("a", "X"): TableMap([0, 2, 1]), ("c", "X"): TableMap([0, 1, 0]),
         ("b", "X"): TableMap([0, 0, 1, 1, 2, 0]), ("b", "Y"): TableMap([1, 1, 0, 1, 0, 1])},
    )
    return net, conn, code


def _failing(sources, receiver, session):
    return {"sources": sources, "receiver": receiver, "session": session}


@pytest.mark.parametrize("case, failing", [
    # F_2 symbols print as 1-tuples
    (failing_butterfly, [_failing(["(0,)", "(1,)"], "r1", "X"),
                         _failing(["(1,)", "(1,)"], "r1", "X")]),
    # the receivers that see X alone come first, in receiver order, then b
    (failing_fork, [_failing(["v", "0"], "a", "X"), _failing(["w", "0"], "a", "X"),
                    _failing(["w", "0"], "c", "X"), _failing(["w", "1"], "b", "X"),
                    _failing(["u", "0"], "b", "Y")]),
])
def test_a_failing_code_verify_report_is_unchanged(tmp_path, capsys, case, failing):
    net, conn, code = case()
    one = log2_units(1)
    bundle = {"format": "codebundle/1", "network": net.to_json(), "conn": conn.to_json(),
              "code": code.to_json(),
              "tuple": RateCapacityTuple({s: one for s in conn.sessions}, {}).to_json()}
    assert run(["code", "verify", "--json", write(tmp_path, "bundle.json", bundle)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "format": "report/1", "check": "code", "zero_error": False, "admissible": False,
        "failing_inputs": failing}


def test_code_verify_short_decoder_table_exits_2(tmp_path, capsys):
    fam = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),)))
    fam_path = write(tmp_path, "sfam.json", fam.to_json())
    assert run(["code", "build", "linear", fam_path, "--n", "3"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    bundle["code"]["decoders"][0]["map"] = {"kind": "table", "table": [0]}
    assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 2
    assert "decoder for session" in capsys.readouterr().err


def chain_bundle():
    """A code bundle of the chain s -> m -> r with every session and edge
    over F_2^1 and identity maps."""
    net = Network(("s", "m", "r"),
                  (Edge("e1", "s", "m", UNCAPPED), Edge("e2", "m", "r", UNCAPPED)))
    conn = ConnectionRequirement(("U",), {"U": "s"}, {"U": ("r",)})
    bit = {"kind": "vector", "q": 2, "dim": 1}
    ident = {"kind": "linear", "q": 2, "matrix": [[1]]}
    code = {"format": "code/1", "alphabets": {"U": bit, "e1": dict(bit), "e2": bit},
            "encoders": {"e1": ident, "e2": ident},
            "decoders": [{"receiver": "r", "session": "U", "map": ident}]}
    one = log2_units(1)
    return {"format": "codebundle/1", "network": net.to_json(), "conn": conn.to_json(),
            "code": code,
            "tuple": RateCapacityTuple({"U": one}, {"e1": one, "e2": one}).to_json()}


@pytest.mark.parametrize("edit", [
    lambda code: code["encoders"].update(e1={"kind": "linear", "q": 2, "matrix": [[1, 1]]}),
    lambda code: code["encoders"].update(e1={"kind": "linear", "q": 2, "matrix": [[5]]}),
    lambda code: code["encoders"].update(e1={"kind": "linear", "q": 2, "matrix": [[-1]]}),
    lambda code: code["encoders"].update(e1={"kind": "linear", "q": 2, "matrix": [[1], [1, 0]]}),
    lambda code: code["encoders"].update(e1={"kind": "table", "table": [0, 1.7]}),
])
def test_code_verify_on_a_malformed_map_exits_2(tmp_path, capsys, edit):
    """Each edit breaks the first encoder's map in the chain bundle."""
    bundle = chain_bundle()
    code = bundle["code"]
    assert run(["code", "verify", write(tmp_path, "ok.json", bundle)]) == 0
    capsys.readouterr()
    edit(code)
    assert run(["code", "verify", write(tmp_path, "bad.json", bundle)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("dim", "1"), ("dim", 1.0), ("dim", -1), ("dim", True), ("dim", None),
    ("q", 2.0), ("q", "2"), ("q", 1), ("q", False),
])
def test_code_verify_on_a_malformed_alphabet_exits_2(tmp_path, capsys, key, value):
    """The chain bundle with one entry of the first edge's alphabet
    replaced by a non-integer or out-of-range value."""
    bundle = chain_bundle()
    bundle["code"]["alphabets"]["e1"][key] = value
    assert run(["code", "verify", write(tmp_path, "bad.json", bundle)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _an_edge_is_a_list(bundle):
    bundle["network"]["edges"][0] = ["e1", "s", "m", None]


def _sessions_is_a_number(bundle):
    bundle["conn"]["sessions"] = 5


def _rates_is_a_list(bundle):
    bundle["tuple"]["rates"] = []


def _an_alphabet_is_a_list(bundle):
    bundle["code"]["alphabets"]["e1"] = [2, 1]


@pytest.mark.parametrize("command, forge", [
    ("lp", _an_edge_is_a_list), ("lp", _sessions_is_a_number), ("lp", _rates_is_a_list),
    ("code", _an_alphabet_is_a_list),
])
def test_a_nested_entry_of_the_wrong_type_exits_2(tmp_path, capsys, command, forge):
    """`lp feasible` on the chain bundle's parts, or `code verify` on the
    bundle, after one entry inside a document gets the wrong type."""
    def argv(bundle):
        if command == "lp":
            return ["lp", "feasible"] + [write(tmp_path, f"{k}.json", bundle[k])
                                         for k in ("network", "conn", "tuple")]
        return ["code", "verify", write(tmp_path, "bundle.json", bundle)]

    bundle = chain_bundle()
    assert run(argv(bundle)) == 0
    capsys.readouterr()
    forge(bundle)
    assert run(argv(bundle)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, key, value", [
    ("subspace entropy", "q", "x"),
    ("subspace entropy", "members", 5),
    ("subspace entropy", "members", [[5], [[0, 1]]]),
    ("code build linear", "members", 5),
    ("code build linear", "members", [[5], [[0, 1]]]),
    *[(command, "members", value) for command in ("group entropy", "group support")
      for value in (5, [5], [[[0]]], [[0, 9]])],
    ("group entropy", "table", [1, 2]),
    ("code build qu", "table", [1, 2]),
    ("group entropy", "table", [[0], [1, 0]]),
])
def test_a_family_entry_of_the_wrong_type_exits_2(tmp_path, capsys, command, key, value):
    """Each family loader on an honest family, then with one entry inside it
    replaced: by a value of the wrong type, an element outside the group,
    or a table row of the wrong length."""
    words = command.split()
    if words[0] == "group" or words[-1] == "qu":
        doc = SubgroupFamily(symmetric(3), ([0, 1], [0, 3, 4])).to_json()
    else:
        doc = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),))).to_json()

    def argv():
        return words + [write(tmp_path, "fam.json", doc)] + (["--n", "2"] if words[0] == "code" else [])

    assert run(argv()) == 0
    capsys.readouterr()
    (doc["group"] if key == "table" else doc)[key] = value
    assert run(argv()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_a_field_above_q_64_exits_2(tmp_path, capsys):
    """A subspace family and a linear code over F_67, refused before any
    field table is built."""
    fam = {"format": "subspacefamily/1", "q": 67, "ambient_dim": 1, "members": [[], [[1]]]}
    fam_path = write(tmp_path, "fam.json", fam)
    bundle = chain_bundle()
    code = bundle["code"]
    for entry in [*code["alphabets"].values(), *code["encoders"].values(), code["decoders"][0]["map"]]:
        entry["q"] = 67
    for argv in (["subspace", "entropy", fam_path], ["code", "build", "linear", fam_path, "--n", "2"],
                 ["code", "verify", write(tmp_path, "bundle.json", bundle)]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["qu", "check"], ["code", "build", "qu", "--n", "1"]])
@pytest.mark.parametrize("support", [
    {"format": "support/1", "arity": 1, "alphabets": [[1]], "tuples": [[{}]]},
    {"format": "support/1", "arity": 1, "alphabets": [[0, {"a": 1}]], "tuples": [[0]]},
])
def test_a_support_with_an_unhashable_symbol_exits_2(tmp_path, capsys, command, support):
    assert run(command + [write(tmp_path, "sup.json", support)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["qu", "check"], ["code", "build", "qu", "--n", "1"]])
@pytest.mark.parametrize("support", [
    {"format": "support/1", "arity": 1, "alphabets": [[0]], "tuples": [0]},
    {"format": "support/1", "arity": 1, "alphabets": [0], "tuples": [[0]]},
    {"format": "support/1", "arity": 1, "alphabets": [[0]], "tuples": 0},
])
def test_a_support_whose_entries_are_not_lists_exits_2(tmp_path, capsys, command, support):
    assert run(command + [write(tmp_path, "sup.json", support)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [[], 0, "x"])
@pytest.mark.parametrize("command", [
    ["qu", "check", "DOC"], ["group", "entropy", "DOC"], ["subspace", "entropy", "DOC"],
    ["code", "build", "qu", "DOC", "--n", "2"], ["code", "verify", "DOC"],
    ["lp", "feasible", "DOC", "DOC", "DOC"],
])
def test_a_document_that_is_not_an_object_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    assert run([path if a == "DOC" else a for a in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [[], 0, "x"])
def test_a_part_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    """Each file of `lp feasible`, then each part of a code bundle, in turn."""
    files = list(relay_files(tmp_path)[:3])
    for i in range(3):
        argv = files[:i] + [write(tmp_path, "doc.json", doc)] + files[i + 1:]
        assert run(["lp", "feasible"] + argv) == 2
    for part in ("network", "conn", "code", "tuple"):
        bundle = chain_bundle()
        bundle[part] = doc
        assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 7 and "Traceback" not in err


def test_code_verify_refuses_a_session_named_like_an_edge(tmp_path, capsys):
    """A bundle whose edge shares its id with the session; the edge sends 0
    whatever the session is, yet the shared name made the code read as
    zero-error."""
    net = Network(("s", "r"), (Edge("X", "s", "r", UNCAPPED),))
    conn = ConnectionRequirement(("X",), {"X": "s"}, {"X": ("r",)})
    bit = {"kind": "symbols", "symbols": [0, 1]}
    code = {"format": "code/1", "alphabets": {"X": bit},
            "encoders": {"X": {"kind": "table", "table": [0, 0]}},
            "decoders": [{"receiver": "r", "session": "X",
                          "map": {"kind": "table", "table": [0, 1]}}]}
    one = log2_units(1)
    bundle = {"format": "codebundle/1", "network": net.to_json(), "conn": conn.to_json(),
              "code": code, "tuple": RateCapacityTuple({"X": one}, {"X": one}).to_json()}
    assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 2
    err = capsys.readouterr().err
    assert "also an edge id" in err and "Traceback" not in err


def relay_files(tmp_path):
    """A relay network s -> m -> r, its one session, and two tuples: one at
    the relay's capacity and one above it; the paths of their files."""
    net = Network(("s", "m", "r"),
                  (Edge("e1", "s", "m", UNCAPPED), Edge("e2", "m", "r", UNCAPPED)))
    conn = ConnectionRequirement(("U",), {"U": "s"}, {"U": ("r",)})
    net_path = write(tmp_path, "net.json", net.to_json())
    conn_path = write(tmp_path, "conn.json", conn.to_json())
    ok_tup = write(tmp_path, "t1.json", RateCapacityTuple(
        {"U": log2_units(1)}, {"e1": log2_units(1), "e2": log2_units(1)}).to_json())
    bad_tup = write(tmp_path, "t2.json", RateCapacityTuple(
        {"U": log2_units(2)}, {"e1": log2_units(1), "e2": log2_units(1)}).to_json())
    return net_path, conn_path, ok_tup, bad_tup


def test_lp_subcommands(tmp_path, capsys, monkeypatch):
    net_path, conn_path, ok_tup, bad_tup = relay_files(tmp_path)
    assert run(["lp", "feasible", net_path, conn_path, ok_tup]) == 0
    assert run(["lp", "feasible", net_path, conn_path, bad_tup]) == 1

    expr_path = tmp_path / "e.txt"
    expr_path.write_text("I(1;2) >= 0\n")
    assert run(["lp", "implies", str(expr_path), "--n", "3"]) == 0
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("2 I(3;4) - I(1;2) - I(1;3,4) - 3 I(3;4|1) - I(3;4|2) <= 0"))
    assert run(["lp", "implies", "-", "--n", "4"]) == 1


def test_lp_json_is_all_of_stdout(tmp_path, capfd):
    """`lp feasible --json` and `lp implies --json` print one JSON document
    and nothing else, at the file-descriptor level: HiGHS writes its log
    from C++ to fd 1, where capsys would not see it."""
    net_path, conn_path, ok_tup, bad_tup = relay_files(tmp_path)
    expr_path = tmp_path / "e.txt"
    expr_path.write_text("2 I(3;4) - I(1;2) - I(1;3,4) - 3 I(3;4|1) - I(3;4|2) <= 0")
    for argv, code in [(["lp", "feasible", net_path, conn_path, ok_tup], 0),
                       (["lp", "feasible", net_path, conn_path, bad_tup], 1),
                       (["lp", "implies", str(expr_path), "--n", "4"], 1)]:
        assert run(argv + ["--json"]) == code
        out = capfd.readouterr().out
        assert json.loads(out)["format"] == "report/1"


@pytest.mark.parametrize("text", ["5/0 H(1) >= 0", "H(1/2) >= 0"])
def test_lp_implies_on_a_bad_number_exits_2(tmp_path, capsys, text):
    expr_path = tmp_path / "e.txt"
    expr_path.write_text(text)
    assert run(["lp", "implies", str(expr_path), "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lp_implies_over_the_variable_cap_exits_2(tmp_path, capsys):
    expr_path = tmp_path / "e.txt"
    expr_path.write_text("I(1;2) >= 0\n")
    assert run(["lp", "implies", str(expr_path), "--n", "40"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_structural_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "poly", str(bad)]) == 2
    wrong = write(tmp_path, "wrong.json", {"format": "network/1", "nodes": [], "edges": []})
    assert run(["check", "poly", wrong]) == 2


def _a_value_is_a_string(cert):
    values = cert["locals"]["sources"]["function"]["values"]
    values[next(iter(values))] = "1"


def _a_local_is_a_list(cert):
    cert["locals"]["sources"] = [1, 2]


def _locals_is_a_string(cert):
    cert["locals"] = "sources"


def _a_zero_denominator(cert):
    values = cert["locals"]["sources"]["function"]["values"]
    values[next(iter(values))] = {"2": "1/0"}


def _forty_ground_labels(cert):
    cert["locals"]["sources"]["function"]["ground"] = [str(i) for i in range(40)]


def _a_key_too_large_to_test(cert):
    # no small factor, and past the bound of the deterministic prime test
    values = cert["locals"]["sources"]["function"]["values"]
    values[next(iter(values))] = {"1000000000000000000000000000057": "1"}


@pytest.mark.parametrize("forge", [_a_value_is_a_string, _a_local_is_a_list, _locals_is_a_string,
                                   _a_zero_denominator, _forty_ground_labels,
                                   _a_key_too_large_to_test])
def test_witness_verify_on_a_malformed_certificate_exits_2(tmp_path, capsys, forge):
    h_path = write(tmp_path, "h.json", SetFunction.from_log2("12", {"1": 1, "2": 2, "12": 2}).to_json())
    assert run(["witness", "build", h_path, "--n", "2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert run(["construct", "gdagger", "--n", "2", "--h", h_path, "--json"]) == 0
    tup_path = write(tmp_path, "tup.json", json.loads(capsys.readouterr().out)["tuple"])
    forge(cert)
    assert run(["witness", "verify", write(tmp_path, "cert.json", cert), tup_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_code_verify_refuses_a_linear_table_over_the_cap(tmp_path, capsys):
    net, conn, code = wide_inner_code()
    one = log2_units(1)
    bundle = {"format": "codebundle/1", "network": net.to_json(), "conn": conn.to_json(),
              "code": code.to_json(),
              "tuple": RateCapacityTuple({"X": one}, {"e1": one, "e2": one}).to_json()}
    assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 2
    assert "linear map" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "poly", "DIR"],
    ["lp", "implies", "DIR", "--n", "3"],
    ["construct", "gdagger", "--n", "2", "--dot", "DIR/missing/g.dot"],
    ["check", "poly", "DEEP"],
])
def test_an_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, argv):
    """A directory given as an input, a --dot path in a missing directory,
    and JSON nested past the parser's recursion limit."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run([a.replace("DIR", str(tmp_path)).replace("DEEP", str(deep)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _huge_alphabet(bundle, key):
    bundle["code"]["alphabets"][key] = {"kind": "vector", "q": 3, "dim": 10**9}


@pytest.mark.parametrize("argv, doc", [
    (["check", "poly"], {"format": "setfunction/1", "ground": ["1"],
                         "values": {"1": {"2": "1e10000000"}}}),
    (["subspace", "entropy"], {"q": 2, "ambient_dim": 4097, "members": [[], []]}),
    (["subspace", "entropy"], {"q": 2, "ambient_dim": 10**5, "members": [[], []]}),
    (["code", "verify"], "e1"),
    (["code", "verify"], "U"),
])
def test_a_document_over_a_size_bound_exits_2_at_once(tmp_path, capsys, argv, doc):
    """A coefficient of ten million decimal digits, annihilators past
    MAX_CONE_TUPLES entries, and an edge or session alphabet of 3^(10^9)
    symbols: each refused before anything of that size is built."""
    if isinstance(doc, str):
        bundle = chain_bundle()
        _huge_alphabet(bundle, doc)
        doc = bundle
    path = write(tmp_path, "doc.json", doc)
    start = time.perf_counter()
    assert run(argv + [path]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_an_alphabet_no_session_or_edge_uses_is_not_sized(tmp_path, capsys):
    bundle = chain_bundle()
    _huge_alphabet(bundle, "unused")
    assert run(["code", "verify", write(tmp_path, "bundle.json", bundle)]) == 0


@functools.lru_cache(maxsize=None)
def honest_documents():
    """Each subcommand that reads a document, as (argv with one DOCi per
    input, the honest inputs): JSON objects, and the text of `lp implies`."""
    h = SetFunction.from_log2("12", {"1": 1, "2": 2, "12": 2}).to_json()
    layout = build_gdagger(2)
    f = SetFunction.from_json(h)
    cert = build_witness(f, layout).to_json()
    tup = rate_capacity(f, layout).to_json()
    groups = SubgroupFamily(symmetric(3), ([0, 1], [0, 3, 4])).to_json()
    subspaces = SubspaceFamily(2, 2, (((1, 0),), ((0, 1),), ((1, 1),))).to_json()
    support = coset_support(SubgroupFamily.from_json(groups)).to_json()
    bundle = chain_bundle()
    net, conn, code = failing_fork()  # alphabets of symbols
    fork = {"format": "codebundle/1", "network": net.to_json(), "conn": conn.to_json(),
            "code": code.to_json(), "tuple": RateCapacityTuple({}, {}).to_json()}
    return [
        (["check", "poly", "DOC0"], [h]),
        (["check", "zy", "DOC0"], [builtin_function("zy").to_json()]),
        (["group", "entropy", "DOC0"], [groups]),
        (["group", "support", "DOC0"], [groups]),
        (["subspace", "entropy", "DOC0"], [subspaces]),
        (["qu", "check", "DOC0"], [support]),
        (["construct", "gdagger", "--n", "2", "--h", "DOC0"], [h]),
        (["code", "build", "qu", "DOC0", "--n", "2"], [groups]),
        (["code", "build", "qu", "DOC0", "--n", "2"], [support]),
        (["code", "build", "linear", "DOC0", "--n", "3"], [subspaces]),
        (["code", "verify", "DOC0"], [bundle]),
        (["code", "verify", "DOC0"], [fork]),
        (["code", "verify", "DOC0", "DOC1", "DOC2", "DOC3"],
         [bundle[k] for k in ("network", "conn", "code", "tuple")]),
        (["lp", "feasible", "DOC0", "DOC1", "DOC2"],
         [bundle[k] for k in ("network", "conn", "tuple")]),
        (["lp", "implies", "DOC0", "--n", "3"], ["I(1;2|3) + H(1) >= 0\n"]),
        (["witness", "build", "DOC0", "--n", "2"], [h]),
        (["witness", "verify", "DOC0", "DOC1"], [cert, tup]),
    ]


def _paths(doc, path=()):
    """The path of every entry inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


WRONG_TYPES = [None, True, 0, -1, 2.5, 10**30, "x", "", [], [0], [[0]], {}, {"2": "1"}]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_document_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, data):
    """One input of one subcommand, mutated once: a key dropped, an entry or
    the whole document replaced by a value of another type, or a slice of
    the `lp implies` text replaced."""
    argv, docs = data.draw(st.sampled_from(honest_documents()))
    i = data.draw(st.integers(0, len(docs) - 1))
    doc = copy.deepcopy(docs[i])
    if isinstance(doc, str):
        a = data.draw(st.integers(0, len(doc)))
        b = data.draw(st.integers(a, len(doc)))
        doc = doc[:a] + data.draw(st.sampled_from(["", "(", ";", "|", ",", "H", "1/0", "9" * 40])) + doc[b:]
    else:
        paths = list(_paths(doc))
        path = data.draw(st.sampled_from([()] + paths))
        value = data.draw(st.sampled_from(WRONG_TYPES + ["DROP"]))
        if not path:
            doc = value
        else:
            parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
            if value == "DROP" and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = None if value == "DROP" else value
    inputs = [doc if j == i else d for j, d in enumerate(docs)]
    paths = []
    for j, d in enumerate(inputs):
        p = tmp_path / f"doc{j}.json"
        p.write_text(d if isinstance(d, str) else json.dumps(d))
        paths.append(str(p))
    code = run([paths[int(a[3:])] if a.startswith("DOC") else a for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
