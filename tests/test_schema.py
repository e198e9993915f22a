import sys

import pytest

from entronet.schema import StructuralError, document, sym_from_json, sym_to_json, typed


def test_typed_refuses_a_bool_as_an_integer():
    assert typed(3, int, "n") == 3
    with pytest.raises(StructuralError, match="n is not an integer: True"):
        typed(True, int, "n")


@pytest.mark.parametrize("obj, fmt, tag", [
    ({}, "network/1", "network/1"),
    ({"format": "network/1"}, "network/1", "network/1"),
    ({}, ("support/1", "subgroupfamily/1"), "support/1"),
    ({"format": "subgroupfamily/1"}, ("support/1", "subgroupfamily/1"), "subgroupfamily/1"),
    ({"format": "witness/1"}, "witness/1", "witness/1"),
])
def test_document_reads_the_tag_or_its_default(obj, fmt, tag):
    assert document(obj, fmt, "a document") == tag


@pytest.mark.parametrize("obj, fmt", [
    ([], "network/1"),
    ({"format": "code/1"}, "network/1"),
    ({"format": None}, "network/1"),
    ({}, "witness/1"),  # a certificate must carry its tag
    ({}, "codebundle/1"),
])
def test_document_refuses_another_tag_or_a_missing_required_one(obj, fmt):
    with pytest.raises(StructuralError):
        document(obj, fmt, "a document")


def test_symbols_round_trip_and_an_object_is_refused():
    assert sym_from_json([1, ["a", [2]]]) == (1, ("a", (2,)))
    assert sym_to_json((1, ("a", (2,)))) == [1, ["a", [2]]]
    with pytest.raises(StructuralError):
        sym_from_json([1, {}])


def test_a_symbol_nested_past_the_recursion_limit_is_refused():
    """JSON this deep can reach a loader, since the parser counts its
    nesting from a shallower stack."""
    x = 0
    for _ in range(sys.getrecursionlimit()):
        x = [x]
    with pytest.raises(StructuralError, match="nests too deeply"):
        sym_from_json(x)
