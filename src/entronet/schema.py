"""The checks a JSON document passes before a loader (`from_json`) builds
from it: `StructuralError` for a malformed document, and `ResourceError`
for a size past its bound, raised before anything of that size is built."""

from typing import Mapping, Tuple, Union


class StructuralError(ValueError):
    """A document, or a network, code or family built from one, is malformed."""


class ResourceError(RuntimeError):
    """A size passes its cap; raised before anything of that size is built."""


# source tuples of one demand's union, entries of all scope tables together,
# entries of one linear encoder table, and entries of one subspace annihilator
MAX_CONE_TUPLES = 1 << 24

# formats whose documents must carry their tag; the others may leave it out
_TAGGED = frozenset({"witness/1", "codebundle/1"})

_KINDS = {list: "a list", Mapping: "an object", str: "a string", int: "an integer"}


def typed(value, kind: type, what: str):
    """`value`, if it is a `kind` (a bool is not an integer); a
    StructuralError naming `what` if not."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise StructuralError(f"{what} is not {_KINDS[kind]}: {value!r:.40}")
    return value


def document(obj, fmt: Union[str, Tuple[str, ...]], what: str) -> str:
    """The format tag of `obj`, if it is a JSON object tagged `fmt` or, for
    a tuple, one of its tags.  A document without a tag reads as the
    (first) `fmt`, unless that format is one whose documents must carry it."""
    typed(obj, Mapping, what)
    tags = (fmt,) if isinstance(fmt, str) else fmt
    tag = obj.get("format", None if tags[0] in _TAGGED else tags[0])
    if tag not in tags:
        raise StructuralError(f"{what} needs format {' or '.join(tags)}, got {tag!r:.40}")
    return tag


def int_rows(value, what: str) -> list:
    """`value`, if it is a list of lists of integers; a StructuralError if not."""
    for row in typed(value, list, what):
        for x in typed(row, list, f"a row of {what}"):
            typed(x, int, f"an entry of {what}")
    return value


def sym_to_json(s):
    """A symbol as JSON: a tuple becomes a list, at every depth, one frame per
    level (`map`), so that any symbol `sym_from_json` read can be written."""
    return list(map(sym_to_json, s)) if isinstance(s, tuple) else s


def sym_from_json(x):
    """A symbol from JSON: a list becomes a tuple, at every depth.  An
    object, which could not be hashed, and lists nested past the recursion
    limit are a StructuralError."""
    if isinstance(x, Mapping):
        raise StructuralError(f"a symbol is a number, a string or a list, got {x!r:.40}")
    try:
        return tuple(map(sym_from_json, x)) if isinstance(x, list) else x
    except RecursionError:
        raise StructuralError("a symbol nests too deeply") from None
