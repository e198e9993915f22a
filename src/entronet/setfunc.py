"""Set functions over finite ground sets with exact log-valued entries, the
linear information expressions that measure them, and the inequality checks
(polymatroid, Ingleton, Zhang–Yeung).

Subsets are encoded as bitmasks: bit ``i`` corresponds to the ground label at
position ``i``; all iteration is in increasing mask order so reports and
serialized output are deterministic.  Each inequality is stated once, as an
`InfoExpression`; `template_index` instantiates it over a ground set, for the
checks here and for the LP templates of `lpbound`.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlog import ZERO, IntegerForm, LogScalar, integer_form, negative_rows
from .schema import StructuralError, document, typed

SubsetLike = Union[int, Iterable[str]]


class GroundSet:
    """Ordered list of distinct element labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(x) for x in labels)
        if len(labels) < 1:
            raise StructuralError("ground set must have at least one element")
        if len(set(labels)) != len(labels):
            raise StructuralError("ground labels must be distinct")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)})"

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def mask(self, subset: SubsetLike) -> int:
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise ValueError(f"mask {subset} out of range")
            return subset
        m = 0
        for lab in subset:
            lab = str(lab)
            if lab not in self._index:
                raise KeyError(f"label {lab!r} not in ground set")
            m |= 1 << self._index[lab]
        return m

    def subset(self, mask: int) -> Tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)


class SetFunction:
    """Map from subsets of a ground set to LogScalar, zero at the empty set.

    `values` is never mutated in place: every operation builds a new set
    function.  So `form`, the values' exact integer form
    (:func:`~entronet.exactlog.integer_form`), is computed on first use and
    kept.  An extension that derives its form from its parent's builds the
    set function from the form alone (:meth:`derived`); its `values` are
    then read off the form on first use.
    """

    __slots__ = ("ground", "_values", "_form")

    def __init__(self, ground: Union[GroundSet, Sequence[str]], values: Sequence[LogScalar]):
        if not isinstance(ground, GroundSet):
            ground = GroundSet(ground)
        values = list(values)
        if len(values) != 1 << len(ground):
            raise StructuralError(
                f"expected {1 << len(ground)} values for ground of size {len(ground)}, "
                f"got {len(values)}"
            )
        if not values[0].is_zero():
            raise StructuralError("value at the empty set must be zero")
        self.ground = ground
        self._values = values
        self._form = None

    @classmethod
    def derived(cls, ground: GroundSet, form: IntegerForm) -> "SetFunction":
        """The set function whose integer form is `form`, one row per subset
        mask and a zero row at the empty set."""
        f = object.__new__(cls)
        f.ground = ground
        f._values = None
        f._form = form
        return f

    @property
    def values(self) -> List[LogScalar]:
        """The value at each subset mask, in mask order."""
        if self._values is None:
            self._values = [self._form.scalar(row) for row in self._form.mat]
        return self._values

    @property
    def form(self) -> IntegerForm:
        """The integer form of `values`, one row per subset mask."""
        if self._form is None:
            self._form = integer_form(self._values)
        return self._form

    @classmethod
    def from_dict(
        cls,
        ground: Union[GroundSet, Sequence[str]],
        mapping: Mapping[SubsetLike, LogScalar],
    ) -> "SetFunction":
        if not isinstance(ground, GroundSet):
            ground = GroundSet(ground)
        values = [ZERO] * (1 << len(ground))
        seen = {0}
        for key, val in mapping.items():
            m = ground.mask(key)
            values[m] = val
            seen.add(m)
        missing = [ground.subset(m) for m in range(1 << len(ground)) if m not in seen]
        if missing:
            raise ValueError(f"missing values for subsets: {missing[:5]}")
        return cls(ground, values)

    @classmethod
    def from_log2(
        cls,
        ground: Union[GroundSet, Sequence[str]],
        mapping: Mapping[SubsetLike, Union[int, Fraction]],
    ) -> "SetFunction":
        """Convenience: values given as rational multiples of log 2."""
        return cls.from_dict(
            ground, {k: LogScalar({2: Fraction(v)}) for k, v in mapping.items()}
        )

    @classmethod
    def zero(cls, ground: Union[GroundSet, Sequence[str]]) -> "SetFunction":
        if not isinstance(ground, GroundSet):
            ground = GroundSet(ground)
        return cls(ground, [ZERO] * (1 << len(ground)))

    def __call__(self, subset: SubsetLike) -> LogScalar:
        return self.values[self.ground.mask(subset)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.ground == other.ground and self.values == other.values

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        return SetFunction(self.ground, [a + b for a, b in zip(self.values, other.values)])

    def scale(self, c: Union[int, Fraction]) -> "SetFunction":
        return SetFunction(self.ground, [v * c for v in self.values])

    def restrict(self, subset: SubsetLike) -> "SetFunction":
        """Restriction to a subset of the ground set (label order preserved)."""
        keep = self.ground.mask(subset)
        labels = self.ground.subset(keep)
        positions = [i for i in range(len(self.ground)) if keep >> i & 1]
        values = []
        for m in range(1 << len(labels)):
            big = 0
            for j, pos in enumerate(positions):
                if m >> j & 1:
                    big |= 1 << pos
            values.append(self.values[big])
        return SetFunction(GroundSet(labels), values)

    def __repr__(self) -> str:
        return f"SetFunction(ground={list(self.ground.labels)}, n={len(self.ground)})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        vals = {}
        for m in range(1, 1 << len(self.ground)):
            key = ",".join(self.ground.subset(m))
            vals[key] = self.values[m].to_json()
        return {"format": "setfunction/1", "ground": list(self.ground.labels), "values": vals}

    @classmethod
    def from_json(cls, obj: Mapping) -> "SetFunction":
        document(obj, "setfunction/1", "a set function")
        ground = GroundSet(typed(obj.get("ground"), list, "a set function's ground"))
        given = typed(obj.get("values"), Mapping, "a set function's values")
        # one value per nonempty subset: the document bounds the allocation
        if len(given) < ground.full_mask:
            raise StructuralError(f"{len(given)} values for {ground.full_mask} nonempty subsets")
        values = [ZERO] * (1 << len(ground))
        seen = {0}
        for key, val in given.items():
            try:
                m = ground.mask([] if key == "" else key.split(","))
            except KeyError as exc:
                raise StructuralError(f"a set function's values: {exc.args[0]}") from None
            values[m] = LogScalar.from_json(val)
            seen.add(m)
        missing = [m for m in range(1 << len(ground)) if m not in seen]
        if missing:
            raise StructuralError(
                f"missing values for subsets {[','.join(ground.subset(m)) for m in missing[:5]]}"
            )
        return cls(ground, values)


@dataclass(frozen=True)
class Violation:
    family: str
    subsets: Tuple[Tuple[str, ...], ...]
    slack: LogScalar


@dataclass(frozen=True)
class ViolationReport:
    kind: str
    instances: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.instances

    def to_json(self) -> dict:
        return {
            "format": "violationreport/1",
            "kind": self.kind,
            "ok": self.ok,
            "instances": [
                {
                    "family": v.family,
                    "subsets": [list(s) for s in v.subsets],
                    "slack": v.slack.to_json(),
                }
                for v in self.instances
            ],
        }


# elemental rows (a|i, a|j, a|i|j, a): the slack f(a|i) + f(a|j) - f(a|i|j) - f(a)
ELEMENTAL_WEIGHTS = (1, 1, -1, -1)


@lru_cache(maxsize=None)
def elemental_index(k: int) -> np.ndarray:
    """Index rows of the elemental inequalities on k elements, each asserting
    its weighted sum (ELEMENTAL_WEIGHTS) is >= 0: first the k monotonicity
    rows (full, {}, full - i, {}), whose two empty-set terms cancel, then
    the submodularity rows (a|i, a|j, a|i|j, a) for i < j in lexicographic
    order and, within each (i, j), a over the subsets of the other elements
    in descending mask order."""
    full = (1 << k) - 1
    masks = np.arange(1 << k)[::-1]
    blocks = [np.array([[full, 0, full & ~(1 << i), 0] for i in range(k)])]
    for i in range(k):
        for j in range(i + 1, k):
            bi, bj = 1 << i, 1 << j
            a = masks[(masks & (bi | bj)) == 0]
            blocks.append(np.stack([a | bi, a | bj, a | bi | bj, a], axis=1))
    index = np.concatenate(blocks)
    index.setflags(write=False)
    return index


def check_polymatroid(f: SetFunction) -> ViolationReport:
    """Elemental Shannon checks: single-element monotonicity at the top and
    pairwise conditional submodularity; these imply the full axioms."""
    g = f.ground
    k = len(g)
    index = elemental_index(k)
    out: List[Violation] = []
    for r, slack in negative_rows(f.form, index, ELEMENTAL_WEIGHTS):
        s = [g.subset(m) for m in index[r].tolist()]
        if r < k:
            out.append(Violation("monotonicity", (s[2], s[0]), slack))
        else:
            out.append(Violation("submodularity", (s[0], s[1], s[3]), slack))
    out.sort(key=lambda v: (v.family, v.subsets))
    return ViolationReport("polymatroid", tuple(out))


# ---------------------------------------------------------------------------
# information expressions


# one role per token: a fraction is only a coefficient; a label is an
# identifier or a digit run, and a digit run may also be an integer
# coefficient or the constant 0
_TOKEN = re.compile(
    r"\s*(?:(?P<rel>>=|<=|=)|(?P<op>[+-])|(?P<frac>\d+/\d+)|(?P<meas>[HI])\s*\("
    r"|(?P<label>[A-Za-z_]\w*|\d+)|(?P<sep>[;|,)])|(?P<bad>\S))"
)


@dataclass(frozen=True)
class InfoExpression:
    """A linear combination Σ cᵢ·H(Bᵢ) asserted ≥ 0, in canonical term order."""

    terms: Tuple[Tuple[Fraction, Tuple[str, ...]], ...]

    @classmethod
    def from_terms(cls, terms: Mapping[Tuple[str, ...], Fraction]) -> "InfoExpression":
        canon: Dict[Tuple[str, ...], Fraction] = {}
        for subset, c in terms.items():
            key = tuple(sorted(set(subset)))
            if not key:
                continue
            canon[key] = canon.get(key, Fraction(0)) + Fraction(c)
        items = [(c, s) for s, c in canon.items() if c]
        items.sort(key=lambda t: (len(t[1]), t[1]))
        return cls(tuple(items))

    @property
    def variables(self) -> Tuple[str, ...]:
        out = set()
        for _, s in self.terms:
            out.update(s)
        return tuple(sorted(out))

    def evaluate(self, f: SetFunction) -> LogScalar:
        total = ZERO
        for c, s in self.terms:
            total = total + f(s) * c
        return total

    def relabel(self, mapping: Mapping[str, str]) -> "InfoExpression":
        return InfoExpression.from_terms(
            {tuple(mapping[x] for x in s): c for c, s in self.terms}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0 >= 0"
        parts = []
        for i, (c, s) in enumerate(self.terms):
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag} "
            atom = f"H({','.join(s)})"
            if i == 0:
                parts.append(("-" if c < 0 else "") + coeff + atom)
            else:
                parts.append(("- " if c < 0 else "+ ") + coeff + atom)
        return " ".join(parts) + " >= 0"

    @classmethod
    @lru_cache
    def parse(cls, text: str) -> "InfoExpression":
        """Grammar (docs/expr.md): signed terms `[coeff] H(list[|list])` or
        `[coeff] I(list;list[|list])`, or the constant 0, on each side of an
        optional `>=` or `<=`; everything is normalized to `expr >= 0`.
        Expressions are immutable, so the last texts parsed are kept: the
        checks state their inequality as text on every call."""
        # no parse step takes a `bad` token, so any other character is an error
        tokens = [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN.finditer(text)]
        tokens.append((None, "the end"))
        i = 0
        terms: Counter = Counter()

        def take(kind: str, value: Optional[str] = None) -> Optional[str]:
            """The next token, consumed, if it is of this kind (and value)."""
            nonlocal i
            k, v = tokens[i]
            if k != kind or value not in (None, v):
                return None
            i += 1
            return v

        def labels() -> List[str]:
            out = [take("label")]
            while take("sep", ","):
                out.append(take("label"))
            if None in out:
                raise ValueError(f"expected a variable label, got {tokens[i][1]!r}")
            return out

        def side(sign: int) -> None:
            nonlocal i
            first = True
            while tokens[i][0] not in ("rel", None):
                op = take("op")
                if not (op or first):
                    raise ValueError(f"expected '+' or '-' before {tokens[i][1]!r}")
                first = False
                c = Fraction(-sign if op == "-" else sign)
                kind, v = tokens[i]
                number = kind == "frac" or (kind == "label" and v[0].isdigit())
                if number:
                    i += 1
                    try:
                        c *= Fraction(v)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {v!r}") from None
                meas = take("meas")
                if meas is None:
                    if not number:
                        raise ValueError(f"expected H(...) or I(...), got {v!r}")
                    if c:
                        raise ValueError("nonzero constants are not supported")
                    continue
                a = labels()
                if meas == "H":
                    signed = [(1, a)]
                elif take("sep", ";"):
                    b = labels()
                    signed = [(1, a), (1, b), (-1, a + b)]
                else:
                    raise ValueError("I(...) needs ';' between its arguments")
                cond = labels() if take("sep", "|") else []
                if not take("sep", ")"):
                    raise ValueError("missing ')'")
                # H(A|C) = H(AC) - H(C), I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
                for s, subset in signed + [(-1, [])]:
                    terms[frozenset(subset + cond)] += s * c

        side(1)
        rel = take("rel")
        if rel == "=":
            raise ValueError("equalities are not supported; state both inequalities")
        if rel:
            side(-1)
        if tokens[i][0] is not None:
            raise ValueError(f"trailing tokens in expression from {tokens[i][1]!r}")
        flip = -1 if rel == "<=" else 1
        return cls.from_terms({subset: flip * c for subset, c in terms.items()})


def ingleton_expression(labels: Sequence[str] = ("1", "2", "3", "4")) -> InfoExpression:
    a, b, c, d = labels
    return InfoExpression.parse(
        f"I({a};{b}|{c}) + I({a};{b}|{d}) + I({c};{d}) - I({a};{b}) >= 0"
    )


def zhang_yeung_expression(labels: Sequence[str] = ("1", "2", "3", "4")) -> InfoExpression:
    a, b, c, d = labels
    return InfoExpression.parse(
        f"2 I({c};{d}) - I({a};{b}) - I({a};{c},{d}) - 3 I({c};{d}|{a}) - I({c};{d}|{b}) <= 0"
    )


@lru_cache
def template_index(expr: InfoExpression, k: int):
    """`expr` over every injective assignment of k ground elements to its
    variables (slots, in `expr.variables` order), in
    `itertools.permutations` order.  Returns the assignments (one row each,
    the element of each slot), the masks of the terms under each assignment
    (one column per term of `expr`) and the terms' coefficients scaled to
    integers by the lcm of their denominators, for `negative_rows`."""
    slots = expr.variables
    assignments = np.array(list(itertools.permutations(range(k), len(slots))), dtype=np.int64)
    assignments = assignments.reshape(math.perm(k, len(slots)), len(slots))
    masks = np.zeros((len(assignments), len(expr.terms)), dtype=np.int64)
    for t, (_, s) in enumerate(expr.terms):
        cols = assignments[:, [slots.index(x) for x in s]]
        masks[:, t] = np.bitwise_or.reduce(1 << cols, axis=1)
    assignments.setflags(write=False)
    masks.setflags(write=False)
    scale = math.lcm(*(c.denominator for c, _ in expr.terms))
    return assignments, masks, tuple(int(c * scale) for c, _ in expr.terms)


def _check_template(f: SetFunction, kind: str, expr: InfoExpression) -> ViolationReport:
    """One violation per assignment of ground elements to the four slots of
    `expr` (whose coefficients are integers) that makes it negative."""
    g = f.ground
    if len(g) < 4:
        raise ValueError(f"{kind.title()} check requires at least 4 ground elements")
    assignments, masks, weights = template_index(expr, len(g))
    out = [
        Violation(kind, tuple((g.labels[x],) for x in assignments[r].tolist()), slack)
        for r, slack in negative_rows(f.form, masks, weights)
    ]
    return ViolationReport(kind, tuple(out))


def check_ingleton(f: SetFunction) -> ViolationReport:
    """g(12)+g(13)+g(14)+g(23)+g(24) >= g(1)+g(2)+g(34)+g(123)+g(124),
    evaluated over every ordered assignment of 4 distinct elements."""
    return _check_template(f, "ingleton", ingleton_expression())


def check_zhang_yeung(f: SetFunction) -> ViolationReport:
    """The 1998 non-Shannon inequality
    2 I(3;4) <= I(1;2) + I(1;34) + 3 I(3;4|1) + I(3;4|2),
    over every ordered assignment of 4 distinct elements."""
    return _check_template(f, "zhang-yeung", zhang_yeung_expression())
