"""Polymatroid extension calculus (functional join, coded sum, conditional
description, independent adhesion), per-subnetwork witness certificates for
the fixed network, the LP outer bound on rate-capacity tuples (steered by
HiGHS, decided by exact certificates), and Shannon-derivability of linear
information expressions.  The expressions and their instantiation live in
`setfunc` (`InfoExpression`, `template_index`) and are re-exported here."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .construct import GDaggerLayout
from .exactlog import (
    ZERO,
    IntegerForm,
    LogScalar,
    combine,
    integer_form,
    negative_mask,
    row_signs,
    stacked,
    weighted_rows,
)
from .netmodel import (
    ConnectionRequirement,
    Network,
    RateCapacityTuple,
    UNCAPPED,
    decoder_feeds,
    edge_feeds,
)
from .schema import ResourceError, document, typed
from .setfunc import (
    ELEMENTAL_WEIGHTS,
    GroundSet,
    InfoExpression,
    SetFunction,
    SubsetLike,
    check_polymatroid,
    elemental_index,
    ingleton_expression,
    template_index,
    zhang_yeung_expression,
)

LP_BATCH = 400  # elemental rows lp_feasible activates per round, at most
SHANNON_CAP = 10  # variables shannon_implies accepts, at most


class ExtensionError(ValueError):
    """The requested extension is ill-posed or its totalization failed the
    polymatroid re-check."""


class WitnessError(ValueError):
    """Certificate construction or verification failed; the message names
    the violated constraint."""


class CoverageError(WitnessError):
    """A connection-constraint clause spans no single local function."""


# ---------------------------------------------------------------------------
# extension / adhesion operations


def _check(g: SetFunction, op: str) -> SetFunction:
    rep = check_polymatroid(g)
    if not rep.ok:
        v = rep.instances[0]
        raise ExtensionError(
            f"{op}: totalization is not a polymatroid ({v.family} at {v.subsets})"
        )
    return g


def _extended_ground(f: SetFunction, name: str) -> GroundSet:
    if name in f.ground._index:
        raise ExtensionError(f"name collision: {name!r} already in the ground set")
    return GroundSet(list(f.ground.labels) + [name])


def functional_extension(
    f: SetFunction, A: SubsetLike, name: Optional[str] = None
) -> SetFunction:
    """Adjoin Y with g(B) = f(B) and g({Y} ∪ B) = f(B ∪ A): the join of A.
    g's integer form is f's matrix stacked over its rows B ∪ A."""
    amask = f.ground.mask(A)
    if name is None:
        name = "J(" + ",".join(f.ground.subset(amask)) + ")"
    ground = _extended_ground(f, name)
    upper = np.arange(1 << len(f.ground)) | amask
    F = f.form
    form = IntegerForm.of(F.primes, F.den, np.concatenate([F.mat, F.mat[upper]]))
    return _check(SetFunction.derived(ground, form), "functional_extension")


def _adjoin(f: SetFunction, name: str, amask: int, zp: int, zm: int, op: str) -> SetFunction:
    """Adjoin `name` as Z with g({Z} ∪ B) = min(f(B ∪ A), f(B) + z), for A
    the elements of `amask` and z = f(zp) − f(zm).  Every minimum is decided
    in one `negative_mask` pass over f's integer form, row B being
    f(B ∪ A) − f(B) − f(zp) + f(zm); g's form stacks f's matrix over the
    rows of the minima."""
    ground = _extended_ground(f, name)
    n = 1 << len(f.ground)
    b = np.arange(n)
    index = np.stack([b | amask, b, np.full(n, zp), np.full(n, zm)], axis=1)
    F = f.form
    lower = negative_mask(F, index, (1, -1, -1, 1))
    rows = np.where(lower[:, None], F.mat[index[:, 0]], combine(F, index[:, 1:], (1, 1, -1)))
    form = IntegerForm.of(F.primes, F.den, np.concatenate([F.mat, rows]))
    return _check(SetFunction.derived(ground, form), op)


def sum_extension(
    f: SetFunction, X: str, Y: str, name: Optional[str] = None
) -> SetFunction:
    """Adjoin Z = X ⊕ Y with g(Z) = f(X), requiring f(X) = f(Y) and X ⊥ Y;
    g({Z} ∪ B) = min(f(B ∪ {X,Y}), f(B) + g(Z)).  g's integer form is
    derived from f's: z's row is f's row X.  Both requirements are
    equalities of rows of f's form."""
    xm = f.ground.mask([X])
    ym = f.ground.mask([Y])
    F = f.form
    if not np.array_equal(F.mat[xm], F.mat[ym]):
        raise ExtensionError("sum extension requires equal singleton values")
    if combine(F, np.array([[xm | ym, xm, ym]]), (1, -1, -1)).any():
        raise ExtensionError("sum extension requires the two elements independent")
    if name is None:
        name = f"({X}+{Y})"
    return _adjoin(f, name, xm | ym, xm, 0, "sum_extension")


def sw_extension(
    f: SetFunction,
    X: SubsetLike,
    Y: SubsetLike,
    name: Optional[str] = None,
) -> SetFunction:
    """Adjoin Z describing X given Y: g(Z) = f(X∪Y) − f(Y), Z a function of
    X, and X a function of {Z} ∪ Y; g({Z} ∪ B) = min(f(B ∪ X), f(B) + g(Z)).
    g's integer form is derived from f's: z's row is f's row X∪Y minus its
    row Y."""
    xm = f.ground.mask(X)
    ym = f.ground.mask(Y)
    if name is None:
        name = (
            "J(" + ",".join(f.ground.subset(xm)) + "|" + ",".join(f.ground.subset(ym)) + ")"
        )
    return _adjoin(f, name, xm, xm | ym, ym, "sw_extension")


def independent_adhesion(f: SetFunction, fstar: SetFunction) -> SetFunction:
    """Join two functions on disjoint grounds with g(A) = f(A∩L) + f*(A∩L*).
    g's integer form is the sum of the two forms' rows, both lifted to the
    union of their primes and the lcm of their denominators."""
    if set(f.ground.labels) & set(fstar.ground.labels):
        raise ExtensionError("ground sets must be disjoint")
    ground = GroundSet(list(f.ground.labels) + list(fstar.ground.labels))
    k = len(f.ground)
    m = np.arange(1 << len(ground))
    low, high = m & ((1 << k) - 1), m >> k
    both = stacked([f.form, fstar.form])
    index = np.stack([low, (1 << k) + high], axis=1)
    form = IntegerForm.of(both.primes, both.den, combine(both, index, (1, 1)))
    return _check(SetFunction.derived(ground, form), "independent_adhesion")


# ---------------------------------------------------------------------------
# exact phase-1 simplex (Fraction tableau; RHS entries are any ordered
# Q-module with +, -, *Fraction, float() and sign: Fraction or LogScalar)


def _sgn(x) -> int:
    if isinstance(x, LogScalar):
        return x.sign()
    return (x > 0) - (x < 0)


@dataclass
class LinearProgram:
    """Rows a·x (= or <=) b over x ≥ 0, solved for feasibility only.  Each
    row is stored as a·x = b with b ≥ 0, the form every solver reads: an
    inequality gets its own slack column, numbered after the `num_vars`
    structural columns in row order, and a row with b < 0 is negated.
    Coefficients keep their type: an `int` stays an `int` (every row of
    `lp_feasible` and `shannon_implies` is integral, with the slack at 1), a
    `Fraction` stays a `Fraction`; the exact solvers lift them to `Fraction`
    in `_tableau`.  `highs` is the program's HiGHS model, its only float
    form: the first `solve_highs` call makes it and each later one pushes
    the rows stored since, converted to floats once; rows are only ever
    appended, so the model always holds a prefix of them."""

    num_vars: int
    rows: List[Dict[int, Union[int, Fraction]]] = field(default_factory=list, init=False)
    rhs: List[object] = field(default_factory=list, init=False)
    ncols: int = field(init=False)
    highs: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ncols = self.num_vars

    def add(self, coeffs: Mapping[int, Union[int, Fraction]], b, equality: bool) -> None:
        row = {j: c if type(c) in (int, Fraction) else Fraction(c) for j, c in coeffs.items() if c}
        if not equality:
            row[self.ncols] = 1
            self.ncols += 1
        if _sgn(b) < 0:
            row, b = {j: -c for j, c in row.items()}, -b
        self.rows.append(row)
        self.rhs.append(b)


def _tableau(lp: LinearProgram, columns: Optional[set] = None):
    """Copies of the stored rows, their coefficients lifted to `Fraction` and
    row i with its artificial column ncols + i, and of their right-hand
    sides: the tableau that `_pivot` works in.  Given `columns`, the copies
    keep only those columns, artificials included."""
    rows = []
    for i, row in enumerate(lp.rows):
        copy = {j: Fraction(c) for j, c in row.items() if columns is None or j in columns}
        if columns is None or lp.ncols + i in columns:
            copy[lp.ncols + i] = Fraction(1)
        rows.append(copy)
    return rows, list(lp.rhs)


def _pivot(rows: List[Dict[int, Fraction]], rhs: list, r: int, jin: int) -> None:
    """Gauss–Jordan pivot of a sparse tableau on entry (r, jin): scale row r
    to a unit pivot and clear column jin from every other row."""
    prow = rows[r]
    p = prow[jin]
    if p != 1:
        rows[r] = prow = {j: c / p for j, c in prow.items()}
        rhs[r] = rhs[r] * (1 / p)
    for i, row in enumerate(rows):
        f = row.get(jin) if i != r else None
        if f:
            for j, c in prow.items():
                nv = row.get(j, Fraction(0)) - f * c
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
            rhs[i] = rhs[i] - rhs[r] * f


def exact_point_from_basis(lp: LinearProgram, basis: Sequence[int]):
    """Solve B·x_B = b exactly for the basis columns B (stored or
    artificial, one per row): pivot each into a tableau of only those
    columns, on the sparsest row not yet pivoted, and return
    {structural var: value} when the basic solution is a verified feasible
    point of the program; None when the float pass misidentified the basis:
    it is singular, a basic value is negative or an artificial is nonzero."""
    m = len(lp.rows)
    if m == 0:
        return {}
    rows, rhs = _tableau(lp, set(basis))
    where: List[int] = []
    used = [False] * m
    for c in basis:
        cand = [i for i in range(m) if not used[i] and rows[i].get(c)]
        if not cand:
            return None  # singular basis
        r = min(cand, key=lambda i: len(rows[i]))
        used[r] = True
        where.append(r)
        _pivot(rows, rhs, r, c)
    x: Dict[int, object] = {}
    for r, c in zip(where, basis):
        s = _sgn(rhs[r])
        if s < 0 or (s and c >= lp.ncols):
            return None  # a negative basic value, or a nonzero artificial
        if s:
            x[c] = rhs[r]
    # exact verification of every stored row, slack values included
    for row, total in zip(lp.rows, lp.rhs):
        for j, c in row.items():
            if j in x:
                total = total - x[j] * c
        if _sgn(total) != 0:
            return None
    return {j: v for j, v in x.items() if j < lp.num_vars}


def solve_highs(lp: LinearProgram):
    """Float feasibility check of the stored system A·x = b, x ≥ 0 via
    HiGHS, in the explicit phase-1 form min Σs subject to A·x + I·s = b.
    The program's one HiGHS model gets only the rows stored since the last
    call, converted to floats as they are pushed, with their slack and
    artificial columns, and dual simplex restarts from the last optimal
    basis.  Returns (feasible, x, y): approximate structural values and,
    when infeasible, row duals usable as a Farkas certificate candidate;
    (None, None, None) when HiGHS ends without an optimum."""
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    m = len(lp.rows)
    if m == 0:
        return True, np.zeros(lp.num_vars), None
    h = lp.highs
    if h is None:
        h = lp.highs = _Highs()
        h.setOptionValue("output_flag", False)
        h.addVars(lp.num_vars, np.zeros(lp.num_vars), np.full(lp.num_vars, np.inf))
    r0, n0 = h.getNumRow(), h.getNumCol()
    if r0 < m:
        # the model's columns: structural, then per push the new rows'
        # slacks and one artificial per new row; a slack sits in its own
        # row only, so stored column j >= c0 is model column j - c0 + n0
        k, c0 = m - r0, n0 - r0
        slacks = lp.ncols - c0
        h.addVars(slacks, np.zeros(slacks), np.full(slacks, np.inf))
        new = lp.rows[r0:]
        lengths = np.fromiter(map(len, new), np.int32, k)
        cols = np.fromiter(itertools.chain.from_iterable(new), np.int32, lengths.sum())
        vals = np.fromiter(itertools.chain.from_iterable(map(dict.values, new)), float, len(cols))
        b = np.fromiter(map(float, lp.rhs[r0:]), float, k)
        h.addRows(k, b, b, len(cols), np.cumsum(lengths, dtype=np.int32) - lengths,
                  np.where(cols < lp.num_vars, cols, cols - c0 + n0), vals)
        h.addCols(k, np.ones(k), np.zeros(k), np.full(k, np.inf),
                  k, np.arange(k, dtype=np.int32), np.arange(r0, m, dtype=np.int32), np.ones(k))
    h.run()
    if h.getModelStatus() != HighsModelStatus.kOptimal:
        return None, None, None
    sol = h.getSolution()
    feasible = h.getObjectiveValue() <= 1e-7
    x = np.array(sol.col_value[: lp.num_vars])
    y = None
    if not feasible and sol.dual_valid:
        y = np.array(sol.row_dual)
        if float(y @ np.fromiter(map(float, lp.rhs), float, m)) < 0:
            y = -y
    return feasible, x, y


def solve_float(lp: LinearProgram):
    """The program's HiGHS model at its last optimum, for the exact
    certification to start from.  Returns (feasible, basis, x): basis lists
    one basic column per row, in tableau columns, stored columns first, then
    lp.ncols + i for the artificial of row i (a basic logical of row i is
    the same unit column), and x holds approximate structural values;
    (False, None, None) when there is no model, the model is behind the
    program, or HiGHS did not end optimal."""
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus

    h = lp.highs
    if h is None or h.getNumRow() < len(lp.rows):
        return False, None, None
    if h.getModelStatus() != HighsModelStatus.kOptimal:
        return False, None, None
    status, basic = h.getBasicVariables()
    if status != HighsStatus.kOk:
        return False, None, None
    # the model's cost-0 columns are the stored columns in order, and its
    # cost-1 columns the artificials in row order; HiGHS numbers the logical
    # of row i as -1 - i
    n = h.getNumCol()
    art = h.getCols(n, np.arange(n, dtype=np.int32))[2] > 0
    tableau = np.where(art, lp.ncols + np.cumsum(art), np.cumsum(~art)) - 1
    basis = sorted(int(tableau[j]) if j >= 0 else lp.ncols - 1 - int(j) for j in basic)
    x = np.array(h.getSolution().col_value[: lp.num_vars])
    return h.getObjectiveValue() <= 1e-7, basis, x


def farkas_verified(lp: LinearProgram, y) -> bool:
    """Exact check that a rationalization of the float multipliers y proves
    A·x = b, x ≥ 0 infeasible: yᵀA ≤ 0 columnwise and yᵀb > 0."""
    yr = [
        Fraction(float(v)).limit_denominator(10**6) if abs(float(v)) > 1e-9 else Fraction(0)
        for v in y
    ]
    cols: Dict[int, Fraction] = {}
    for i, row in enumerate(lp.rows):
        if yr[i]:
            for j, c in row.items():
                cols[j] = cols.get(j, Fraction(0)) + yr[i] * c
    if any(v > 0 for v in cols.values()):
        return False
    terms = [b * w for b, w in zip(lp.rhs, yr) if w]
    return bool(terms) and _sgn(sum(terms[1:], terms[0])) > 0


def rationalize_point(xf, masks_primes):
    """Fit each float coordinate as a rational combination of logs of the
    given primes (exact-arithmetic candidate for a float vertex).  Returns a
    list of LogScalar or None when some coordinate resists fitting."""
    import mpmath

    primes = sorted(masks_primes) or [2]
    logs = [math.log(p) for p in primes]
    out = []
    for v in xf:
        v = float(v)
        if abs(v) < 1e-11:
            out.append(ZERO)
            continue
        if len(primes) == 1:
            q = Fraction(v / logs[0]).limit_denominator(10**4)
            if abs(float(q) * logs[0] - v) > 1e-8 * max(1.0, abs(v)):
                return None
            out.append(LogScalar({primes[0]: q}))
            continue
        rel = mpmath.pslq([mpmath.mpf(v)] + [mpmath.log(p) for p in primes],
                          tol=mpmath.mpf(1e-10), maxcoeff=10**6)
        if rel is None or rel[0] == 0:
            return None
        a = rel[0]
        out.append(LogScalar({p: Fraction(-rel[i + 1], a) for i, p in enumerate(primes)}))
    return out


def solve_phase1(lp: LinearProgram):
    """Exact phase-1 simplex (sparse Fraction tableau; RHS in the ordered
    module).  Returns (feasible, x) where x maps structural variable index
    to its value at a feasible point."""
    m = len(lp.rows)
    if m == 0:
        return True, {}
    # artificial variables, one per row, start basic; the objective Σ
    # artificials is row m of the tableau: its reduced costs z_j - c_j are
    # the sum of all rows over the stored columns, its value Σ rhs
    obj: Dict[int, Fraction] = {}
    for row in lp.rows:
        for j, c in row.items():
            obj[j] = obj.get(j, Fraction(0)) + c
    obj = {j: c for j, c in obj.items() if c}
    rows, rhs = _tableau(lp)
    rows.append(obj)
    rhs.append(sum(rhs[1:], rhs[0]))
    art0 = lp.ncols
    basis = list(range(art0, art0 + m))

    # Dantzig's rule by default; permanent switch to Bland's rule after a
    # long degenerate stall guarantees termination
    stall = 0
    bland = False
    while True:
        jin = None
        if bland:
            for j in sorted(obj):
                if j < art0 and obj[j] > 0:
                    jin = j
                    break
        else:
            bestc = None
            for j, c in obj.items():
                if j < art0 and c > 0 and (bestc is None or c > bestc):
                    jin, bestc = j, c
        if jin is None:
            break
        # ratio test, tie-broken on basis index for Bland's rule
        best = None
        for i in range(m):
            a = rows[i].get(jin, Fraction(0))
            if a > 0:
                if best is None:
                    best = i
                else:
                    # compare rhs[i]/a vs rhs[best]/abest
                    ab = rows[best][jin]
                    s = _sgn(rhs[i] * ab - rhs[best] * a)
                    if s < 0 or (s == 0 and basis[i] < basis[best]):
                        best = i
        if best is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("unbounded phase-1 objective")
        degenerate = _sgn(rhs[best]) == 0
        _pivot(rows, rhs, best, jin)
        basis[best] = jin
        if degenerate:
            stall += 1
            if stall > 3 * (m + 1) and not bland:
                bland = True
        else:
            stall = 0

    if _sgn(rhs[m]) != 0:
        return False, None
    x: Dict[int, object] = {}
    for i, bj in enumerate(basis):
        if bj < lp.num_vars:
            x[bj] = rhs[i]
    return True, x


# ---------------------------------------------------------------------------
# the two constraint families: elemental Shannon inequalities (the rows of
# setfunc.elemental_index) and the connection constraints of a network


def _elemental_key(r: int, row: Sequence[int], k: int):
    """Certificate key of row r of elemental_index(k): ("mono", (i,)) for
    f(full) - f(full - i) >= 0, ("submod", (i, j, a)) for
    f(a|i) + f(a|j) - f(a|i|j) - f(a) >= 0."""
    if r < k:
        return ("mono", (r,))
    ai, aj, _, a = row
    return ("submod", ((ai ^ a).bit_length() - 1, (aj ^ a).bit_length() - 1, a))


def connection_clauses(net: Network, conn: ConnectionRequirement, tup: RateCapacityTuple):
    """Every connection-constraint clause of the network at the tuple's
    rates and capacities, as (message, terms, rhs, sense): the clause says
    Σ c·g(B) over the terms (c, B) is `sense` ("=", "<=" or ">=") rhs, for
    the entropy function g over session labels and edge ids.  In order:
    each edge, then each decoder, is a function of its feeds; the sessions
    are independent; each rate is met; each capacity is kept."""
    for e in net.edges:
        feeds = tuple(edge_feeds(net, conn, e))
        yield (f"edge {e.id}: not a function of its feeds",
               [(1, (e.id,) + feeds), (-1, feeds)], ZERO, "=")
    for r, s in conn.demands():
        feeds = tuple(decoder_feeds(net, conn, r))
        yield (f"decode {s} at {r}: not a function of the received values",
               [(1, (s,) + feeds), (-1, feeds)], ZERO, "=")
    if len(conn.sessions) > 1:
        yield ("source independence fails",
               [(1, conn.sessions)] + [(-1, (s,)) for s in conn.sessions], ZERO, "=")
    for s in conn.sessions:
        yield f"rate of {s} below the required lower bound", [(1, (s,))], tup.rates[s], ">="
    for e in net.edges:
        cap = tup.cap(e.id)
        if cap is not UNCAPPED:
            yield f"capacity of {e.id} exceeded", [(1, (e.id,))], cap, "<="


# ---------------------------------------------------------------------------
# LP outer bound


def _instantiate(expr: InfoExpression, keys: Sequence[str]):
    """`expr` over every injective assignment of the keys to its variables,
    in `itertools.permutations` order.  Returns the masks and integer
    weights of `template_index` (bit i stands for keys[i]), and each
    instance's row {mask − 1: −c} of `-instance <= 0`, its terms in the
    order that `InfoExpression.relabel` gives them and −c an `int` where c
    is integral."""
    k = len(keys)
    _, masks, weights = template_index(expr, k)
    # relabel orders an instance's terms by size, then by their sorted
    # labels; among sets of one size that is the descending order of the
    # mask whose bit k-1-r stands for the label of rank r
    pos = {x: r for r, x in enumerate(sorted(keys))}
    rev = 1 << (k - 1 - np.array([pos[x] for x in keys], dtype=np.int64))
    sizes = np.array([len(s) for _, s in expr.terms], dtype=np.int64)
    bits = masks[:, :, None] >> np.arange(k) & 1
    order = np.argsort(sizes << k | ((1 << k) - 1 - bits @ rev), axis=1)
    neg = [-int(c) if c.denominator == 1 else -c for c, _ in expr.terms]
    rows = [
        {m - 1: neg[t] for m, t in zip(mrow, trow)}
        for mrow, trow in zip(np.take_along_axis(masks, order, axis=1).tolist(), order.tolist())
    ]
    return masks, weights, rows


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    assignment: Optional[SetFunction]
    rounds: int
    constraints: int


def lp_feasible(
    net: Network,
    conn: ConnectionRequirement,
    tup: RateCapacityTuple,
    extra: Sequence[InfoExpression] = (),
    ground_cap: int = 10,
    hint: Optional[SetFunction] = None,
) -> LPResult:
    """Decide whether some polymatroid over sessions ∪ edges satisfies all
    connection constraints at the given rates/capacities (plus the extra
    inequality templates over every injective assignment of the variables,
    each distinct instance once).  Every row has integer coefficients for an
    integral template; only right-hand sides are `LogScalar`s.  HiGHS steers
    lazy elemental generation:
    each round solves the program with the elemental rows active so far and
    activates the rows its float point violates.  The rounds grow one
    program, so HiGHS restarts each from the last round's optimal basis;
    which vertex it lands on may set the rounds, the row count and the
    point returned, never the verdict.  Exact arithmetic decides:
    a verified Farkas certificate proves infeasibility, and a rationalized
    HiGHS vertex that passes the exact re-check of every constraint proves
    feasibility.  When neither applies, the exact point comes from the basis
    of HiGHS's last optimum or, failing that, from the exact phase-1
    simplex, which also proves infeasibility; it stands once no elemental
    row is violated.

    `hint` short-circuits the search when it is an exactly verified feasible
    point — e.g. the induced entropy of a known admissible code, which
    certifies feasibility because achievable tuples satisfy the LP bound.
    A failing hint is ignored.

    Sessions and edges are the variables of one ground set, so a session
    label that is also an edge id raises `StructuralError`."""
    conn.validate_against(net)
    keys = list(conn.sessions) + [e.id for e in net.edges]
    k = len(keys)
    if k > ground_cap:
        raise ResourceError(
            f"{k} variables exceed the LP ground cap {ground_cap}; for the fixed "
            "duality network use witness certificates (build_witness / "
            "verify_connection_constraints) instead"
        )
    ground = GroundSet(keys)
    nvars = (1 << k) - 1  # variable j-1 holds g of subset mask j

    def coeffs_of(terms) -> Dict[int, int]:
        """Σ c·g(B) as {variable: coefficient}; g(∅) = 0 and zero
        coefficients are dropped."""
        coeffs: Dict[int, int] = {}
        for c, subset in terms:
            mask = ground.mask(subset)
            if mask:
                coeffs[mask - 1] = coeffs.get(mask - 1, 0) + c
        return {j: c for j, c in coeffs.items() if c}

    clauses: List[Tuple[Dict[int, int], object, bool]] = []
    for _, terms, b, sense in connection_clauses(net, conn, tup):
        coeffs = coeffs_of(terms)
        if sense == ">=":  # a·x >= b  ->  -a·x <= -b
            coeffs, b = {j: -c for j, c in coeffs.items()}, -b
        clauses.append((coeffs, b, sense == "="))
    base_rows = list(clauses)
    # extra templates instantiated over all injective label assignments; a
    # symmetric template repeats instances (Ingleton's a<->b, c<->d give each
    # row four times), so each distinct row goes in once
    templates = []
    seen: set = set()
    for expr in extra:
        masks, weights, rows = _instantiate(expr, keys)
        templates.append((masks, weights))
        for row in rows:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                base_rows.append((row, ZERO, False))

    elementals = elemental_index(k)

    def exact_ok(values: List[LogScalar]) -> bool:
        for coeffs, b, equality in clauses:
            total = ZERO
            for j, c in coeffs.items():
                total = total + values[j + 1] * c
            s = (total - b).sign()
            if (equality and s != 0) or (not equality and s > 0):
                return False
        form = integer_form(values)
        # every instance of a template in one pass (a term-free one holds)
        if any(weights and negative_mask(form, masks, weights).any() for masks, weights in templates):
            return False
        return not negative_mask(form, elementals, ELEMENTAL_WEIGHTS).any()

    if hint is not None and sorted(hint.ground.labels) == sorted(keys):
        values = [hint(ground.subset(m)) for m in range(1 << k)]
        if exact_ok(values):
            return LPResult(True, SetFunction(ground, values), 0, len(base_rows))

    primes: set = set()
    for _, b, _ in base_rows:
        if isinstance(b, LogScalar):
            primes.update(b.terms)

    # one program grows round by round: the base rows, then each elemental
    # row once it is activated
    lp = LinearProgram(num_vars=nvars)
    for coeffs, b, equality in base_rows:
        lp.add(coeffs, b, equality)
    active: set = set()

    def activate(new: List[int]) -> None:
        active.update(new)
        for r in new:
            # row >= 0  ->  -row <= 0
            row = zip(elementals[r].tolist(), ELEMENTAL_WEIGHTS)
            lp.add({mask - 1: -c for mask, c in row if mask}, ZERO, False)

    def violated_float(vals: np.ndarray) -> List[int]:
        slack = (vals[elementals] * ELEMENTAL_WEIGHTS).sum(axis=1)
        out = [int(i) for i in np.nonzero(slack < -1e-9)[0] if int(i) not in active]
        return out[:LP_BATCH]

    def exact_scan(exact: List[LogScalar]) -> List[int]:
        rows = np.flatnonzero(negative_mask(integer_form(exact), elementals, ELEMENTAL_WEIGHTS))
        return [r for r in rows.tolist() if r not in active][:LP_BATCH]

    rounds = 0
    while True:
        rounds += 1
        feasible_f, xf, dual = solve_highs(lp)
        if feasible_f:
            # steer with the cheap float point; exact work deferred until
            # the float scan comes back clean
            vals_f = np.zeros(1 << k)
            vals_f[1 : nvars + 1] = xf
            new = violated_float(vals_f)
            if new:
                activate(new)
                continue
            # clean float scan: rationalize the vertex and verify exactly
            exact = rationalize_point(xf, primes)
            if exact is not None:
                exact = [ZERO] + exact
                if exact_ok(exact):
                    g = SetFunction(ground, exact)
                    return LPResult(True, g, rounds, len(lp.rows))
        elif feasible_f is False and dual is not None and farkas_verified(lp, dual):
            return LPResult(False, None, rounds, len(lp.rows))
        # float machinery inconclusive: exact certification of HiGHS's
        # basis, then the exact simplex as the last resort
        okf, basis, _ = solve_float(lp)
        x = exact_point_from_basis(lp, basis) if okf else None
        if x is None:
            feasible, x = solve_phase1(lp)
            if not feasible:
                return LPResult(False, None, rounds, len(lp.rows))
        exact = [ZERO] * (1 << k)
        for j, v in (x or {}).items():
            if j < nvars:
                exact[j + 1] = v
        new = exact_scan(exact)
        if not new:
            g = SetFunction(ground, exact)
            return LPResult(True, g, rounds, len(lp.rows))
        activate(new)


def shannon_implies(expr: InfoExpression, n: int):
    """True iff `expr >= 0` is a non-negative rational combination of the
    elemental inequalities on n variables; returns (bool, certificate) where
    the certificate maps elemental descriptions to their weights.

    HiGHS proposes and exact arithmetic decides, whatever HiGHS concluded.
    The exact phase-1 simplex first solves for the weights over only the
    elemental rows that HiGHS's point uses: a certificate there is one for
    every row.  Failing that, HiGHS's dual proves "not implied" once
    `farkas_verified` accepts it, and otherwise the exact phase-1 simplex
    decides over every row."""
    if n > SHANNON_CAP:
        raise ResourceError(f"{n} variables exceed the cap {SHANNON_CAP}")
    labels = expr.variables
    if len(labels) > n:
        raise ValueError("expression references more variables than n")
    ground = GroundSet(list(labels) + [f"_v{i}" for i in range(n - len(labels))])
    target = [Fraction(0)] * (1 << n)
    for c, subset in expr.terms:
        target[ground.mask(subset)] += c
    elementals = elemental_index(n).tolist()
    cols: Dict[int, Dict[int, int]] = {}
    for i, row in enumerate(elementals):
        for mask, c in zip(row, ELEMENTAL_WEIGHTS):
            if mask:
                cols.setdefault(mask, {})[i] = c

    def program(use: Sequence[int]) -> LinearProgram:
        """y >= 0 with sum_i y_i * row_i == target over the elemental rows in
        `use`, y_k weighting row use[k] (columns = subset masks; no row
        repeats a nonempty mask)."""
        pos = {i: k for k, i in enumerate(use)}
        lp = LinearProgram(num_vars=len(use))
        for mask in range(1, 1 << n):
            lp.add({pos[i]: c for i, c in cols.get(mask, {}).items() if i in pos}, target[mask], True)
        return lp

    def certificate(use: Sequence[int]):
        """The exact phase-1 simplex's certificate for program(use), or None
        when there is none."""
        feasible, y = solve_phase1(program(use))
        if not feasible:
            return None
        return {_elemental_key(use[k], elementals[use[k]], n): w for k, w in (y or {}).items() if w}

    every = range(len(elementals))
    lp = program(every)
    _, x, dual = solve_highs(lp)
    cert = certificate(np.flatnonzero(x > 1e-9).tolist()) if x is not None else None
    if cert is None and dual is not None and farkas_verified(lp, dual):
        return False, None
    if cert is None:
        cert = certificate(every)
    return cert is not None, cert


# ---------------------------------------------------------------------------
# witness certificates for the fixed network


@dataclass(frozen=True)
class LocalWitness:
    """A polymatroid over a small ground plus the map from network variables
    (session labels and edge ids) to its ground elements."""

    func: SetFunction
    var_map: Dict[str, str]

    def to_json(self) -> dict:
        return {"function": self.func.to_json(), "vars": dict(sorted(self.var_map.items()))}

    @classmethod
    def from_json(cls, obj: Mapping) -> "LocalWitness":
        typed(obj, Mapping, "a local witness")
        var_map = typed(obj.get("vars"), Mapping, "a local witness's vars")
        return cls(SetFunction.from_json(obj.get("function")),
                   {k: typed(v, str, f"the element of {k}") for k, v in var_map.items()})


@dataclass(frozen=True)
class WitnessCertificate:
    n: int
    locals_: Dict[str, LocalWitness]  # keyed by subnetwork tag

    def to_json(self) -> dict:
        return {
            "format": "witness/1",
            "n": self.n,
            "locals": {k: v.to_json() for k, v in sorted(self.locals_.items())},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "WitnessCertificate":
        document(obj, "witness/1", "a witness certificate")
        return cls(typed(obj.get("n"), int, "a witness certificate's n"), {
            k: LocalWitness.from_json(v)
            for k, v in typed(obj.get("locals"), Mapping, "a witness certificate's locals").items()})


def _single(label: str, value: LogScalar) -> SetFunction:
    return SetFunction(GroundSet([label]), [ZERO, value])


def build_witness(h: SetFunction, layout: GDaggerLayout) -> WitnessCertificate:
    """Per-subnetwork pseudo-variable certificates proving that the tuple
    induced by a polymatroid h is consistent with every connection
    constraint of the fixed network.  Raises WitnessError naming the first
    failing construction step when h is not a polymatroid."""
    N = layout.n
    if len(h.ground) != N:
        raise ValueError(f"set function has ground size {len(h.ground)}, layout expects {N}")
    full = (1 << N) - 1
    net = layout.network
    vlabels = list(h.ground.labels)

    def alpha_labels(mask: int) -> List[str]:
        return [vlabels[i] for i in range(N) if mask >> i & 1]

    def wrap(tag: str, fn):
        try:
            return fn()
        except ExtensionError as exc:
            raise WitnessError(f"{tag}: {exc}") from exc

    locals_: Dict[str, LocalWitness] = {}

    # sources: h extended by the joint session (function of all of V)
    f_src = wrap("sources", lambda: functional_extension(h, vlabels, name="S"))
    src_map = {layout.session_labels[full]: "S"}
    for j in range(1, N + 1):
        src_map[layout.v_edges[j]] = vlabels[j - 1]
    for eid, j in layout.fans.items():
        src_map[eid] = vlabels[j - 1]
    locals_["sources"] = LocalWitness(f_src, src_map)

    def fans_into(sub, *roles: str) -> Dict[str, str]:
        """The fan edges into the tails of the subnet's given role edges,
        each mapped to the label of the element it forwards."""
        out = {}
        for role in roles:
            for e in net.in_edges(net.edge(sub.role_edges[role]).tail):
                if e.id in layout.fans:
                    out[e.id] = vlabels[layout.fans[e.id] - 1]
        return out

    # session independence: the modular product of all session values
    sess_labels = ["S" if m == full else f"Sa{m}" for m in range(1, full + 1)]
    ind = _single(sess_labels[0], h(alpha_labels(1)))
    for m in range(2, full + 1):
        val = h(alpha_labels(m))
        ind = wrap("independence", lambda ind=ind, m=m, val=val: independent_adhesion(ind, _single(sess_labels[m - 1], val)))
    ind_map = {layout.session_labels[m]: sess_labels[m - 1] for m in range(1, full + 1)}
    locals_["independence"] = LocalWitness(ind, ind_map)

    for sub in layout.subnets:
        a = sub.alpha
        alab = alpha_labels(a)
        sess_a = layout.session_labels[a]
        if sub.kind == 0:
            tag = f"T0[{a}]"
            g = _single("Sa", h(alab))
            locals_[tag] = LocalWitness(g, {sess_a: "Sa", sub.role_edges["W"]: "Sa"})
            continue
        if sub.kind == 1:
            tag = f"T1[{a}]"
            g = wrap(tag, lambda: functional_extension(f_src, alab, name="J"))
            g = wrap(tag, lambda g=g: sw_extension(g, ["S"], ["J"], name="W"))
            vmap = {layout.session_labels[full]: "S", sub.role_edges["W"]: "W", sub.role_edges["W'"]: "J"}
            vmap.update(fans_into(sub, "W'"))  # the fans into the mid node
            locals_[tag] = LocalWitness(g, vmap)
            continue
        # type 2
        i = sub.i
        tag = f"T2[{a},{i}]"
        g = wrap(tag, lambda: independent_adhesion(f_src, _single("Sa", h(alab))))
        g = wrap(tag, lambda g=g: functional_extension(g, alab, name="J"))
        g = wrap(tag, lambda g=g: sum_extension(g, "Sa", "J", name="W"))
        g = wrap(tag, lambda g=g: sw_extension(g, ["S"], ["J"], name="W'"))
        g = wrap(tag, lambda g=g: sw_extension(g, ["J"], [vlabels[i - 1]], name="W''"))
        vmap = {
            layout.session_labels[full]: "S",
            sess_a: "Sa",
            sub.role_edges["Sa>n1"]: "Sa",
            sub.role_edges["Sa>rxU"]: "Sa",
            sub.role_edges["W"]: "W",
            sub.role_edges["W>U"]: "W",
            sub.role_edges["W>L"]: "W",
            sub.role_edges["W'"]: "W'",
            sub.role_edges["W''"]: "W''",
            sub.role_edges["W*"]: "J",
        }
        vmap.update(fans_into(sub, "W", "W''", "W*"))  # the fans into n1, n2, n3
        locals_[tag] = LocalWitness(g, vmap)

    return WitnessCertificate(N, locals_)


def _check_consistency(
    cert: WitnessCertificate,
    bits: Mapping[str, Mapping[str, int]],
    stack: IntegerForm,
    offset: Mapping[str, int],
    fail,
) -> None:
    """Fail for each pair of locals that disagree on some set of the network
    variables both of them map (`bits[tag]` maps each variable to its bit in
    that local's ground set).  A set of shared variables maps to a pair of
    label sets, one per local; each distinct pair is compared once, and the
    first disagreement of a pair of locals is reported.  The values compared
    are rows of `stack`, the locals' forms over common primes and
    denominator (row `offset[tag] + mask` is the value at `mask` in local
    `tag`), all of them at once."""
    tags = sorted(cert.locals_)
    checks: List[Tuple[str, str, List[Tuple[str, ...]]]] = []
    rows_a: List[int] = []
    rows_b: List[int] = []
    for x, ta in enumerate(tags):
        for tb in tags[x + 1 :]:
            ba, bb = bits[ta], bits[tb]
            atoms: Dict[Tuple[int, int], str] = {}
            for v in sorted(ba.keys() & bb.keys()):
                atoms.setdefault((ba[v], bb[v]), v)
            # every union of atoms, with the variables that first reach it
            unions: Dict[Tuple[int, int], Tuple[str, ...]] = {(0, 0): ()}
            for (ma, mb), v in atoms.items():
                for (ua, ub), vs in list(unions.items()):
                    unions.setdefault((ua | ma, ub | mb), vs + (v,))
            checks.append((ta, tb, list(unions.values())))
            rows_a += [offset[ta] + ua for ua, _ in unions]
            rows_b += [offset[tb] + ub for _, ub in unions]
    differ = (stack.mat[rows_a] != stack.mat[rows_b]).any(axis=1).tolist()
    start = 0
    for ta, tb, shared in checks:
        bad = differ[start : start + len(shared)]
        if True in bad:
            fail(f"locals {ta} and {tb} disagree on {list(shared[bad.index(True)])}")
        start += len(shared)


def verify_connection_constraints(
    cert: WitnessCertificate,
    layout: GDaggerLayout,
    tup: RateCapacityTuple,
    failures: Optional[List[str]] = None,
) -> bool:
    """Exact check of every connection-constraint clause (edge and decoder
    functional dependence, source independence, rate lower bounds, capacity
    upper bounds) inside whichever local function covers its variables.
    Fails as well when the certificate is for another N, a local function
    is not a polymatroid, or two locals disagree on shared variables.

    Everything is checked on integers.  The locals' forms, and a form of
    the clauses' right-hand sides, are stacked as one form over common
    primes and denominator (:func:`~entronet.exactlog.stacked`).  Each
    clause is then one weighted sum of the rows of that stack it names,
    all of them in one integer product, and holds by the sign of its row.
    A clause no local covers raises CoverageError once the clauses before
    it are checked."""
    net, conn = layout.network, layout.conn
    ok = True

    def fail(msg: str):
        nonlocal ok
        ok = False
        if failures is not None:
            failures.append(msg)

    if cert.n != layout.n:
        fail(f"certificate is for N={cert.n}, the layout has N={layout.n}")
        return False
    for tag, lw in sorted(cert.locals_.items()):
        rep = check_polymatroid(lw.func)
        if not rep.ok:
            v = rep.instances[0]
            fail(f"local {tag}: not a polymatroid ({v.family} at {v.subsets})")

    # each local's network variables as bits of its ground set, and the row
    # of the stack at which its form starts
    bits = {
        tag: {v: lw.func.ground.mask([lab]) for v, lab in lw.var_map.items()}
        for tag, lw in cert.locals_.items()
    }
    offset: Dict[str, int] = {}
    total = 0
    for tag, lw in cert.locals_.items():
        offset[tag], total = total, total + (1 << len(lw.func.ground))

    # the locals that map each variable, in certificate order
    mapping: Dict[str, List[str]] = {}
    for tag, b in bits.items():
        for v in b:
            mapping.setdefault(v, []).append(tag)

    def find_local(varnames: Sequence[str]) -> str:
        """The first local, in certificate order, that maps every variable:
        the first among those that map the rarest one."""
        tags = min((mapping.get(v, []) for v in varnames), key=len, default=list(bits))
        for tag in tags:
            if all(v in bits[tag] for v in varnames):
                return tag
        raise CoverageError(f"no local function covers variables {list(varnames)}")

    # clause r is Σ c·g(B) − rhs: weight c at the stack row of B in the
    # local find_local picks, and −1 at the row of rhs after the locals
    clauses: List[Tuple[str, str]] = []
    clause_terms: List[List[Tuple[int, int]]] = []
    rhs_values: List[LogScalar] = []
    uncovered = None
    for message, terms, rhs, sense in connection_clauses(net, conn, tup):
        try:
            tag = find_local(list(dict.fromkeys(v for _, subset in terms for v in subset)))
        except CoverageError as exc:
            uncovered = exc
            break
        b = bits[tag]
        row_terms = []
        for c, subset in terms:
            mask = 0
            for v in subset:
                mask |= b[v]
            row_terms.append((offset[tag] + mask, c))
        if rhs:
            row_terms.append((total + len(rhs_values), -1))
            rhs_values.append(rhs)
        clauses.append((message, sense))
        clause_terms.append(row_terms)

    stack = stacked([lw.func.form for lw in cert.locals_.values()] + [integer_form(rhs_values)])
    _check_consistency(cert, bits, stack, offset, fail)
    if clauses:
        # one row per clause, padded with weight 0 at row 0
        width = max(map(len, clause_terms))
        pads = [[(0, 0)] * (width - len(t)) for t in clause_terms]
        index = np.array([[i for i, _ in t + pad] for t, pad in zip(clause_terms, pads)])
        weights = np.array([[c for _, c in t + pad] for t, pad in zip(clause_terms, pads)])
        signs = row_signs(stack.primes, weighted_rows(stack, index, weights))
        for (message, sense), sign in zip(clauses, signs.tolist()):
            if sign and (sense == "=" or sign == (1 if sense == "<=" else -1)):
                fail(message)
    if uncovered is not None:
        raise uncovered
    return ok
