"""Exact arithmetic on rational combinations of logarithms of primes.

All entropies and capacities in this package are numbers of the form
``sum(q_p * log(p))`` with rational coefficients ``q_p`` over finitely many
primes ``p``.  Because logarithms of distinct primes are linearly independent
over the rationals, such a number is zero exactly when all coefficients are
zero, and equality is decidable by comparing coefficient maps.

The sign is decided on integers too.  Scaled by the lcm of its denominators,
a value is ``sum(a_p * log(p))`` with integer ``a_p``, and by unique
factorization its sign is that of ``prod(p**a_p, a_p > 0) - prod(p**-a_p,
a_p < 0)``: one comparison of two integers (:func:`power_sign`).  Above
SIGN_BIT_CAP bits in the two products that comparison costs more than
interval evaluation at increasing precision, which decides the sign
instead; mpmath is imported on that fallback only.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .schema import StructuralError, typed

RationalLike = Union[int, Fraction]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Miller–Rabin to the first 13 prime bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = _SMALL_PRIMES[:13]


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the small primes, then
    deterministic Miller–Rabin.  Raises ValueError for n at or above
    PRIME_TEST_LIMIT, where no fixed set of bases is known to be exact."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 67 * 67:
        return True
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large to test for primality")
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Brent's variant of Pollard's
    rho on x -> x² + c, from y = 2 and c = 1, 2, ... until one succeeds,
    with the gcd taken once per 128 steps and the last block replayed step
    by step when that gcd overshoots to n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of a positive integer, primes ascending: trial
    division by the small primes, then each cofactor below PRIME_TEST_LIMIT
    is either prime (`is_prime`) or split by `_rho_factor`; a cofactor at or
    above the limit is factored by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    out: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n < 67 * 67:  # no factor below 67 is left: n is 1 or a prime
        if n > 1:
            out[n] = 1
        return out
    todo = [n]
    while todo:
        n = todo.pop()
        if n >= PRIME_TEST_LIMIT:
            d = 67
            while d * d <= n:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                d += 2
            if n > 1:
                out[n] = out.get(n, 0) + 1
        elif is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            d = _rho_factor(n)
            todo += [d, n // d]
    return dict(sorted(out.items()))


class LogScalar:
    """The exact real number ``sum(q_p * log(p))`` over primes p.

    Immutable and hashable.  Supports addition, subtraction, negation and
    scaling by rationals; total order via :meth:`sign` of differences.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: Dict[int, Fraction] = {}
        if terms:
            for p, q in terms.items():
                if not is_prime(p):
                    raise ValueError(f"LogScalar keys must be prime, got {p}")
                qf = Fraction(q)
                if qf != 0:
                    clean[p] = qf
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Dict[int, Fraction]) -> "LogScalar":
        """Wrap a map of prime keys to nonzero Fraction coefficients without
        re-validating it; for results built from validated LogScalars."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls()

    @classmethod
    def log_int(cls, n: int) -> "LogScalar":
        """log(n) for a positive integer n."""
        return cls._trusted({p: Fraction(e) for p, e in factorize(n).items()})

    @classmethod
    def log_fraction(cls, num: int, den: int = 1) -> "LogScalar":
        """log(num/den) for positive integers."""
        terms = {p: Fraction(e) for p, e in factorize(num).items()}
        for p, e in factorize(den).items():
            terms[p] = terms.get(p, Fraction(0)) - e
        return cls(terms)

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self) -> Dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------------

    def _merge(self, other: "LogScalar", sign: int) -> "LogScalar":
        terms = dict(self._terms)
        for p, q in other._terms.items():
            r = terms.get(p, 0)
            r = r + q if sign > 0 else r - q
            if r:
                terms[p] = r
            else:
                del terms[p]
        return LogScalar._trusted(terms)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self._merge(other, +1)

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> "LogScalar":
        return LogScalar._trusted({p: -q for p, q in self._terms.items()})

    def __mul__(self, c: RationalLike) -> "LogScalar":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        if not c:
            return LogScalar._trusted({})
        return LogScalar._trusted({p: q * c for p, q in self._terms.items()})

    __rmul__ = __mul__

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1.  Zero exactly when the term map is empty."""
        if not self._terms:
            return 0
        # fast path: all mass on a single prime (or all coefficients share
        # the sign) needs no product
        signs = {1 if q > 0 else -1 for q in self._terms.values()}
        if len(signs) == 1:
            return signs.pop()
        den = math.lcm(*(q.denominator for q in self._terms.values()))
        return power_sign(
            tuple(self._terms), [q.numerator * (den // q.denominator) for q in self._terms.values()]
        )

    def to_float(self) -> float:
        # a float even with no terms, where sum() would give the int 0
        return sum((float(q) * math.log(p) for p, q in self._terms.items()), 0.0)

    __float__ = to_float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __lt__(self, other: "LogScalar") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "LogScalar") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "LogScalar") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "LogScalar") -> bool:
        return (self - other).sign() >= 0

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "LogScalar(0)"
        parts = [f"{q}*log{p}" for p, q in sorted(self._terms.items())]
        return "LogScalar(" + " + ".join(parts) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, str]:
        """Prime and coefficient as text, each string interned: the few that
        recur across the values of a document or a verdict are held once."""
        return {sys.intern(str(p)): sys.intern(str(q)) for p, q in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LogScalar":
        """What `to_json` writes: prime keys, each with an integer or n/d, with
        an optional sign.  Other text, such as an exponent, is refused."""
        terms = {}
        items = typed(obj, Mapping, "a log scalar").items()
        try:
            for p, q in items:
                if type(q) is not str or not _RATIONAL(q):
                    raise ValueError(f"coefficient {q!r:.40} is not n or n/d")
                num, _, den = q.partition("/")
                terms[int(p)] = Fraction(int(num), int(den)) if den else Fraction(int(num))
            return cls(terms)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"not a log scalar: {obj!r:.40}: {exc}") from None


# bits in the two products of power_sign above which it evaluates intervals:
# near here one interval at 64 bits and one such product take about as long
SIGN_BIT_CAP = 1 << 15


def power_sign(bases: Sequence[int], row: Sequence[int]) -> int:
    """The sign of ``sum(row[i] * log(bases[i]))`` for Python integers
    ``row[i]`` and positive integers ``bases[i]``: the sign of the product
    of ``bases[i]**row[i]`` over the positive entries minus that of
    ``bases[i]**-row[i]`` over the negative ones, while the two together
    have at most SIGN_BIT_CAP bits; above that, interval evaluation."""
    if sum(abs(a) * b.bit_length() for b, a in zip(bases, row)) > SIGN_BIT_CAP:
        return _interval_sign(bases, row)
    pos = neg = 1
    for b, a in zip(bases, row):
        if a > 0:
            pos *= b**a
        elif a < 0:
            neg *= b**-a
    return (pos > neg) - (pos < neg)


def _interval_sign(bases: Sequence[int], row: Sequence[int]) -> int:
    """The sign of ``sum(row[i] * log(bases[i]))`` by mpmath intervals at
    64 bits of precision, then 128, and so on, until an interval excludes
    zero; their endpoints are exact binary numbers, compared exactly.  The
    bases are factorized first, so a sum that is zero, such as log 4 - 2 log
    2, is found to be; a nonzero sum over primes is never zero.  mpmath is
    imported here, on the first interval, not with the module."""
    terms: Dict[int, int] = {}
    for b, a in zip(bases, row):
        for p, e in factorize(b).items():
            terms[p] = terms.get(p, 0) + e * a
    terms = {p: a for p, a in terms.items() if a}
    if not terms:
        return 0
    import mpmath

    prec = 64
    old = mpmath.iv.prec
    try:
        while True:
            mpmath.iv.prec = prec
            total = mpmath.iv.mpf(0)
            for p, a in terms.items():
                total += a * mpmath.iv.log(p)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            prec *= 2
    finally:
        mpmath.iv.prec = old


def log_int_sign(n: int, x: LogScalar) -> int:
    """The sign of ``log(n) - x`` for a positive integer n, which is not
    factorized: with d the lcm of x's denominators, the sign of n^d against
    the prime powers of d·x (:func:`power_sign`)."""
    d = math.lcm(*(q.denominator for q in x._terms.values()))
    return power_sign(
        (n, *x._terms), [d, *(-q.numerator * (d // q.denominator) for q in x._terms.values())]
    )


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?").fullmatch

ZERO = LogScalar.zero()


_INT64_MAX = int(np.iinfo(np.int64).max)


class IntegerForm(NamedTuple):
    """A list of LogScalars as one integer matrix: row i, column j holds
    ``den`` times the coefficient of ``primes[j]`` in value i.  ``bound`` is
    the largest absolute entry; ``mat`` is int64 when ``bound`` fits, Python
    ints otherwise, and read-only."""

    primes: Tuple[int, ...]
    den: int
    mat: np.ndarray
    bound: int

    @classmethod
    def of(cls, primes: Tuple[int, ...], den: int, mat: np.ndarray) -> "IntegerForm":
        """The form of an integer matrix already over `primes` and `den`:
        its bound found, its dtype narrowed to int64 when that fits, and the
        matrix frozen."""
        bound = max(int(mat.max()), -int(mat.min())) if mat.size else 0
        mat = mat.astype(np.int64 if bound <= _INT64_MAX else object, copy=False)
        mat.setflags(write=False)
        return cls(primes, den, mat, bound)

    def scalar(self, row: np.ndarray) -> LogScalar:
        """The value a row of integers over the form's primes and
        denominator stands for."""
        return LogScalar._trusted(
            {p: Fraction(x, self.den) for p, x in zip(self.primes, row.tolist()) if x}
        )

    def lifted(self, primes: Tuple[int, ...], den: int) -> np.ndarray:
        """`mat` over `primes`, a superset of the form's, and `den`, a
        multiple of its denominator."""
        scale = den // self.den
        mat = _widened(self.mat, self.bound * scale) * scale
        out = np.zeros((len(mat), len(primes)), dtype=mat.dtype)
        out[:, [primes.index(p) for p in self.primes]] = mat
        return out


def _widened(mat: np.ndarray, bound: int) -> np.ndarray:
    """`mat` as Python ints when a result bounded by `bound` could pass
    int64, else as it is."""
    return mat if bound <= _INT64_MAX else mat.astype(object)


def integer_form(values: Sequence[LogScalar]) -> IntegerForm:
    """The integer form of `values`: one column per prime that occurs, in
    increasing order, over the lcm of every coefficient's denominator."""
    primes = tuple(sorted({p for v in values for p in v._terms}))
    col = {p: j for j, p in enumerate(primes)}
    den = math.lcm(*(q.denominator for v in values for q in v._terms.values()))
    ints = [[0] * len(primes) for _ in values]
    for row, v in zip(ints, values):
        for p, q in v._terms.items():
            row[col[p]] = q.numerator * (den // q.denominator)
    try:
        mat = np.array(ints, dtype=np.int64)
    except OverflowError:
        mat = np.array(ints, dtype=object)
    return IntegerForm.of(primes, den, mat.reshape(len(values), len(primes)))


def combine(form: IntegerForm, index: np.ndarray, weights: Sequence[int]) -> np.ndarray:
    """Row r is ``sum_t weights[t] * form.mat[index[r, t]]``: int64 when no
    partial sum can overflow, Python ints otherwise."""
    # every partial sum of a row is bounded by bound * sum(|weights|)
    mat = _widened(form.mat, form.bound * sum(abs(w) for w in weights))
    return np.asarray(weights, dtype=mat.dtype) @ mat[index]


def weighted_rows(form: IntegerForm, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row r is ``sum_t weights[r, t] * form.mat[index[r, t]]``, for two
    integer arrays of one shape: :func:`combine` with a weight per entry.
    int64 when no partial sum can overflow, Python ints otherwise."""
    weight = int(np.abs(weights).sum(axis=1).max(initial=0))
    mat = _widened(form.mat, form.bound * weight)
    return (weights.astype(mat.dtype)[:, None, :] @ mat[index])[:, 0, :]


def stacked(forms: Sequence[IntegerForm]) -> IntegerForm:
    """The rows of each of `forms` in turn, as one form over the union of
    their primes and the lcm of their denominators."""
    primes = tuple(sorted({p for F in forms for p in F.primes}))
    den = math.lcm(*(F.den for F in forms))
    return IntegerForm.of(primes, den, np.concatenate([F.lifted(primes, den) for F in forms]))


def row_signs(primes: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """The sign, -1, 0 or +1, of the value of each integer row over
    `primes` and a positive denominator.  A row with entries of one sign
    has that sign; only a row with both goes to :func:`power_sign`."""
    pos = (rows > 0).any(axis=1)
    neg = (rows < 0).any(axis=1)
    out = pos.astype(np.int64) - neg
    for r in np.flatnonzero(pos & neg).tolist():
        out[r] = power_sign(primes, rows[r].tolist())
    return out


def negative_mask(form: IntegerForm, index: np.ndarray, weights: Sequence[int]) -> np.ndarray:
    """Whether each row r of ``index`` (an integer array with one column per
    term) has a negative combination ``sum_t weights[t] * value[index[r, t]]``,
    the values being those whose integer form is `form`.

    Every row is gathered from the form's matrix at once (:func:`combine`)
    and its sign read by :func:`row_signs`.
    """
    return row_signs(form.primes, combine(form, index, weights)) < 0


def negative_rows(
    form: IntegerForm, index: np.ndarray, weights: Sequence[int]
) -> List[Tuple[int, LogScalar]]:
    """Every row r of ``index`` that :func:`negative_mask` flags, paired with
    its combination, in row order."""
    neg = np.flatnonzero(negative_mask(form, index, weights))
    if not len(neg):
        return []
    slacks = combine(form, index[neg], weights)
    return [(r, form.scalar(row)) for r, row in zip(neg.tolist(), slacks)]


def log2_units(coeff: RationalLike) -> LogScalar:
    """coeff * log(2) — the conventional 'bits' unit."""
    return LogScalar({2: Fraction(coeff)})


def entropy_of_counts(counts: Iterable[int]) -> LogScalar:
    """Exact entropy of a distribution given by positive integer counts."""
    return entropy_of_histogram(Counter(counts))


def entropy_of_histogram(hist: Mapping[int, int]) -> LogScalar:
    """Exact entropy of a distribution whose positive integer counts are
    given as a histogram: count c -> its multiplicity m_c.

    With total T, H = log T - (1/T) * sum_c m_c * c * log c over the
    distinct counts c.  Each distinct count is factorized once and the
    coefficient of each prime p is (T * e_p(T) - sum_c m_c * c * e_p(c)) / T,
    one Fraction per prime; the counts of a uniform distribution are all
    equal and give a single term.
    """
    total = sum(c * m for c, m in hist.items())
    if total <= 0 or any(c <= 0 for c in hist):
        raise ValueError("counts must be positive integers")
    nums = {p: e * total for p, e in factorize(total).items()}
    for c, m in hist.items():
        if c > 1:
            for p, e in factorize(c).items():
                nums[p] = nums.get(p, 0) - m * c * e
    return LogScalar._trusted({p: Fraction(x, total) for p, x in nums.items() if x})
