import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entronet import exactlog
from entronet.exactlog import (
    PRIME_TEST_LIMIT,
    SIGN_BIT_CAP,
    ZERO,
    LogScalar,
    _interval_sign,
    entropy_of_counts,
    factorize,
    integer_form,
    is_prime,
    log2_units,
    negative_mask,
    negative_rows,
    power_sign,
)
from entronet.schema import StructuralError

PRIMES = [2, 3, 5, 7, 11, 13]

fractions = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 20)
)
scalars = st.dictionaries(st.sampled_from(PRIMES), fractions, max_size=4).map(LogScalar)


def high_precision(x: LogScalar) -> mpmath.mpf:
    with mpmath.workprec(200):
        return mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.log(p)
            for p, q in x.terms.items()
        )


@given(scalars)
def test_sign_matches_high_precision_float(x):
    ref = high_precision(x)
    if abs(ref) > mpmath.mpf("1e-40"):
        assert x.sign() == (1 if ref > 0 else -1)
    else:
        assert x.sign() == 0


@given(scalars, scalars)
def test_additive_group(x, y):
    assert (x + y - y) == x
    assert (x + y) == (y + x)
    assert (x - x).is_zero()


@given(scalars, fractions)
def test_scalar_multiplication_distributes(x, c):
    assert x * c + x * c == x * (2 * c)


@given(scalars, scalars, scalars)
def test_order_translation_invariant(x, y, z):
    if x < y:
        assert x + z < y + z


@given(scalars, scalars)
@settings(max_examples=50)
def test_total_order_consistent(x, y):
    assert (x < y) + (x == y) + (y < x) == 1


@given(scalars)
def test_json_round_trip(x):
    assert LogScalar.from_json(x.to_json()) == x


def test_equal_values_write_the_same_strings():
    """Two values built apart share each string of their JSON, so a
    document that holds many equal values holds each string once."""
    x = LogScalar({2: Fraction(3, 2), 3: -1})
    y = LogScalar.log_int(8) * Fraction(1, 2) - LogScalar.log_int(3)
    a, b = x.to_json(), y.to_json()
    assert a == b == {"2": "3/2", "3": "-1"}
    assert all(k1 is k2 and a[k1] is b[k2] for k1, k2 in zip(a, b))


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)), ("0", Fraction(0)),
])
def test_from_json_reads_an_integer_or_a_ratio(text, value):
    assert LogScalar.from_json({"2": text}) == LogScalar({2: value})


@pytest.mark.parametrize("coefficient", [
    "1e10000000", "0.5", " 1", "1_000", "1/0", "1/-2", "", "٣", 1, 0.5, None, ["1"],
])
def test_from_json_refuses_any_other_coefficient(coefficient):
    """Only the text `to_json` writes: an exponent, a decimal point, a
    number that is not a string, or a zero denominator is refused."""
    with pytest.raises(StructuralError):
        LogScalar.from_json({"2": coefficient})


def test_log_identities():
    log6 = LogScalar({2: Fraction(1), 3: Fraction(1)})
    assert LogScalar.log_fraction(6, 1) == log6
    assert LogScalar.log_fraction(8, 4) == log2_units(1)
    assert LogScalar.log_fraction(5, 5) == ZERO


def test_irrational_independence():
    # 3 log 2 vs 2 log 3: resolved exactly despite closeness (8 vs 9)
    x = log2_units(3) - LogScalar({3: Fraction(2)})
    assert x.sign() == -1
    assert math.isclose(x.to_float(), 3 * math.log(2) - 2 * math.log(3))


def test_float_is_a_float_even_at_zero():
    # sum() over no terms is the int 0, which __float__ may not return
    assert type(float(ZERO)) is float and float(ZERO) == 0.0
    x = log2_units(3) - LogScalar({3: Fraction(2)})
    assert float(x) == x.to_float()


def test_hashable_and_comparable():
    a = log2_units(Fraction(1, 2))
    b = LogScalar({2: Fraction(1, 2)})
    assert hash(a) == hash(b) and a == b
    assert sorted([log2_units(2), ZERO, log2_units(1)])[0] == ZERO


def test_rejects_nonprime_base():
    with pytest.raises(ValueError):
        LogScalar({4: Fraction(1)})


def trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-2, 20000) if is_prime(n)] == [
        n for n in range(-2, 20000) if trial_division(n)]


@pytest.mark.parametrize("n, prime", [
    (2**61 - 1, True),
    (10**24 + 7, True),
    (3317044064679887385961813, True),  # the largest prime below the limit
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # strong pseudoprime to the bases 2 to 23
    (318665857834031151167461, False),  # strong pseudoprime to the first 12 prime bases
    (1000003 * 1000000007, False),
])
def test_is_prime_on_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_numbers_past_the_limit():
    """Past the limit only a small factor still decides."""
    for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 6, 10**30 + 57):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)
    assert is_prime(PRIME_TEST_LIMIT + 2) is False  # divisible by 3
    with pytest.raises(ValueError):
        LogScalar.from_json({"1000000000000000000000000000057": "1"})


def trial_factors(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# (n, its factorization when the test knows it): n < 10^7 against trial
# division, semiprimes of two 30-bit primes, and 64-bit integers
factor_cases = st.one_of(
    st.integers(1, 10**7 - 1).map(lambda n: (n, trial_factors(n))),
    st.lists(st.integers(2**29, 2**30 - 2**10).map(next_prime), min_size=2, max_size=2).map(
        lambda pq: (pq[0] * pq[1], dict(Counter(sorted(pq))))),
    st.integers(1, 2**64).map(lambda n: (n, None)),
)


@settings(max_examples=300, deadline=None)
@given(factor_cases)
def test_factorize_gives_ascending_primes_whose_product_is_n(case):
    n, want = case
    got = factorize(n)
    assert math.prod(p**e for p, e in got.items()) == n
    assert list(got) == sorted(got) and all(e > 0 and is_prime(p) for p, e in got.items())
    if want is not None:
        assert got == want


def entropy_of_counts_per_count(counts):
    """The reference: one LogScalar subtraction per count."""
    counts = list(counts)
    total = sum(counts)
    if total <= 0 or any(c <= 0 for c in counts):
        raise ValueError("counts must be positive integers")
    h = LogScalar.log_int(total)
    for c in counts:
        if c > 1:
            h = h - LogScalar.log_int(c) * Fraction(c, total)
    return h


# 1, primes, prime powers, and counts above 2^40 (one with a prime factor
# above 2^40, the others smooth so that factorizing them stays cheap)
counts = st.one_of(
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, 7, 8, 9, 61, 67, 4099, 2**31 - 1]),
    st.sampled_from([2**40, 3 * 2**40, 2**40 + 15, 5**18, 6**16]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(counts, min_size=1, max_size=8).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=12)))
def test_entropy_of_counts_matches_the_per_count_loop(cs):
    """Drawn with repeats, so equal counts are grouped."""
    fast = entropy_of_counts(cs)
    assert fast == entropy_of_counts_per_count(cs)
    assert fast.to_json() == entropy_of_counts_per_count(cs).to_json()
    assert all(type(q) is Fraction and q for q in fast._terms.values())


def test_entropy_of_uniform_counts_is_the_log_of_their_number():
    assert entropy_of_counts([6] * 12) == LogScalar.log_int(12)
    assert entropy_of_counts([5]) == ZERO
    assert entropy_of_counts([2, 1, 1]) == log2_units(Fraction(3, 2))


@pytest.mark.parametrize("bad", [[], [0], [3, 0], [2, -1], [-2, -2], [5, -5]])
def test_entropy_of_counts_refuses_a_non_positive_count(bad):
    for fn in (entropy_of_counts, entropy_of_counts_per_count):
        with pytest.raises(ValueError, match="positive"):
            fn(bad)


def product_sign(bases, row):
    """The sign of sum(row[i] * log(bases[i])) by the two products, at any
    size."""
    pos = math.prod(b**a for b, a in zip(bases, row) if a > 0)
    neg = math.prod(b**-a for b, a in zip(bases, row) if a < 0)
    return (pos > neg) - (pos < neg)


SIGN_PRIMES = [p for p in range(2, 62) if is_prime(p)]
# small coefficients, and ones that pass the bit cap on their own
sign_coefficients = st.one_of(st.integers(-40, 40), st.integers(-2 * SIGN_BIT_CAP, 2 * SIGN_BIT_CAP))
sign_rows = st.dictionaries(st.sampled_from(SIGN_PRIMES), sign_coefficients, min_size=1, max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sign_rows)
def test_integer_sign_equals_the_interval_sign(terms):
    """Below the bit cap power_sign compares products, above it evaluates
    intervals: either way it is the sign of the products, and so is the
    interval sign at every size."""
    bases, row = tuple(terms), list(terms.values())
    want = product_sign(bases, row)
    assert power_sign(bases, row) == want
    assert _interval_sign(bases, row) == want


def test_power_sign_takes_the_interval_path_only_past_the_bit_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(exactlog, "_interval_sign", lambda b, r: calls.append(r) or 7)
    # 2^a against 3^a: 2 and 3 are 2 bits long, so the products count 4a bits
    below = [SIGN_BIT_CAP // 4, -(SIGN_BIT_CAP // 4)]
    above = [SIGN_BIT_CAP // 4 + 1, -(SIGN_BIT_CAP // 4 + 1)]
    assert power_sign((2, 3), below) == -1 and calls == []
    assert power_sign((2, 3), above) == 7 and calls == [above]


@pytest.mark.parametrize("bases, row, sign", [
    ((4, 2), (SIGN_BIT_CAP, -2 * SIGN_BIT_CAP), 0),  # log 4 = 2 log 2, past the cap
    ((4, 2), (1, -2), 0),
    ((12, 2, 3), (1, -2, -1), 0),
    ((6, 2), (SIGN_BIT_CAP, -2 * SIGN_BIT_CAP), 1),
    ((2,), (0,), 0),
    ((), (), 0),
])
def test_power_sign_on_composite_bases(bases, row, sign):
    assert power_sign(bases, row) == sign
    assert _interval_sign(bases, row) == sign


def test_logscalar_sign_scales_its_fractions_to_integers():
    # 2^(1/3) > 3^(1/5): 2^5 = 32 > 27 = 3^3
    assert LogScalar({2: Fraction(1, 3), 3: Fraction(-1, 5)}).sign() == 1
    assert LogScalar({2: Fraction(-1, 3), 3: Fraction(1, 5)}).sign() == -1
    assert LogScalar({2: Fraction(-3, 2), 3: 1}).sign() == 1  # 9 > 8
    # past the cap the interval path decides, scaled the same way
    assert LogScalar({2: Fraction(SIGN_BIT_CAP, 3), 3: -Fraction(SIGN_BIT_CAP, 5)}).sign() == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@pytest.mark.parametrize("scale", [1, 2**64])
@given(st.lists(scalars, min_size=1, max_size=8), st.data())
def test_negative_mask_matches_the_per_row_sign(scale, values, data):
    """On an int64 form, and on the same values scaled past int64 into an
    object-dtype form."""
    values = [v * scale for v in values]
    form = integer_form(values)
    assert (form.mat.dtype == object) == (form.bound > INT64_MAX)
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    rows = st.lists(st.integers(0, len(values) - 1), min_size=len(weights),
                    max_size=len(weights))
    index = np.array(data.draw(st.lists(rows, min_size=1, max_size=12)))
    want = [sum((values[i] * w for i, w in zip(row, weights)), ZERO).sign() < 0
            for row in index.tolist()]
    assert negative_mask(form, index, weights).tolist() == want


INT64_MAX = int(np.iinfo(np.int64).max)


def reference_negative_rows(values, index, weights):
    """negative_rows as it was when it converted its values on every call:
    the integer matrix built here, int64 when no partial sum can overflow."""
    primes = sorted({p for v in values for p in v.terms})
    col = {p: j for j, p in enumerate(primes)}
    den = math.lcm(*(q.denominator for v in values for q in v.terms.values()))
    ints = [[0] * len(primes) for _ in values]
    top = 0
    for row, v in zip(ints, values):
        for p, q in v.terms.items():
            row[col[p]] = x = q.numerator * (den // q.denominator)
            top = max(top, abs(x))
    dtype = np.int64 if top * sum(abs(w) for w in weights) <= INT64_MAX else object
    mat = np.array(ints, dtype=dtype).reshape(len(values), len(primes))
    rows = sum(w * mat[index[:, t]] for t, w in enumerate(weights))
    mixed = (rows > 0).any(axis=1)
    out = []
    for r in np.flatnonzero((rows < 0).any(axis=1)).tolist():
        slack = LogScalar({p: Fraction(x, den) for p, x in zip(primes, rows[r].tolist()) if x})
        if not mixed[r] or slack.sign() < 0:
            out.append((r, slack))
    return out


# coefficients small, or large enough that four of them pass int64
coefficients = st.one_of(
    fractions,
    st.builds(Fraction, st.integers(-2**62, 2**62), st.integers(1, 3)),
)
big_scalars = st.dictionaries(st.sampled_from(PRIMES[:3]), coefficients, max_size=3).map(LogScalar)


@settings(max_examples=200, deadline=None)
@given(st.lists(big_scalars, min_size=1, max_size=8), st.data())
def test_negative_rows_of_a_form_match_the_per_call_conversion(values, data):
    # the per-call conversion chose int64 for all-zero weights whatever the
    # entries, and overflowed on entries past int64; see the test below
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5).filter(any))
    rows = st.lists(st.integers(0, len(values) - 1), min_size=len(weights),
                    max_size=len(weights))
    index = np.array(data.draw(st.lists(rows, min_size=1, max_size=12)))
    assert negative_rows(integer_form(values), index, weights) == \
        reference_negative_rows(values, index, weights)


@given(st.lists(big_scalars, min_size=1, max_size=8))
def test_integer_form_holds_every_value_exactly(values):
    """Row i over den gives back value i; the matrix is int64 exactly when
    its bound fits, and read-only."""
    form = integer_form(values)
    assert list(form.primes) == sorted({p for v in values for p in v.terms})
    assert form.den == math.lcm(*(q.denominator for v in values for q in v.terms.values()))
    for v, row in zip(values, form.mat.tolist()):
        assert LogScalar({p: Fraction(x, form.den) for p, x in zip(form.primes, row)}) == v
    assert form.bound == max((abs(x) for row in form.mat.tolist() for x in row), default=0)
    assert (form.mat.dtype == np.int64) == (form.bound <= INT64_MAX)
    with pytest.raises(ValueError, match="read-only"):
        form.mat[0] = 0


def test_negative_rows_widens_an_int64_form_whose_sums_overflow():
    """Each value fits int64, but a row of four of them does not."""
    big = LogScalar({2: 2**62 - 1})
    values = [ZERO, big, -big, LogScalar({2: 1, 3: -(2**62)})]
    form = integer_form(values)
    assert form.mat.dtype == np.int64
    index = np.array([[1, 1, 1, 3], [2, 2, 2, 1], [1, 2, 0, 0], [3, 3, 3, 3]])
    weights = (1, 1, 1, -1)
    got = negative_rows(form, index, weights)
    assert got == reference_negative_rows(values, index, weights)
    assert [r for r, _ in got] == [1, 3]


def test_negative_rows_with_zero_weights_over_entries_past_int64():
    values = [ZERO, LogScalar({5: 2**64})]
    assert negative_rows(integer_form(values), np.array([[1, 0]]), (0, 0)) == []
