import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entronet.exactlog import (
    PRIME_TEST_LIMIT,
    ZERO,
    LogScalar,
    entropy_of_counts,
    is_prime,
    log2_units,
)

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
