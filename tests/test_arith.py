import math
import random
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicprimes import (
    CapacityError,
    DomainError,
    factorize,
    integer_root,
    is_prime,
    primes_up_to,
    sieve_range,
    sigma,
    tau,
    totient,
    von_mangoldt,
    von_mangoldt_via_mobius,
)
from cubicprimes import arith
from cubicprimes.arith import _strong_base2, _strong_lucas, is_prime_batch
from cubicprimes.counting import _alive, _prescreen, _prescreen_bound, max_index, min_index


class TestSieve:
    def test_small_primes(self, tables_small):
        assert list(tables_small.primes[:4]) == [2, 3, 5, 7]

    def test_mu_values(self, tables_small):
        assert tables_small.mu[6] == 1
        assert tables_small.mu[4] == 0
        assert tables_small.mu[30] == -1

    def test_prime_count_below_million(self, tables_million):
        assert len(tables_million.primes) == 78498

    def test_mu_matches_factorization(self):
        # covers both sieve steps: primes up to sqrt(limit) and those above
        mu = sieve_range(10**5).mu
        for n in range(1, 10**5 + 1):
            factors = factorize(n).factors
            expected = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
            assert mu[n] == expected, n

    def test_limit_guards(self):
        with pytest.raises(CapacityError):
            sieve_range(1)
        with pytest.raises(CapacityError):
            sieve_range(10**9 + 1)

    def test_primes_up_to(self):
        assert list(primes_up_to(10)) == [2, 3, 5, 7]


class TestMobius:
    def test_reference_values(self, tables_small):
        assert tables_small.mu[1] == 1
        assert tables_small.mu[30] == -1
        assert tables_small.mu[12] == 0

    @given(m=st.integers(1, 999), n=st.integers(1, 999))
    @settings(max_examples=300)
    def test_multiplicative_on_coprime_pairs(self, tables_million, m, n):
        assume(math.gcd(m, n) == 1)
        mu = tables_million.mu
        assert mu[m * n] == mu[m] * mu[n]


class TestVonMangoldt:
    def test_prime_power(self):
        assert von_mangoldt(8) == pytest.approx(math.log(2), rel=1e-15)

    def test_two_prime_factors(self):
        assert von_mangoldt(6) == 0.0

    def test_large_prime(self):
        assert von_mangoldt(127) == pytest.approx(math.log(127), rel=1e-15)

    def test_one(self):
        assert von_mangoldt(1) == 0.0

    def test_divisor_route_values(self):
        assert von_mangoldt_via_mobius(1) == 0.0
        assert von_mangoldt_via_mobius(9) == pytest.approx(math.log(3), rel=1e-12)
        assert von_mangoldt_via_mobius(12) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(1, 5000))
    @settings(max_examples=200)
    def test_two_routes_agree(self, n):
        assert von_mangoldt_via_mobius(n) == pytest.approx(von_mangoldt(n), rel=1e-9, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            von_mangoldt(0)


class TestPrimality:
    def test_reference_values(self):
        assert is_prime(2)
        assert not is_prime(1333)  # 31 * 43
        assert is_prime(24391)

    def test_small_and_negative(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)

    @given(n=st.integers(2, 10**4))
    @settings(max_examples=300)
    def test_agrees_with_sieve(self, tables_small, n):
        in_sieve = n in set(int(p) for p in tables_small.primes)
        assert is_prime(n) == in_sieve

    @given(st.integers(2, 10**6), st.integers(2, 10**6))
    @settings(max_examples=100)
    def test_products_are_composite(self, a, b):
        assert not is_prime(a * b)


def batch_equals_scalar(values) -> None:
    verdicts = is_prime_batch(np.array(values, dtype=np.uint64))
    assert verdicts.dtype == bool
    assert verdicts.tolist() == [is_prime(v) for v in values]


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The strong Lucas pseudoprimes below 60000 for Selfridge's parameters
# (OEIS A217255); every prime factor of each is above 37.
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                             58519]


class TestPrimalityBatch:
    """The Baillie-PSW batch certifier against scalar is_prime, verdict for
    verdict."""

    def test_every_value_below_2e5(self):
        batch_equals_scalar(range(2 * 10**5))

    def test_empty_batch(self):
        assert is_prime_batch(np.array([], dtype=np.uint64)).tolist() == []

    def test_prescreen_survivors_of_k2_to_1e15(self):
        lo, hi = min_index(2), max_index(2, 10**15)
        alive = np.flatnonzero(_alive(lo, hi, _prescreen(2, _prescreen_bound(hi - lo + 1))))
        n = alive + lo
        assert alive.size > 7000
        batch_equals_scalar([int(m) ** 3 + 2 for m in n])

    def test_odd_sample_above_2_63(self):
        # the REDC quotient overflows 64 bits only when n > 2^63
        rng = random.Random(20131)
        batch_equals_scalar([rng.randrange(2**63, 2**64) | 1 for _ in range(20000)])

    def test_strong_pseudoprimes_and_carmichael_numbers(self):
        pseudoprimes = [3215031751, 2152302898747, 3474749660383, 341550071728321,
                        3825123056546413051]
        carmichael = [561, 41041, 825265, 321197185, 5394826801]
        batch_equals_scalar(pseudoprimes + carmichael)
        assert not is_prime_batch(np.array(pseudoprimes + carmichael, dtype=np.uint64)).any()

    def test_near_2_64(self):
        values = [4294967291**2, 4294967279**2, 2**64 - 59, 2**64 - 1]
        batch_equals_scalar(values)
        assert is_prime_batch(np.array(values, dtype=np.uint64)).tolist() == [
            False, False, True, False]

    def test_bases_divisible_by_n(self):
        # 73 and 193 divide the base 28178; the scalar test skips such a base
        values = [73, 193, 14089, 407521, 299210837, 407521 * 299210837]
        assert any(a % v == 0 for v in values for a in (28178, 450775, 9780504, 1795265022))
        batch_equals_scalar(values)

    def test_strong_lucas_pseudoprimes(self):
        batch_equals_scalar(STRONG_LUCAS_PSEUDOPRIMES)
        lucas = _strong_lucas(np.array(STRONG_LUCAS_PSEUDOPRIMES, dtype=np.uint64))
        assert lucas.all()

    def test_lucas_stage_below_60000(self):
        # the Lucas stage alone passes the primes and exactly the listed
        # pseudoprimes, so its D choice and its chain are Selfridge's
        n = [v for v in range(41, 60000, 2) if all(v % p for p in arith._SMALL_PRIMES)]
        passed = _strong_lucas(np.array(n, dtype=np.uint64))
        assert [v for v, ok in zip(n, passed) if ok and not is_prime(v)] == \
            STRONG_LUCAS_PSEUDOPRIMES
        assert all(ok for v, ok in zip(n, passed) if is_prime(v))

    def test_base2_pseudoprime_squares(self):
        # the Wieferich primes 1093 and 3511 make their squares strong
        # base-2 pseudoprimes, so these reach the square test
        values = [1093**2, 3511**2]
        assert _strong_base2(np.array(values, dtype=np.uint64)).all()
        batch_equals_scalar(values)

    def test_lucas_stage_refuses_squares_at_once(self):
        # no D has (D/n) = -1 on a square; without the square test the D
        # search runs until |D| reaches a prime factor of the root
        roots = [3037000493, 4294967279, 4294967291]
        with deadline(20):
            verdicts = _strong_lucas(np.array([r * r for r in roots], dtype=np.uint64))
        assert not verdicts.any()

    def test_squares_of_primes_below_4000(self):
        batch_equals_scalar([int(p) ** 2 for p in primes_up_to(4000)])

    def test_odd_values_ending_at_2_64(self):
        batch_equals_scalar(range(2**64 - 199999, 2**64, 2))

    def test_odd_values_from_1e18(self):
        batch_equals_scalar(range(10**18 + 1, 10**18 + 200000, 2))


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()

    def test_small(self):
        assert factorize(66).factors == ((2, 1), (3, 1), (11, 1))

    def test_cubic_value(self):
        assert factorize(19685).factors == ((5, 1), (31, 1), (127, 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_equals_smallest_factor_sieve_to_2e5(self):
        limit = 2 * 10**5
        spf = np.arange(limit + 1)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                block = spf[p * p :: p]
                block[block > p] = p
        spf = spf.tolist()
        for n in range(1, limit + 1):
            factors: dict[int, int] = {}
            m = n
            while m > 1:
                factors[spf[m]] = factors.get(spf[m], 0) + 1
                m //= spf[m]
            assert factorize(n).factors == tuple(sorted(factors.items()))

    def test_cofactors_past_trial_bound(self):
        assert factorize(1009**2).factors == ((1009, 2),)
        assert factorize(1009 * 1013).factors == ((1009, 1), (1013, 1))
        assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)
        assert factorize(4294967279 * 4294967291).factors == ((4294967279, 1), (4294967291, 1))

    def test_prime_cofactor_needs_no_primality_test(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda v: calls.append(v) or is_prime(v))
        assert factorize(2 * 99991).factors == ((2, 1), (99991, 1))
        assert calls == []
        factorize(1009 * 1013)  # no factor below 1000: the cofactor is tested
        assert calls

    @given(st.integers(1, 10**12))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_certified_primes(self, n):
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact.factors) == n
        for p, e in fact.factors:
            assert e >= 1
            assert is_prime(p)


class TestIntegerRoots:
    def test_cuberoot_reference(self):
        assert integer_root(0, 3) == 0
        assert integer_root(124, 3) == 4
        assert integer_root(125, 3) == 5

    def test_cuberoot_domain(self):
        with pytest.raises(DomainError):
            integer_root(-1, 3)

    @given(st.integers(0, 10**20))
    @settings(max_examples=300)
    def test_cuberoot_floor_property(self, n):
        r = integer_root(n, 3)
        assert r**3 <= n < (r + 1) ** 3

    @given(st.integers(0, 10**18), st.integers(2, 8))
    @settings(max_examples=300)
    def test_general_root_floor_property(self, n, k):
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k


class TestArithmeticWeights:
    def test_totient(self):
        assert [totient(n) for n in (1, 2, 6, 10)] == [1, 1, 2, 4]

    def test_sigma(self):
        assert [sigma(n) for n in (1, 6, 10)] == [1, 12, 18]

    def test_tau(self):
        assert [tau(n) for n in (1, 6, 12)] == [1, 4, 6]

    def test_vanish_off_positive_integers(self):
        for fn in (totient, sigma, tau):
            assert fn(0) == 0
            assert fn(-5) == 0
