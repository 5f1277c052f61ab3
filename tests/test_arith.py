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
)
from cubicprimes import arith
from cubicprimes.arith import _div_small, _strong_base2, _strong_lucas, is_prime_batch
from cubicprimes.counting import _alive, _prescreen, max_index, min_index


class TestSieve:
    def test_small_primes(self, tables_small):
        assert list(tables_small.primes[:4]) == [2, 3, 5, 7]

    def test_mu_values(self, tables_small):
        assert tables_small.mu[6] == 1
        assert tables_small.mu[4] == 0
        assert tables_small.mu[30] == -1

    def test_prime_count_below_million(self, tables_million):
        assert len(tables_million.primes) == 78498

    # covers both sieve steps, primes up to sqrt(limit) and those above, and
    # limits around 97^2, where 97 moves from one step to the other; every
    # small limit and 9408-9411 take each residue of limit mod 4, where the
    # even fill's slices mu[2::4] and mu[4::4] end
    @pytest.mark.parametrize("limit", [*range(2, 65), 9408, 9409, 9410, 9411, 10**5])
    def test_mu_matches_factorization(self, limit):
        mu = sieve_range(limit).mu
        assert mu.size == limit + 1
        for n in range(1, limit + 1):
            factors = factorize(n).factors
            expected = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
            assert mu[n] == expected, n

    # d = 1, d around isqrt(limit) (3 for 10, 96 for 9408, 97 for 9409),
    # d = limit and d > limit; odd ds with three or more odd multipliers
    # above isqrt(limit), so that the step-2 walk reuses its product buffer
    @pytest.mark.parametrize("ds, limit", [
        ([1, 2, 3, 4, 10, 11], 10),
        ([1, 95, 96, 97, 9408, 9409], 9408),
        ([1, 2, 96, 97, 98, 5000, 9409, 9410], 9409),
        ([3, 5, 95, 97, 99, 101, 1881, 3001, 9409], 9409),
        ([5, 6], 4),
        ([], 10),
    ])
    @pytest.mark.parametrize("step", [1, 2])
    def test_multiples_yields_each_multiple_once(self, ds, limit, step):
        # step 2 takes the odd multipliers: each odd multiple of an odd d
        # once, and no even one
        ds = np.array(ds, dtype=np.int64)
        before = ds.copy()
        got = []
        for at, i in arith._multiples(ds, limit, step=step):
            pos = np.arange(limit + 1)[at]  # an index above limit raises here
            got += zip(pos.tolist(), np.broadcast_to(ds[i], pos.shape).tolist())
        want = [(m * d, d) for d in ds.tolist() for m in range(1, limit // d + 1, step)]
        assert sorted(got) == sorted(want)
        np.testing.assert_array_equal(ds, before)  # m = 1 hands out ds itself

    def test_limit_guards(self):
        with pytest.raises(CapacityError):
            sieve_range(1)
        with pytest.raises(CapacityError):
            sieve_range(10**9 + 1)

    def test_primes_up_to(self):
        assert list(primes_up_to(10)) == [2, 3, 5, 7]

    def test_primes_up_to_matches_trial_division(self):
        # every limit up to 200, so each odd square and both parities of
        # the limit meet the odd-only index arithmetic
        for n in range(201):
            want = [m for m in range(2, n + 1)
                    if all(m % d for d in range(2, math.isqrt(m) + 1))]
            got = primes_up_to(n)
            assert got.dtype == np.int64 and got.tolist() == want, n

    @pytest.mark.parametrize("j,count", [
        (1, 4), (2, 25), (3, 168), (4, 1229), (5, 9592), (6, 78498), (7, 664579)])
    def test_prime_counts_at_powers_of_ten(self, j, count):
        primes = primes_up_to(10**j)
        assert primes.dtype == np.int64 and primes.size == count
        assert primes[-1] <= 10**j


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

    def test_past_64_bits_refused(self):
        assert is_prime(2**64 - 59)  # the largest prime below 2^64
        for n in (2**64, 2**64 + 13, 2**65):
            with pytest.raises(CapacityError):
                is_prime(n)

    @given(n=st.integers(2, 10**4))
    @settings(max_examples=300)
    def test_agrees_with_sieve(self, tables_small, n):
        in_sieve = n in set(int(p) for p in tables_small.primes)
        assert is_prime(n) == in_sieve

    @given(st.integers(2, 10**6), st.integers(2, 10**6))
    @settings(max_examples=100)
    def test_products_are_composite(self, a, b):
        assert not is_prime(a * b)


def strong_base2(n: int) -> bool:
    """Python's strong base-2 test for odd n > 2, with n - 1 = d * 2^s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


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


# The strong Lucas pseudoprimes below 2 * 10^5 for Selfridge's parameters
# with every prime factor above 37 (OEIS A217255 without 155819 = 19*59*139).
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                             58519, 75077, 97439, 100127, 113573, 115639, 130139, 158399,
                             161027, 162133, 176399, 176471, 189419, 192509, 197801]


class TestPrimalityBatch:
    """The Baillie-PSW batch certifier against scalar is_prime, verdict for
    verdict."""

    def test_every_value_below_2e5(self):
        batch_equals_scalar(range(2 * 10**5))

    def test_empty_batch(self):
        assert is_prime_batch(np.array([], dtype=np.uint64)).tolist() == []

    def test_prescreen_survivors_of_k2_to_1e15(self):
        lo, hi = min_index(2), max_index(2, 10**15)
        # sieved to 10^4, not the walk's 10^5, to keep 7,871 survivors
        alive = np.flatnonzero(_alive(lo, hi, _prescreen(2, 10**4)))
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

    def test_base2_stage_below_2e5(self):
        # the base-2 stage alone, verdict for verdict; these Fermat base-2
        # pseudoprimes are not strong ones, and x = 1 read below b = s would
        # pass them
        n = [v for v in range(41, 2 * 10**5, 2) if all(v % p for p in arith._SMALL_PRIMES)]
        fermat = [5461, 31621, 49981, 65077, 83333]
        assert set(fermat) <= set(n) and all(pow(2, v - 1, v) == 1 for v in fermat)
        assert not any(strong_base2(v) for v in fermat)
        assert _strong_base2(np.array(n, dtype=np.uint64)).tolist() == [strong_base2(v) for v in n]

    def test_lucas_stage_below_2e5(self):
        # the Lucas stage alone passes the primes and exactly the listed
        # pseudoprimes, so its D choice and its chain are Selfridge's
        n = [v for v in range(41, 2 * 10**5, 2) if all(v % p for p in arith._SMALL_PRIMES)]
        passed = _strong_lucas(np.array(n, dtype=np.uint64))
        assert [v for v, ok in zip(n, passed) if ok and not is_prime(v)] == \
            STRONG_LUCAS_PSEUDOPRIMES
        assert all(ok for v, ok in zip(n, passed) if is_prime(v))

    def test_mersenne_forms(self):
        # n + 1 = 2^s leaves d = 1, so the Lucas verdict is read over nearly
        # the whole ladder; 3 * 2^s - 1 and, for the base-2 stage,
        # j * 2^s + 1 read it far down the ladder, in one batch with small s
        mersenne = [2**s - 1 for s in range(6, 65)]
        proth = [j * 2**s + 1 for j in range(1, 16, 2) for s in range(1, 61) if j * 2**s < 2**64]
        batch_equals_scalar(mersenne + [3 * 2**s - 1 for s in range(1, 63)] + proth)
        assert [s for s, v in enumerate(mersenne, 6) if is_prime(v)] == [7, 13, 17, 19, 31, 61]
        assert _strong_lucas(np.array([2**31 - 1, 2**61 - 1], dtype=np.uint64)).all()

    def test_div_small_matches_modular_inverse(self):
        # the Lucas parameter needs R / Q mod n, with R = 2^64
        rng = random.Random(19)
        ns = [rng.randrange(2**63, 2**64) | 1 for _ in range(2000)]
        ns += [rng.randrange(3, 2**40) | 1 for _ in range(200)]
        qs = [*range(-64, 0), *range(1, 65)]
        for q in qs:
            n = [v for v in ns if math.gcd(q, v) == 1]
            for c in ([2**64 % v for v in n], [1] * len(n)):
                got = _div_small(np.array(c, dtype=np.uint64), np.array(n, dtype=np.uint64),
                                 np.full(len(n), q))
                assert got.tolist() == [pow(q, -1, v) * x % v for v, x in zip(n, c)]
        # one batch mixing every q, as the Lucas test has it
        q = [rng.choice([q for q in qs if math.gcd(q, v) == 1]) for v in ns]
        c = [2**64 % v for v in ns]
        got = _div_small(np.array(c, dtype=np.uint64), np.array(ns, dtype=np.uint64), np.array(q))
        assert got.tolist() == [pow(a, -1, v) * x % v for v, a, x in zip(ns, q, c)]

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


R = 2**64


def montgomery_moduli(rng: random.Random, size: int) -> list[int]:
    """Odd moduli below and above 2^63, and the range's ends."""
    return ([rng.randrange(3, 2**63, 2) for _ in range(size)]
            + [rng.randrange(2**63 + 1, R, 2) for _ in range(size)] + [3, R - 1])


class TestMontgomery:
    """The certifier's in-place kernel against Python ints: mul and sqr give
    a b / 2^64 mod n, add and sub a + b and a - b mod n, whether out is an
    operand or not, and on two contexts that share one scratch."""

    OPS = {"mul": lambda a, b, n: a * b * pow(R, -1, n),
           "sqr": lambda a, b, n: a * a * pow(R, -1, n),
           "add": lambda a, b, n: a + b,
           "sub": lambda a, b, n: a - b}

    @classmethod
    def check(cls, mont, rng, op, out="new"):
        n = mont.n.tolist()
        a, b = ([rng.randrange(v) for v in n] for _ in range(2))
        x, y = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        target = {"new": np.empty_like(x), "a": x, "b": y}[out]
        if op == "sqr":
            mont.sqr(x, target)
        else:
            getattr(mont, op)(x, y, target)
        assert target.tolist() == [cls.OPS[op](p, q, v) % v for p, q, v in zip(a, b, n)]

    @pytest.mark.parametrize("op, out", [(op, out) for op in OPS for out in ("new", "a", "b")
                                         if not (op == "sqr" and out == "b")])
    def test_ops_match_python_ints(self, op, out):
        rng = random.Random(f"{op}-{out}")
        mont = arith._Montgomery(np.array(montgomery_moduli(rng, 500), dtype=np.uint64))
        assert mont.one.tolist() == [R % v for v in mont.n.tolist()]
        assert (mont.minus_one + mont.one == mont.n).all()
        self.check(mont, rng, op, out)

    def test_two_contexts_on_one_scratch(self):
        # as the base-2 and the Lucas stage of one batch: the second context
        # is shorter, and their ops interleave
        rng = random.Random(29)
        first = montgomery_moduli(rng, 300)
        scratch = np.empty((arith._ROWS, len(first)), dtype=np.uint64)
        base2 = arith._Montgomery(np.array(first, dtype=np.uint64), scratch)
        lucas = arith._Montgomery(np.array(montgomery_moduli(rng, 100), dtype=np.uint64), scratch)
        for op in self.OPS:
            for out in ("new", "a"):
                self.check(base2, rng, op, out)
                self.check(lucas, rng, op, out)


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

    @pytest.mark.parametrize("k", [3, 5, 7, 63])
    @pytest.mark.parametrize("n", [10**400 + 1, 2**5000 - 1, 3**3000],
                             ids=["10^400+1", "2^5000-1", "3^3000"])
    def test_beyond_float_range(self, n, k):
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k

    @given(st.integers(0, 2**5000), st.integers(3, 70))
    @settings(max_examples=300)
    def test_big_int_floor_property(self, n, k):
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k

    @pytest.mark.parametrize("k", [3, 5, 13, 63])
    def test_next_to_exact_powers(self, k):
        for b in (2, 3, 10**6 + 3, 2**40 + 1, 3**50):
            for n in (b**k - 1, b**k, b**k + 1):
                r = integer_root(n, k)
                assert r**k <= n < (r + 1) ** k, (b, n)


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
