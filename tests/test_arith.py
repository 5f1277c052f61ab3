import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicprimes import (
    CapacityError,
    DomainError,
    Polynomial,
    factorize,
    fixed_divisor,
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


class TestPolynomial:
    def test_cubic_constructor(self):
        f = Polynomial.cubic(2)
        assert f.coefficients == (2, 0, 0, 1)
        assert f.degree == 3
        assert f.pure_cubic_shift() == 2

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert Polynomial((0, 0)).coefficients == (0,)
        assert Polynomial(()).is_zero

    def test_str(self):
        assert str(Polynomial.cubic(2)) == "x^3 + 2"
        assert str(Polynomial((3, 2, 3, 1))) == "x^3 + 3*x^2 + 2*x + 3"
        assert str(Polynomial((0,))) == "0"

    def test_not_pure_cubic(self):
        assert Polynomial((2, 1, 0, 1)).pure_cubic_shift() is None
        assert Polynomial((2, 0, 0, 2)).pure_cubic_shift() is None

    @given(st.integers(-50, 50), st.integers(-10**6, 10**6))
    def test_call_matches_direct_evaluation(self, k, n):
        assert Polynomial.cubic(k)(n) == n**3 + k

    @given(
        st.lists(st.integers(-99, 99), min_size=1, max_size=5),
        st.integers(-10**4, 10**4),
        st.integers(2, 10**6),
    )
    def test_eval_mod_consistent(self, coeffs, n, m):
        f = Polynomial(tuple(coeffs))
        assert f.eval_mod(n, m) == f(n) % m


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


class TestFixedDivisor:
    def test_reference_values(self):
        assert fixed_divisor(Polynomial((2, 1, 1))) == 2
        assert fixed_divisor(Polynomial.cubic(2)) == 1
        assert fixed_divisor(Polynomial((3, 2, 3, 1))) == 3
        assert fixed_divisor(Polynomial((0, 1, 0, 1))) == 2

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=5), st.integers(-200, 200))
    @settings(max_examples=200)
    def test_divides_every_value(self, coeffs, n):
        f = Polynomial(tuple(coeffs))
        assume(f.degree >= 1)
        assert f(n) % fixed_divisor(f) == 0

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            fixed_divisor(Polynomial((5,)))


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
