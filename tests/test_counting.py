import bisect
import errno
import json
import math
import os
import random
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicprimes import (
    CapacityError,
    DomainError,
    ResourceError,
    Weight,
    count_table,
    factorize,
    integer_root,
    is_prime,
    lambda_sum_rhs,
    max_index,
    min_index,
    prime_power_tail,
    primes_up_to,
    progression_weighted_sum,
    rho,
    roots_mod,
    sieve_range,
    singular_series,
    weighted_lambda_sum,
)
from cubicprimes import cli, counting, forked
from cubicprimes.arith import U64_MAX, _is_power
from cubicprimes.counting import (
    RHS_BUDGET,
    _ROOT_EXPONENTS,
    _SEGMENT,
    _alive,
    _prescreen,
    _prime_mask,
    _prime_power_base,
    _running_counts,
    _walk,
)
from cubicprimes.residues import _rho_prime

POWER1 = Weight("power", 1)


def enumerate_cubic_primes(k: int, n_max: int) -> list[tuple[int, int]]:
    """All (n, n^3 + k) with the value prime, for n from min_index(k) to
    n_max: the scalar reference route of the counts, which hands every value
    to scalar is_prime, without the walk's sieve or batch certifier."""
    out = []
    for n in range(min_index(k), n_max + 1):
        v = n * n * n + k
        if is_prime(v):
            out.append((n, v))
    return out


def observed(k: int, x: int) -> int:
    """count_table's count of the primes n^3 + k <= x, for x >= 8."""
    return count_table(k, [x], 100)[0].observed


@lru_cache(maxsize=None)
def factorized_hits(k: int, x: int) -> tuple[tuple[int, int, int], ...]:
    """(n, v, p) for every value v = n^3 + k in [2, x] that is a prime power
    p^e, read off the full factorization of v: the value route of the Lambda
    sums before the segmented walk, kept here as their reference."""
    out = []
    for n in range(min_index(k), max_index(k, x) + 1):
        v = n**3 + k
        if 2 <= v <= x:
            factors = factorize(v).factors
            if len(factors) == 1:
                out.append((n, v, factors[0][0]))
    return tuple(out)


def reference_weighted_sum(k: int, weight: Weight, x: int) -> tuple[float, float]:
    """(value, tail_value) summed over factorized_hits in ascending n."""
    total = tail = 0.0
    for n, v, p in factorized_hits(k, x):
        w = weight(n)
        if w == 0:
            continue
        term = w * math.log(p)
        total += term
        if p != v:
            tail += term
    return total, tail


def reference_tail(k: int, x: int) -> float:
    tail = 0.0
    for n, v, p in factorized_hits(k, x):
        if n >= 1 and p != v:
            tail += n * math.log(p)
    return tail


ENGINE_K = (2, -2, 54, -54, 250, -128, 7, 17)
ENGINE_X = (10**3, 10**6, 10**9)


class TestIndexRange:
    def test_min_index_examples(self):
        assert min_index(2) == 0
        assert min_index(1) == 1
        assert min_index(10) == -2
        assert min_index(-10) == 3

    def test_max_index_examples(self):
        assert max_index(2, 130) == 5
        assert max_index(2, 1) == -1
        assert max_index(2, 2) == 0
        assert max_index(1, 9) == 2

    @given(k=st.integers(-10**6, 10**6), x=st.integers(1, 10**12))
    @settings(max_examples=300)
    def test_boundaries_are_exact(self, k, x):
        lo, hi = min_index(k), max_index(k, x)
        assert lo**3 + k >= 2 > (lo - 1) ** 3 + k
        assert hi**3 + k <= x < (hi + 1) ** 3 + k

    @pytest.mark.parametrize("k", [2**63 + 1, -(2**63 + 1), 10**400 + 1, -(10**400 + 1)])
    def test_boundaries_are_exact_at_huge_shifts(self, k):
        lo = min_index(k)
        assert lo**3 + k >= 2 > (lo - 1) ** 3 + k
        c = integer_root(abs(k), 3)
        for n in (0, 1, -1, c, -c, c + 1, -c - 1, 2 * c, -2 * c):
            for x in (n**3 + k - 1, n**3 + k, n**3 + k + 1):
                hi = max_index(k, x)
                assert hi**3 + k <= x < (hi + 1) ** 3 + k
            assert max_index(k, n**3 + k) == n


class TestEnumerate:
    def test_first_four(self):
        assert enumerate_cubic_primes(2, 5) == [(0, 2), (1, 3), (3, 29), (5, 127)]

    def test_tiny(self):
        assert enumerate_cubic_primes(2, 2) == [(0, 2), (1, 3)]

    def test_shift_one(self):
        assert enumerate_cubic_primes(1, 1) == [(1, 2)]


class TestCount:
    def test_reference_130(self):
        assert observed(2, 130) == 4

    def test_empty_range(self):
        # the least value of n^3 - 17 that is at least 2 is 3^3 - 17 = 10
        assert observed(-17, 9) == 0

    def test_million(self):
        assert observed(2, 10**6) == 11

    def test_matches_enumeration_boundary(self):
        for n_max in (5, 20, 50):
            x = n_max**3 + 2
            assert observed(2, x) == len(enumerate_cubic_primes(2, n_max))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            count_table(2, [2**64], 100)

    @given(x=st.integers(8, 10**5))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing(self, x):
        assert observed(2, x) <= observed(2, x + 1000)

    def test_trillion_sampled_against_trial_division(self):
        pairs = enumerate_cubic_primes(2, 9999)
        assert len(pairs) == 521
        small = primes_up_to(10**6)
        rng = random.Random(0)
        for n, p in rng.sample(pairs, max(len(pairs) // 100, 5)):
            assert n**3 + 2 == p
            if p <= 10**6:
                assert p in small
            else:
                sieve = small[small * small <= p]
                assert not np.any(p % sieve == 0)


class TestSingularSeries:
    def test_empty_product(self):
        assert singular_series(2, 2) == 1.0

    def test_first_factor(self):
        assert singular_series(2, 7) == pytest.approx(7 / 6, rel=1e-15)

    def test_two_factors(self):
        assert singular_series(2, 13) == pytest.approx(91 / 72, rel=1e-15)

    def test_frozen_larger_cutoffs(self):
        assert singular_series(2, 10**4) == pytest.approx(1.29653009875726, rel=1e-13)
        assert singular_series(2, 10**5) == pytest.approx(1.2990621163906746, rel=1e-13)

    @pytest.mark.parametrize("k", [0, 1, -1, 8, -27, 1000, -(10**18)])
    def test_cube_shift_is_refused(self, k):
        with pytest.raises(DomainError):
            singular_series(k, 100)

    @pytest.mark.parametrize("k", [2, 54, -54, 250, -128, pytest.param(10**400 + 1, id="10^400+1")])
    def test_bit_equal_to_scalar_left_to_right_product(self, k):
        primes = primes_up_to(2 * 10**6).tolist()
        for cutoff in (0, 2, 13, 10**4, 10**6, 2 * 10**6):
            out = 1.0
            for p in primes:
                if p > cutoff:
                    break
                out *= 1 - (_rho_prime(k, p) - 1) / (p - 1)
            assert singular_series(k, cutoff) == out, cutoff

    def test_factors_only_at_one_mod_three(self):
        # primes 2, 3, 5 contribute nothing; the value is flat until p = 7
        assert singular_series(2, 6) == 1.0


class TestCountTable:
    def test_main_term_identity(self):
        records = count_table(2, [8, 1000, 10**9], 100)
        for r in records:
            expected = singular_series(2, 100) * float(r.x) ** (1 / 3) / math.log(r.x)
            assert r.predicted == pytest.approx(expected, rel=1e-12)

    def test_smallest_allowed(self):
        [record] = count_table(2, [8], 2)
        assert record.predicted == pytest.approx(2 / math.log(8), rel=1e-15)

    def test_below_eight_has_no_main_term(self):
        with pytest.raises(DomainError):
            count_table(2, [7], 100)

    def test_ratio_order_of_magnitude(self):
        [record] = count_table(2, [10**6], 10**4)
        assert record.observed == len(enumerate_cubic_primes(2, max_index(2, 10**6)))
        assert 0.5 <= record.ratio <= 2.0

    def test_single_checkpoint(self):
        records = count_table(2, [130], 100)
        assert len(records) == 1
        assert records[0].observed == 4
        predicted = singular_series(2, 100) * 130 ** (1 / 3) / math.log(130)
        assert records[0].ratio == pytest.approx(4 / predicted, rel=1e-12)

    def test_empty(self):
        assert count_table(2, [], 100) == []

    def test_validation(self):
        with pytest.raises(DomainError):
            count_table(2, [100, 50], 100)
        with pytest.raises(DomainError):
            count_table(2, [4], 100)

    REFERENCE = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json")
                           .read_text(encoding="utf-8"))["count"]

    @pytest.mark.parametrize("k, x", [(2, 10**15), (54, 10**15), (-54, 10**15),
                                      (250, 10**15), (-128, 10**15), (2, 10**18)])
    def test_counts_match_the_benchmark_reference(self, k, x):
        # perfbench/reference.json is computed apart from the package
        [record] = count_table(k, [x], 100)
        assert record.observed == self.REFERENCE[str(k)][str(x)]

    def test_last_window_below_2_64_equals_scalar_is_prime(self):
        # the split walk to 2^64 - 1 against 7-base Miller-Rabin on each of
        # the last 65,536 values, with no sieve and no batch certifier
        hi, window = max_index(2, U64_MAX), 65_536
        below, top = _running_counts(2, [hi - window, hi])
        scalar = sum(is_prime(n**3 + 2) for n in range(hi - window + 1, hi + 1))
        assert top - below == scalar == 1871

    def test_single_pass_matches_individual_counts(self):
        records = count_table(2, [10**3, 10**5, 10**6], 100)
        assert [r.observed for r in records] == [
            observed(2, 10**3), observed(2, 10**5), observed(2, 10**6)]


class TestWeightedLambdaSum:
    def test_power_one_reference(self):
        rec = weighted_lambda_sum(2, POWER1, 130)
        expected = math.log(3) + 3 * math.log(29) + 5 * math.log(127)
        assert rec.value == pytest.approx(expected, rel=1e-14)
        assert rec.tail_value == 0.0

    def test_weight_annihilates_single_term(self):
        assert weighted_lambda_sum(2, POWER1, 2).value == 0.0

    def test_tau_reference(self):
        rec = weighted_lambda_sum(2, Weight("tau"), 130)
        expected = math.log(3) + 2 * math.log(29) + 2 * math.log(127)
        assert rec.value == pytest.approx(expected, rel=1e-14)

    def test_totient_reference(self):
        rec = weighted_lambda_sum(2, Weight("totient"), 130)
        expected = math.log(3) + 2 * math.log(29) + 4 * math.log(127)
        assert rec.value == pytest.approx(expected, rel=1e-14)

    def test_sigma_reference(self):
        rec = weighted_lambda_sum(2, Weight("sigma"), 130)
        expected = math.log(3) + 4 * math.log(29) + 6 * math.log(127)
        assert rec.value == pytest.approx(expected, rel=1e-14)

    def test_negative_indices_contribute_signed_terms(self):
        rec = weighted_lambda_sum(10, POWER1, 30)
        expected = math.log(11) - 2 * math.log(2) - math.log(3)
        assert rec.value == pytest.approx(expected, rel=1e-13)

    def test_arithmetic_weights_skip_nonpositive_indices(self):
        rec = weighted_lambda_sum(10, Weight("tau"), 30)
        assert rec.value == pytest.approx(math.log(11), rel=1e-14)

    def test_count_weight_includes_index_zero(self):
        rec = weighted_lambda_sum(2, Weight("power", 0), 130)
        expected = math.log(2) + math.log(3) + math.log(29) + math.log(127)
        assert rec.value == pytest.approx(expected, rel=1e-13)

    def test_tail_is_collected(self):
        # prime-power values of n^3 + 17 up to 600: 16 = 2^4 at n = -1,
        # 9 = 3^2 at n = -2, 25 at n = 2, 81 at n = 4, 529 at n = 8
        rec = weighted_lambda_sum(17, POWER1, 600)
        expected_tail = (-math.log(2) - 2 * math.log(3) + 2 * math.log(5)
                         + 4 * math.log(3) + 8 * math.log(23))
        assert rec.tail_value == pytest.approx(expected_tail, rel=1e-13)
        # the only prime value with nonzero weight in range is 233 at n = 6
        assert rec.value == pytest.approx(
            expected_tail + 6 * math.log(233), rel=1e-13)

    def test_weight_past_float_range(self):
        # n = 10^334 gives 2^2; the CLI edge argvs cover the power weights
        with pytest.raises(CapacityError):
            weighted_lambda_sum(4 - 10**1002, Weight("totient"), 1000)

    def test_validation(self):
        with pytest.raises(DomainError):
            weighted_lambda_sum(2, POWER1, 0)
        with pytest.raises(DomainError):
            Weight("power", -1)
        with pytest.raises(DomainError):
            Weight("logarithm")
        with pytest.raises(DomainError):
            Weight("tau", 5)


class TestLambdaSumRhs:
    def test_matches_lhs_at_130(self):
        lhs = weighted_lambda_sum(2, POWER1, 130).value
        assert lambda_sum_rhs(2, 130) == pytest.approx(lhs, rel=1e-9)

    def test_tiny_range(self):
        lhs = weighted_lambda_sum(2, POWER1, 2).value
        assert lambda_sum_rhs(2, 2) == pytest.approx(lhs, abs=1e-12)

    def test_budget(self):
        with pytest.raises(ResourceError):
            lambda_sum_rhs(2, RHS_BUDGET + 1)

    @pytest.mark.parametrize("x,expected", [
        (3 * 10**4, "0x1.4860e8ae8ed3ep+8"), (10**5, "0x1.a523b56d4199bp+9")])
    def test_pinned_values(self, x, expected):
        assert lambda_sum_rhs(2, x).hex() == expected

    def test_no_roots_mod_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(counting, "roots_mod",
                            lambda *a: calls.append(a) or roots_mod(*a))
        lambda_sum_rhs(54, 10**4)
        assert calls == []

    def test_weight_past_float_range(self):
        with pytest.raises(CapacityError):
            lambda_sum_rhs(4 - 10**1002, 1000)

    def test_other_shift(self):
        lhs = weighted_lambda_sum(5, POWER1, 3000).value
        assert lambda_sum_rhs(5, 3000) == pytest.approx(lhs, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 54, -2])
    def test_crt_roots_equal_scan_per_divisor(self, k):
        # mu from the sieve, and the n with d | n^3 + k from a root scan mod every d
        x = 3000
        lo, hi = min_index(k) - 1, max_index(k, x)
        mu = sieve_range(x).mu
        total = 0.0
        for d in range(2, x + 1):
            if mu[d]:
                roots = roots_mod(k, d)
                s = sum(n for n in range(lo, hi + 1) if n % d in roots)
                if s:
                    total += int(mu[d]) * math.log(d) * s
        assert lambda_sum_rhs(k, x) == -total


class TestProgressionSum:
    def test_reference_q5(self):
        ps = progression_weighted_sum(5, -2, 20)
        assert ps.roots == (2,)
        assert ps.exact == 38
        assert ps.closed_form == 38
        assert ps.leading == pytest.approx(40.0, rel=1e-15)

    def test_unsolvable_modulus(self):
        ps = progression_weighted_sum(7, -2, 100)
        assert ps.roots == ()
        assert ps.exact == 0 and ps.closed_form == 0 and ps.leading == 0.0

    def test_reference_q31(self):
        ps = progression_weighted_sum(31, -2, 100)
        assert set(ps.roots) == {11, 24, 27}
        assert ps.exact == 465
        assert ps.closed_form == 465
        assert ps.leading == pytest.approx(3 * 10**4 / 62, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            progression_weighted_sum(0, -2, 10)
        with pytest.raises(DomainError):
            progression_weighted_sum(5, -2, 0)

    @given(q=st.integers(1, 400), x=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_exact_equals_closed_form(self, q, x):
        ps = progression_weighted_sum(q, -2, x)
        direct = sum(n for n in range(1, x + 1) if (n**3 + 2) % q == 0)
        assert ps.exact == direct
        assert ps.closed_form == direct

    @given(q=st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_root_count_matches_rho_on_squarefree(self, q):
        assume(factorize(q).is_squarefree)
        ps = progression_weighted_sum(q, -2, 10)
        assert len(ps.roots) == rho(2, q)


class TestPrimePowerTail:
    def test_no_tail_below_130(self):
        tail, bound = prime_power_tail(2, [130])[0]
        assert tail == 0.0
        assert bound == pytest.approx(math.sqrt(130) * math.log(130) ** 2, rel=1e-15)

    def test_square_at_nine(self):
        tail, _ = prime_power_tail(1, [9])[0]
        assert tail == pytest.approx(2 * math.log(3), rel=1e-15)

    def test_empty_range(self):
        assert prime_power_tail(2, [1])[0] == (0.0, 0.0)

    def test_three_prime_powers_for_shift_17(self):
        tail, bound = prime_power_tail(17, [600])[0]
        expected = 2 * math.log(5) + 4 * math.log(3) + 8 * math.log(23)
        assert tail == pytest.approx(expected, rel=1e-13)
        assert tail <= bound

    def test_matches_weighted_tail_when_no_negative_indices(self):
        for k in (1, 2):
            tail, _ = prime_power_tail(k, [10**4])[0]
            rec = weighted_lambda_sum(k, POWER1, 10**4)
            assert tail == pytest.approx(rec.tail_value, rel=1e-13, abs=1e-13)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            prime_power_tail(2, [2**64])


class TestSegmentedWalk:
    """The walk's Lambda sums and tails against the factorize-based value
    route, float for float."""

    @pytest.mark.parametrize("k", ENGINE_K)
    @pytest.mark.parametrize(
        "weight", [POWER1, Weight("totient"), Weight("sigma"), Weight("tau")], ids=str)
    def test_weighted_sum_equals_factorized_route(self, k, weight):
        for x in ENGINE_X:
            rec = weighted_lambda_sum(k, weight, x)
            assert (rec.value, rec.tail_value) == reference_weighted_sum(k, weight, x)

    @pytest.mark.parametrize("k", ENGINE_K)
    def test_tails_equal_factorized_route(self, k):
        expected = [reference_tail(k, x) for x in ENGINE_X]
        assert [t for t, _ in prime_power_tail(k, list(ENGINE_X))] == expected
        assert [prime_power_tail(k, [x])[0][0] for x in ENGINE_X] == expected

    @given(k=st.integers(-10**4, 10**4), x=st.integers(1, 10**7))
    @settings(max_examples=60, deadline=None)
    def test_random_shift_equals_factorized_route(self, k, x):
        rec = weighted_lambda_sum(k, POWER1, x)
        assert (rec.value, rec.tail_value) == reference_weighted_sum(k, POWER1, x)
        assert prime_power_tail(k, [x])[0][0] == reference_tail(k, x)

    @pytest.mark.parametrize("k", [2, -2, 54, 250, -128, 2**62 + 1])
    def test_alive_matches_its_definition(self, k):
        # n is struck iff v = n^3 + k is above the sieve bound and a sieve
        # prime divides v; for k = 54 that strikes n = 10 (v = 1054 = 2 * 17
        # * 31) but neither n = -3 (v = 27) nor n = 9 (v = 783 = 27 * 29)
        primes = primes_up_to(1000).tolist()
        prescreen = _prescreen(k, 1000)
        for lo, hi in ((-60, 60), (min_index(k) - 20, min_index(k) + 300)):
            alive = _alive(lo, hi, prescreen)
            for n in range(lo, hi + 1):
                v = n**3 + k
                struck = v > 1000 and any(v % p == 0 for p in primes)
                assert alive[n - lo] == (not struck), n

    @pytest.mark.parametrize("k", [2, -2, 54, 7 - 10**399], ids=["2", "-2", "54", "7-10^399"])
    def test_alive_at_the_walks_deepest_bound(self, k):
        # every prime below 10^5 sieves: the first window holds values below
        # 2 and values up to the bound, none of them struck, the second only
        # values above 10^5; for 7 - 10^399 the index passes 10^133. Each n
        # also ends a window of its own, where the strike has to stop.
        primes = primes_up_to(10**5).tolist()
        prescreen = _prescreen(k, 10**5)
        first = min_index(k)
        for lo, hi in ((first - 5, first + 50), (first + 10**6, first + 10**6 + 50)):
            alive = _alive(lo, hi, prescreen)
            for n in range(lo, hi + 1):
                v = n**3 + k
                struck = v > 10**5 and any(v % p == 0 for p in primes)
                assert alive[n - lo] == _alive(lo, n, prescreen)[-1] == (not struck), n

    def test_power_of_a_prescreen_prime_is_found(self):
        # 7^3 - 54 = 17^2 lies above the bound 100: the progression sieve
        # strikes n = 7 (17 divides 289), so only the power test can hand
        # this value on. Both walks below sieve with the primes up to 100
        # or 1000, and it is the one prime power of the shift up to 10^14.
        assert not _alive(7, 7, _prescreen(-54, 100))[0]
        rec = weighted_lambda_sum(-54, POWER1, 10**9)
        assert rec.tail_value == 7 * math.log(17)
        assert prime_power_tail(-54, [10**14])[0][0] == 7 * math.log(17)

    def test_is_power_is_exact(self):
        for q in _ROOT_EXPONENTS:
            powers = [b**q for b in range(2, 201) if b**q <= U64_MAX]
            top = integer_root(U64_MAX, q) ** q
            v = np.array(powers + [top], dtype=np.uint64)
            assert _is_power(v, q).all(), q
            assert not _is_power(v - np.uint64(1), q).any(), q
            assert not _is_power(v + np.uint64(1), q).any(), q
            assert not _is_power(np.array([U64_MAX], dtype=np.uint64), q)[0], q

    # every walk below is WALK + 1 indices long, more than one segment
    WALK = _SEGMENT + 4_464

    @pytest.mark.parametrize("k, lo, bounds", [
        (2, 2**21 - WALK // 2, [2**21 + WALK // 2]),  # values cross 2^63
        (2, max_index(2, 2**64 - 1) - WALK, [max_index(2, 2**64 - 1)]),
        (-128, 10**6, [10**6 + WALK]),
        (2**62 + 1, -10**6, [-10**6 + WALK]),  # n < 0: uint64 values from negative n
        # a bound below the walk, then one below, at and above the last
        # index of its first segment
        (-128, 10**6, [10**6 - 1, *(10**6 + _SEGMENT - 1 + d for d in (-1, 0, 1)),
                       10**6 + WALK]),
    ], ids=lambda v: "_".join(map(str, v)) if isinstance(v, list) else None)
    def test_walk_hits_equal_scalar_loop(self, k, lo, bounds):
        # more than one segment; primes by the batch certifier; each hit
        # carries the position of the first bound >= n
        expected = []
        for n in range(lo, bounds[-1] + 1):
            v = n**3 + k
            i = bisect.bisect_left(bounds, n)
            if is_prime(v):
                expected.append((i, n, v, v))
            elif v >= 4 and (p := _prime_power_base(v)) is not None:
                expected.append((i, n, v, p))
        assert list(_walk(k, lo, bounds)) == expected
        assert len(expected) > 1000

    def test_tails_need_ascending_checkpoints(self):
        assert prime_power_tail(2, []) == []
        assert prime_power_tail(2, [0, 130]) == [(0.0, 0.0), prime_power_tail(2, [130])[0]]
        with pytest.raises(DomainError):
            prime_power_tail(2, [10**6, 10**3])
        with pytest.raises(CapacityError):
            prime_power_tail(2, [10, 2**64])


@pytest.mark.parametrize("bound", [10**5, 10**7])
@pytest.mark.parametrize("k", [2, -17, 250])
def test_prescreen_top_matches_its_definition(k, bound):
    # the first n whose value n^3 + k is above the sieve bound
    top = _prescreen.__wrapped__(k, bound).top
    assert (top - 1) ** 3 + k <= bound < top**3 + k
    assert top > min_index(k)


@pytest.mark.parametrize("bound", [100, 10**3, 10**5])
@pytest.mark.parametrize("k", [2, -17, 54, 250])
def test_prime_mask_from_the_first_index_equals_scalar_is_prime(k, bound):
    # the values up to the sieve bound, sieve primes among them, go unstruck
    # to the batch certifier; the values above it are sieved
    lo = min_index(k)
    mask = _prime_mask(k, lo, lo + 199, _prescreen(k, bound))
    assert mask.tolist() == [is_prime(n**3 + k) for n in range(lo, lo + 200)]


def edge_checkpoints(k: int) -> list[int]:
    """Checkpoints whose index bounds sit just below, at and just above the
    walk's first segment edge and the edge three segments on, then end 100
    indices into a fifth segment: 9 spans, some of one index."""
    first = min_index(k)
    edges = (first + _SEGMENT, first + 3 * _SEGMENT)
    ns = [e + d for e in edges for d in (-1, 0, 1)] + [first + 4 * _SEGMENT + 99]
    return [n**3 + k for n in ns]


class TestSplitWalk:
    """The count walk split across forked processes: the same counts for
    every worker count, every child reaped, and failures raised."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked while the test runs."""
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @staticmethod
    def force_workers(monkeypatch, workers: int) -> None:
        monkeypatch.setattr(forked, "cpus", lambda: workers)

    @pytest.mark.parametrize("k", [2, -17, 250])
    def test_worker_counts_give_equal_records(self, k, monkeypatch, forks):
        checkpoints = edge_checkpoints(k)
        pid = os.getpid()
        tables = []
        for workers in (1, 2, 3):
            self.force_workers(monkeypatch, workers)
            stats = {}
            tables.append(count_table(k, checkpoints, 100, stats))
            assert stats == {"workers": workers, "segments": 9}
        assert tables[0] == tables[1] == tables[2]
        assert [r.observed for r in tables[0]] == [observed(k, x) for x in checkpoints]
        assert os.getpid() == pid
        assert len(forks) >= 3  # 1 + 2 for the walks, more for some single counts
        for child in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(child, os.WNOHANG)

    def test_one_span_never_forks(self, monkeypatch, forks):
        self.force_workers(monkeypatch, 2)
        stats = {}
        count_table(2, [10**14], 100, stats)
        assert (stats, forks) == ({"workers": 1, "segments": 1}, [])

    def test_short_walk_never_forks(self, monkeypatch, forks):
        # three spans, 10,000 indices in all: less than one segment of work
        self.force_workers(monkeypatch, 2)
        stats = {}
        count_table(2, [10**6, 10**9, 10**12], 100, stats)
        assert (stats, forks) == ({"workers": 1, "segments": 3}, [])

    def test_two_segments_of_indices_fork_once(self, monkeypatch, forks):
        self.force_workers(monkeypatch, 3)
        stats = {}
        n = min_index(2) + 2 * _SEGMENT - 1  # the last index of the second span
        count_table(2, [n**3 + 2], 100, stats)
        assert stats == {"workers": 2, "segments": 2} and len(forks) == 1

    def test_failed_fork_counts_here(self, monkeypatch):
        checkpoints = edge_checkpoints(2)
        expected = count_table(2, checkpoints, 100)

        def no_fork():
            raise OSError(errno.EAGAIN, "fork refused")

        self.force_workers(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        stats = {}
        assert count_table(2, checkpoints, 100, stats) == expected
        assert stats["workers"] == 1

    @staticmethod
    def fail_in_children(monkeypatch) -> None:
        parent, prime_mask = os.getpid(), counting._prime_mask

        def failing(*args):
            if os.getpid() != parent:
                raise MemoryError("segment lost")
            return prime_mask(*args)

        monkeypatch.setattr(counting, "_prime_mask", failing)

    def test_failing_child_raises_resource_error(self, monkeypatch, forks):
        self.force_workers(monkeypatch, 3)
        self.fail_in_children(monkeypatch)
        with pytest.raises(ResourceError):
            count_table(2, edge_checkpoints(2), 100)
        assert len(forks) == 2
        for child in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(child, os.WNOHANG)

    def test_failing_parent_stops_every_child(self, monkeypatch, forks):
        # two children with 3 s of work each; the parent fails on its first
        # item, closes both pipes, and each child stops at its next write
        self.force_workers(monkeypatch, 3)
        parent = os.getpid()

        def count(item):
            if os.getpid() == parent:
                raise MemoryError("share lost")
            time.sleep(0.01)
            return item

        start = time.monotonic()
        with pytest.raises(MemoryError):
            forked.split_counts(count, list(range(900)), lambda _: 1, 1)
        assert time.monotonic() - start < 1.5
        assert len(forks) == 2
        for child in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(child, os.WNOHANG)

    def test_failing_child_exits_three_without_traceback(self, monkeypatch, capfd):
        self.force_workers(monkeypatch, 2)
        self.fail_in_children(monkeypatch)
        # 10^6 indices: more than one segment, so the walk forks
        assert cli.run(["count", "--k", "2", "--x", str(10**18)]) == 3
        err = capfd.readouterr().err
        assert err.startswith("error: a count worker")
        assert "Traceback" not in err
