import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicprimes import (
    DomainError,
    ResourceError,
    dset_density,
    enumerate_dset,
    in_dset,
    primes_up_to,
    rho_bruteforce,
)
from cubicprimes.residues import _rho_prime

SHIFTS = [2, -2, 7, 17, 54, 250, -128, 98, 242]  # 7^2 | 98 and 11^2 | 242 strike 7^3 and 11^3

MEMBERS_300 = enumerate_dset(2, 300).tolist()


def coprime_member_pairs():
    """Pairs of members <= 300 of the x^3 + 2 set that are coprime, drawn
    directly rather than filtered (1 is a member, so a partner exists)."""
    return st.sampled_from(MEMBERS_300).flatmap(lambda d1: st.tuples(
        st.just(d1),
        st.sampled_from([d for d in MEMBERS_300 if math.gcd(d, d1) == 1])))


class TestMembership:
    def test_one_is_always_a_member(self):
        assert in_dset(2, 1)

    def test_seven_excluded_by_prime_classification(self):
        assert not in_dset(2, 7)

    def test_nine_excluded_at_the_prime_square(self):
        # solvable mod 3 but not mod 9: membership is about the full
        # prime-power level, not the prime alone
        assert in_dset(2, 3)
        assert not in_dset(2, 9)

    def test_explicit_small_members_and_non_members(self):
        for d in (1, 2, 3, 5, 6, 10):
            assert in_dset(2, d)
        for d in (4, 7, 9):
            assert not in_dset(2, d)

    def test_lifted_prime_power_member(self):
        assert in_dset(2, 25)
        assert not in_dset(2, 8)

    def test_domain(self):
        with pytest.raises(DomainError):
            in_dset(2, 0)

    @given(d=st.integers(1, 4000))
    @settings(max_examples=250, deadline=None)
    def test_membership_is_solvability(self, d):
        assert in_dset(2, d) == (rho_bruteforce(2, d) >= 1)

    @given(pair=coprime_member_pairs())
    @settings(max_examples=200, deadline=None)
    def test_coprime_members_multiply(self, pair):
        d1, d2 = pair
        assert in_dset(2, d1) and in_dset(2, d2)
        assert in_dset(2, d1 * d2)


class TestEnumeration:
    def test_up_to_ten(self):
        assert enumerate_dset(2, 10).tolist() == [1, 2, 3, 5, 6, 10]

    def test_limit_one(self):
        assert enumerate_dset(2, 1).tolist() == [1]

    def test_up_to_31(self):
        members = set(enumerate_dset(2, 31))
        assert 31 in members
        assert members.isdisjoint({7, 13, 19})

    def test_matches_per_d_membership(self):
        members = set(enumerate_dset(2, 400))
        for d in range(1, 401):
            assert (d in members) == in_dset(2, d)

    @pytest.mark.parametrize("k", SHIFTS)
    def test_matches_membership_to_2e4(self, k):
        limit = 2 * 10**4
        assert enumerate_dset(k, limit).tolist() == [
            d for d in range(1, limit + 1) if in_dset(k, d)]

    @pytest.mark.parametrize("k", SHIFTS)
    def test_limits_around_a_rootless_prime_square(self, k):
        # a rootless p <= sqrt(limit) is struck by a strided slice, and
        # p > sqrt(limit) by the multiplier sweep; p^2 - 1, p^2 and p^2 + 1
        # put p on either side
        p = max(p for p in primes_up_to(130).tolist() if _rho_prime(k, p) == 0)
        assert p > 60
        members = [d for d in range(1, p * p + 2) if in_dset(k, d)]
        for limit in (p * p - 1, p * p, p * p + 1):
            assert enumerate_dset(k, limit).tolist() == [
                d for d in members if d <= limit], limit

    def test_budget_guards(self):
        with pytest.raises(ResourceError):
            enumerate_dset(2, 10**7 + 1)
        with pytest.raises(DomainError):
            enumerate_dset(2, 0)


class TestDensity:
    def test_ten(self):
        assert dset_density(2, [10]) == [(10, 6, 0.6)]

    def test_limit_one(self):
        assert dset_density(2, [1]) == [(1, 1, 1.0)]

    def test_ratios_strictly_decreasing_to_a_million(self):
        rows = dset_density(2, [10**3, 10**4, 10**5, 10**6])
        ratios = [r for _, _, r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            dset_density(2, [])
        with pytest.raises(DomainError):
            dset_density(2, [0, 200])
        with pytest.raises(DomainError):
            dset_density(2, [50, 20])
        with pytest.raises(ResourceError):
            dset_density(2, [50, 10**7 + 1])

    def test_counts_nondecreasing(self):
        rows = dset_density(2, [10, 100, 1000, 5000])
        counts = [c for _, c, _ in rows]
        assert counts == sorted(counts)

    def test_rows_count_the_enumeration(self):
        # one enumeration up to the last checkpoint serves every row,
        # repeated checkpoints included
        members = enumerate_dset(2, 5000).tolist()
        cps = [1, 9, 10, 10, 97, 5000]
        assert dset_density(2, cps) == [
            (x, sum(d <= x for d in members), sum(d <= x for d in members) / x) for x in cps]
