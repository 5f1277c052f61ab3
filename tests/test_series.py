import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicprimes import (
    CapacityError,
    DomainError,
    QuadraticForm,
    ResourceError,
    dirichlet_partial_sum,
    enumerate_dset,
    epstein_mu_sum,
    epstein_r,
    epstein_zeta_partial,
    in_dset,
    representation_counts,
    sieve_range,
)
from cubicprimes.series import _lattice_row, _ymax
from cubicprimes.verify import _form_values

SQUARES = QuadraticForm(1, 0, 1)
RESIDUE = QuadraticForm(1, 0, 27)
NONRESIDUE = QuadraticForm(4, 2, 7)


def _peak_bytes(fn) -> int:
    """tracemalloc peak of one call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDirichletPartialSum:
    def test_single_term_is_zero(self):
        rec = dirichlet_partial_sum(2, 1.0, [1])[0]
        assert rec.value == 0.0
        assert rec.terms_used == 1

    def test_two_terms(self):
        rec = dirichlet_partial_sum(2, 1.0, [2])[0]
        assert rec.value == pytest.approx(-math.log(2) / 2, rel=1e-15)

    def test_ten_terms_hand_value(self):
        rec = dirichlet_partial_sum(2, 1.0, [10])[0]
        expected = (-math.log(2) / 2 - math.log(3) / 3 - math.log(5) / 5
                    + math.log(6) / 6 + math.log(10) / 10)
        assert rec.value == pytest.approx(expected, rel=1e-14)
        assert rec.value == pytest.approx(-0.5057801814854156, rel=1e-13)

    def test_checkpoint_prefix_property(self):
        full = dirichlet_partial_sum(2, 1.0, [10, 100, 10**4])
        for rec in full:
            alone = dirichlet_partial_sum(2, 1.0, [rec.x])[0]
            assert alone.value == rec.value
            assert alone.terms_used == rec.terms_used

    def test_terms_are_the_solvable_squarefree_moduli(self, tables_small):
        # each solvable modulus n <= x carries its own sieved mu(n); here
        # membership is decided one n at a time by in_dset
        x = 10**4
        members = [n for n in range(1, x + 1) if tables_small.mu[n] != 0 and in_dset(2, n)]
        rec = dirichlet_partial_sum(2, 1.0, [x])[0]
        assert rec.terms_used == len(members)
        expected = math.fsum(int(tables_small.mu[n]) * math.log(n) / n for n in members)
        assert rec.value == pytest.approx(expected, rel=1e-12)

    def test_higher_s_shrinks_terms(self):
        v1 = abs(dirichlet_partial_sum(2, 1.0, [1000])[0].value)
        v2 = abs(dirichlet_partial_sum(2, 2.0, [1000])[0].value)
        assert v2 < v1

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_refused(self, s):
        with pytest.raises(DomainError):
            dirichlet_partial_sum(2, s, [100])
        with pytest.raises(DomainError):
            epstein_zeta_partial(RESIDUE, s, 100)
        with pytest.raises(DomainError):
            epstein_mu_sum(RESIDUE, s, 100)

    @pytest.mark.parametrize("k", [2, -128])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0, 400.0])
    def test_bit_equal_to_term_expression(self, k, s):
        # the in-place terms against mu * log(n) / n^s as one expression;
        # compared by hex so that -0.0 != +0.0 (at s = 400, n^s overflows)
        x = 10**5
        members = enumerate_dset(k, x)
        mu = sieve_range(x).mu[members]
        members, mu = members[mu != 0], mu[mu != 0].astype(np.float64)
        vals = members.astype(np.float64)
        with np.errstate(over="ignore"):
            running = np.cumsum(mu * np.log(vals) / vals**s)
        cps = [1, 10, 97, 1000, 12345, x]
        got = dirichlet_partial_sum(k, s, cps)
        for rec in got:
            idx = int(np.searchsorted(members, rec.x, side="right"))
            assert rec.value.hex() == float(running[idx - 1]).hex()

    def test_byte_budget(self):
        # the sieve, the member list and two float buffers (log terms and
        # n^s); a third float buffer, or a float mu, breaks the bound
        assert _peak_bytes(lambda: dirichlet_partial_sum(2, 1.0, [10**6])) <= 8_000_000

    def test_validation(self):
        with pytest.raises(DomainError):
            dirichlet_partial_sum(2, 0.5, [100])
        with pytest.raises(DomainError):
            dirichlet_partial_sum(2, 1.0, [0])
        with pytest.raises(DomainError):
            dirichlet_partial_sum(2, 1.0, [50, 20])
        with pytest.raises(DomainError):
            dirichlet_partial_sum(2, 1.0, [])
        with pytest.raises(ResourceError):
            dirichlet_partial_sum(2, 1.0, [100, 10**7 + 1])


class TestEpsteinR:
    def test_four_units_for_square_form(self):
        assert epstein_r(SQUARES, 1) == 4

    def test_residue_form_28(self):
        assert epstein_r(RESIDUE, 28) == 4

    def test_residue_form_gaps(self):
        assert epstein_r(RESIDUE, 5) == 0
        assert epstein_r(RESIDUE, 1) == 2

    def test_nonresidue_form_minimum(self):
        assert epstein_r(NONRESIDUE, 3) == 0
        assert epstein_r(NONRESIDUE, 4) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            epstein_r(SQUARES, 0)

    @given(n=st.integers(1, 300),
           form=st.sampled_from((SQUARES, RESIDUE, NONRESIDUE)))
    @settings(max_examples=200)
    def test_agrees_with_direct_lattice_count(self, n, form):
        u, v = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1))
        direct = int(np.count_nonzero(form(u, v) == n))
        assert epstein_r(form, n) == direct


class TestEpsteinZetaPartial:
    def test_single_shell(self):
        assert epstein_zeta_partial(SQUARES, 2.0, 1) == pytest.approx(4.0, rel=1e-15)

    def test_frozen_reference_values(self):
        assert epstein_zeta_partial(SQUARES, 2.0, 10**4) == pytest.approx(
            6.0264978905395274, rel=1e-12)
        assert epstein_zeta_partial(SQUARES, 1.5, 10**4) == pytest.approx(
            8.970790856821928, rel=1e-12)
        assert epstein_zeta_partial(RESIDUE, 1.5, 10**4) == pytest.approx(
            2.6357245235045754, rel=1e-12)
        assert epstein_zeta_partial(RESIDUE, 2.0, 10**4) == pytest.approx(
            2.191503255508531, rel=1e-12)
        assert epstein_zeta_partial(NONRESIDUE, 1.5, 10**4) == pytest.approx(
            0.7758068488620665, rel=1e-12)
        assert epstein_zeta_partial(NONRESIDUE, 2.0, 10**4) == pytest.approx(
            0.2428982751869335, rel=1e-12)

    def test_empty_when_nothing_represented(self):
        assert epstein_zeta_partial(NONRESIDUE, 2.0, 3) == 0.0

    def test_validation_and_budget(self):
        with pytest.raises(DomainError):
            epstein_zeta_partial(SQUARES, 1.0, 100)
        with pytest.raises(DomainError):
            epstein_zeta_partial(SQUARES, 2.0, 0)
        with pytest.raises(ResourceError):
            epstein_zeta_partial(SQUARES, 2.0, 10**7 + 1)

    @pytest.mark.parametrize("form", [QuadraticForm(2**62, 1, 1), QuadraticForm(2**60, 1, 1),
                                      QuadraticForm(1, 2000000, 10**12 + 1)])
    def test_large_coefficients_match_the_per_n_route_or_refuse(self, form):
        # at u = +-2 the row value 2^62 u^2 is 2^64, which int64 would wrap
        # to 0; 2^60 u^2 = 2^62 fits. A sweep either sums the exact values
        # or refuses before it forms a row
        per_n = sum(epstein_r(form, n) / n**2 for n in range(1, 101))
        try:
            value = epstein_zeta_partial(form, 2.0, 100)
        except CapacityError:
            assert form.a == 2**62
            for sweep in (lambda: representation_counts(form, 100),
                          lambda: epstein_mu_sum(form, 1.0, 100),
                          lambda: _form_values(form, 100)):
                with pytest.raises(CapacityError):
                    sweep()
        else:
            assert form.a != 2**62
            assert value == pytest.approx(per_n, rel=1e-12)

    @given(n_max=st.integers(1, 400),
           form=st.sampled_from((SQUARES, RESIDUE, NONRESIDUE)),
           s=st.sampled_from((1.5, 2.0, 3.0)))
    @settings(max_examples=80, deadline=None)
    def test_lattice_sum_matches_per_n_route(self, n_max, form, s):
        per_n = sum(epstein_r(form, n) / n**s for n in range(1, n_max + 1))
        assert epstein_zeta_partial(form, s, n_max) == pytest.approx(
            per_n, rel=1e-12, abs=1e-12)


class TestRepresentationCounts:
    def test_matches_per_n_oracle(self):
        for form in (SQUARES, RESIDUE, NONRESIDUE):
            counts = representation_counts(form, 200)
            assert counts.dtype == np.int16
            assert counts[0] == 0
            for n in range(1, 201):
                assert counts[n] == epstein_r(form, n)

    # forms with b != 0, whose rows are not symmetric in u, so that the
    # half-plane sweep's doubled rows y > 0 stand in for rows -y
    @pytest.mark.parametrize("form", [QuadraticForm(2, 1, 3), NONRESIDUE,
                                      QuadraticForm(3, 2, 5)])
    def test_half_plane_matches_per_n_oracle_with_b(self, form):
        counts = representation_counts(form, 300)
        assert counts[1:].tolist() == [epstein_r(form, n) for n in range(1, 301)]

    @pytest.mark.parametrize("form", [RESIDUE, NONRESIDUE, QuadraticForm(2, 1, 3)])
    @pytest.mark.parametrize("n_max", [9999, 10000])
    def test_form_values_match_the_full_sweep(self, form, n_max):
        ymax = _ymax(form, n_max)
        want = np.zeros(n_max + 1, dtype=bool)
        for y in range(-ymax, ymax + 1):
            want[_lattice_row(form, n_max, y)] = True
        np.testing.assert_array_equal(_form_values(form, n_max), want)

    def test_wide_row_bound_takes_int32(self):
        # (10001, 200, 1) has discriminant -4, so it is u^2 + v^2 in other
        # coordinates; its sweep has 2 * 10000 + 1 rows at 10^4, so its
        # bound 4 ymax + 2 = 40,002 passes int16
        wide = representation_counts(QuadraticForm(10001, 200, 1), 10**4)
        assert wide.dtype == np.int32
        np.testing.assert_array_equal(wide, representation_counts(SQUARES, 10**4))

    def test_byte_budget(self):
        # 2 B per entry at 10^6 plus the sweep's rows; int32 counts alone
        # would take 4 MB
        assert _peak_bytes(lambda: representation_counts(RESIDUE, 10**6)) <= 2_500_000


class TestEpsteinMuSumNonzeroTerms:
    """The nonzero-term sum against a cumulative sum over every n."""

    @staticmethod
    def check(form, s, n_max):
        # compared by hex so that -0.0 != +0.0: at s = 400, n^s overflows
        # from n = 6 on and every later term is a signed zero
        mu = sieve_range(max(n_max, 2)).mu[: n_max + 1].astype(np.float64)
        ns = np.arange(n_max + 1, dtype=np.float64)
        ns[0] = 1.0
        with np.errstate(over="ignore"):
            terms = mu * representation_counts(form, n_max) / ns**s
        expected = float(np.cumsum(terms[1:])[-1])
        assert epstein_mu_sum(form, s, n_max).hex() == expected.hex()

    @pytest.mark.parametrize("form", [RESIDUE, NONRESIDUE])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 400.0])
    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 10, 97, 10**4, 10**5])
    def test_mu_sum_bit_equal_to_full_length_cumsum(self, form, s, n_max):
        self.check(form, s, n_max)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 400.0])
    def test_int32_counts(self, s):
        # (10001, 200, 1) sweeps 2 * 10000 + 1 rows at 10^4, past the int16
        # row bound, so the signs go onto int32 counts
        self.check(QuadraticForm(10001, 200, 1), s, 10**4)


class TestEpsteinMuSum:
    def test_single_term(self):
        assert epstein_mu_sum(RESIDUE, 2.0, 1) == pytest.approx(2.0, rel=1e-15)

    def test_two_terms(self):
        assert epstein_mu_sum(SQUARES, 2.0, 2) == pytest.approx(3.0, rel=1e-15)

    def test_empty(self):
        assert epstein_mu_sum(SQUARES, 2.0, 0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            epstein_mu_sum(SQUARES, 0.5, 100)
        with pytest.raises(DomainError):
            epstein_mu_sum(SQUARES, 2.0, -1)

    def test_byte_budget(self):
        # the signs go onto the int16 counts (2 MB at 10^6) in place, beside
        # the 1 MB int8 mu and no mask
        assert _peak_bytes(lambda: epstein_mu_sum(RESIDUE, 1.0, 10**6)) <= 3_500_000

    def test_against_direct_sum(self, tables_small):
        n_max = 500
        direct = sum(
            int(tables_small.mu[n]) * epstein_r(RESIDUE, n) / n**1.5
            for n in range(1, n_max + 1)
        )
        assert epstein_mu_sum(RESIDUE, 1.5, n_max) == pytest.approx(direct, rel=1e-12)
