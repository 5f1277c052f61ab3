import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicprimes import (
    NONRESIDUE_FORM,
    RESIDUE_FORM,
    Branch,
    CubicTag,
    DomainError,
    QuadraticForm,
    ResourceError,
    cubic_residue_euler,
    factorize,
    gauss_classify,
    is_prime,
    primes_up_to,
    primitive_cube_root,
    rho,
    rho_bruteforce,
    roots_mod,
)
from cubicprimes.residues import (
    _RHO_CHUNK,
    _cube_roots,
    _rho_prime,
    _rho_primes,
    represent_by_form,
)


def primes_one_mod_three(tables, lo, hi):
    return [int(p) for p in tables.primes if lo <= p <= hi and p % 3 == 1]


class TestEulerCriterion:
    def test_residue(self):
        result = cubic_residue_euler(2, 31)
        assert result.tag is CubicTag.RESIDUE
        assert result.exponent == 0

    def test_nonresidue(self):
        result = cubic_residue_euler(2, 7)
        assert result.tag is CubicTag.NONRESIDUE
        assert result.exponent in (1, 2)

    def test_not_coprime(self):
        result = cubic_residue_euler(7, 7)
        assert result.tag is CubicTag.NOT_COPRIME
        assert result.exponent is None

    def test_everything_is_a_cube_off_the_one_mod_three_branch(self):
        assert cubic_residue_euler(2, 3).tag is CubicTag.RESIDUE
        assert cubic_residue_euler(3, 5).tag is CubicTag.RESIDUE

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            cubic_residue_euler(2, 10)

    @given(a=st.integers(1, 10**6), p=st.sampled_from((7, 13, 31, 37, 43, 61, 103)))
    @settings(max_examples=200)
    def test_verdict_matches_explicit_cube_search(self, a, p):
        assume(a % p != 0)
        cubes = {pow(x, 3, p) for x in range(1, p)}
        verdict = cubic_residue_euler(a, p)
        assert (verdict.tag is CubicTag.RESIDUE) == (a % p in cubes)


class TestPrimitiveCubeRoot:
    def test_reference_values(self):
        assert primitive_cube_root(7) == 2
        assert primitive_cube_root(13) == 3
        assert primitive_cube_root(31) == 5

    def test_wrong_residue_class(self):
        with pytest.raises(DomainError):
            primitive_cube_root(5)

    @given(p=st.sampled_from((7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103)))
    def test_order_three_and_canonical(self, p):
        z = primitive_cube_root(p)
        assert pow(z, 3, p) == 1 and z != 1
        assert z == min(z, z * z % p)


class TestCharacterExponent:
    def test_one_is_always_a_cube(self):
        assert cubic_residue_euler(1, 7).exponent == 0

    def test_two_mod_seven(self):
        assert cubic_residue_euler(2, 7).exponent == 2

    def test_two_mod_thirteen(self):
        assert cubic_residue_euler(2, 13).exponent == 1

    @given(a=st.integers(1, 500), b=st.integers(1, 500),
           p=st.sampled_from((7, 13, 31, 37, 43, 61)))
    @settings(max_examples=200)
    def test_exponent_is_additive(self, a, b, p):
        assume(a % p != 0 and b % p != 0)
        m = cubic_residue_euler(a, p).exponent
        n = cubic_residue_euler(b, p).exponent
        assert cubic_residue_euler(a * b, p).exponent == (m + n) % 3


class TestQuadraticForm:
    def test_canonical_forms(self):
        assert RESIDUE_FORM.discriminant == -108
        assert NONRESIDUE_FORM.discriminant == -108
        assert RESIDUE_FORM(2, 1) == 31
        assert NONRESIDUE_FORM(0, 1) == 7

    def test_rejects_imprimitive(self):
        with pytest.raises(DomainError):
            QuadraticForm(2, 0, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            QuadraticForm(1, 0, -1)
        with pytest.raises(DomainError):
            QuadraticForm(-1, 0, -1)


class TestRepresentByForm:
    def test_residue_form_31(self):
        assert represent_by_form(RESIDUE_FORM, 31) == (2, 1)

    def test_nonresidue_form_7(self):
        assert represent_by_form(NONRESIDUE_FORM, 7) == (0, 1)

    def test_absent(self):
        assert represent_by_form(RESIDUE_FORM, 7) is None

    def test_canonical_among_sign_choices(self):
        assert represent_by_form(RESIDUE_FORM, 28) == (1, 1)
        assert represent_by_form(QuadraticForm(1, 0, 1), 25) == (5, 0)

    @given(u=st.integers(-40, 40), v=st.integers(-10, 10))
    @settings(max_examples=150)
    def test_found_witness_evaluates_back(self, u, v):
        n = RESIDUE_FORM(u, v)
        assume(n >= 1)
        witness = represent_by_form(RESIDUE_FORM, n)
        assert witness is not None
        assert RESIDUE_FORM(*witness) == n


class TestGaussClassification:
    def test_31_is_residue_form(self):
        cls = gauss_classify(31)
        assert cls.branch is Branch.RESIDUE_FORM
        assert cls.witness == (2, 1)

    def test_7_is_nonresidue_form(self):
        cls = gauss_classify(7)
        assert cls.branch is Branch.NONRESIDUE_FORM
        assert cls.witness == (0, 1)

    def test_13_witness(self):
        cls = gauss_classify(13)
        assert cls.branch is Branch.NONRESIDUE_FORM
        assert cls.witness == (1, 1)

    def test_three_and_two_mod_three_branches(self):
        cls3 = gauss_classify(3)
        assert cls3.branch is Branch.THREE
        assert cls3.witness is None
        cls5 = gauss_classify(5)
        assert cls5.branch is Branch.TWO_MOD3
        assert cls5.witness is None

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            gauss_classify(49)

    def test_split_agrees_with_euler_below_2000(self, tables_small):
        for p in primes_one_mod_three(tables_small, 7, 2000):
            cls = gauss_classify(p)
            euler = cubic_residue_euler(2, p)
            if cls.branch is Branch.RESIDUE_FORM:
                assert euler.tag is CubicTag.RESIDUE
                u, v = cls.witness
                assert u * u + 27 * v * v == p
            else:
                assert euler.tag is CubicTag.NONRESIDUE
                u, v = cls.witness
                assert 4 * u * u + 2 * u * v + 7 * v * v == p


class TestRho:
    def test_rho_prime_reference(self):
        assert _rho_prime(2, 3) == 1
        assert _rho_prime(2, 31) == 3  # -2 is a cube mod 31
        assert _rho_prime(2, 7) == 0  # and not mod 7
        assert _rho_prime(2, 2) == 1
        assert _rho_prime(2, 5) == 1  # p = 2 mod 3: the cube map is onto
        assert _rho_prime(7, 7) == 1  # p | k: only x = 0

    @pytest.mark.parametrize("k", [2, -2, 54, -54, 250, -128, 0, 8, 2 * 3 * 5 * 7])
    def test_root_count_rule_matches_scan(self, k):
        for p in primes_up_to(2000).tolist():
            assert _rho_prime(k, p) == len(roots_mod(k, p)), p

    def test_rho_reference(self):
        assert rho(2, 1) == 1
        assert rho(2, 15) == 1
        assert rho(2, 35) == 0

    def test_rho_rejects_square_factor(self):
        with pytest.raises(DomainError):
            rho(2, 9)

    def test_bruteforce_reference(self):
        assert rho_bruteforce(2, 1) == 1
        assert rho_bruteforce(2, 9) == 0
        assert rho_bruteforce(2, 31) == 3

    def test_roots_mod_31(self):
        assert roots_mod(2, 31) == [11, 24, 27]

    def test_root_mod_15_is_seven(self):
        assert roots_mod(2, 15) == [7]

    def test_budget(self):
        with pytest.raises(ResourceError):
            roots_mod(2, 10**7 + 1)

    @given(q=st.integers(1, 3000))
    @settings(max_examples=250, deadline=None)
    def test_formula_matches_scan_on_squarefree(self, q):
        assume(factorize(q).is_squarefree)
        assert rho(2, q) == rho_bruteforce(2, q)

    @given(k=st.integers(-50, 50), q=st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_formula_matches_scan_other_shifts(self, k, q):
        assume(factorize(q).is_squarefree)
        assert rho(k, q) == rho_bruteforce(k, q)

    @pytest.mark.parametrize("k", [2, -128])
    def test_roots_mod_where_cubes_overflow_int64(self, k):
        # above m = 2.1e6, m^3 no longer fits in int64: one prime with three
        # roots, one = 1 mod 3 with none, and one = 2 mod 3 (one root)
        by_count = {}
        p = 3_000_001
        while len(by_count) < 3:
            if is_prime(p):
                by_count.setdefault(_rho_prime(k, p), p)
            p += 2
        assert sorted(by_count) == [0, 1, 3] and max(by_count.values()) < 10**7
        for count, p in by_count.items():
            assert p**3 > 2**63
            roots = roots_mod(k, p)
            assert all((r**3 + k) % p == 0 for r in roots)
            assert len(roots) == count == _rho_prime(k, p)

    @given(m=st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    def test_roots_actually_vanish(self, m):
        for r in roots_mod(2, m):
            assert (r**3 + 2) % m == 0
            assert 0 <= r < m


def primes_below(n, count):
    """The last `count` primes below n, ascending, by scalar is_prime."""
    out = []
    v = n - 1
    while len(out) < count:
        if is_prime(v):
            out.append(v)
        v -= 1
    return np.array(out[::-1], dtype=np.int64)


class TestRhoPrimes:
    """The array root-count rule against the scalar _rho_prime."""

    PRIMES = primes_up_to(200_000)
    BELOW_1E8 = primes_below(10**8, 2000)
    BELOW_1E9 = primes_below(10**9, 12)  # p^2 is within a factor 10 of 2^63

    def check(self, k, primes):
        got = _rho_primes(k, primes)
        assert got.dtype == np.int8
        assert got.tolist() == [_rho_prime(k, p) for p in primes.tolist()]

    @pytest.mark.parametrize("k", [2, -2, 54, -54, 250, -128, 0, 8, 2 * 3 * 5 * 7])
    def test_matches_scalar_rule(self, k):
        self.check(k, self.PRIMES)

    @pytest.mark.parametrize("k", [2**63 + 1, -(2**63 + 3), 2**64 + 5, -(2**70 + 3),
                                   10**30 + 7])
    def test_shifts_beyond_int64(self, k):
        self.check(k, self.PRIMES)

    @pytest.mark.parametrize("k", [2, -2, 2**64 + 5, -(2**70 + 3)])
    def test_last_primes_below_1e8(self, k):
        self.check(k, self.BELOW_1E8)

    @pytest.mark.parametrize("k", [2, -2, 54, -128, 2**64 + 5, -(2**70 + 3)])
    def test_primes_just_below_1e9(self, k):
        assert np.any(self.BELOW_1E9 % 3 == 1)
        self.check(k, self.BELOW_1E9)

    @pytest.mark.parametrize("k", [2, -54, 2**64 + 5])
    def test_more_than_two_chunks(self, k):
        primes = primes_up_to(10**6)  # 78,498 primes
        assert primes.size > 2 * _RHO_CHUNK
        self.check(k, primes)

    def test_empty(self):
        assert _rho_primes(2, np.empty(0, dtype=np.int64)).size == 0


class TestCubeRoots:
    """The array roots of x^3 + k against the scan roots_mod, prime by prime."""

    PRIMES = primes_up_to(20_000)

    @staticmethod
    def roots_by_prime(k, primes):
        i, x = _cube_roots(k, primes)
        assert i.dtype == x.dtype == np.int64
        out = [[] for _ in range(primes.size)]
        for j, r in zip(i.tolist(), x.tolist()):
            out[j].append(r)
        return [sorted(r) for r in out]

    # p | k at 2, 3, 5 and 7; p = 1 mod 9 (s >= 2) from 19 on; 2^62 + 1 and
    # 10^400 + 1 take more than one 30-bit limb
    @pytest.mark.parametrize("k", [2, -2, 54, -54, 250, -128, 3, 7, 2**62 + 1, 10**400 + 1])
    def test_matches_scan(self, k):
        got = self.roots_by_prime(k, self.PRIMES)
        assert got == [roots_mod(k, p) for p in self.PRIMES.tolist()]

    @pytest.mark.parametrize("k", [2, -2, 54, 2**64 + 5, -(2**70 + 3)])
    def test_primes_just_below_1e9(self, k):
        primes = TestRhoPrimes.BELOW_1E9
        got = self.roots_by_prime(k, primes)
        for p, roots, count in zip(primes.tolist(), got, _rho_primes(k, primes).tolist()):
            assert len(set(roots)) == len(roots) == count, p
            assert all(0 <= r < p and (r**3 + k) % p == 0 for r in roots), p

    def test_empty(self):
        i, x = _cube_roots(2, np.empty(0, dtype=np.int64))
        assert i.size == x.size == 0
