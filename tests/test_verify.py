"""The whole-array checks of verify: the paper's Lemmas 2 and 3 and rho.

Lemma 2 (mangoldt_identity, mangoldt_divisor_sum): the divisor-sum sieve
against a plain divisor loop, both Lambda routes against each other and
against the scalar von_mangoldt, and the counterexample a wrong route
leaves. Lemma 3 (gauss_euler_split): its PASS text, its first
counterexample when a route is wrong, and agreement of its lattice sweep
with the per-prime form search of gauss_classify. rho (rho_against_scan):
its PASS text, each side against its scalar route (rho, rho_bruteforce),
and the first q a wrong side leaves. Lemma 4 (progression_checks): the
instances it walks against a scan of every modulus, its PASS text, and
the least (q, x) a wrong closed form or leading term leaves.
"""

import dataclasses

import math

import numpy as np
import pytest

from cubicprimes import (
    NONRESIDUE_FORM,
    RESIDUE_FORM,
    ArithTables,
    Branch,
    gauss_classify,
    primes_up_to,
    rho,
    rho_bruteforce,
    sieve_range,
    verify,
    von_mangoldt,
)
from cubicprimes.verify import (
    _divisor_sums,
    _form_values,
    _mangoldt_direct,
    _mangoldt_mobius,
    _rho_formula,
    _rho_scan,
    gauss_euler_split,
    mangoldt_divisor_sum,
    mangoldt_identity,
    progression_checks,
    rho_against_scan,
)

# Lemma 2


@pytest.mark.parametrize("n_max", [54**2, 55**2 - 1])
def test_divisor_sums_match_a_divisor_loop(n_max):
    rng = np.random.default_rng(n_max)
    root = math.isqrt(n_max)
    ds = np.unique(np.concatenate([
        [1, root - 1, root, root + 1, n_max],
        rng.choice(np.arange(2, root - 1), 20, replace=False),
        rng.choice(np.arange(root + 2, n_max), 200, replace=False)]))
    w = rng.standard_normal(ds.size)
    pairs = list(zip(ds.tolist(), w.tolist()))
    want = [sum(wd for d, wd in pairs if n % d == 0) for n in range(1, n_max + 1)]
    acc = _divisor_sums(ds, w, n_max)
    assert acc.shape == (n_max + 1,) and acc[0] == 0.0
    assert acc[1:].tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_von_mangoldt_matches_the_direct_route():
    lam = _mangoldt_direct(10**4)
    want = [von_mangoldt(n) for n in range(1, 10**4 + 1)]
    assert lam[1:].tolist() == pytest.approx(want, rel=1e-15)


def test_divisor_route_values():
    lam = _mangoldt_mobius(12)
    assert lam[1] == 0.0
    assert lam[9] == pytest.approx(math.log(3), rel=1e-12)
    assert lam[12] == pytest.approx(0.0, abs=1e-12)


def test_two_routes_agree():
    direct, via = _mangoldt_direct(5000), _mangoldt_mobius(5000)
    assert via.tolist() == pytest.approx(direct.tolist(), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [
    2**19,  # 20 divisors, one squarefree d > 1
    510510,  # the product of the first seven primes: 127 squarefree d > 1
    2**3 * 3**4 * 5**2 * 7,
])
def test_two_routes_agree_on_wide_factorizations(n):
    n_max = 6 * 10**5
    via = _mangoldt_mobius(n_max)[n]
    assert via == pytest.approx(von_mangoldt(n), rel=1e-9, abs=1e-12)
    assert via == pytest.approx(_mangoldt_direct(n_max)[n], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n_max", [2, 30000])
def test_lemma2_pass_details(n_max):
    assert mangoldt_identity(n_max) == verify.CheckResult(
        "mangoldt-mobius-identity", True, f"both routes agree to 1e-9 for n <= {n_max}")
    assert mangoldt_divisor_sum(n_max) == verify.CheckResult(
        "mangoldt-divisor-sum", True, f"divisor sums match log n to 1e-9 for n <= {n_max}")


def _flip_mu_at(monkeypatch, d):
    original = verify.sieve_range

    def flipped(limit):
        tables = original(limit)
        mu = tables.mu.copy()
        mu[d] = -mu[d]
        return ArithTables(mu=mu, primes=tables.primes)

    monkeypatch.setattr(verify, "sieve_range", flipped)


def _drop_prime_power(monkeypatch, q):
    original = verify._prime_powers

    def dropped(n_max):
        pp, logp = original(n_max)
        keep = pp != q
        return pp[keep], logp[keep]

    monkeypatch.setattr(verify, "_prime_powers", dropped)


def _drop_divisor(monkeypatch, d):
    original = verify._divisor_sums

    def dropped(ds, w, n_max):
        keep = ds != d
        return original(ds[keep], w[keep], n_max)

    monkeypatch.setattr(verify, "_divisor_sums", dropped)


@pytest.mark.parametrize("mutate,n,direct,via", [
    (_flip_mu_at, 7, math.log(7), -math.log(7)),
    (_flip_mu_at, 30, 0.0, -2 * math.log(30)),
    (_drop_prime_power, 8, 0.0, math.log(2)),
    (_drop_divisor, 101, math.log(101), 0.0),
])
def test_identity_names_the_first_wrong_n(monkeypatch, mutate, n, direct, via):
    mutate(monkeypatch, n)
    r = mangoldt_identity(1000)
    assert (r.name, r.passed) == ("mangoldt-mobius-identity", False)
    head, value = r.detail.rsplit("=", 1)
    assert head == f"n={n}: direct={direct!r} divisor-route"
    assert float(value) == pytest.approx(via, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mutate,at,detail", [
    (_drop_prime_power, 101, "n=101: divisor sum 0.0 vs log n 4.61512051684126"),
    (_drop_divisor, 101, "n=101: divisor sum 0.0 vs log n 4.61512051684126"),
])
def test_divisor_sum_names_the_worst_n(monkeypatch, mutate, at, detail):
    mutate(monkeypatch, at)
    r = mangoldt_divisor_sum(1000)
    assert (r.name, r.passed, r.detail) == ("mangoldt-divisor-sum", False, detail)


# Lemma 3

FORM_OF = {Branch.RESIDUE_FORM: RESIDUE_FORM, Branch.NONRESIDUE_FORM: NONRESIDUE_FORM}


@pytest.mark.parametrize("p_max,detail", [
    (2 * 10**5, "8988 primes = 1 mod 3 below 200000 split cleanly "
                "(2987 residue / 6001 nonresidue)"),
    (10**6, "39231 primes = 1 mod 3 below 1000000 split cleanly "
            "(13032 residue / 26199 nonresidue)"),
])
def test_pass_detail(p_max, detail):
    r = gauss_euler_split(p_max)
    assert (r.name, r.passed, r.detail) == ("gauss-euler-split", True, detail)


def test_gauss_classify_agrees_with_the_sweep():
    p_max = 2 * 10**4
    flags = {form: _form_values(form, p_max) for form in FORM_OF.values()}
    checked = 0
    for p in primes_up_to(p_max).tolist():
        if p % 3 != 1:
            continue
        cls = gauss_classify(p)
        form = FORM_OF[cls.branch]
        assert [f for f in FORM_OF.values() if flags[f][p]] == [form], p
        assert form(*cls.witness) == p
        checked += 1
    assert checked == 1124


@pytest.mark.parametrize("form", FORM_OF.values(), ids=str)
def test_sweep_flags_exactly_the_values(form):
    # every value up to 400 has |u|, |v| <= 20 under either form
    n_max = 400
    values = {form(u, v) for u in range(-25, 26) for v in range(-25, 26)}
    want = sorted(n for n in values if 1 <= n <= n_max)
    assert np.flatnonzero(_form_values(form, n_max)).tolist() == want


def _flip_euler_at(monkeypatch, *ps):
    original = verify._rho_primes

    def flipped(k, primes):
        rho = original(k, primes)
        at = np.isin(primes, ps)
        rho[at] = 3 - rho[at]
        return rho

    monkeypatch.setattr(verify, "_rho_primes", flipped)


def _set_form_values(monkeypatch, form, p, value):
    original = verify._form_values

    def edited(f, n_max):
        flags = original(f, n_max)
        if f == form:
            flags[p] = value
        return flags

    monkeypatch.setattr(verify, "_form_values", edited)


@pytest.mark.parametrize("ps,detail", [
    ((31, 43), "p=31: represented by (1,0,27) only, but Euler says 2 is not a cube"),
    ((43, 31), "p=31: represented by (1,0,27) only, but Euler says 2 is not a cube"),
    ((991,), "p=991: represented by (4,2,7) only, but Euler says 2 is a cube"),
])
def test_euler_disagreement_names_the_first_prime(monkeypatch, ps, detail):
    _flip_euler_at(monkeypatch, *ps)
    r = gauss_euler_split(1000)
    assert r.passed is False and r.detail == detail


@pytest.mark.parametrize("form,p,value,detail", [
    (NONRESIDUE_FORM, 31, True, "p=31: represented by both forms"),
    (RESIDUE_FORM, 31, False, "p=31: represented by neither form"),
    (NONRESIDUE_FORM, 7, False, "p=7: represented by neither form"),
])
def test_form_disagreement_names_the_prime(monkeypatch, form, p, value, detail):
    _set_form_values(monkeypatch, form, p, value)
    r = gauss_euler_split(1000)
    assert r.passed is False and r.detail == detail


# rho

RHO_KS = [2, -2, 54, 250, -128, 10**30 + 7]


@pytest.mark.parametrize("q_max,count", [(1, 1), (1000, 608), (10**4, 6083)])
def test_rho_pass_detail(q_max, count):
    assert rho_against_scan(q_max) == verify.CheckResult(
        "rho-vs-scan", True, f"{count} squarefree moduli <= {q_max} agree (k=2)")


def _squarefree_up_to(q_max):
    return np.flatnonzero(sieve_range(q_max).mu)


@pytest.mark.parametrize("k", RHO_KS)
def test_rho_formula_matches_the_scalar_rho(k):
    qs = _squarefree_up_to(3000)
    formula = _rho_formula(k, 3000)
    assert formula.dtype == np.int64
    assert formula[qs].tolist() == [rho(k, q) for q in qs.tolist()]


@pytest.mark.parametrize("k", RHO_KS)
def test_rho_scan_matches_the_scalar_scan(k):
    qs = _squarefree_up_to(3000)
    assert _rho_scan(k, qs).tolist() == [rho_bruteforce(k, q) for q in qs.tolist()]


def _drop_prime(monkeypatch, p):
    original = verify.primes_up_to

    def dropped(limit):
        primes = original(limit)
        return primes[primes != p]

    monkeypatch.setattr(verify, "primes_up_to", dropped)


def _lose_root_at(monkeypatch, q):
    original = verify._rho_scan

    def lost(k, qs):
        scan = original(k, qs)
        scan[qs == q] -= 1
        return scan

    monkeypatch.setattr(verify, "_rho_scan", lost)


@pytest.mark.parametrize("mutate,at,detail", [
    (_flip_euler_at, 7, "q=7: multiplicative 3 vs scan 0"),
    (_flip_euler_at, 31, "q=31: multiplicative 0 vs scan 3"),
    (_flip_euler_at, 2, "q=2: multiplicative 2 vs scan 1"),
    (_drop_prime, 43, "q=43: multiplicative 1 vs scan 3"),
    (_lose_root_at, 62, "q=62: multiplicative 3 vs scan 2"),
])
def test_rho_names_the_first_wrong_q(monkeypatch, mutate, at, detail):
    mutate(monkeypatch, at)
    assert rho_against_scan(1000) == verify.CheckResult("rho-vs-scan", False, detail)


# Lemma 4


@pytest.mark.parametrize("q_max,x_max,detail", [
    (10**3, 10**5, ("1005 instances (x = 1, q, 100000) over the 335 solvable squarefree "
                    "q <= 1000 match exactly", "335 instances")),
    (300, 2 * 10**4, ("324 instances (x = 1, q, 20000) over the 108 solvable squarefree "
                      "q <= 300 match exactly", "72 instances")),
])
def test_lemma4_pass_detail(q_max, x_max, detail):
    exact, band, dropped = progression_checks(q_max, x_max)
    assert exact == verify.CheckResult("progression-closed-form", True, detail[0])
    assert band == verify.CheckResult(
        "progression-leading-band", True, f"{detail[1]} with x >= 100q inside [0.95, 1.05]")
    assert dropped.passed


@pytest.mark.parametrize("k", RHO_KS)
def test_lemma4_walks_every_solvable_squarefree_modulus(monkeypatch, k):
    # the instances against a scan of every q <= 300 for a root of x^3 + k
    seen = []
    original = verify.progression_weighted_sum

    def recorded(q, a, x):
        seen.append((q, a, x))
        return original(q, a, x)

    monkeypatch.setattr(verify, "progression_weighted_sum", recorded)
    results = progression_checks(300, 2 * 10**4, -k)
    assert all(r.passed for r in results)
    qs = [q for q in range(1, 301) if sieve_range(300).mu[q] and rho_bruteforce(k, q)]
    assert seen[:-1] == [(q, -k, x) for q in qs for x in sorted((1, q, 2 * 10**4))]


def _wrong_at(monkeypatch, field, delta, at):
    original = verify.progression_weighted_sum

    def wrong(q, a, x):
        ps = original(q, a, x)
        if (q, x) in at:
            return dataclasses.replace(ps, **{field: getattr(ps, field) + delta})
        return ps

    monkeypatch.setattr(verify, "progression_weighted_sum", wrong)


@pytest.mark.parametrize("field,delta,at,i,detail", [
    ("closed_form", -1, ((1, 1), (2, 1)), 0, "q=1 x=1: iterated 1 vs closed 0"),
    ("leading", 10**6, ((5, 1000), (3, 1000)), 1, "q=3 x=1000: exact/leading = 0.143286"),
])
def test_lemma4_names_the_least_wrong_instance(monkeypatch, field, delta, at, i, detail):
    _wrong_at(monkeypatch, field, delta, at)
    results = progression_checks(300, 1000)
    assert [r.passed for r in results[:2]] == [i != 0, i != 1]
    assert results[i].detail == detail
