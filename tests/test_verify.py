"""The form split of the paper's Lemma 3 (verify.gauss_euler_split): its
PASS text, its first counterexample when a route is wrong, and agreement
of its lattice sweep with the per-prime form search of gauss_classify."""

import numpy as np
import pytest

from cubicprimes import (
    NONRESIDUE_FORM,
    RESIDUE_FORM,
    Branch,
    gauss_classify,
    primes_up_to,
    verify,
)
from cubicprimes.verify import _form_values, gauss_euler_split

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
