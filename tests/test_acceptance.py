"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Each test prints its verdict even under pytest's capture so a plain
`pytest tests/test_acceptance.py` shows the ten lines; runtimes ride
along in the detail text but are not asserted.
"""

import math
import time

import pytest

from cubicprimes import (
    QuadraticForm,
    cli,
    count_table,
    dset_density,
    enumerate_dset,
    epstein_r,
    epstein_zeta_partial,
    in_dset,
    integer_root,
    prime_power_tail,
    primes_up_to,
    rho_bruteforce,
)
from cubicprimes.verify import (
    gauss_euler_split,
    lambda_identity,
    mangoldt_identity,
    progression_checks,
    rho_against_scan,
)


@pytest.fixture
def report(capsys):
    started = time.perf_counter()

    def emit(passed: bool, name: str, detail: str) -> None:
        elapsed = time.perf_counter() - started
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"{verdict} {name}: {detail} [{elapsed:.1f}s]")
        assert passed, f"{name}: {detail}"

    return emit


def test_a01_mangoldt_two_routes(report):
    results = [mangoldt_identity(n) for n in (10**5, 10**6)]
    report(all(r.passed for r in results), "mangoldt-two-routes",
           "; ".join(r.detail for r in results))


def test_a02_form_split_matches_euler(report):
    r = gauss_euler_split(10**6)
    report(r.passed, "form-split-vs-euler", r.detail)


def test_a03_rho_formula_vs_scan(report):
    r = rho_against_scan(10**4)
    report(r.passed, "rho-formula-vs-scan", r.detail)


def test_a04_weighted_sum_divisor_route(report):
    results = lambda_identity((100, 1000, 10000, 100000))
    ok = all(r.passed for r in results)
    report(ok, "weighted-sum-divisor-route",
           "; ".join(r.detail for r in results))


def test_a05_progression_closed_form(report):
    results = progression_checks(q_max=10**3, x_max=10**5)
    ok = all(r.passed for r in results)
    names = {r.name for r in results}
    assert "progression-dropped-term" in names
    report(ok, "progression-closed-form",
           "; ".join(f"{r.name} {r.detail}" for r in results))


def test_a06_count_ratio_band(report, capsys):
    records = count_table(
        2, [10**6, 10**9, 10**12, 10**15, 10**18], 10**6)
    with capsys.disabled():
        print("x,observed,predicted,ratio")
        for r in records:
            print(f"{r.x},{r.observed},{r.predicted:.15g},{r.ratio:.15g}")
    ok = (
        [r.observed for r in records[:3]] == [11, 75, 521]
        and 0.8 <= records[-1].ratio <= 1.2
    )
    report(ok, "count-ratio-band",
           f"ratio at 1e18 = {records[-1].ratio:.6f}, band [0.8, 1.2]")


def test_a07_prime_power_tail_bound(report):
    tail_130, _ = prime_power_tail(2, [130])[0]
    ok = tail_130 == 0.0
    details = [f"tail(2,130)={tail_130:g}"]
    for x in (10**3, 10**6, 10**9, 10**12):
        tail, bound = prime_power_tail(2, [x])[0]
        ok = ok and tail <= bound
        details.append(f"x=1e{round(math.log10(x))}: {tail:.3f}<={bound:.3f}")
    # k = 2 has no prime-power values, so also check k = -2 (3^3 - 2 = 5^2)
    # against an enumeration of prime powers p^e <= 1e6 with p^e + 2 = n^3
    expected = 0.0
    for p in primes_up_to(10**3).tolist():
        q = p * p
        while q <= 10**6:
            n = integer_root(q + 2, 3)
            if n**3 == q + 2:
                expected += n * math.log(p)
            q *= p
    tail, bound = prime_power_tail(-2, [10**6])[0]
    ok = ok and expected > 0 and math.isclose(tail, expected, rel_tol=1e-12) and tail <= bound
    details.append(f"k=-2 x=1e6: {tail:.3f} (enumerated {expected:.3f})<={bound:.3f}")
    report(ok, "prime-power-tail-bound", ", ".join(details))


def test_a08_epstein_two_methods(report):
    forms = (QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 27),
             QuadraticForm(4, 2, 7))
    n_max = 10**4
    worst = 0.0
    for form in forms:
        counts = [epstein_r(form, n) for n in range(1, n_max + 1)]
        for s in (1.5, 2.0):
            direct = sum(c / n**s for n, c in enumerate(counts, start=1) if c)
            lattice = epstein_zeta_partial(form, s, n_max)
            worst = max(worst, abs(lattice - direct) / abs(direct))
    report(worst <= 1e-9, "epstein-two-methods",
           f"3 forms x s in {{1.5, 2}}, worst relative gap {worst:.2e}")


def test_a09_dset_membership_and_density(report):
    members = set(enumerate_dset(2, 10**4))
    mismatches = sum(
        (d in members) != (rho_bruteforce(2, d) >= 1)
        for d in range(1, 10**4 + 1)
    )
    explicit = (
        all(in_dset(2, d) for d in (1, 2, 3, 5, 6, 10))
        and not any(in_dset(2, d) for d in (4, 7, 9))
    )
    ratios = [ratio for _, _, ratio in dset_density(2, [10**3, 10**4, 10**5, 10**6])]
    monotone = all(a >= b for a, b in zip(ratios, ratios[1:]))
    report(mismatches == 0 and explicit and monotone,
           "dset-membership-and-density",
           f"{mismatches} scan mismatches <= 1e4, density ratios "
           + " -> ".join(f"{r:.4f}" for r in ratios))


def test_a10_cli_repeat_determinism(report, tmp_path):
    paths = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        code = cli.run(["count", "--k", "2", "--x", str(10**9), "--out", str(out)])
        assert code == 0
        paths.append(out)
    bodies = [
        [ln for ln in p.read_bytes().split(b"\n") if not ln.startswith(b"#")]
        for p in paths
    ]
    report(bodies[0] == bodies[1], "cli-repeat-determinism",
           f"{len(bodies[0])} body lines byte-identical across two runs")
