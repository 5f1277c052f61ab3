"""Named self-check suites behind the CLI's verify subcommand.

Each suite re-derives a batch of values by two independent routes and
compares them; a failing check carries its first counterexample in the
detail string. The acceptance tests drive the same functions at full
scale, so the bounds here are parameters rather than constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _multiples, primes_up_to, sieve_range
from .counting import Weight, lambda_sum_rhs, progression_weighted_sum, weighted_lambda_sum
from .errors import DomainError, ResourceError
from .dset import enumerate_dset
from .residues import NONRESIDUE_FORM, RESIDUE_FORM, QuadraticForm, _rho_primes
from .series import _lattice_row, _ymax

SUITES = ("lemma2", "lemma3", "lemma4", "rho", "eq3", "all")

# work budgets on the --nmax/--pmax overrides, each set from a measured run
# of at most about 15 s on 2 cores (time and peak RSS in the README)
# lemma2 peaks in the Mobius route's sieve at about 23 B per entry: the
# float64 sums (8 B) and, for the 6/pi^2 of entries that are squarefree,
# an int64 d, a float64 weight and a float64 gather (24 B per d)
LEMMA2_BUDGET = 3 * 10**7
GAUSS_BUDGET = 10**8  # a 1 B flag per entry per form, plus the prime sieve
# rho scans every x mod each squarefree q, so its work is quadratic in q_max;
# the int64 cube table it scans needs (q_max - 1)^3 < 2^63, i.e. q_max <= 2^21
RHO_SCAN_BUDGET = 10**5

# full-scale bounds match the documented acceptance levels; tiny keeps the
# whole run under a minute for interactive use
_BOUNDS = {
    "full": dict(mangoldt_n=10**5, divisor_n=10**6, gauss_p=10**6, rho_q=10**4,
                 eq3_x=(100, 1000, 10000), lemma4_q=10**3, lemma4_x=10**5),
    "tiny": dict(mangoldt_n=2000, divisor_n=10**4, gauss_p=2 * 10**4, rho_q=10**3,
                 eq3_x=(100, 1000), lemma4_q=300, lemma4_x=2 * 10**4),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_budget(what: str, value: int, budget: int) -> None:
    if value > budget:
        raise ResourceError(f"{what} = {value} exceeds budget {budget}")


def _check_floor(what: str, value: int, least: int) -> None:
    """A bound below least leaves the check no instance, so its PASS would
    say nothing."""
    if value < least:
        raise DomainError(f"{what} = {value} leaves no instance to check; it must be >= {least}")


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _divisor_sums(ds: np.ndarray, w: np.ndarray, n_max: int) -> np.ndarray:
    """acc[n] = sum of w[i] over the ascending ds[i] >= 1 that divide n, for
    n in 1..n_max, as float64 (acc[0] is 0): each d adds its weight to its
    multiples."""
    acc = np.zeros(n_max + 1)
    for at, i in _multiples(ds, n_max):
        acc[at] += w[i]
    return acc


def _prime_powers(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers p^e <= n_max, ascending, and log p for each."""
    base = primes_up_to(n_max)
    logs = np.log(base.astype(np.float64))
    powers = []
    power = base
    while power.size:
        powers.append(power)
        # p^e ascends with p, so the powers that stay in range are a prefix
        keep = int(np.count_nonzero(power <= n_max // base[: power.size]))
        power = power[:keep] * base[:keep]
    pp = np.concatenate(powers)
    logp = np.concatenate([logs[: p.size] for p in powers])
    order = np.argsort(pp)
    return pp[order], logp[order]


def _mangoldt_direct(n_max: int) -> np.ndarray:
    """Lambda on 0..n_max as float64: log p at every prime power p^e."""
    lam = np.zeros(n_max + 1)
    pp, logp = _prime_powers(n_max)
    lam[pp] = logp
    return lam


def _mangoldt_mobius(n_max: int) -> np.ndarray:
    """Lambda on 0..n_max as float64 by Lemma 2's identity
    -sum_{d | n} mu(d) log d, with mu from sieve_range: one divisor-sum
    sieve over the squarefree d >= 2 (the d = 1 term is 0)."""
    mu = sieve_range(n_max).mu
    ds = np.flatnonzero(mu[2:])
    ds += 2
    w = np.log(ds.astype(np.float64))
    w *= -mu[ds]
    del mu
    return _divisor_sums(ds, w, n_max)


def mangoldt_identity(n_max: int) -> CheckResult:
    """Lambda from prime-power marks equals Lemma 2's divisor route on
    1..n_max.

    The comparison is in place: the divisor route's array becomes the
    difference, and only the n where it passes 1e-12 go on to the exact
    _close test. Where Lambda is 0 the difference is the divisor route's
    value itself; elsewhere the two lie within a factor 2 of each other on
    every n that can pass, so adding Lambda back recovers it exactly.
    """
    _check_floor("n_max (--nmax)", n_max, 2)
    _check_budget("n_max (--nmax)", n_max, LEMMA2_BUDGET)
    diff = _mangoldt_mobius(n_max)
    direct = _mangoldt_direct(n_max)
    diff -= direct
    for n in np.flatnonzero((diff > 1e-12) | (diff < -1e-12)).tolist():
        lam = float(direct[n])
        via = lam + float(diff[n])
        if not _close(lam, via, 1e-9):
            return CheckResult(
                "mangoldt-mobius-identity", False,
                f"n={n}: direct={lam!r} divisor-route={via!r}")
    return CheckResult("mangoldt-mobius-identity", True,
                       f"both routes agree to 1e-9 for n <= {n_max}")


def mangoldt_divisor_sum(n_max: int) -> CheckResult:
    """The sum of Lambda over the divisors of n reproduces log n on
    2..n_max: one divisor-sum sieve over the prime powers, each weighted
    log p. The relative error |acc / log n - 1| is formed in place in the
    log n array."""
    _check_floor("n_max (--nmax)", n_max, 2)
    _check_budget("n_max (--nmax)", n_max, LEMMA2_BUDGET)
    acc = _divisor_sums(*_prime_powers(n_max), n_max)
    err = np.arange(2, n_max + 1, dtype=np.float64)
    np.log(err, out=err)
    np.divide(acc[2:], err, out=err)
    err -= 1
    np.abs(err, out=err)
    worst = int(np.argmax(err)) + 2
    if err[worst - 2] > 1e-9:
        return CheckResult("mangoldt-divisor-sum", False,
                           f"n={worst}: divisor sum {float(acc[worst])!r} "
                           f"vs log n {math.log(worst)!r}")
    return CheckResult("mangoldt-divisor-sum", True,
                       f"divisor sums match log n to 1e-9 for n <= {n_max}")


def _form_values(form: QuadraticForm, n_max: int) -> np.ndarray:
    """A bool array over 0..n_max, True at every value the form takes: the
    rows y >= 0 hold them all, as row -y holds the values of row y."""
    flags = np.zeros(n_max + 1, dtype=bool)
    for y in range(_ymax(form, n_max) + 1):
        flags[_lattice_row(form, n_max, y)] = True
    return flags


def gauss_euler_split(p_max: int) -> CheckResult:
    """Every prime p = 1 mod 3 up to p_max is represented by exactly one of
    the two forms, u^2 + 27v^2 exactly when Euler's test says 2 is a cube
    mod p.

    Each form's values up to p_max are flagged by one lattice sweep, whose
    rows are exact form evaluations, and the flags are read at the primes;
    Euler's test runs over the same prime array.
    """
    _check_floor("p_max (--pmax)", p_max, 7)
    _check_budget("p_max (--pmax)", p_max, GAUSS_BUDGET)
    primes = primes_up_to(p_max)
    primes = primes[primes % 3 == 1]
    residue, nonresidue = (_form_values(form, p_max)[primes]
                           for form in (RESIDUE_FORM, NONRESIDUE_FORM))
    cube = _rho_primes(-2, primes) == 3
    bad = np.flatnonzero((residue == nonresidue) | (residue != cube))
    if bad.size:
        i = int(bad[0])
        if residue[i] == nonresidue[i]:
            why = f"represented by {'both forms' if residue[i] else 'neither form'}"
        else:
            form = RESIDUE_FORM if residue[i] else NONRESIDUE_FORM
            euler = "a cube" if cube[i] else "not a cube"
            why = f"represented by {form} only, but Euler says 2 is {euler}"
        return CheckResult("gauss-euler-split", False, f"p={int(primes[i])}: {why}")
    n_res = int(np.count_nonzero(residue))
    return CheckResult(
        "gauss-euler-split", True,
        f"{primes.size} primes = 1 mod 3 below {p_max} split cleanly "
        f"({n_res} residue / {primes.size - n_res} nonresidue)")


def _rho_formula(k: int, q_max: int) -> np.ndarray:
    """rho of x^3 + k taken multiplicatively on 0..q_max, as int64: each
    prime's rho_p multiplies its multiples. The entry at q is the product
    of rho_p over the primes p | q, which is rho(q) at every squarefree q;
    nothing is factorized."""
    formula = np.ones(q_max + 1, dtype=np.int64)
    primes = primes_up_to(q_max)
    rho = _rho_primes(k, primes)
    keep = rho != 1  # most primes have rho_p = 1, which changes nothing
    rho = rho[keep]
    for at, i in _multiples(primes[keep], q_max):
        formula[at] *= rho[i]
    return formula


def _rho_scan(k: int, qs: np.ndarray) -> np.ndarray:
    """The roots of x^3 + k mod each q of the nonempty ascending qs, as
    int64, counted by an exhaustive scan of x in [0, q) against one exact
    table of cubes. The table ends at x = qs[-1] - 1, whose cube is exact
    in int64 while qs[-1] <= 2^21 (RHO_SCAN_BUDGET is far below). Each
    residue is taken as c - c // q * q: numpy divides int64 by a scalar
    with a precomputed reciprocal, several times faster than its %. The
    quotient, product and residue are written in turn into the first q
    entries of one int64 buffer as long as the table, so a modulus
    allocates only the bool array of the comparison."""
    cubes = np.arange(qs[-1], dtype=np.int64) ** 3
    buf = np.empty_like(cubes)
    counts = np.empty(qs.size, dtype=np.int64)
    for i, q in enumerate(qs.tolist()):
        c, r = cubes[:q], buf[:q]
        np.floor_divide(c, q, out=r)
        r *= q
        np.subtract(c, r, out=r)
        counts[i] = np.count_nonzero(r == -k % q)
    return counts


def rho_against_scan(q_max: int, k: int = 2) -> CheckResult:
    """Multiplicative rho equals the exhaustive-scan count on every
    squarefree q <= q_max; a failure names the least q where they differ."""
    _check_floor("q_max (--nmax)", q_max, 1)
    _check_budget("q_max (--nmax)", q_max, RHO_SCAN_BUDGET)
    qs = np.flatnonzero(sieve_range(max(q_max, 2)).mu[: q_max + 1])
    formula = _rho_formula(k, q_max)[qs]
    scan = _rho_scan(k, qs)
    bad = np.flatnonzero(formula != scan)
    if bad.size:
        i = int(bad[0])
        return CheckResult("rho-vs-scan", False,
                           f"q={int(qs[i])}: multiplicative {int(formula[i])} "
                           f"vs scan {int(scan[i])}")
    return CheckResult("rho-vs-scan", True,
                       f"{qs.size} squarefree moduli <= {q_max} agree (k={k})")


def lambda_identity(xs, k: int = 2) -> list[CheckResult]:
    """Index-weighted Lambda sum equals its divisor-side evaluation at each x."""
    out = []
    weight = Weight("power", 1)
    for x in xs:
        lhs = weighted_lambda_sum(k, weight, x).value
        rhs = lambda_sum_rhs(k, x)
        ok = _close(lhs, rhs, 1e-6)
        out.append(CheckResult(
            f"divisor-route-x={x}", ok,
            f"value route {lhs!r} vs divisor route {rhs!r}"))
    return out


def progression_checks(q_max: int, x_max: int, a: int = -2) -> list[CheckResult]:
    """Every squarefree q <= q_max at which n^3 = a mod q is solvable, at
    x = 1, q and x_max: iteration equals the corrected closed form exactly,
    and the leading term is within 5 percent once x >= 100q. x = 1 leaves
    a root above x, x = q gives every root its m = 0 term, and x = x_max
    reaches the leading-term band. A failure names the least (q, x). Also
    re-derives the dropped first term of the uncorrected form on the
    q=5, x=20 instance."""
    qs = enumerate_dset(-a, q_max)
    qs = qs[sieve_range(max(q_max, 2)).mu[qs] != 0].tolist()
    exact_detail = band_detail = ""
    done = band_checked = 0
    for q in qs:
        for x in sorted((1, q, x_max)):
            ps = progression_weighted_sum(q, a, x)
            done += 1
            if ps.exact != ps.closed_form and not exact_detail:
                exact_detail = f"q={q} x={x}: iterated {ps.exact} vs closed {ps.closed_form}"
            if x >= 100 * q and ps.exact:
                band_checked += 1
                r = ps.exact / ps.leading
                if not 0.95 <= r <= 1.05 and not band_detail:
                    band_detail = f"q={q} x={x}: exact/leading = {r!r}"
    results = [
        CheckResult("progression-closed-form", not exact_detail, exact_detail or (
            f"{done} instances (x = 1, q, {x_max}) over the {len(qs)} solvable "
            f"squarefree q <= {q_max} match exactly")),
        CheckResult("progression-leading-band", not band_detail, band_detail or (
            f"{band_checked} instances with x >= 100q inside [0.95, 1.05]")),
    ]

    ps = progression_weighted_sum(5, -2, 20)
    b = ps.roots[0]
    m = (20 - b) // 5
    uncorrected = 5 * m * (m + 1) // 2 + b * m
    ok = ps.exact == 38 and uncorrected == 36 and ps.closed_form == 38
    results.append(CheckResult(
        "progression-dropped-term", ok,
        f"q=5 x=20: iterated {ps.exact}, corrected {ps.closed_form}, "
        f"uncorrected form gives {uncorrected}"))
    return results


def run_suite(suite: str, scale: str = "tiny", *, n_max: int | None = None,
              p_max: int | None = None, k: int | None = None) -> list[CheckResult]:
    """Run one named suite (or all of them) and return its check results.

    n_max, when given, replaces the scale's bounds of lemma2 (both checks)
    and rho, and p_max that of lemma3. The shift k (default 2) is read by
    rho, eq3 and lemma4. A suite that does not read a given parameter
    refuses it with DomainError.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if scale not in _BOUNDS:
        raise DomainError(f"unknown scale {scale!r}")
    b = dict(_BOUNDS[scale], k=2)
    for value, what, readers, keys in (
        (n_max, "n_max (--nmax) bound", ("lemma2", "rho"), ("mangoldt_n", "divisor_n", "rho_q")),
        (p_max, "p_max (--pmax) bound", ("lemma3",), ("gauss_p",)),
        (k, "shift k (--k)", ("rho", "eq3", "lemma4"), ("k",)),
    ):
        if value is not None:
            if suite not in (*readers, "all"):
                raise DomainError(
                    f"suite {suite!r} reads no {what}; only {', '.join(readers)} and all do")
            b.update(dict.fromkeys(keys, value))
    out: list[CheckResult] = []
    if suite in ("lemma2", "all"):
        out.append(mangoldt_identity(b["mangoldt_n"]))
        out.append(mangoldt_divisor_sum(b["divisor_n"]))
    if suite in ("lemma3", "all"):
        out.append(gauss_euler_split(b["gauss_p"]))
    if suite in ("rho", "all"):
        out.append(rho_against_scan(b["rho_q"], b["k"]))
    if suite in ("eq3", "all"):
        out.extend(lambda_identity(b["eq3_x"], b["k"]))
    if suite in ("lemma4", "all"):
        out.extend(progression_checks(b["lemma4_q"], b["lemma4_x"], -b["k"]))
    return out
