"""Counting primes of the form n^3 + k and the sums that support
the count's predicted main term.

The observed side is one walk over the index range of n^3 + k in ascending
65536-index segments. Each segment gives two masks: a progression sieve
against small primes, whose survivors are certified together by the
batched Baillie-PSW test (is_prime_batch: strong base 2, then strong
Lucas, in Montgomery arithmetic; one call per segment), and, for the
Lambda sums, a residue filter that passes every value that
could be a proper prime power (candidates go to exact integer roots and
the scalar is_prime). Scalar is_prime is also the reference route:
enumerate_cubic_primes tests every value with it. Counts, the
weighted Lambda sums and the prime-power tail are reductions over that
walk, so Lambda(v) is log v on a certified prime, log p on a certified p^e
and 0 elsewhere, without factorising. The predicted side is the truncated
product over primes p of 1 - (rho_p - 1)/(p - 1), rho_p the number of
roots of x^3 + k mod p, times x^(1/3)/log x.
Everything here is deterministic: terms are taken in ascending n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice

import numpy as np

from .arith import (
    U64_MAX,
    integer_root,
    is_prime,
    is_prime_batch,
    primes_up_to,
    sigma,
    tau,
    totient,
)
from .errors import CapacityError, DomainError, ResourceError
from .residues import _rho_prime, roots_mod

RHS_BUDGET = 10**5  # lambda_sum_rhs scans roots mod every prime <= x
SERIES_BUDGET = 10**8  # singular_series loops in Python over every prime <= its cutoff
PROGRESSION_BUDGET = 10**7  # progression_weighted_sum adds up to x // q terms per class
_SEGMENT = 1 << 16
_ROOT_EXPONENTS = tuple(int(p) for p in primes_up_to(64))  # prime e with 2^e < 2^64


@dataclass(frozen=True)
class CountRecord:
    """Observed vs predicted count at a checkpoint x, with their ratio and
    the prime cutoff used for the predicted side's series truncation."""

    x: int
    observed: int
    predicted: float
    ratio: float
    p_cutoff: int


@dataclass(frozen=True)
class Weight:
    """Index weight for the Lambda sums: n^exponent, or one of the
    arithmetic functions totient/sigma/tau applied to the index n
    (those three vanish for n <= 0)."""

    kind: str
    exponent: int = 1

    _KINDS = ("power", "totient", "sigma", "tau")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"weight kind {self.kind!r} not in {self._KINDS}")
        if self.kind == "power" and self.exponent < 0:
            raise DomainError("power weight needs exponent >= 0")

    def __call__(self, n: int) -> int:
        if self.kind == "power":
            return n**self.exponent
        if self.kind == "totient":
            return totient(n)
        if self.kind == "sigma":
            return sigma(n)
        return tau(n)

    def __str__(self) -> str:
        return f"power({self.exponent})" if self.kind == "power" else self.kind


@dataclass(frozen=True)
class WeightedSumRecord:
    x: int
    weight: Weight
    value: float
    tail_value: float
    bound: float


@dataclass(frozen=True)
class ProgressionSum:
    """Sum of n <= x over the cube-root residue classes of a mod q,
    computed twice (direct iteration and closed form) plus the leading
    term rho * x^2 / (2q)."""

    q: int
    a: int
    x: int
    roots: tuple[int, ...]
    exact: int
    closed_form: int
    leading: float


def _first_index_at_least(k: int, w: int) -> int:
    """Smallest n with n^3 + k >= w."""
    t = w - k
    if t <= 0:
        return -integer_root(-t, 3)
    return integer_root(t - 1, 3) + 1


def min_index(k: int) -> int:
    """Smallest n with n^3 + k >= 2 (can be negative for k > 2)."""
    return _first_index_at_least(k, 2)


def max_index(k: int, x: int) -> int:
    """Largest n with n^3 + k <= x."""
    t = x - k
    if t >= 0:
        return integer_root(t, 3)
    return -(integer_root(-t - 1, 3) + 1)


@lru_cache(maxsize=8)
def _prescreen(k: int, bound: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(p, roots of n^3 = -k mod p, first n with n^3 + k > p) per sieve prime."""
    out = []
    for p in primes_up_to(bound):
        p = int(p)
        roots = roots_mod(k, p)
        if not roots:
            continue
        t = integer_root(max(p - k, 0), 3)
        while t**3 + k <= p:
            t += 1
        out.append((p, tuple(roots), t))
    return tuple(out)


def _alive(lo: int, hi: int, prescreen) -> np.ndarray:
    """Progression sieve over n in [lo, hi]: False where a sieve prime p
    divides n^3 + k > p."""
    alive = np.ones(hi - lo + 1, dtype=bool)
    for p, roots, tmin in prescreen:
        start = max(lo, tmin)
        if start > hi:
            continue
        for r in roots:
            first = start + ((r - start) % p)
            if first <= hi:
                alive[first - lo :: p] = False
    return alive


def _prescreen_bound(span: int) -> int:
    if span < 10**3:
        return 100
    if span < 10**5:
        return 10**3
    return 10**4


@lru_cache(maxsize=None)
def _power_moduli(q: int) -> tuple[int, ...]:
    """Moduli whose q-th power residues make up the filter for exponent q:
    a value that is a q-th power is a q-th power residue mod every one."""
    if q == 2:
        return (64, 63, 65, 11)
    if q == 3:
        return (63, 13, 19, 37)
    return tuple(islice((m for m in count(2 * q + 1, 2 * q) if is_prime(m)), 3))


@lru_cache(maxsize=None)
def _power_residues(q: int, m: int) -> np.ndarray:
    """Boolean table of the q-th powers mod m (0 included)."""
    residue = np.zeros(m, dtype=bool)
    residue[[pow(s, q, m) for s in range(m)]] = True
    return residue


def _power_filter(k: int, bits: int) -> list[list[tuple[int, np.ndarray]]]:
    """Per prime q < bits, ascending, its (m, table) pairs: table[n mod m]
    says whether n^3 + k is a q-th power residue mod m."""
    out = []
    for q in _ROOT_EXPONENTS:
        if q >= bits:
            break
        per_q = []
        for m in _power_moduli(q):
            r = np.arange(m, dtype=np.int64)
            per_q.append((m, _power_residues(q, m)[(r * r * r + k % m) % m]))
        out.append(per_q)
    return out


def _maybe_power(lo: int, size: int, power_filter) -> np.ndarray:
    """True at offset i when n = lo + i passes every table of some q; a
    necessary condition for n^3 + k = p^e with e >= 2."""
    mask = np.zeros(size, dtype=bool)
    offsets = np.arange(size, dtype=np.int64)
    for per_q in power_filter:
        cand = offsets
        for m, table in per_q:
            cand = cand[table[(cand + lo % m) % m]]
        mask[cand] = True
    return mask


def _walk(k: int, lo: int, bounds: list[int], primes: bool = True, powers: bool = False):
    """Walk n from lo through the ascending index bounds in 65536-index
    segments. Yield (n, v, p) in ascending n for each value v = n^3 + k
    that is prime (p = v, when primes is set) or a proper prime power p^e
    (when powers is set), and None on reaching each bound.

    Each segment's sieve survivors are formed as uint64 values (exact,
    since every walked value lies in [0, 2^64)) and certified by one
    Baillie-PSW is_prime_batch call; filter candidates go one by one to
    _prime_power_base and the scalar is_prime. The masks only decide which
    values get tested.
    """
    prescreen = _prescreen(k, _prescreen_bound(bounds[-1] - lo + 1)) if primes else ()
    power_filter = _power_filter(k, (bounds[-1] ** 3 + k).bit_length()) if powers else ()
    for b in bounds:
        while lo <= b:
            hi = min(lo + _SEGMENT - 1, b)
            size = hi - lo + 1
            prime = np.zeros(size, dtype=bool)
            if primes:
                alive = np.flatnonzero(_alive(lo, hi, prescreen))
                nu = alive.astype(np.uint64) + np.uint64(lo % 2**64)
                prime[alive] = is_prime_batch(nu * nu * nu + np.uint64(k % 2**64))
            maybe = _maybe_power(lo, size, power_filter) if powers else np.zeros(size, dtype=bool)
            for i in np.flatnonzero(prime | maybe).tolist():
                n = lo + i
                v = n * n * n + k
                if prime[i]:
                    yield n, v, v
                elif maybe[i] and v >= 4:
                    p = _prime_power_base(v)
                    if p is not None:
                        yield n, v, p
            lo = hi + 1
        yield None


def _running_counts(k: int, bounds: list[int]) -> list[int]:
    """Number of primes n^3 + k over n from min_index(k) up to each of the
    ascending index bounds, in one walk."""
    totals, running = [], 0
    for hit in _walk(k, min_index(k), bounds):
        if hit is None:
            totals.append(running)
        else:
            running += 1
    return totals


def count_cubic_primes(k: int, x: int) -> int:
    """Number of n >= min_index(k) with n^3 + k prime and <= x."""
    if x > U64_MAX:
        raise CapacityError(f"x = {x} exceeds the unsigned 64-bit value budget")
    return _running_counts(k, [max_index(k, x)])[0]


def enumerate_cubic_primes(k: int, n_max: int) -> list[tuple[int, int]]:
    """All (n, n^3 + k) with the value prime, for n from min_index(k) to n_max.

    Every value goes to scalar is_prime, without the walk's sieve or batch
    certifier, so this is a route independent of count_cubic_primes.
    """
    if n_max >= 0 and n_max**3 + k > U64_MAX:
        raise CapacityError(f"n^3 + k at n = {n_max} exceeds the unsigned 64-bit value budget")
    out = []
    for n in range(min_index(k), n_max + 1):
        v = n * n * n + k
        if is_prime(v):
            out.append((n, v))
    return out


def singular_series(k: int, p_cutoff: int) -> float:
    """Truncated product over primes p <= p_cutoff of the local factor
    1 - (rho_p - 1)/(p - 1), rho_p the number of roots of x^3 + k mod p,
    taken in increasing p order. Only p = 1 mod 3 not dividing k move it:
    by 1 - 2/(p - 1) when -k is a cube mod p (3 roots), by 1 + 1/(p - 1)
    otherwise (none).

    The product converges only conditionally, so the order is part of the
    contract; truncations oscillate slowly as the cutoff grows. A cube k
    (0 included) makes x^3 + k reducible and raises DomainError; a cutoff
    above SERIES_BUDGET raises ResourceError before any sieving.
    """
    if p_cutoff < 0:
        raise DomainError("p_cutoff must be >= 0")
    if p_cutoff > SERIES_BUDGET:
        raise ResourceError(f"p_cutoff {p_cutoff} exceeds series budget {SERIES_BUDGET}")
    if integer_root(abs(k), 3) ** 3 == abs(k):
        raise DomainError(f"x^3 + {k} is reducible: {k} is a cube")
    out = 1.0
    for p in primes_up_to(p_cutoff):
        p = int(p)
        out *= 1 - (_rho_prime(k, p) - 1) / (p - 1)
    return out


def predicted_count(k: int, x: int, p_cutoff: int) -> float:
    """Conjectured main term: singular_series * x^(1/3) / log x, x >= 8."""
    if x < 8:
        raise DomainError(f"x = {x} below 8; the main term x^(1/3)/log x needs log x > 1")
    return singular_series(k, p_cutoff) * _main_term(x)


def _main_term(x: int) -> float:
    return float(x) ** (1.0 / 3.0) / math.log(x)


def count_table(k: int, checkpoints: list[int], p_cutoff: int) -> list[CountRecord]:
    """CountRecord per checkpoint, observed in one ascending pass."""
    if not checkpoints:
        return []
    if sorted(checkpoints) != list(checkpoints):
        raise DomainError("checkpoints must be ascending")
    if checkpoints[0] < 8:
        raise DomainError("checkpoints below 8 have no predicted main term")
    if checkpoints[-1] > U64_MAX:
        raise CapacityError("checkpoint exceeds the unsigned 64-bit value budget")
    series = singular_series(k, p_cutoff)
    observed = _running_counts(k, [max_index(k, x) for x in checkpoints])
    records = []
    for x, running in zip(checkpoints, observed):
        predicted = series * _main_term(x)
        records.append(
            CountRecord(x=x, observed=running, predicted=predicted,
                        ratio=running / predicted, p_cutoff=p_cutoff)
        )
    return records


def weighted_lambda_sum(k: int, weight: Weight, x: int) -> WeightedSumRecord:
    """sum of weight(n) * Lambda(n^3 + k) over integers n with 1 <= n^3 + k <= x.

    tail_value collects the sub-sum where n^3 + k is a proper prime power
    (exponent >= 2); bound is sqrt(x) * log(x)^2. The terms come from the
    segmented walk (certified primes and certified prime powers) and are
    added in ascending n.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    if x > U64_MAX:
        raise CapacityError(f"x = {x} exceeds the unsigned 64-bit value budget")
    total = 0.0
    tail = 0.0
    for hit in _walk(k, _first_index_at_least(k, 1), [max_index(k, x)], powers=True):
        if hit is None:
            break
        n, v, p = hit
        w = weight(n)
        if w == 0:
            continue
        term = w * math.log(p)
        total += term
        if p != v:
            tail += term
    return WeightedSumRecord(
        x=x, weight=weight, value=total, tail_value=tail,
        bound=math.sqrt(x) * math.log(x) ** 2,
    )


def _ap_sum(r: int, d: int, lo: int, hi: int) -> int:
    """Sum of n in [lo, hi] with n = r mod d."""
    first = lo + ((r - lo) % d)
    if first > hi:
        return 0
    cnt = (hi - first) // d + 1
    return cnt * (2 * first + (cnt - 1) * d) // 2


def lambda_sum_rhs(k: int, x: int) -> float:
    """The divisor-side evaluation of the weighted sum with weight n:
    -sum over squarefree d of mu(d) log d times (sum of n in the index range
    with d | n^3 + k), the terms added in ascending d.

    The roots of n^3 = -k mod each prime p <= x come from a linear scan; the
    roots mod a squarefree d are built from those of its primes by CRT, and
    mu(d) = (-1)^omega(d). The index range matches weighted_lambda_sum
    (1 <= n^3 + k <= x), so every divisor that occurs is <= x and the two
    sides agree exactly up to float rounding.
    """
    if x < 2:
        raise DomainError("x must be >= 2")
    if x > RHS_BUDGET:
        raise ResourceError(f"x = {x} exceeds divisor-scan budget {RHS_BUDGET}")
    lo = _first_index_at_least(k, 1)
    hi = max_index(k, x)
    if hi < lo:
        return 0.0
    prime_roots = [(p, roots) for p in primes_up_to(x).tolist() if (roots := roots_mod(k, p))]
    terms = {}  # squarefree d with a root -> (mu(d), sum of n in range with d | n^3 + k)
    stack = [(1, 1, [0], 0)]  # d, mu(d), roots mod d, index of the next prime to try
    while stack:
        d, m, roots, j = stack.pop()
        for i in range(j, len(prime_roots)):
            p, p_roots = prime_roots[i]
            dp = d * p
            if dp > x:
                break
            inv = pow(d, -1, p)
            crt = [r + d * ((t - r) * inv % p) for r in roots for t in p_roots]
            terms[dp] = (-m, sum(_ap_sum(r, dp, lo, hi) for r in crt))
            stack.append((dp, -m, crt, i + 1))
    total = 0.0
    for d in sorted(terms):
        m, s = terms[d]
        if s:
            total += m * math.log(d) * s
    return -total


def progression_weighted_sum(q: int, a: int, x: int) -> ProgressionSum:
    """Sum of n <= x over residue classes solving n^3 = a mod q.

    exact iterates every term; closed_form uses, per root b, the corrected
    formula q*M*(M+1)/2 + b*M + b with M = floor((x-b)/q), whose final +b
    is the m = 0 term that the uncorrected q*M*(M+1)/2 + b*M form drops
    (for q=5, b=2, x=20 the uncorrected form gives 36 against a true 38).
    x // q above PROGRESSION_BUDGET raises ResourceError.
    """
    if q < 1 or x < 1:
        raise DomainError("q and x must be >= 1")
    if x // q > PROGRESSION_BUDGET:
        raise ResourceError(f"x // q = {x // q} exceeds the term budget {PROGRESSION_BUDGET}")
    roots = tuple(roots_mod(-a, q))
    exact = 0
    closed = 0
    for b in roots:
        first = b if b >= 1 else q
        exact += sum(range(first, x + 1, q))
        if b == 0:
            m = x // q
            closed += q * m * (m + 1) // 2
        elif b <= x:
            m = (x - b) // q
            closed += q * m * (m + 1) // 2 + b * m + b
    return ProgressionSum(
        q=q, a=a, x=x, roots=roots, exact=exact, closed_form=closed,
        leading=len(roots) * x * x / (2 * q),
    )


def prime_power_tail(k: int, checkpoints: list[int]) -> list[tuple[float, float]]:
    """(tail, bound) at each of the ascending checkpoints x, as running
    totals of one walk: tail = sum of n * Lambda(n^3 + k) over n >= 1 whose
    value is a proper prime power p^v <= x with v >= 2; bound is the
    comparison quantity sqrt(x) * log(x)^2. Both are 0.0 for x < 1.

    Candidates are the values that pass the residue filter; each is
    certified by exact integer roots and a primality test of the base,
    not by factoring. The terms are added in ascending n.
    """
    if sorted(checkpoints) != list(checkpoints):
        raise DomainError("checkpoints must be ascending")
    if not checkpoints:
        return []
    if checkpoints[-1] > U64_MAX:
        raise CapacityError(f"x = {checkpoints[-1]} exceeds the unsigned 64-bit value budget")
    lo = max(1, min_index(k))
    hits = _walk(k, lo, [max(max_index(k, x), lo - 1) for x in checkpoints],
                 primes=False, powers=True)
    out, tail = [], 0.0
    for x in checkpoints:
        for hit in hits:
            if hit is None:
                break
            n, _, p = hit
            tail += n * math.log(p)
        out.append((tail, math.sqrt(x) * math.log(x) ** 2) if x >= 1 else (0.0, 0.0))
    return out


def _prime_power_base(v: int) -> int | None:
    """p when v = p^e with e >= 2, else None.

    Only prime exponents q are tried, smallest first: an e-th power is a
    q-th power for every prime q | e. An exact root replaces the base and is
    tried again at the same q. Smaller q need no second try: a q-th root of
    the root would have been a q-th root of the base before it.
    """
    base = v
    for q in _ROOT_EXPONENTS:
        if q >= base.bit_length():
            break
        r = integer_root(base, q)
        while r**q == base:
            base = r
            r = integer_root(base, q)
    return base if base != v and is_prime(base) else None
