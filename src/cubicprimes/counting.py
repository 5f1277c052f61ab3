"""Counting primes of the form f(n) = n^3 + k and the sums that support
the count's predicted main term.

The observed side enumerates n, prescreens values against small-prime
arithmetic progressions with numpy, and certifies survivors with
deterministic Miller-Rabin. The predicted side is the truncated product
over p = 1 mod 3 of (1 - 2*chi/(p-1)) times x^(1/3)/log x. Everything here
is deterministic: the index range is walked once, in ascending segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    U64_MAX,
    Polynomial,
    factorize,
    integer_cuberoot,
    integer_root,
    is_prime,
    primes_up_to,
    sieve_range,
    sigma,
    tau,
    totient,
)
from .errors import CapacityError, DomainError, ResourceError
from .residues import is_cube_mod, roots_mod

RHS_BUDGET = 10**5  # lambda_sum_rhs scans roots mod every d <= x
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
        return -integer_cuberoot(-t)
    return integer_cuberoot(t - 1) + 1


def min_index(k: int) -> int:
    """Smallest n with n^3 + k >= 2 (can be negative for k > 2)."""
    return _first_index_at_least(k, 2)


def max_index(k: int, x: int) -> int:
    """Largest n with n^3 + k <= x."""
    t = x - k
    if t >= 0:
        return integer_cuberoot(t)
    return -(integer_cuberoot(-t - 1) + 1)


@lru_cache(maxsize=8)
def _prescreen(k: int, bound: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(p, roots of n^3 = -k mod p, first n with n^3 + k > p) per sieve prime."""
    f = Polynomial.cubic(k)
    out = []
    for p in primes_up_to(bound):
        p = int(p)
        roots = roots_mod(f, p)
        if not roots:
            continue
        t = integer_cuberoot(max(p - k, 0))
        while t**3 + k <= p:
            t += 1
        out.append((p, tuple(roots), t))
    return tuple(out)


def _count_segment(k: int, lo: int, hi: int, prescreen) -> int:
    """Primes n^3 + k for n in [lo, hi]: progression sieve, then Miller-Rabin
    on the survivors."""
    alive = np.ones(hi - lo + 1, dtype=bool)
    for p, roots, tmin in prescreen:
        start = max(lo, tmin)
        if start > hi:
            continue
        for r in roots:
            first = start + ((r - start) % p)
            if first <= hi:
                alive[first - lo :: p] = False
    total = 0
    for n in np.flatnonzero(alive):
        n = int(n) + lo
        if is_prime(n * n * n + k):
            total += 1
    return total


def _prescreen_bound(span: int) -> int:
    if span < 10**3:
        return 100
    if span < 10**5:
        return 10**3
    return 10**4


def _running_counts(k: int, bounds: list[int]) -> list[int]:
    """Number of primes n^3 + k over n from min_index(k) up to each of the
    ascending index bounds, in one walk of 65536-index segments."""
    lo = min_index(k)
    prescreen = _prescreen(k, _prescreen_bound(bounds[-1] - lo + 1))
    totals, running = [], 0
    for b in bounds:
        while lo <= b:
            hi = min(lo + _SEGMENT - 1, b)
            running += _count_segment(k, lo, hi, prescreen)
            lo = hi + 1
        totals.append(running)
    return totals


def count_cubic_primes(k: int, x: int) -> int:
    """Number of n >= min_index(k) with n^3 + k prime and <= x."""
    if x > U64_MAX:
        raise CapacityError(f"x = {x} exceeds the unsigned 64-bit value budget")
    return _running_counts(k, [max_index(k, x)])[0]


def enumerate_cubic_primes(k: int, n_max: int) -> list[tuple[int, int]]:
    """All (n, n^3 + k) with the value prime, for n from min_index(k) to n_max."""
    if n_max >= 0 and n_max**3 + k > U64_MAX:
        raise CapacityError(f"n^3 + k at n = {n_max} exceeds the unsigned 64-bit value budget")
    out = []
    for n in range(min_index(k), n_max + 1):
        v = n * n * n + k
        if is_prime(v):
            out.append((n, v))
    return out


def singular_series(k: int, p_cutoff: int, primes: np.ndarray | None = None) -> float:
    """Truncated product over primes p = 1 mod 3, p not dividing k, of
    1 - 2*chi(-k, p)/(p - 1), taken in increasing p order.

    The product converges only conditionally, so the order is part of the
    contract; truncations oscillate slowly as the cutoff grows. A cube k
    (0 included) makes x^3 + k reducible and raises DomainError.
    """
    if p_cutoff < 0:
        raise DomainError("p_cutoff must be >= 0")
    if integer_cuberoot(abs(k)) ** 3 == abs(k):
        raise DomainError(f"x^3 + {k} is reducible: {k} is a cube")
    if primes is None:
        primes = primes_up_to(p_cutoff) if p_cutoff >= 2 else np.empty(0, dtype=np.int64)
    out = 1.0
    for p in primes:
        p = int(p)
        if p > p_cutoff:
            break
        if p % 3 != 1 or k % p == 0:
            continue
        c = 1.0 if is_cube_mod(-k, p) else -0.5
        out *= 1.0 - 2.0 * c / (p - 1)
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


def weighted_lambda_sum(f: Polynomial, weight: Weight, x: int) -> WeightedSumRecord:
    """sum of weight(n) * Lambda(f(n)) over integers n with 1 <= f(n) <= x.

    tail_value collects the sub-sum where f(n) is a proper prime power
    (exponent >= 2); bound is sqrt(x) * log(x)^2. Lambda comes from the
    full factorization of each value.
    """
    if f.degree != 3 or f.coefficients[-1] <= 0:
        raise DomainError("weighted sums need a cubic with positive leading coefficient")
    if x < 1:
        raise DomainError("x must be >= 1")
    if x > U64_MAX:
        raise CapacityError(f"x = {x} exceeds the unsigned 64-bit value budget")
    k = f.pure_cubic_shift()
    if k is not None:
        lo = _first_index_at_least(k, 1)
        hi = max_index(k, x)
    else:
        a = f.coefficients[-1]
        r = integer_cuberoot(x // a) + sum(abs(c) for c in f.coefficients) + 2
        lo, hi = -r, r
    total = 0.0
    tail = 0.0
    for n in range(lo, hi + 1):
        v = f(n)
        if v < 2 or v > x:
            continue
        fact = factorize(v)
        if len(fact.factors) != 1:
            continue
        p, e = fact.factors[0]
        w = weight(n)
        if w == 0:
            continue
        term = w * math.log(p)
        total += term
        if e >= 2:
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
    -sum over d of mu(d) log d times (sum of n in the index range with
    d | n^3 + k), the roots of n^3 = -k mod every d found by linear scan.

    The index range matches weighted_lambda_sum (1 <= n^3 + k <= x), so
    every divisor that occurs is <= x and the two sides agree exactly up
    to float rounding.
    """
    if x < 2:
        raise DomainError("x must be >= 2")
    if x > RHS_BUDGET:
        raise ResourceError(f"x = {x} exceeds divisor-scan budget {RHS_BUDGET}")
    f = Polynomial.cubic(k)
    lo = _first_index_at_least(k, 1)
    hi = max_index(k, x)
    if hi < lo:
        return 0.0
    mu = sieve_range(x).mu
    total = 0.0
    for d in range(2, x + 1):
        m = int(mu[d])
        if m == 0:
            continue
        s = 0
        for r in roots_mod(f, d):
            s += _ap_sum(r, d, lo, hi)
        if s:
            total += m * math.log(d) * s
    return -total


def progression_weighted_sum(q: int, a: int, x: int) -> ProgressionSum:
    """Sum of n <= x over residue classes solving n^3 = a mod q.

    exact iterates every term; closed_form uses, per root b, the corrected
    formula q*M*(M+1)/2 + b*M + b with M = floor((x-b)/q), whose final +b
    is the m = 0 term that the uncorrected q*M*(M+1)/2 + b*M form drops
    (for q=5, b=2, x=20 the uncorrected form gives 36 against a true 38).
    """
    if q < 1 or x < 1:
        raise DomainError("q and x must be >= 1")
    roots = tuple(roots_mod(Polynomial((-a, 0, 0, 1)), q))
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


def prime_power_tail(k: int, x: int) -> tuple[float, float]:
    """(tail, bound): tail = sum of n * Lambda(n^3 + k) over n >= 1 whose
    value is a proper prime power p^v <= x with v >= 2; bound is the
    comparison quantity sqrt(x) * log(x)^2.

    Prime powers are detected by exact integer root extraction, not by
    factoring: the largest v with an exact v-th root leaves a base that is
    prime iff the value is a prime power.
    """
    if x > U64_MAX:
        raise CapacityError(f"x = {x} exceeds the unsigned 64-bit value budget")
    if x < 1:
        return 0.0, 0.0
    tail = 0.0
    lo = max(1, min_index(k))
    for n in range(lo, max_index(k, x) + 1):
        v = n * n * n + k
        if v < 4:
            continue
        base = _prime_power_base(v)
        if base is not None:
            tail += n * math.log(base)
    return tail, math.sqrt(x) * math.log(x) ** 2


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
