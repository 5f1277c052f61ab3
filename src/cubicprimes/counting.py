"""Counting primes of the form n^3 + k and the sums that support
the count's predicted main term.

The observed side is one walk over the index range of n^3 + k in ascending
segments of at most _SEGMENT = 2^17 indices (_spans), split at each
checkpoint's index bound; every segment carries the position of its
bound, the first bound at or above its indices. A segment's prime mask is
a progression sieve against the primes up to 10^2, 10^3 or 10^5 (by the
walk's span), struck at the roots of n^3 + k mod each
(residues._cube_roots) where the value is above that bound, so that a
struck value is composite. The survivors, values up to the bound among
them, are certified together by the batched Baillie-PSW test
(is_prime_batch: strong base 2, then strong Lucas, in Montgomery
arithmetic written in place; one call per segment, about 8k survivors at
10^18). Counts add each segment's prime count to its bound. The weighted Lambda sums and the
prime-power tail read one generator, _walk, which also marks the values
that are q-th powers for a prime q by an exact test (each power's base is
then found by exact integer roots and certified by the scalar is_prime)
and yields each hit with its bound position. So Lambda(v) is log v on a
certified prime, log p on a certified p^e and 0 elsewhere, without
factorising. The predicted side is the truncated
product over primes p of 1 - (rho_p - 1)/(p - 1), rho_p the number of
roots of x^3 + k mod p, times x^(1/3)/log x.
Everything here is deterministic: terms are taken in ascending n, and
counts add the segment counts of forked workers in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

import numpy as np

from .arith import (
    U64_MAX,
    _is_power,
    integer_root,
    is_prime,
    is_prime_batch,
    primes_up_to,
    sigma,
    tau,
    totient,
)
from .errors import CapacityError, DomainError, ResourceError
from .residues import _cube_roots, _residues, _rho_primes, roots_mod

RHS_BUDGET = 5 * 10**7  # lambda_sum_rhs tests every prime <= x on each value: 7.5 s, 122 MB
SERIES_BUDGET = 10**8  # singular_series sieves every prime <= its cutoff
_SERIES_BLOCK = 4096  # primes per cumprod block of singular_series
PROGRESSION_BUDGET = 10**7  # progression_weighted_sum adds up to x // q terms per class
_SEGMENT = 1 << 17  # indices a segment: one is_prime_batch call each
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
    """Index weight for the Lambda sums: n^exponent (exponent 1 when none
    is given), or one of the arithmetic functions totient/sigma/tau applied
    to the index n (those three vanish for n <= 0 and take no exponent)."""

    kind: str
    exponent: int | None = None

    _KINDS = ("power", "totient", "sigma", "tau")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"weight kind {self.kind!r} not in {self._KINDS}")
        if self.kind != "power":
            if self.exponent is not None:
                raise DomainError(f"an exponent applies to the power weight, not {self.kind}")
        elif self.exponent is None:
            object.__setattr__(self, "exponent", 1)
        elif self.exponent < 0:
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
    return _first_index_at_least(k, x + 1) - 1


def _check_weights(lo: int, hi: int, exponent: int) -> None:
    """CapacityError unless every weight |n|^exponent over n in [lo, hi]
    is a float, so that the Lambda sums can add it."""
    if hi < lo:
        return
    top = max(abs(lo), abs(hi))
    try:
        if (top.bit_length() - 1) * exponent >= 1024:
            raise OverflowError
        float(top**exponent)
    except OverflowError:
        raise CapacityError(
            f"the weight |n|^{exponent} at a {top.bit_length()}-bit index n "
            "exceeds the float range") from None


class _Sieve(NamedTuple):
    """The walk's progression sieve: n = r mod p strikes n^3 + k from n =
    top on, where every value exceeds every sieve prime."""

    p: np.ndarray  # int64 sieve prime of each progression
    r: np.ndarray  # int64 root of n^3 = -k mod p
    top: int  # the first n whose value n^3 + k is above the sieve bound


_SLICE_PRIMES = 1024  # _alive strikes p up to this by strided slices


@lru_cache(maxsize=8)
def _prescreen(k: int, bound: int) -> _Sieve:
    """The progressions of every prime p <= bound that has roots mod p."""
    primes = primes_up_to(bound)
    i, r = _cube_roots(k, primes)
    return _Sieve(primes[i], r, _first_index_at_least(k, bound + 1))


def _alive(lo: int, hi: int, prescreen: _Sieve) -> np.ndarray:
    """Progression sieve over n in [lo, hi]: False where n >= top and a
    sieve prime divides n^3 + k. A struck value exceeds the bound, so it is
    a proper multiple of its sieve prime and composite; the few values up to
    the bound stay for the certifier, which refuses those below 2.

    Every progression is struck over the whole range: primes up to
    _SLICE_PRIMES by one strided slice each, the larger ones all together,
    their offsets advanced by p until they pass hi, so no array outgrows the
    progression list. The offsets (r - lo) mod p are exact for any Python
    int lo (residues._residues). Then the indices below top are put back.

    Sieved to 10^5, the walk of k = 2 to 10^18 keeps 63,275 of its 10^6
    indices (78,995 at 10^4), and each survivor costs one base-2 test. The
    strikes of its 11 segments take about 0.008 s in one process (0.010 s
    over the 19 segments of 2^16 indices; 0.017 s on 2 cores with slices
    only up to 256).
    """
    size = hi - lo + 1
    alive = np.ones(size, dtype=bool)
    p = prescreen.p
    at = (prescreen.r - _residues(lo, p)) % p
    small = p <= _SLICE_PRIMES
    for first, q in zip(at[small].tolist(), p[small].tolist()):
        alive[first::q] = False
    at, step = at[~small], p[~small]
    while at.size:
        live = at < size
        at, step = at[live], step[live]
        alive[at] = False
        at += step
    if lo < prescreen.top:
        alive[: min(prescreen.top, hi + 1) - lo] = True
    return alive


def _prescreen_bound(span: int) -> int:
    """Sieve bound for a walk over span indices: the deepest, 10^5, from
    10^5 indices on, where the 9,592 primes' roots take about 0.01 s."""
    if span < 10**3:
        return 100
    if span < 10**5:
        return 10**3
    return 10**5


def _cubes(n: np.ndarray, lo: int, k: int) -> np.ndarray:
    """The values (lo + n)^3 + k for uint64 offsets n, formed in uint64 in
    place over n: exact, since every walked value lies in [0, 2^64)."""
    n += np.uint64(lo % 2**64)
    v = n * n
    v *= n
    v += np.uint64(k % 2**64)
    return v


def _spans(lo: int, bounds: list[int]) -> list[tuple[int, int, int]]:
    """The walk's segments from lo through the ascending index bounds:
    (lo, hi, i) for each run of at most _SEGMENT indices, i the position in
    bounds of the first bound >= hi. A bound below the walk adds none."""
    spans = []
    for i, b in enumerate(bounds):
        while lo <= b:
            hi = min(lo + _SEGMENT - 1, b)
            spans.append((lo, hi, i))
            lo = hi + 1
    return spans


def _prime_mask(k: int, lo: int, hi: int, prescreen: _Sieve) -> np.ndarray:
    """Marks the n in [lo, hi] whose value n^3 + k is prime: the sieve
    survivors, formed as uint64 values and certified by one Baillie-PSW
    is_prime_batch call. Ufuncs only (no BLAS): forked workers run it."""
    prime = np.zeros(hi - lo + 1, dtype=bool)
    alive = np.flatnonzero(_alive(lo, hi, prescreen))
    prime[alive] = is_prime_batch(_cubes(alive.astype(np.uint64), lo, k))
    return prime


def _walk(k: int, lo: int, bounds: list[int], primes: bool = True):
    """Walk n from lo through the ascending index bounds over _spans, and
    yield (i, n, v, p) in ascending n for each value v = n^3 + k that is
    prime (p = v; only when primes is set) or a certified proper prime power
    p^e, where i is the span's bound index: the first bound >= n.

    Each segment takes its power mask before its prime mask (_prime_mask;
    the other order measured a higher peak RSS on the Lambda sums): every
    value of the segment is formed, and _is_power marks the exact
    q-th powers for each prime q below the largest value's bit length;
    _prime_power_base then finds each one's base and certifies it. The
    values and _is_power's two buffers take about 26 B an index, so a walk
    longer than one segment holds about 3.3 MB of them (tracemalloc peak,
    1.6 MB when segments had 2^16 indices).
    """
    prescreen = _prescreen(k, _prescreen_bound(bounds[-1] - lo + 1)) if primes else None
    for lo, hi, i in _spans(lo, bounds):
        size = hi - lo + 1
        power = np.zeros(size, dtype=bool)
        prime = _prime_mask(k, lo, hi, prescreen) if primes else np.zeros(size, dtype=bool)
        values = _cubes(np.arange(size, dtype=np.uint64), lo, k)
        bits = (hi**3 + k).bit_length()
        for q in _ROOT_EXPONENTS:
            if q >= bits:
                break
            power |= _is_power(values, q)
        del values
        for j in np.flatnonzero(prime | power).tolist():
            n = lo + j
            v = n * n * n + k
            if prime[j]:
                yield i, n, v, v
            elif v >= 4:
                p = _prime_power_base(v)
                if p is not None:
                    yield i, n, v, p


def _running_counts(k: int, bounds: list[int], stats: dict | None = None) -> list[int]:
    """Number of primes n^3 + k over n from min_index(k) up to each of the
    ascending index bounds, in one walk whose spans forked.split_counts
    shares out among processes by index count. stats, when given, gets the
    processes used as "workers" and the spans as "segments"."""
    from . import forked  # here, so that commands that never count never compile it

    lo = min_index(k)
    spans = _spans(lo, bounds)
    prescreen = _prescreen(k, _prescreen_bound(bounds[-1] - lo + 1))

    def count(span):
        return int(np.count_nonzero(_prime_mask(k, span[0], span[1], prescreen)))

    counts, workers = forked.split_counts(count, spans, lambda s: s[1] - s[0] + 1, _SEGMENT)
    per_bound = [0] * len(bounds)
    for (_, _, i), c in zip(spans, counts):
        per_bound[i] += c
    if stats is not None:
        stats.update(workers=workers, segments=len(spans))
    return list(accumulate(per_bound))


def singular_series(k: int, p_cutoff: int) -> float:
    """Truncated product over primes p <= p_cutoff of the local factor
    1 - (rho_p - 1)/(p - 1), rho_p the number of roots of x^3 + k mod p,
    taken in increasing p order. Only p = 1 mod 3 not dividing k move it:
    by 1 - 2/(p - 1) when -k is a cube mod p (3 roots), by 1 + 1/(p - 1)
    otherwise (none).

    The product converges only conditionally, so the order is part of the
    contract; truncations oscillate slowly as the cutoff grows. The factors
    are multiplied strictly left to right: np.cumprod over blocks of
    _SERIES_BLOCK primes, the running product carried into each block's
    first factor. A cube k (0 included) makes x^3 + k reducible and raises
    DomainError; a cutoff above SERIES_BUDGET raises ResourceError before
    any sieving.
    """
    if p_cutoff < 0:
        raise DomainError("p_cutoff must be >= 0")
    if p_cutoff > SERIES_BUDGET:
        raise ResourceError(f"p_cutoff {p_cutoff} exceeds series budget {SERIES_BUDGET}")
    if integer_root(abs(k), 3) ** 3 == abs(k):
        raise DomainError(f"x^3 + {k} is reducible: {k} is a cube")
    out = 1.0
    primes = primes_up_to(p_cutoff)
    for lo in range(0, primes.size, _SERIES_BLOCK):
        p = primes[lo : lo + _SERIES_BLOCK]
        factors = 1 - (_rho_primes(k, p) - 1) / (p - 1)
        factors[0] *= out
        out = float(np.cumprod(factors)[-1])
    return out


def _main_term(x: int) -> float:
    return float(x) ** (1.0 / 3.0) / math.log(x)


def count_table(k: int, checkpoints: list[int], p_cutoff: int,
                stats: dict | None = None) -> list[CountRecord]:
    """CountRecord per checkpoint, observed in one ascending pass (see
    _running_counts for stats)."""
    if not checkpoints:
        return []
    if sorted(checkpoints) != list(checkpoints):
        raise DomainError("checkpoints must be ascending")
    if checkpoints[0] < 8:
        raise DomainError("checkpoints below 8 have no predicted main term")
    if checkpoints[-1] > U64_MAX:
        raise CapacityError("checkpoint exceeds the unsigned 64-bit value budget")
    series = singular_series(k, p_cutoff)
    observed = _running_counts(k, [max_index(k, x) for x in checkpoints], stats)
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
    lo, hi = _first_index_at_least(k, 1), max_index(k, x)
    _check_weights(lo, hi, weight.exponent if weight.kind == "power" else 1)
    total = 0.0
    tail = 0.0
    for _, n, v, p in _walk(k, lo, [hi]):
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


def lambda_sum_rhs(k: int, x: int) -> float:
    """The divisor-side evaluation of the weighted sum with weight n:
    -sum over squarefree d of mu(d) log d times (sum of n in the index range
    with d | n^3 + k), the terms added in ascending d.

    The index range matches weighted_lambda_sum (1 <= n^3 + k <= x), so
    every value lies in [1, x] and every divisor that occurs is <= x: each
    prime p <= x is tested against the values themselves, with no roots mod
    p. The squarefree divisors of a value are the products of the r-subsets
    of the primes that divide it, each with mu = (-1)^r. The two sides
    agree exactly up to float rounding.
    """
    if x < 2:
        raise DomainError("x must be >= 2")
    if x > RHS_BUDGET:
        raise ResourceError(f"x = {x} exceeds divisor-scan budget {RHS_BUDGET}")
    lo = _first_index_at_least(k, 1)
    hi = max_index(k, x)
    if hi < lo:
        return 0.0
    _check_weights(lo, hi, 1)
    primes = primes_up_to(x)
    terms = {}  # squarefree d > 1 -> (mu(d), sum of n in range with d | n^3 + k)
    for n in range(lo, hi + 1):
        ps = primes[(n * n * n + k) % primes == 0].tolist()
        for r in range(1, len(ps) + 1):
            for subset in combinations(ps, r):
                d = math.prod(subset)
                m, s = terms.get(d, ((-1) ** r, 0))
                terms[d] = (m, s + n)
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

    Each value that is an exact q-th power for a prime q is certified by
    exact integer roots and a primality test of the base, not by
    factoring. The terms are added in ascending n.
    """
    if sorted(checkpoints) != list(checkpoints):
        raise DomainError("checkpoints must be ascending")
    if not checkpoints:
        return []
    if checkpoints[-1] > U64_MAX:
        raise CapacityError(f"x = {checkpoints[-1]} exceeds the unsigned 64-bit value budget")
    lo = max(1, min_index(k))
    bounds = [max_index(k, x) for x in checkpoints]
    _check_weights(lo, bounds[-1], 1)
    running, tail = {}, 0.0  # bound index -> the tail after its last hit
    for i, n, _, p in _walk(k, lo, bounds, primes=False):
        tail += n * math.log(p)
        running[i] = tail
    out, tail = [], 0.0
    for i, x in enumerate(checkpoints):
        tail = running.get(i, tail)
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
