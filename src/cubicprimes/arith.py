"""Integer arithmetic underneath everything else: sieves, the Mobius and
von Mangoldt functions, deterministic 64-bit primality, factorization
and exact integer roots.

Values handled here are plain Python ints, which never overflow;
the 64-bit guards below are input budgets, not wraparound protection.
The one exception is is_prime_batch, which takes uint64 arrays and does
exact arithmetic mod 2^64 on 32-bit limbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import CapacityError, DomainError, ResourceError

U64_MAX = 2**64 - 1
SIEVE_LIMIT_MAX = 10**9  # memory guard for sieve_range


@dataclass(frozen=True)
class ArithTables:
    """Sieve output for 2..limit: Mobius values and the ascending primes.

    mu is an int8 array indexed directly by n (entry 0 is padding); primes
    is an int64 array.
    """

    limit: int
    mu: np.ndarray
    primes: np.ndarray


@dataclass(frozen=True)
class Factorization:
    """n as a sorted tuple of (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def sieve_range(limit: int) -> ArithTables:
    """Sieve Mobius values for 0..limit from the primes of primes_up_to.

    limit outside [2, SIEVE_LIMIT_MAX] raises CapacityError. mu takes 1 byte
    per entry (int8) and primes 8 bytes per prime (int64, about
    limit / ln(limit) of them); building them adds primes_up_to's 1-byte
    boolean flags.
    """
    if limit < 2 or limit > SIEVE_LIMIT_MAX:
        raise CapacityError(f"sieve limit {limit} outside [2, {SIEVE_LIMIT_MAX}]")
    primes = primes_up_to(limit)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    n_small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[:n_small]:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    # a prime above sqrt(limit) has no square in range; flip the sign of its
    # multiples one multiplier m at a time, over every such prime at once
    big = primes[n_small:]
    m = 1
    while big.size:
        mu[m * big] *= -1
        m += 1
        big = big[: int(np.searchsorted(big, limit // m, side="right"))]
    return ArithTables(limit=limit, mu=mu, primes=primes)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending primes <= limit via a plain boolean sieve of Eratosthenes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > SIEVE_LIMIT_MAX:
        raise CapacityError(f"prime sieve limit {limit} above {SIEVE_LIMIT_MAX}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


# Strong-pseudoprime bases covering every n < 2^64; any composite in that
# range fails at least one of them.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (true answer, no error bound)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> 32
    b0, b1 = b & _LOW32, b >> 32
    mid = a1 * b0 + ((a0 * b0) >> 32)
    return a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & _LOW32)) >> 32)


def _montmul(a: np.ndarray, b: np.ndarray, n: np.ndarray, ninv: np.ndarray) -> np.ndarray:
    """a * b / 2^64 mod n (Montgomery REDC) for a, b < n, n odd, and
    ninv = -1/n mod 2^64.

    With m = (a*b mod 2^64) * ninv, a*b + m*n is divisible by 2^64; its
    quotient is hi(a*b) + hi(m*n) plus a carry from the low words, which
    is 1 unless the low word of a*b is 0. The quotient is below 2n, which
    overflows 64 bits when n > 2^63; that case, like quotient >= n, takes
    one subtraction of n (wrapping back into range).
    """
    lo = a * b
    s1 = _mulhi(a, b) + (lo != 0)
    s = s1 + _mulhi(lo * ninv, n)
    return np.where((s < s1) | (s >= n), s - n, s)


def _is_prime_odd_batch(n: np.ndarray) -> np.ndarray:
    """Strong-probable-prime verdicts on the 7 bases of _MR_BASES for odd
    n > 37 in uint64, in Montgomery form with R = 2^64. A base = 0 mod n
    is skipped, as in is_prime; after each base only values that passed it
    stay in the batch."""
    verdict = np.ones(n.size, dtype=bool)
    idx = np.arange(n.size)
    ninv = n.copy()  # Newton: n * n = 1 mod 8, and each step doubles the correct bits
    for _ in range(5):
        ninv *= 2 - n * ninv
    ninv = 0 - ninv
    one = (0 - n) % n  # R mod n, the Montgomery form of 1
    r2 = one.copy()  # R^2 mod n by 64 modular doublings of R mod n
    for _ in range(64):
        twice = r2 << 1
        r2 = np.where((r2 >> 63 == 1) | (twice >= n), twice - n, twice)
    m = n - 1  # = d * 2^s with d odd; 2^s, its lowest set bit, is exact as a float
    s = (np.frexp((m & (0 - m)).astype(np.float64))[1] - 1).astype(np.uint64)
    d = m >> s
    for a in _MR_BASES:
        base = np.uint64(a) % n
        am = _montmul(base, r2, n, ninv)
        minus_one = n - one
        x = one
        for bit in range(int(d.max()).bit_length() - 1, -1, -1):
            x = _montmul(x, x, n, ninv)
            x = np.where((d >> bit) & 1 == 1, _montmul(x, am, n, ninv), x)
        passed = (base == 0) | (x == one) | (x == minus_one)
        for j in range(1, int(s.max())):
            x = _montmul(x, x, n, ninv)
            passed |= (x == minus_one) & (s > j)
        verdict[idx[~passed]] = False
        idx, n, ninv, one, r2, s, d = (t[passed] for t in (idx, n, ninv, one, r2, s, d))
        if not idx.size:
            break
    return verdict


def is_prime_batch(values: np.ndarray) -> np.ndarray:
    """is_prime on every entry of a uint64 array, as a bool array: the
    same small-prime rule (v == p is prime, p | v composite) and the same
    7 Miller-Rabin bases, run together in exact 64-bit Montgomery
    arithmetic (32-bit limbs for each 128-bit product)."""
    values = np.asarray(values, dtype=np.uint64)
    out = values >= 2
    rest = out.copy()
    for p in _SMALL_PRIMES:
        hit = rest & (values % np.uint64(p) == 0)
        out[hit] = values[hit] == p
        rest &= ~hit
    if rest.any():
        out[rest] = _is_prime_odd_batch(values[rest])
    return out


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n. Deterministic: the polynomial
    increment c steps through 1, 2, 3, ... until a factor appears."""
    if n % 2 == 0:
        return 2
    for c in count(1):
        if c > 200:
            raise ResourceError(f"factor search exhausted its parameter budget on {n}")
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_up_to(1000))


def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1: trial division by primes below 1000,
    then deterministic Pollard-Brent splitting with primality certification
    of every final factor."""
    if n < 1:
        raise DomainError(f"cannot factor {n}; argument must be >= 1")
    m = n
    found: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            found[v] = found.get(v, 0) + 1
            continue
        d = _pollard_brent(v)
        stack.append(d)
        stack.append(v // d)
    return Factorization(n=n, factors=tuple(sorted(found.items())))


def von_mangoldt(n: int) -> float:
    """log p when n is a prime power p^v (v >= 1), else 0. Computed from the
    factorization so it works far beyond any sieve table."""
    if n < 1:
        raise DomainError(f"von Mangoldt argument {n} must be >= 1")
    if n == 1:
        return 0.0
    fact = factorize(n)
    if len(fact.factors) == 1:
        return math.log(fact.factors[0][0])
    return 0.0


def von_mangoldt_via_mobius(n: int) -> float:
    """The same value as von_mangoldt, but through the divisor identity
    -sum_{d | n} mu(d) log d, with every divisor enumerated explicitly.

    Kept as a second, structurally different route so the two can be
    cross-checked over a range.
    """
    if n < 1:
        raise DomainError(f"argument {n} must be >= 1")
    fact = factorize(n)
    primes = fact.distinct_primes
    total = 0.0
    # mu kills every non-squarefree divisor, but they are walked anyway:
    # each divisor is assembled from its exponent vector and scored.
    exps = [0] * len(primes)
    maxes = [e for _, e in fact.factors]
    while True:
        d = 1
        squarefree = True
        odd_primes = 0
        for p, e in zip(primes, exps):
            if e:
                d *= p**e
                odd_primes += 1
                if e > 1:
                    squarefree = False
        if squarefree and d > 1:
            total += (-1 if odd_primes % 2 else 1) * math.log(d)
        i = 0
        while i < len(exps) and exps[i] == maxes[i]:
            exps[i] = 0
            i += 1
        if i == len(exps):
            break
        exps[i] += 1
    return -total


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) exactly for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise DomainError(f"integer_root({n}, {k}) outside domain")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = max(1, int(n ** (1.0 / k)))
    while x > 1 and x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def totient(n: int) -> int:
    """Euler phi for n >= 1; 0 for n <= 0 (index weights vanish there)."""
    if n <= 0:
        return 0
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


def sigma(n: int) -> int:
    """Sum of divisors for n >= 1; 0 for n <= 0."""
    if n <= 0:
        return 0
    out = 1
    for p, e in factorize(n).factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def tau(n: int) -> int:
    """Number of divisors for n >= 1; 0 for n <= 0."""
    if n <= 0:
        return 0
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out
