"""Integer arithmetic underneath everything else: sieves, the Mobius and
von Mangoldt functions, deterministic 64-bit primality, factorization
and exact integer roots.

Values handled here are plain Python ints, which never overflow;
the 64-bit guards below are input budgets, not wraparound protection.
The one exception is is_prime_batch, which takes uint64 arrays and does
exact Montgomery arithmetic mod n on 32-bit limbs. It certifies by the
Baillie-PSW test (a strong base-2 test and a strong Lucas test with
Selfridge's parameters; Baillie and Wagstaff, Lucas pseudoprimes, Math.
Comp. 1980). Scalar is_prime keeps the 7 Miller-Rabin bases and is the
reference route, so the two agree by different algorithms: Feitsma and
Galway's enumeration of the base-2 pseudoprimes below 2^64 shows that
none of them passes the Lucas test (Baillie, Fiori and Wagstaff,
Strengthening the Baillie-PSW primality test, Math. Comp. 2021).
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


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of the 128-bit products a * b, from the 32-bit limbs
    a = a1 * 2^32 + a0 and b = b1 * 2^32 + b0."""
    mid = a1 * b0 + ((a0 * b0) >> 32)
    return a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & _LOW32)) >> 32)


class _Montgomery:
    """Exact arithmetic mod a batch of odd moduli n in uint64, in Montgomery
    form with R = 2^64: a residue x is held as x * R mod n. The limbs of n,
    1/n mod R and R mod n (the form of 1) are computed once per batch.
    Every operand is a reduced residue in [0, n)."""

    def __init__(self, n: np.ndarray):
        self.n = n
        self.n0, self.n1 = n & _LOW32, n >> 32
        self.ninv = n.copy()  # Newton: n * n = 1 mod 8, and each step doubles the correct bits
        for _ in range(5):
            self.ninv *= 2 - n * self.ninv
        self.one = (0 - n) % n
        self.minus_one = n - self.one
        self.half_n = (n >> 1) + 1  # x / 2 mod n is (x >> 1) + (n + 1) / 2 for odd x

    def _redc(self, lo, hi):
        """(hi * 2^64 + lo) / R mod n for a product of two residues.

        With m = lo / n mod R, m*n has low word lo, so the product minus
        m*n is (hi - hi(m*n)) * R exactly. Both high words are below n, so
        the difference lies in (-n, n) and at most one n is added back.
        """
        m = lo * self.ninv
        mn = _mulhi(m & _LOW32, m >> 32, self.n0, self.n1)
        r = hi - mn
        return np.where(hi < mn, r + self.n, r)

    def take(self, keep) -> _Montgomery:
        """The context for the moduli that keep selects."""
        out = object.__new__(_Montgomery)
        out.__dict__.update((name, t[keep]) for name, t in vars(self).items())
        return out

    def mul(self, a, b):
        return self._redc(a * b, _mulhi(a & _LOW32, a >> 32, b & _LOW32, b >> 32))

    def sqr(self, a):
        a0, a1 = a & _LOW32, a >> 32
        cross = a0 * a1
        mid = cross + ((a0 * a0) >> 32)
        return self._redc(a * a, a1 * a1 + (mid >> 32) + ((cross + (mid & _LOW32)) >> 32))

    def add(self, a, b):
        s = a + b
        return np.where((s < a) | (s >= self.n), s - self.n, s)

    def sub(self, a, b):
        r = a - b
        return np.where(a < b, r + self.n, r)

    def half(self, a):
        return (a >> 1) + (a & 1) * self.half_n

    def small(self, c: np.ndarray) -> np.ndarray:
        """The form of small signed integers c, 0 < |c| < n, by doubling
        and adding R mod n over the bits of |c|."""
        mag = np.abs(c).astype(np.uint64)
        x = np.zeros_like(self.n)
        for bit in range(int(mag.max()).bit_length() - 1, -1, -1):
            x = self.add(x, x)
            x = np.where((mag >> bit) & 1 == 1, self.add(x, self.one), x)
        return np.where(c < 0, self.n - x, x)


def _two_adic(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, d) with m = d * 2^s and d odd, for nonzero even m in uint64;
    2^s, the lowest set bit, is exact as a float."""
    s = (np.frexp((m & (0 - m)).astype(np.float64))[1] - 1).astype(np.uint64)
    return s, m >> s


def _strong_base2(n: np.ndarray) -> np.ndarray:
    """Strong-probable-prime verdicts to base 2 for odd n > 2. The ladder
    for 2^d multiplies by 2 with a modular doubling, not a product."""
    mont = _Montgomery(n)
    s, d = _two_adic(n - 1)
    x = mont.one
    for bit in range(int(d.max()).bit_length() - 1, -1, -1):
        x = mont.sqr(x)
        x = np.where((d >> bit) & 1 == 1, mont.add(x, x), x)
    passed = (x == mont.one) | (x == mont.minus_one)
    # x^(2^j) for j = 1 .. s - 1, on the values not yet decided
    live = np.flatnonzero(~passed & (s > 1))
    mont, x, s = mont.take(live), x[live], s[live]
    j = 1
    while live.size:
        x = mont.sqr(x)
        hit = x == mont.minus_one
        passed[live[hit]] = True
        j += 1
        keep = ~hit & (s > j)
        live, x, s, mont = live[keep], x[keep], s[keep], mont.take(keep)
    return passed


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m > 0."""
    a %= m
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


@lru_cache(maxsize=None)
def _jacobi_table(m: int) -> np.ndarray:
    """(r/m) for r = 0..m-1, as int8."""
    return np.array([_jacobi(r, m) for r in range(m)], dtype=np.int8)


def _selfridge(n: np.ndarray) -> np.ndarray:
    """Selfridge's method A on odd non-square n > 1: the first D in 5, -7,
    9, -11, 13, ... with Jacobi symbol (D/n) = -1, or 0 where a (D/n) = 0
    with |D| < n comes first and shows n composite.

    Every D of the sequence is 1 mod 4, so by reciprocity (D/n) = (n/|D|),
    read from a table of residues mod |D|. A square n has no such D, and
    the search would not end on one.
    """
    out = np.zeros(n.size, dtype=np.int64)
    pending = np.arange(n.size)
    for a in count(5, 2):
        if not pending.size:
            return out
        j = _jacobi_table(a)[n[pending] % np.uint64(a)]
        out[pending[j == -1]] = a if a % 4 == 1 else -a
        pending = pending[(j == 1) | ((j == 0) & (n[pending] <= a))]


def _is_square(n: np.ndarray) -> np.ndarray:
    """n == r^2 for some integer r, for n in uint64: the float square root
    is off by at most 1 and is corrected exactly."""
    r = np.minimum(np.sqrt(n.astype(np.float64)).astype(np.uint64), _LOW32)
    r -= r * r > n
    r += (r < _LOW32) & ((r + 1) * (r + 1) <= n)
    return r * r == n


def _strong_lucas(n: np.ndarray) -> np.ndarray:
    """Strong Lucas probable-prime verdicts for odd n > 37 with no prime
    factor up to 37, with Selfridge's parameters P = 1, Q = (1 - D)/4.

    Squares are composite. Otherwise, with n + 1 = d * 2^s and d odd, n
    passes when U_d = 0 or V_{d*2^r} = 0 mod n for some 0 <= r < s. U_k, V_k
    and Q^k run up the bits of d in Montgomery form: from k to 2k by
    U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, and from k to k + 1 by
    U = (U_k + V_k)/2, V = (D U_k + V_k)/2.
    """
    verdict = np.zeros(n.size, dtype=bool)
    idx = np.flatnonzero(~_is_square(n))
    D = _selfridge(n[idx])
    idx, D = idx[D != 0], D[D != 0]
    if not idx.size:
        return verdict
    n = n[idx]
    mont = _Montgomery(n)
    dm, qm = mont.small(D), mont.small((1 - D) // 4)
    s, d = _two_adic(n + 1)  # n + 1 < 2^64: 2^64 - 1 is divisible by 3
    u, v, qk = np.zeros_like(n), mont.add(mont.one, mont.one), mont.one
    for bit in range(int(d.max()).bit_length() - 1, -1, -1):
        u = mont.mul(u, v)
        v = mont.sub(mont.sqr(v), mont.add(qk, qk))
        qk = mont.sqr(qk)
        up = (d >> bit) & 1 == 1
        u, v = (np.where(up, mont.half(mont.add(u, v)), u),
                np.where(up, mont.half(mont.add(mont.mul(dm, u), v)), v))
        qk = np.where(up, mont.mul(qk, qm), qk)
    passed = (u == 0) | (v == 0)
    # V_{d*2^j} for j = 1 .. s - 1, on the values not yet decided
    live = np.flatnonzero(~passed & (s > 1))
    mont, v, qk, s = mont.take(live), v[live], qk[live], s[live]
    j = 1
    while live.size:
        v = mont.sub(mont.sqr(v), mont.add(qk, qk))
        qk = mont.sqr(qk)
        hit = v == 0
        passed[live[hit]] = True
        j += 1
        keep = ~hit & (s > j)
        live, v, qk, s, mont = live[keep], v[keep], qk[keep], s[keep], mont.take(keep)
    verdict[idx] = passed
    return verdict


def _is_prime_odd_batch(n: np.ndarray) -> np.ndarray:
    """Baillie-PSW verdicts for odd n > 37 with no prime factor up to 37
    in uint64: a strong base-2 test, then a strong Lucas test on the
    values that pass it. No composite below 2^64 passes both."""
    verdict = _strong_base2(n)
    idx = np.flatnonzero(verdict)
    verdict[idx] = _strong_lucas(n[idx])
    return verdict


def is_prime_batch(values: np.ndarray) -> np.ndarray:
    """is_prime on every entry of a uint64 array, as a bool array: the
    same small-prime rule (v == p is prime, p | v composite), then the
    Baillie-PSW test (strong base 2, then strong Lucas) in exact 64-bit
    Montgomery arithmetic on 32-bit limbs. Baillie-PSW has no pseudoprime
    below 2^64, so the verdicts equal those of is_prime's 7 Miller-Rabin
    bases, reached by a different algorithm."""
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
    of every final factor. A cofactor m that trial division leaves with
    p * p > m for the next prime p has no smaller factor, so it is 1 or
    prime and needs no test."""
    if n < 1:
        raise DomainError(f"cannot factor {n}; argument must be >= 1")
    m = n
    found: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            if m > 1:
                found[m] = 1
            m = 1
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
