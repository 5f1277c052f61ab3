"""Integer arithmetic underneath everything else: sieves (with the Mobius
function), the von Mangoldt function of one n by factorization,
deterministic 64-bit primality, factorization and exact integer roots.

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

    mu: np.ndarray
    primes: np.ndarray


@dataclass(frozen=True)
class Factorization:
    """A factorization as a sorted tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def sieve_range(limit: int) -> ArithTables:
    """The primes up to limit (primes_up_to) and the Mobius values for
    0..limit (_mobius); limit outside [2, SIEVE_LIMIT_MAX] raises
    CapacityError. mu takes 1 byte per entry (int8) and primes 8 bytes per
    prime (int64, about limit / ln(limit) of them). primes_up_to's flags,
    1 byte per odd number and so half a byte per entry, are freed before mu
    is allocated."""
    if limit < 2 or limit > SIEVE_LIMIT_MAX:
        raise CapacityError(f"sieve limit {limit} outside [2, {SIEVE_LIMIT_MAX}]")
    primes = primes_up_to(limit)
    return ArithTables(mu=_mobius(primes, limit), primes=primes)


def _mobius(primes: np.ndarray, limit: int) -> np.ndarray:
    """Mobius values for 0..limit as int8, given ascending primes that hold
    every prime up to limit (a larger one changes nothing): each odd prime
    flips the sign of its odd multiples and zeroes the odd multiples of its
    square, and the even entries are filled from the odd ones by
    mu(2m) = -mu(m) for odd m and mu(4m) = 0."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for at, _ in _multiples(primes[1:], limit, step=2):
        mu[at] *= -1
    n_small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[1:n_small].tolist():  # in either order, as 0 * -1 = 0
        mu[p * p :: 2 * p * p] = 0
    np.negative(mu[1 : (limit + 2) // 2 : 2], out=mu[2::4])
    mu[4::4] = 0
    return mu


def _multiples(ds: np.ndarray, limit: int, step: int = 1):
    """Every multiple m * d <= limit of the ascending ds >= 1 with multiplier
    m = 1, 1 + step, 1 + 2 * step, ..., once, as pairs (at, i): the
    positions at are multiples of ds[i]. step = 2 gives the odd multiples.

    A d up to isqrt(limit) has one strided slice, at = slice(d, None,
    step * d), with i its index. The larger d come one multiplier m at a
    time: at is m * d for every such d with m * d <= limit, and i the slice
    of ds that covers them. That is about 2 * sqrt(limit) / step steps. At
    m = 1 at is that part of ds itself; from the third multiplier on the
    products overwrite the last ones, so a caller must use each at before
    it draws the next pair, and no two product arrays are alive at once.
    """
    n_small = int(np.searchsorted(ds, math.isqrt(limit), side="right"))
    for i, d in enumerate(ds[:n_small].tolist()):
        yield slice(d, None, step * d), i
    big = ds[n_small : int(np.searchsorted(ds, limit, side="right"))]
    at, m = big, 1
    while big.size:
        yield at, slice(n_small, n_small + big.size)
        m += step
        big = big[: int(np.searchsorted(big, limit // m, side="right"))]
        at = np.multiply(big, m, out=at[: big.size] if m > 1 + step else None)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending primes <= limit as int64, by a sieve of Eratosthenes over
    the odd numbers only.

    flags[i] stands for 2i + 1, and flags[0] (for 1) is reused for 2, so
    the sieve takes 1 byte per odd number (limit / 2 bytes) and the result
    8 bytes per prime. The primes are formed in place in the one array
    flatnonzero returns.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > SIEVE_LIMIT_MAX:
        raise CapacityError(f"prime sieve limit {limit} above {SIEVE_LIMIT_MAX}")
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False  # odd multiples from p^2, 2p apart
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


# Strong-pseudoprime bases covering every n < 2^64; any composite in that
# range fails at least one of them.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for n <= U64_MAX (true answer, no error bound);
    larger n raise CapacityError, since no proof covers the bases there."""
    if n < 2:
        return False
    if n > U64_MAX:
        raise CapacityError(f"{n} exceeds the unsigned 64-bit primality budget")
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
_ROWS = 7  # uint64 scratch rows that one product takes


def _mulhi(a0, a1, b0, b1, t, u):
    """The high 64 bits of the 128-bit products a * b, from the 32-bit limbs
    a = a1 * 2^32 + a0 and b = b1 * 2^32 + b0, written over a1; a0, t and u
    are overwritten too. b0 is a0 and b1 is a1 for a square."""
    np.multiply(a0, b0, out=t)
    t >>= 32
    np.multiply(a1, b0, out=u)
    t += u  # mid = a1 b0 + (a0 b0 >> 32), below 2^64
    if b0 is not a0:
        np.multiply(a0, b1, out=u)  # a square holds a0 a1 there already
    np.bitwise_and(t, _LOW32, out=a0)
    u += a0
    u >>= 32
    t >>= 32
    a1 *= b1
    a1 += t
    a1 += u


class _Montgomery:
    """Exact arithmetic mod a batch of odd moduli n in uint64, in Montgomery
    form with R = 2^64: a residue x is held as x * R mod n. The limbs of n,
    1/n mod R and R mod n (the form of 1) are computed once per batch.
    Every operand is a reduced residue in [0, n).

    An op writes its result to out, which may be an operand, and allocates
    nothing: each step writes through ufunc out= into scratch, _ROWS uint64
    rows of at least n.size columns made once per batch. Contexts made from
    the same scratch (take() among them) share it, as no op keeps anything
    there between calls; out is never a scratch row. Conditional corrections
    add n times a 0/1 comparison: where= on a random mask ran over ten
    times slower than an unmasked op.
    """

    def __init__(self, n: np.ndarray, scratch: np.ndarray | None = None):
        self.n = n
        self.n0, self.n1 = n & _LOW32, n >> 32
        self.ninv = n.copy()  # Newton: n * n = 1 mod 8, and each step doubles the correct bits
        for _ in range(5):
            self.ninv *= 2 - n * self.ninv
        self.one = (0 - n) % n
        self.minus_one = n - self.one
        self.scratch = np.empty((_ROWS, n.size), dtype=np.uint64) if scratch is None else scratch
        self._rows = tuple(self.scratch[:, : n.size])

    def take(self, keep) -> _Montgomery:
        """The context for the moduli that keep selects, on the same scratch."""
        out = object.__new__(_Montgomery)
        for name in ("n", "n0", "n1", "ninv", "one", "minus_one"):
            setattr(out, name, getattr(self, name)[keep])
        out.scratch = self.scratch
        out._rows = tuple(self.scratch[:, : out.n.size])
        return out

    def mul(self, a, b, out) -> None:
        """a b / R mod n, the Montgomery product."""
        a0, a1, b0, b1, lo, t, u = self._rows
        np.bitwise_and(a, _LOW32, out=a0)
        np.right_shift(a, 32, out=a1)
        if b is a:
            b0, b1 = a0, a1
        else:
            np.bitwise_and(b, _LOW32, out=b0)
            np.right_shift(b, 32, out=b1)
        np.multiply(a, b, out=lo)
        _mulhi(a0, a1, b0, b1, t, u)
        self._redc(lo, a1, out)

    def sqr(self, a, out) -> None:
        self.mul(a, a, out)

    def _redc(self, lo, hi, out) -> None:
        """(hi * 2^64 + lo) / R mod n for a product of two residues.

        With m = lo / n mod R, m*n has low word lo, so the product minus
        m*n is (hi - hi(m*n)) * R exactly. Both high words are below n, so
        the difference lies in (-n, n) and at most one n is added back.
        """
        m0, _, _, _, _, t, u = self._rows
        lo *= self.ninv
        np.bitwise_and(lo, _LOW32, out=m0)
        lo >>= 32
        _mulhi(m0, lo, self.n0, self.n1, t, u)
        self._difference(hi, lo, out, m0)

    def _difference(self, a, b, out, borrow) -> None:
        """a - b mod n into out, for a, b in [0, n); borrow is scratch."""
        np.less(a, b, out=borrow)
        np.subtract(a, b, out=out)
        borrow *= self.n
        out += borrow

    def add(self, a, b, out) -> None:
        """a + b as a - (n - b), which cannot carry past 2^64."""
        c, borrow = self._rows[:2]
        np.subtract(self.n, b, out=c)
        self._difference(a, c, out, borrow)

    def sub(self, a, b, out) -> None:
        self._difference(a, b, out, self._rows[0])


def _two_adic(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, d) with m = d * 2^s and d odd, for nonzero even m in uint64;
    2^s, the lowest set bit, is exact as a float."""
    s = (np.frexp((m & (0 - m)).astype(np.float64))[1] - 1).astype(np.uint64)
    return s, m >> s


def _strong_base2(n: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Strong-probable-prime verdicts to base 2 for odd n > 2. The ladder
    for 2^d multiplies by 2 with a modular doubling, not a product: x is
    added to x times the bit of d, in place."""
    mont = _Montgomery(n, scratch)
    s, d = _two_adic(n - 1)
    x, twice = mont.one.copy(), np.empty_like(n)
    for bit in range(int(d.max()).bit_length() - 1, -1, -1):
        mont.sqr(x, x)
        np.right_shift(d, bit, out=twice)
        twice &= 1
        twice *= x
        mont.add(x, twice, x)
    passed = (x == mont.one) | (x == mont.minus_one)
    # x^(2^j) for j = 1 .. s - 1, on the values not yet decided
    live = np.flatnonzero(~passed & (s > 1))
    mont, x, s = mont.take(live), x[live], s[live]
    j = 1
    while live.size:
        mont.sqr(x, x)
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


def _is_power(n: np.ndarray, q: int) -> np.ndarray:
    """n == r^q for some integer r, for n in uint64 and q >= 2.

    r is the float q-th root of n, rounded. A true root is below 2^32 and
    the float root lies within 2^-19 of it, so rounding finds it with no
    correction step. Capped at integer_root(U64_MAX, q), r^q is exact in
    uint64. One float and one uint64 buffer are reused in place.
    """
    r = n.astype(np.float64)
    np.power(r, 1.0 / q, out=r)
    np.rint(r, out=r)
    np.minimum(r, integer_root(U64_MAX, q), out=r)
    root = r.astype(np.uint64)
    del r
    np.power(root, q, out=root)
    return root == n


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> np.ndarray:
    """1/b mod q for b = 0..q-1 (0 where gcd(b, q) > 1), as uint64."""
    return np.array([pow(b, -1, q) if math.gcd(b, q) == 1 else 0 for b in range(q)], np.uint64)


def _div_small(c: np.ndarray, n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """c / q mod n for c in [0, n), odd n and small signed q prime to n.
    With n = |q| a + b, c = |q| e + f and t = -f / b mod |q|, c + t n is a
    multiple of |q| below |q| n, so e + t a + (f + t b) / |q| is in [0, n)."""
    mag = np.abs(q)
    out = np.empty_like(n)
    for a in set(mag.tolist()):  # not np.unique: its first call adds 1.6 MB of RSS
        i = mag == a
        b, f = n[i] % a, c[i] % a
        t = (a - f) * _inverse_table(a)[b] % a
        out[i] = c[i] // a + t * (n[i] // a) + (f + t * b) // a
    return np.where(q < 0, (n - out) % n, out)


def _strong_lucas(n: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Strong Lucas probable-prime verdicts for odd n > 37 with no prime
    factor up to 37, with Selfridge's parameters P = 1, Q = (1 - D)/4.

    Squares are composite, and so is n when gcd(Q, n) > 1. Otherwise, with
    n + 1 = d * 2^s and d = 2m + 1, n passes when U_d = 0 or V_{d*2^r} = 0
    mod n for some 0 <= r < s.

    The roots a, b of x^2 - Px + Q give a/b and b/a with product 1 and
    sum P' = P^2/Q - 2, so V_2k = Q^k W_k with W_k = V_k(P', 1) (Crandall
    and Pomerance, Prime Numbers, 3.6). A ladder holds (W_k, W_{k+1}) in
    Montgomery form from (2, P') up the bits of m, at one square and one
    product a bit: a clear bit takes k to 2k, (W_k^2 - 2, W_k W_{k+1} - P'),
    and a set bit to 2k + 1, (W_k W_{k+1} - P', W_{k+1}^2 - 2). In place,
    the pair (w, w1) is kept in reverse order after a set bit, so each step
    squares w and multiplies the two into w1, and the pair is swapped where
    the bit differs from the one before (the bits of m ^ (m >> 1)). The
    tests below are symmetric in the pair, so its last order does not
    matter. Expanding,
    Q^(m+1) (W_{m+1} - W_m) = D U_d and Q^(m+1) (W_{m+1} + W_m) = P V_d.
    D is a unit as (D/n) = -1, and Q is one by the gcd, so
        U_d = 0 iff W_{m+1} = W_m,   V_d = 0 iff W_m + W_{m+1} = 0,
    and V_{d*2^r} = 0 iff W_{d*2^(r-1)} = 0 for 1 <= r < s, from
    W_d = W_m W_{m+1} - P' on by W -> W^2 - 2. A composite n stops the D
    search by |D| = p, its least prime factor, so |Q| <= (p + 1)/4 < p and
    Q is prime to n.
    """
    verdict = np.zeros(n.size, dtype=bool)
    idx = np.flatnonzero(~_is_power(n, 2))
    D = _selfridge(n[idx])
    Q = (1 - D) // 4
    # D = 0 (n shown composite) gives Q = 0, so gcd(Q, n) = n drops it too
    keep = np.gcd(n[idx], np.abs(Q).astype(np.uint64)) == 1
    idx, Q = idx[keep], Q[keep]
    if not idx.size:
        return verdict
    n = n[idx]
    mont = _Montgomery(n, scratch)
    two = np.empty_like(n)
    mont.add(mont.one, mont.one, two)
    p = _div_small(mont.one, n, Q)
    mont.sub(p, two, p)
    s, d = _two_adic(n + 1)  # n + 1 < 2^64: 2^64 - 1 is divisible by 3
    m = d >> 1
    flips = m ^ (m >> 1)
    w, w1, flip, step = two.copy(), p.copy(), np.empty_like(n), np.empty_like(n)
    for bit in range(int(m.max()).bit_length() - 1, -1, -1):
        # swap by the bit of flips: w += (w1 - w) flip and w1 -= it, mod 2^64
        np.right_shift(flips, bit, out=flip)
        flip &= 1
        np.subtract(w1, w, out=step)
        step *= flip
        w += step
        w1 -= step
        mont.mul(w, w1, w1)
        mont.sub(w1, p, w1)
        mont.sqr(w, w)
        mont.sub(w, two, w)
    mont.add(w, w1, step)
    passed = (w == w1) | (step == 0)
    # W_{d*2^(j-1)} for j = 1 .. s - 1, on the values not yet decided
    live = np.flatnonzero(~passed & (s > 1))
    mont, s, w, two = mont.take(live), s[live], w[live], two[live]
    mont.mul(w, w1[live], w)
    mont.sub(w, p[live], w)
    j = 1
    while live.size:
        hit = w == 0
        passed[live[hit]] = True
        j += 1
        keep = ~hit & (s > j)
        live, w, s, two, mont = live[keep], w[keep], s[keep], two[keep], mont.take(keep)
        mont.sqr(w, w)
        mont.sub(w, two, w)
    verdict[idx] = passed
    return verdict


def _is_prime_odd_batch(n: np.ndarray) -> np.ndarray:
    """Baillie-PSW verdicts for odd n > 37 with no prime factor up to 37
    in uint64: a strong base-2 test, then a strong Lucas test on the
    values that pass it. No composite below 2^64 passes both. The Lucas
    test runs on V_k(P^2/Q - 2, 1), as V_2k = Q^k V_k(P^2/Q - 2, 1)."""
    scratch = np.empty((_ROWS, n.size), dtype=np.uint64)  # for both stages
    verdict = _strong_base2(n, scratch)
    idx = np.flatnonzero(verdict)
    verdict[idx] = _strong_lucas(n[idx], scratch)
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
    prime and needs no test. A factor above U64_MAX that is left to test
    raises CapacityError from is_prime."""
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
    return Factorization(tuple(sorted(found.items())))


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


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) exactly for every int n >= 0 and k >= 1.

    n itself is never converted to a float. With n = m * 2^s, m its top 64
    bits and s = q*k + t, the root is m^(1/k) * 2^(t/k) * 2^q. The float
    factor is within 2^-46 of the truth; raised by 2^(2^-39) and scaled by
    integer shifts, it gives a start y on or above the root. Integer Newton
    steps y -> ((k-1) y + n // y^(k-1)) // k from above the root decrease
    strictly without passing below it, and stop at the first y with
    y^k <= n.
    """
    if n < 0 or k < 1:
        raise DomainError(f"integer_root({n}, {k}) outside domain")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    s = n.bit_length() - 64
    if s < 0:
        s = 0
    q, t = divmod(s, k)
    upper = (n >> s) ** (1.0 / k) * 2.0 ** (t / k + 2.0**-39)
    y = int(upper * 2.0**53) << q >> 53
    while y**k > n:
        y = ((k - 1) * y + n // y ** (k - 1)) // k
    return y


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
