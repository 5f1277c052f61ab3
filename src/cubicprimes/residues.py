"""Cubic residuacity and local solution counts.

Two independent classification routes for a prime p = 1 mod 3 live here:
the Euler power test a^((p-1)/3) mod p, and representability by one of the
binary quadratic forms u^2 + 27v^2 / 4u^2 + 2uv + 7v^2. gauss_classify runs
both on one prime, with a form search that finds a witness (u, v), and
refuses to return if they ever disagree; the residue command prints it. The
form-split check of the verify suite takes the form route for all primes up
to a bound at once, from one lattice sweep per form (series._lattice_row),
and is tested against gauss_classify.

The Euler test, and with it the root count rho_p of x^3 + k mod p, has two
forms: _rho_prime takes one prime with Python's pow and is the reference
route for every single-prime caller; _rho_primes takes an int64 array of
primes in square-and-multiply passes over chunks of it, for enumerate_dset,
singular_series, the form-split check and the rho check, and is tested
against _rho_prime.
_cube_roots finds the roots themselves over such an array, for the
count walk's progression sieve, and is tested against the scan roots_mod,
which stays the oracle behind rho_bruteforce. Both reduce k mod every
prime with one helper, _residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import factorize, is_prime
from .errors import ConsistencyError, DomainError, ResourceError

BRUTE_FORCE_BUDGET = 10**7  # largest modulus a linear root scan will accept


class CubicTag(Enum):
    RESIDUE = "Residue"
    NONRESIDUE = "Nonresidue"
    NOT_COPRIME = "NotCoprime"


@dataclass(frozen=True)
class CubicClass:
    """Outcome of a cubic residuacity test.

    exponent is only meaningful for p = 1 mod 3: it is m in
    a^((p-1)/3) = zeta^m with zeta the canonical primitive cube root of
    unity, so exponent 0 means residue and 1 or 2 pin down which coset of
    nonresidue. For p = 3 or p = 2 mod 3 every unit is a cube and the
    exponent stays None.
    """

    tag: CubicTag
    exponent: int | None = None

    def __post_init__(self):
        if self.exponent is not None:
            expected = CubicTag.RESIDUE if self.exponent == 0 else CubicTag.NONRESIDUE
            if self.tag is not expected:
                raise ConsistencyError(f"tag {self.tag} inconsistent with exponent {self.exponent}")


@dataclass(frozen=True)
class QuadraticForm:
    """Positive definite primitive binary form a*u^2 + b*uv + c*v^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise DomainError(f"form ({self.a},{self.b},{self.c}) is not positive definite")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise DomainError(f"form ({self.a},{self.b},{self.c}) is not primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v

    def ellipse_points(self, n: int):
        """Yield every integer (u, v) with form(u, v) = n, by increasing |v|.

        Per v, u is an integer root of a*u^2 + (b*v)*u + (c*v^2 - n), whose
        discriminant 4*a*n + D*v^2 depends on |v| only and is >= 0 up to
        the bound on |v|.
        """
        a, b, d = self.a, self.b, self.discriminant
        for av in range(math.isqrt(4 * a * n // -d) + 1):
            disc = 4 * a * n + d * av * av
            t = math.isqrt(disc)
            if t * t != disc:
                continue
            for v in (av, -av) if av else (0,):
                for s in (t, -t) if t else (0,):
                    if (s - b * v) % (2 * a) == 0:
                        yield (s - b * v) // (2 * a), v

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


# The two classes of discriminant -108 that split primes p = 1 mod 3 by the
# cubic residuacity of 2.
RESIDUE_FORM = QuadraticForm(1, 0, 27)
NONRESIDUE_FORM = QuadraticForm(4, 2, 7)


class Branch(Enum):
    THREE = "Three"
    TWO_MOD3 = "TwoMod3"
    RESIDUE_FORM = "ResidueForm"
    NONRESIDUE_FORM = "NonresidueForm"


@dataclass(frozen=True)
class PrimeClass:
    """A prime classified against the x^3 + 2 family: which local branch it
    sits on, and the form witness when p = 1 mod 3."""

    p: int
    branch: Branch
    witness: tuple[int, int] | None


def primitive_cube_root(p: int) -> int:
    """The canonical primitive cube root of unity mod p (p = 1 mod 3, prime):
    the smaller of the two elements of order 3, i.e. the least z in [2, p-1]
    with z^3 = 1."""
    if p % 3 != 1:
        raise DomainError(f"{p} is not 1 mod 3")
    e = (p - 1) // 3
    g = 2
    while True:
        z = pow(g, e, p)
        if z != 1:
            break
        g += 1
    return min(z, z * z % p)


def is_cube_mod(a: int, p: int) -> bool:
    """Euler's criterion: whether a is a nonzero cube mod p, for a prime
    p = 1 mod 3 (the caller checks p)."""
    return pow(a % p, (p - 1) // 3, p) == 1


def cubic_residue_euler(a: int, p: int) -> CubicClass:
    """Euler-criterion residuacity of a mod prime p.

    For p = 1 mod 3 the exponent field carries the character value; for
    p = 3 or p = 2 mod 3 the cube map is onto and every coprime a is a
    residue.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    a_mod = a % p
    if a_mod == 0:
        return CubicClass(CubicTag.NOT_COPRIME)
    if p % 3 != 1:
        return CubicClass(CubicTag.RESIDUE)
    t = pow(a_mod, (p - 1) // 3, p)
    if t == 1:
        return CubicClass(CubicTag.RESIDUE, 0)
    z = primitive_cube_root(p)
    if t == z:
        return CubicClass(CubicTag.NONRESIDUE, 1)
    if t == z * z % p:
        return CubicClass(CubicTag.NONRESIDUE, 2)
    raise ConsistencyError(f"a^((p-1)/3) mod {p} is not a cube root of unity")


def represent_by_form(form: QuadraticForm, n: int) -> tuple[int, int] | None:
    """The canonical representation (u, v) of n by the form, or None.

    Exhaustive search over the ellipse form(u, v) = n, by increasing |v|.
    Among all integer solutions the canonical one minimizes (|v|, |u|),
    breaking ties by preferring v >= 0 and then u >= 0.
    """
    if n < 1:
        raise DomainError(f"representation target {n} must be >= 1")
    found = []
    for u, v in form.ellipse_points(n):
        if found and abs(v) > abs(found[0][1]):
            break
        found.append((u, v))
    return min(found, key=lambda w: (abs(w[0]), w[1] < 0, w[0] < 0), default=None)


def gauss_classify(p: int) -> PrimeClass:
    """Classify prime p against the x^3 + 2 family.

    On the p = 1 mod 3 branch the form search decides residue/nonresidue
    and the Euler criterion on 2 is recomputed as a cross-check; any
    disagreement, or both/neither form representing p, raises
    ConsistencyError rather than returning a guess.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 3:
        return PrimeClass(p, Branch.THREE, None)
    if p % 3 == 2:
        return PrimeClass(p, Branch.TWO_MOD3, None)
    w_res = represent_by_form(RESIDUE_FORM, p)
    w_non = represent_by_form(NONRESIDUE_FORM, p)
    euler_says_residue = is_cube_mod(2, p)
    if (w_res is None) == (w_non is None):
        raise ConsistencyError(f"{p}: forms represent it {'both ways' if w_res else 'no way'}")
    if w_res is not None:
        if not euler_says_residue:
            raise ConsistencyError(f"{p}: u^2+27v^2 representation but Euler says nonresidue")
        return PrimeClass(p, Branch.RESIDUE_FORM, w_res)
    if euler_says_residue:
        raise ConsistencyError(f"{p}: 4u^2+2uv+7v^2 representation but Euler says residue")
    return PrimeClass(p, Branch.NONRESIDUE_FORM, w_non)


def _rho_prime(k: int, p: int) -> int:
    """Number of roots of x^3 + k = 0 mod a prime p (the caller checks p):
    1 when p | k (x^3 = 0 forces x = 0) or p != 1 mod 3 (the cube map is
    onto), else 3 or 0 by Euler's test on -k."""
    if k % p == 0 or p % 3 != 1:
        return 1
    return 3 if is_cube_mod(-k, p) else 0


_LIMB_BITS = 30  # a residue below p < 2^30 shifted by one limb stays below 2^61


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n mod each p of an int64 array of primes <= SIEVE_LIMIT_MAX, for a
    Python int n of any size and sign. |n| mod p is reduced by Horner's rule
    over its 30-bit limbs, so every intermediate stays below 2^61."""
    p = np.asarray(primes, dtype=np.int64)
    m, mask = abs(n), (1 << _LIMB_BITS) - 1
    a = np.zeros_like(p)
    for shift in range((m.bit_length() - 1) // _LIMB_BITS * _LIMB_BITS, -1, -_LIMB_BITS):
        a = ((a << _LIMB_BITS) + (m >> shift & mask)) % p
    return (p - a) % p if n < 0 else a


def _pow_mod(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise over int64 arrays, by square-and-multiply.
    Every product is of two residues below p <= 10^9, so p^2 < 2^63 keeps
    it exact."""
    power = np.ones_like(p)
    for bit in range(int(e.max(initial=0)).bit_length()):
        power = np.where(e & 1 << bit, power * base % p, power)
        base = base * base % p
    return power


_RHO_CHUNK = 1 << 15  # primes per pass: each int64 temporary is 256 KB


def _rho_primes(k: int, primes: np.ndarray) -> np.ndarray:
    """_rho_prime over an int64 array of primes <= SIEVE_LIMIT_MAX, as an
    int8 array: 1 where p | k or p != 1 mod 3, else 3 or 0 by Euler's test.

    The test is taken on |k|: -1 = (-1)^3 is a cube, so -k is a cube mod p
    iff |k| is. k may be any Python int (see _residues). The primes are
    taken _RHO_CHUNK at a time, so the residues and powers are never
    full-length int64 arrays.
    """
    p = np.asarray(primes, dtype=np.int64)
    rho = np.ones(p.shape, dtype=np.int8)
    for lo in range(0, p.size, _RHO_CHUNK):
        chunk = p[lo : lo + _RHO_CHUNK]
        a = _residues(abs(k), chunk)
        split = np.flatnonzero((chunk % 3 == 1) & (a != 0))
        q = chunk[split]
        rho[lo + split] = np.where(_pow_mod(a[split], (q - 1) // 3, q) == 1, 3, 0)
    return rho


def _cube_roots(k: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every root of x^3 + k mod each prime of an int64 array of primes
    <= SIEVE_LIMIT_MAX, as int64 arrays (i, x): x^3 + k = 0 mod primes[i].
    Each prime has _rho_primes(k, primes) roots; k may be any Python int.

    With a = -k mod p: the root is 0 where p | k, a where p = 2 or 3 (x^3 = x
    there), and a^((2p - 1)/3) where p = 2 mod 3, since 3(2p - 1)/3 = 1 mod
    p - 1. Where -k is a nonzero cube mod p = 1 mod 3, one root comes from
    the Adleman-Manders-Miller method (Adleman, Manders and Miller, "On
    taking roots in finite fields", 1977): with p - 1 = 3^s t, 3 not dividing
    t, and 3u = 1 mod t, x0 = a^u has x0^3 = a e, e = a^(3u - 1) in the
    3-Sylow subgroup, which g = c^t generates for a non-cube c. The base-3
    digits of e's discrete log to base g, read from the lowest up (the
    lowest is 0, since e is a cube there), build y with y^3 = 1/e, and
    x0 y is a root. The other two are x0 y z and x0 y z^2, for the cube
    root of unity z = c^((p - 1)/3).
    """
    p = np.asarray(primes, dtype=np.int64)
    a = _residues(-k, p)
    rho = _rho_primes(k, p)
    one = np.flatnonzero(rho == 1)
    q, x = p[one], a[one]
    odd = (q > 3) & (x != 0)  # p = 2 mod 3: invert the cube map
    x[odd] = _pow_mod(x[odd], (2 * q[odd] - 1) // 3, q[odd])

    three = np.flatnonzero(rho == 3)
    q, a = p[three], a[three]
    s, t = np.zeros_like(q), q - 1
    while (divisible := t % 3 == 0).any():
        s += divisible
        t = np.where(divisible, t // 3, t)
    u = np.where(t % 3 == 1, 2 * t + 1, t + 1) // 3
    x0 = _pow_mod(a, u, q)
    e = _pow_mod(a, 3 * u - 1, q)
    # the least non-cube c mod each prime, and z = c^((p - 1)/3) != 1
    c, z = np.zeros_like(q), np.ones_like(q)
    pending = np.arange(q.size)
    trial = 2
    while pending.size:
        w = _pow_mod(trial % q[pending], (q[pending] - 1) // 3, q[pending])
        found = w != 1
        c[pending[found]], z[pending[found]] = trial, w[found]
        pending = pending[~found]
        trial += 1
    z2 = z * z % q
    h = _pow_mod(c, q - 1 - t, q)  # g^-(3^(i - 1)) at digit i, g = c^t
    y = np.ones_like(q)
    top = int(s.max(initial=0))
    for i in range(1, top):
        # e, divided by g^(its lower digits), raised to 3^(s - 1 - i), is
        # z^digit; e is 1 once its s digits are read
        w = e
        for j in range(top - 1 - i):
            w = np.where(j < s - 1 - i, w * w % q * w % q, w)
        m = np.where(w == z, h, np.where(w == z2, h * h % q, 1))
        y = y * m % q
        e = e * (m * m % q * m % q) % q
        h = h * h % q * h % q
    x1 = x0 * y % q
    return (np.concatenate([one, three, three, three]),
            np.concatenate([x, x1, x1 * z % q, x1 * z2 % q]))


def rho(k: int, q: int) -> int:
    """Roots of x^3 + k mod squarefree q, multiplicatively over its primes."""
    if q < 1:
        raise DomainError(f"modulus {q} must be >= 1")
    fact = factorize(q)
    if not fact.is_squarefree:
        raise DomainError(f"{q} is not squarefree; use rho_bruteforce for general moduli")
    out = 1
    for p in fact.distinct_primes:
        out *= _rho_prime(k, p)
        if out == 0:
            break
    return out


def roots_mod(k: int, m: int) -> list[int]:
    """All roots of x^3 + k mod m by linear scan of [0, m). Moduli above the
    scan budget raise ResourceError.

    The scan reduces mod m after every multiply: m^3 overflows int64 once
    m > 2.1e6, well inside the budget.
    """
    if m < 1:
        raise DomainError(f"modulus {m} must be >= 1")
    if m > BRUTE_FORCE_BUDGET:
        raise ResourceError(f"modulus {m} exceeds scan budget {BRUTE_FORCE_BUDGET}")
    xs = np.arange(m, dtype=np.int64)
    acc = xs * xs % m * xs % m
    return np.flatnonzero(acc == -k % m).tolist()


def rho_bruteforce(k: int, q: int) -> int:
    """Root count of x^3 + k mod q by exhaustive scan; the independent
    oracle for rho and for solvable-modulus membership."""
    return len(roots_mod(k, q))
